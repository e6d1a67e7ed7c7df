//! Max–min fair flow-level network model.
//!
//! A *flow* is a bulk data transfer that consumes capacity on a set of
//! *resources* (NIC transmit/receive sides, intra-node memory channels,
//! fabric links, …) and is additionally limited by a per-flow rate cap (the
//! "single stream" bandwidth — the reason one MPI process cannot saturate a
//! NIC, which is the root motivation of the paper, §V-A / Fig. 3).
//!
//! Rates are assigned by progressive filling (max–min fairness): repeatedly
//! find the most-constrained bottleneck — either a resource whose fair share
//! is smallest or a flow whose own cap is below every share — fix the
//! affected flows at that rate, remove the consumed capacity, and continue.
//!
//! The allocator is deterministic: flows are iterated in `FlowId` order and
//! resources in index order, so equal inputs always produce equal rates.
//!
//! # Lazy settlement
//!
//! The model is designed for simulations with tens of thousands of mostly
//! independent flows, so nothing is done eagerly per time step:
//!
//! * [`FlowNet::progress`] is O(1): it only advances the model's clock.
//!   Remaining-byte counters are *settled* on demand (when a flow's rate
//!   changes, when it is removed, or when [`FlowNet::settle_all`] is called
//!   before reading statistics).
//! * [`FlowNet::add`] takes a fast path when every resource the new flow
//!   touches has spare capacity for the full per-flow cap: the flow simply
//!   runs at its cap and no other rate changes. Likewise [`FlowNet::remove`]
//!   skips recomputation when none of the flow's resources is saturated
//!   (removing a flow from an unsaturated resource cannot raise anyone
//!   else's max–min rate). Only contended events trigger a full progressive
//!   filling pass.
//! * Rate changes are recorded in a dirty set the caller drains with
//!   [`FlowNet::take_rate_changes`] to re-key completion events, instead of
//!   re-deriving every flow's ETA after every change.
//!
//! Per-resource busy/overlap integrals are maintained incrementally from
//! activity transition counts, so they are exact (not sampled) while still
//! being O(changes), not O(flows · steps).
//!
//! # Layout
//!
//! Contended recomputes are the simulator's hot loop (a burst of N_DUP
//! overlapping collectives triggers one per flow event), so no step of one
//! hashes, walks a tree or allocates:
//!
//! * Flows live in a dense table indexed by `id - base`. Ids are monotonic
//!   and never reused, so new flows append at the back and the window's
//!   front advances past retired ids; memory is bounded by the span of live
//!   ids.
//! * Each resource lists its attached flows in an unordered `Vec`
//!   (removal finds the id by a linear scan and `swap_remove`s it).
//! * The component walk, the flattened per-flow resource slots and the
//!   filling state use buffers owned by the [`FlowNet`]; resources and
//!   flows are stamped with a per-recompute epoch instead of a fresh
//!   `seen` vector or set.
//!
//! Only the traversal order of the component walk depends on the unordered
//! attachment lists, and its result is sorted (flows by id, resources by
//! index) before any arithmetic. Every floating-point operation therefore
//! runs on the same operands in the same order as a pass over ordered maps
//! would: settlement and `rate_sum` re-summing in `FlowId` order, the
//! bottleneck share over resources in index order, the in-round pin checks
//! and capacity subtractions in `FlowId` order. Rates, virtual times and
//! statistics are bit-identical to that formulation by construction.

use std::collections::VecDeque;

/// Identifies a capacity-constrained resource (e.g. one NIC direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

/// What a resource models, for utilization accounting. Purely a label: the
/// allocator treats all resources identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Transmit side of the NIC of node `node`.
    NicTx(u32),
    /// Receive side of the NIC of node `node`.
    NicRx(u32),
    /// Intra-node memory channel of node `node`.
    Mem(u32),
    /// Per-rank CPU resource (e.g. the reduction-compute stream of `rank`).
    Cpu(u32),
    /// A fabric link (leaf uplink, spine trunk, dragonfly local/global
    /// connection, …). The payload is an opaque link index assigned by the
    /// topology builder.
    Link(u32),
    /// Unlabeled resource.
    Other,
}

impl ResourceKind {
    /// True for either direction of a NIC.
    pub fn is_nic(&self) -> bool {
        matches!(self, ResourceKind::NicTx(_) | ResourceKind::NicRx(_))
    }

    /// Stable display label, e.g. `"nic_tx/3"`.
    pub fn label(&self) -> String {
        match self {
            ResourceKind::NicTx(n) => format!("nic_tx/{n}"),
            ResourceKind::NicRx(n) => format!("nic_rx/{n}"),
            ResourceKind::Mem(n) => format!("mem/{n}"),
            ResourceKind::Cpu(r) => format!("cpu/{r}"),
            ResourceKind::Link(l) => format!("link/{l}"),
            ResourceKind::Other => "other".to_string(),
        }
    }
}

/// Utilization accounting for one resource, integrated over virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceStats {
    /// Seconds during which at least one flow was actively moving bytes
    /// through this resource.
    pub busy_secs: f64,
    /// Seconds during which at least two flows were concurrently moving
    /// bytes through this resource — the paper's "overlapped communication"
    /// condition.
    pub overlap2_secs: f64,
    /// Total bytes carried through this resource.
    pub bytes: f64,
    /// High-water mark of concurrently attached flows.
    pub max_concurrent: u32,
}

/// Work counters of the contended-recompute path, summed over the
/// network's lifetime. Host-side bookkeeping only: they never feed back
/// into rates and are not part of any simulation output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Progressive-filling passes run (contended adds and removes).
    pub recomputes: u64,
    /// Flows in the recomputed components, summed over passes.
    pub component_flows: u64,
    /// Resources in the recomputed components, summed over passes.
    pub component_resources: u64,
    /// Filling rounds (bottleneck levels fixed), summed over passes.
    pub filling_rounds: u64,
}

/// Identifies an active flow. Ids are assigned monotonically and never
/// reused, so `FlowId` order is creation order — part of the determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Description of a new flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources this flow consumes capacity on (typically source NIC tx and
    /// destination NIC rx, plus any fabric links on the route, or a node
    /// memory channel for intra-node flows). Duplicates are allowed and are
    /// counted once.
    pub resources: Vec<ResourceId>,
    /// Per-flow rate cap in bytes/second (single-stream bandwidth).
    pub cap: f64,
    /// Bytes to transfer.
    pub bytes: f64,
}

#[derive(Debug)]
struct Flow {
    /// Sorted, deduplicated.
    resources: Vec<ResourceId>,
    cap: f64,
    /// Bytes still to transfer as of `settled_at`.
    remaining: f64,
    /// Current max–min fair rate in bytes/second.
    rate: f64,
    /// Model time this flow's `remaining` was last brought up to date.
    settled_at: f64,
    /// Whether this flow currently counts toward its resources' busy /
    /// overlap integrals (rate > 0 and bytes remaining).
    active: bool,
    /// The `Scratch::epoch` of the last component walk that collected it.
    seen: u64,
}

#[derive(Debug)]
struct Res {
    capacity: f64,
    kind: ResourceKind,
    stats: ResourceStats,
    /// Flows currently attached (active or not).
    nflows: u32,
    /// Sum of attached flows' current rates.
    rate_sum: f64,
    /// Attached flows currently moving bytes.
    active: u32,
    /// Model time the busy/overlap integrals were last brought up to date.
    integrated_at: f64,
    /// Ids of the attached flows, unordered. Used to walk the
    /// flow↔resource sharing graph so contended recomputation can stay
    /// scoped to one connected component; the walk's result is sorted
    /// before use, so this order never reaches the arithmetic.
    attached: Vec<FlowId>,
}

/// Live flows indexed by id: slot `i` holds flow `base + i`, or `None` once
/// that flow is removed. `base + slots.len()` is the next id to assign.
#[derive(Debug, Default)]
struct FlowTable {
    base: u64,
    slots: VecDeque<Option<Flow>>,
    live: usize,
}

impl FlowTable {
    fn next_id(&self) -> FlowId {
        FlowId(self.base + self.slots.len() as u64)
    }

    fn index(&self, id: FlowId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.base)?).ok()
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Store a flow under [`FlowTable::next_id`].
    fn push(&mut self, f: Flow) {
        self.slots.push_back(Some(f));
        self.live += 1;
    }

    fn take(&mut self, id: FlowId) -> Option<Flow> {
        let i = self.index(id)?;
        let f = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(f)
    }

    /// Live flows in id order.
    fn iter(&self) -> impl Iterator<Item = (FlowId, &Flow)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| Some((FlowId(base + i as u64), f.as_ref()?)))
    }
}

/// Buffers reused by every contended recompute, so a pass allocates
/// nothing once they have grown to the largest component seen.
#[derive(Debug, Default)]
struct Scratch {
    /// Per resource: the `epoch` of the last pass that reached it (flows
    /// carry the same stamp in `Flow::seen`).
    mark: Vec<u64>,
    /// Per resource: its index in `touched`, valid while `mark == epoch`.
    slot_of: Vec<u32>,
    epoch: u64,
    /// Resources reached but not yet expanded by the component walk.
    stack: Vec<usize>,
    /// The component's resources, sorted once the walk ends.
    touched: Vec<usize>,
    /// The component's flows, sorted once the walk ends.
    comp: Vec<FlowId>,
    /// Per component flow `k` (in `comp` order): its cap, and the
    /// `touched` slots of its resources, which are
    /// `flow_slots[flow_start[k]..flow_start[k + 1]]`.
    flow_cap: Vec<f64>,
    flow_start: Vec<usize>,
    flow_slots: Vec<u32>,
    /// Per slot: capacity not yet handed out, and unfixed flows crossing it.
    rem_cap: Vec<f64>,
    count: Vec<usize>,
    /// Component flows (as `k`) still unfixed, in `FlowId` order.
    unfixed: Vec<usize>,
    still: Vec<usize>,
    /// `(k, rate)` in the order flows were fixed.
    assigned: Vec<(usize, f64)>,
}

impl Scratch {
    /// Start a new pass from `seeds`: forget every mark and the previous
    /// component, then queue the seeds for the component walk.
    fn begin(&mut self, seeds: &[ResourceId]) {
        self.epoch += 1;
        self.stack.clear();
        self.touched.clear();
        self.comp.clear();
        for &r in seeds {
            self.reach(r);
        }
    }

    /// Queue a resource for the component walk unless already reached.
    fn reach(&mut self, r: ResourceId) {
        let r = r.0 as usize;
        if self.mark[r] != self.epoch {
            self.mark[r] = self.epoch;
            self.stack.push(r);
        }
    }
}

/// The set of active flows plus the fixed resource capacities.
///
/// `FlowNet` keeps its own clock, advanced by the caller (the engine) via
/// [`FlowNet::progress`]; all per-flow byte accounting is lazy against that
/// clock (see the module docs).
#[derive(Debug, Default)]
pub struct FlowNet {
    res: Vec<Res>,
    flows: FlowTable,
    now: f64,
    /// Flows whose rate changed since the last `take_rate_changes`. May
    /// contain duplicates and ids that have since completed.
    dirty: Vec<FlowId>,
    scratch: Scratch,
    counters: SolverCounters,
}

/// Relative tolerance when deciding whether a resource has room for one more
/// cap-rate flow (fast-path add) or is saturated (slow-path remove). Much
/// larger than the ~1e-13 relative drift incremental `rate_sum` updates can
/// accumulate, and much smaller than any physically meaningful share.
const SAT_EPS: f64 = 1e-9;

/// Bring one flow's `remaining` up to `now`, crediting moved bytes to its
/// resources. Free function so callers can split borrows of the flow table
/// and the resource table.
fn settle_flow(res: &mut [Res], f: &mut Flow, now: f64) {
    let dt = now - f.settled_at;
    if dt > 0.0 {
        let moved = (f.rate * dt).min(f.remaining);
        if moved > 0.0 {
            for r in &f.resources {
                res[r.0 as usize].stats.bytes += moved;
            }
        }
        f.remaining -= moved;
    }
    f.settled_at = now;
}

/// Bring one resource's busy/overlap integrals up to `now` at its current
/// activity level. Must be called *before* the activity count changes.
fn integrate_res(r: &mut Res, now: f64) {
    let dt = now - r.integrated_at;
    if dt > 0.0 {
        if r.active >= 1 {
            r.stats.busy_secs += dt;
        }
        if r.active >= 2 {
            r.stats.overlap2_secs += dt;
        }
    }
    r.integrated_at = now;
}

impl FlowNet {
    /// Create an empty network with no resources.
    pub fn new() -> FlowNet {
        FlowNet::default()
    }

    /// Register a resource with the given capacity (bytes/second) and return
    /// its id. Capacities are fixed for the lifetime of the network.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        self.add_resource_kind(capacity, ResourceKind::Other)
    }

    /// Register a resource labeled with what it models (NIC side, memory
    /// channel, CPU, fabric link). The label only affects utilization
    /// reporting.
    pub fn add_resource_kind(&mut self, capacity: f64, kind: ResourceKind) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        let id = ResourceId(self.res.len() as u32);
        self.res.push(Res {
            capacity,
            kind,
            stats: ResourceStats::default(),
            nflows: 0,
            rate_sum: 0.0,
            active: 0,
            integrated_at: self.now,
            attached: Vec::new(),
        });
        self.scratch.mark.push(0);
        self.scratch.slot_of.push(0);
        id
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.res.len()
    }

    /// Number of active flows.
    pub fn num_flows(&self) -> usize {
        self.flows.live
    }

    /// Work done by contended recomputes so far (see [`SolverCounters`]).
    pub fn solver_counters(&self) -> SolverCounters {
        self.counters
    }

    /// Add a flow and assign its rate (recomputing other flows' rates only
    /// if the new flow contends with them). Returns the new flow's id.
    ///
    /// A zero-byte flow is legal; it will report an ETA of zero.
    pub fn add(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.cap.is_finite() && spec.cap > 0.0,
            "flow cap must be positive and finite, got {}",
            spec.cap
        );
        assert!(
            spec.bytes.is_finite() && spec.bytes >= 0.0,
            "flow size must be non-negative, got {}",
            spec.bytes
        );
        let mut resources = spec.resources;
        resources.sort_unstable();
        resources.dedup();
        for r in &resources {
            assert!((r.0 as usize) < self.res.len(), "unknown resource {r:?}");
        }
        let id = self.flows.next_id();
        let now = self.now;

        // Fast path: every touched resource has room for a full cap-rate
        // flow, so the new flow runs at its cap and nobody else changes.
        let fits = resources.iter().all(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum + spec.cap <= res.capacity * (1.0 + SAT_EPS)
        });

        let mut flow = Flow {
            resources,
            cap: spec.cap,
            remaining: spec.bytes,
            rate: 0.0,
            settled_at: now,
            active: false,
            seen: 0,
        };
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows += 1;
            res.stats.max_concurrent = res.stats.max_concurrent.max(res.nflows);
            res.attached.push(id);
        }
        if fits {
            flow.rate = spec.cap;
            flow.active = flow.remaining > 0.0;
            for r in &flow.resources {
                let res = &mut self.res[r.0 as usize];
                res.rate_sum += spec.cap;
                if flow.active {
                    integrate_res(res, now);
                    res.active += 1;
                }
            }
            self.dirty.push(id);
            self.flows.push(flow);
        } else {
            self.scratch.begin(&flow.resources);
            self.flows.push(flow);
            self.recompute_component();
        }
        id
    }

    /// Remove a flow (complete or cancelled), recomputing other flows' rates
    /// only if the removed flow was crossing a saturated resource. Returns
    /// the bytes it still had outstanding.
    // Removing an id the table does not hold is caller-side corruption.
    #[allow(clippy::expect_used)]
    pub fn remove(&mut self, id: FlowId) -> f64 {
        let now = self.now;
        let mut flow = self.flows.take(id).expect("removing unknown flow");
        settle_flow(&mut self.res, &mut flow, now);
        // If none of the flow's resources is saturated, no other flow is
        // bottlenecked there, so removing this flow cannot raise anyone's
        // max–min rate: detach incrementally and skip the global pass.
        let saturated = flow.resources.iter().any(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum >= res.capacity * (1.0 - SAT_EPS)
        });
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows -= 1;
            res.rate_sum -= flow.rate;
            if flow.active {
                integrate_res(res, now);
                res.active -= 1;
            }
            if let Some(i) = res.attached.iter().position(|&a| a == id) {
                res.attached.swap_remove(i);
            }
        }
        if saturated {
            self.scratch.begin(&flow.resources);
            self.recompute_component();
        }
        flow.remaining
    }

    /// Advance the model clock by `dt_secs`. O(1): remaining-byte counters
    /// and utilization integrals are settled lazily (see the module docs).
    pub fn progress(&mut self, dt_secs: f64) {
        debug_assert!(dt_secs >= 0.0);
        self.now += dt_secs;
    }

    /// Settle every flow's remaining-byte counter and every resource's
    /// utilization integrals up to the current model time. Call before
    /// reading [`FlowNet::resource_stats`]-style aggregates for a snapshot
    /// that includes the interval since the last rate change.
    pub fn settle_all(&mut self) {
        let now = self.now;
        for f in self.flows.slots.iter_mut().flatten() {
            settle_flow(&mut self.res, f, now);
        }
        for r in &mut self.res {
            integrate_res(r, now);
        }
    }

    /// Drain the set of flows whose rate changed since the last call,
    /// deduplicated, in id order, restricted to flows still present. The
    /// caller uses this to re-key completion events after an add/remove.
    pub fn take_rate_changes(&mut self) -> Vec<FlowId> {
        let mut d = std::mem::take(&mut self.dirty);
        d.sort_unstable();
        d.dedup();
        d.retain(|&id| self.flows.get(id).is_some());
        d
    }

    // Asking about an id the table does not hold is caller-side corruption.
    #[allow(clippy::expect_used)]
    fn flow(&self, id: FlowId) -> &Flow {
        self.flows.get(id).expect("unknown flow")
    }

    /// Current rate of a flow in bytes/second.
    pub fn rate(&self, id: FlowId) -> f64 {
        self.flow(id).rate
    }

    /// Bytes outstanding as of the current model time.
    pub fn remaining(&self, id: FlowId) -> f64 {
        let f = self.flow(id);
        let dt = (self.now - f.settled_at).max(0.0);
        (f.remaining - f.rate * dt).max(0.0)
    }

    /// Seconds from now until the flow finishes at its current rate
    /// (`f64::INFINITY` if its rate is zero and bytes remain; zero-byte
    /// flows finish immediately).
    pub fn eta_secs(&self, id: FlowId) -> f64 {
        let rem = self.remaining(id);
        let rate = self.flow(id).rate;
        if rem <= 0.0 {
            0.0
        } else if rate <= 0.0 {
            f64::INFINITY
        } else {
            rem / rate
        }
    }

    /// Iterate over active flow ids in creation order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.iter().map(|(id, _)| id)
    }

    /// The kind label a resource was registered with.
    pub fn resource_kind(&self, id: ResourceId) -> ResourceKind {
        self.res[id.0 as usize].kind
    }

    /// The fixed capacity a resource was registered with (bytes/second).
    pub fn resource_capacity(&self, id: ResourceId) -> f64 {
        self.res[id.0 as usize].capacity
    }

    /// Accumulated utilization of one resource, settled up to the current
    /// model time.
    pub fn resource_stats(&mut self, id: ResourceId) -> ResourceStats {
        self.settle_all();
        self.res[id.0 as usize].stats
    }

    /// Iterate `(id, kind, capacity, stats)` over all registered resources.
    /// Stats reflect the last settlement point; call
    /// [`FlowNet::settle_all`] first for an up-to-the-instant snapshot.
    pub fn resources(
        &self,
    ) -> impl Iterator<Item = (ResourceId, ResourceKind, f64, ResourceStats)> + '_ {
        self.res
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId(i as u32), r.kind, r.capacity, r.stats))
    }

    /// Progressive-filling max–min fair rate allocation, scoped to the
    /// connected component of the flow↔resource sharing graph reachable
    /// from the seeds given to the last [`Scratch::begin`].
    ///
    /// Max–min rates decompose exactly across connected components: a flow
    /// that shares no resource (transitively) with a changed flow keeps its
    /// rate bit-for-bit, so only the affected component is settled and
    /// refilled. Within the component the pass is identical to a global
    /// progressive fill — flows are visited in `FlowId` order and resources
    /// in index order, so results are deterministic and equal to what a
    /// whole-network recomputation would assign. This is what keeps
    /// contended bursts (thousands of simultaneous collective messages)
    /// from costing Θ(total flows) per flow event.
    // Flow ids looked up during the pass come from the attachment lists,
    // which hold exactly the live flows.
    #[allow(clippy::expect_used)]
    fn recompute_component(&mut self) {
        let FlowNet {
            res,
            flows,
            now,
            dirty,
            scratch: sc,
            counters,
        } = self;
        let now = *now;

        // Depth-first walk over resources ↔ attached flows. The sorts below
        // make the result independent of the walk order.
        while let Some(r) = sc.stack.pop() {
            sc.touched.push(r);
            for &id in &res[r].attached {
                let f = flows.get_mut(id).expect("attached flow present");
                if f.seen != sc.epoch {
                    f.seen = sc.epoch;
                    sc.comp.push(id);
                    for &rr in &f.resources {
                        sc.reach(rr);
                    }
                }
            }
        }
        sc.touched.sort_unstable();
        sc.comp.sort_unstable();
        counters.recomputes += 1;
        counters.component_flows += sc.comp.len() as u64;
        counters.component_resources += sc.touched.len() as u64;

        let Scratch {
            slot_of,
            touched,
            comp,
            flow_cap,
            flow_start,
            flow_slots,
            rem_cap,
            count,
            unfixed,
            still,
            assigned,
            ..
        } = sc;

        if comp.is_empty() {
            // Seeds can point at now-empty resources (last flow removed).
            for &r in touched.iter() {
                res[r].rate_sum = 0.0;
            }
            return;
        }

        // Dense state over only the component's resources, indexed by slot
        // in sorted resource order. In one pass in `FlowId` order, each flow
        // is settled and flattened into its cap and its slot list (sorted,
        // since its resources are).
        for (i, &r) in touched.iter().enumerate() {
            slot_of[r] = i as u32;
        }
        rem_cap.clear();
        rem_cap.extend(touched.iter().map(|&r| res[r].capacity));
        count.clear();
        count.resize(touched.len(), 0);
        flow_cap.clear();
        flow_start.clear();
        flow_slots.clear();
        flow_start.push(0);
        for &id in comp.iter() {
            let f = flows.get_mut(id).expect("component flow present");
            settle_flow(res, f, now);
            flow_cap.push(f.cap);
            for r in &f.resources {
                let i = slot_of[r.0 as usize];
                flow_slots.push(i);
                count[i as usize] += 1;
            }
            flow_start.push(flow_slots.len());
        }
        unfixed.clear();
        unfixed.extend(0..comp.len());
        assigned.clear();

        while !unfixed.is_empty() {
            counters.filling_rounds += 1;
            // Bottleneck share over resources that still carry unfixed flows.
            let mut share = f64::INFINITY;
            for (&rc, &n) in rem_cap.iter().zip(count.iter()) {
                if n > 0 {
                    share = share.min(rc.max(0.0) / n as f64);
                }
            }
            // A flow with no resources is limited only by its own cap.
            // This round's rate: the smaller of the bottleneck share and the
            // smallest unfixed per-flow cap.
            let min_cap = unfixed
                .iter()
                .map(|&k| flow_cap[k])
                .fold(f64::INFINITY, f64::min);
            let level = share.min(min_cap);
            debug_assert!(level.is_finite(), "no constraint bound any flow");
            let pin = level + level * 1e-12;

            // Fix every flow that is pinned at this level: either its cap is
            // the binding constraint, or it crosses a bottleneck resource.
            // Capacity is handed out mid-sweep, in `FlowId` order.
            let mut fixed_any = false;
            still.clear();
            for &k in unfixed.iter() {
                let own = &flow_slots[flow_start[k]..flow_start[k + 1]];
                let at_cap = flow_cap[k] <= pin;
                let at_bottleneck = own.iter().any(|&i| {
                    let i = i as usize;
                    count[i] > 0 && rem_cap[i].max(0.0) / count[i] as f64 <= pin
                });
                if at_cap || at_bottleneck {
                    fixed_any = true;
                    for &i in own {
                        rem_cap[i as usize] -= level;
                        count[i as usize] -= 1;
                    }
                    assigned.push((k, level));
                } else {
                    still.push(k);
                }
            }
            std::mem::swap(unfixed, still);
            assert!(fixed_any, "max-min allocation failed to make progress");
        }

        for &(k, rate) in assigned.iter() {
            let id = comp[k];
            let f = flows.get_mut(id).expect("assigned flow present");
            if f.rate != rate {
                f.rate = rate;
                dirty.push(id);
            }
            let want = f.rate > 0.0 && f.remaining > 0.0;
            if want != f.active {
                f.active = want;
                for r in &f.resources {
                    let res = &mut res[r.0 as usize];
                    integrate_res(res, now);
                    if want {
                        res.active += 1;
                    } else {
                        res.active -= 1;
                    }
                }
            }
        }

        for &r in touched.iter() {
            res[r].rate_sum = 0.0;
        }
        for &id in comp.iter() {
            let f = flows.get(id).expect("component flow present");
            for r in &f.resources {
                res[r.0 as usize].rate_sum += f.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(resources: &[ResourceId], cap: f64, bytes: f64) -> FlowSpec {
        FlowSpec {
            resources: resources.to_vec(),
            cap,
            bytes,
        }
    }

    #[test]
    fn single_flow_capped_by_stream_cap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 9e9);
    }

    #[test]
    fn single_flow_capped_by_resource() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(5e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 5e9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 9e9, 1e6));
        let b = net.add(spec(&[nic], 9e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        assert!((net.rate(b) - 6e9).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        // One flow capped at 2 GB/s on a 12 GB/s NIC; the other (cap 11)
        // should get the remaining 10 GB/s, not the naive 6.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let slow = net.add(spec(&[nic], 2e9, 1e6));
        let fast = net.add(spec(&[nic], 11e9, 1e6));
        assert!((net.rate(slow) - 2e9).abs() < 1.0);
        assert!((net.rate(fast) - 10e9).abs() < 1e3);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // tx capacity 12, rx capacity 4: flow crossing both is limited by rx.
        let mut net = FlowNet::new();
        let tx = net.add_resource(12e9);
        let rx = net.add_resource(4e9);
        let f = net.add(spec(&[tx, rx], 20e9, 1e6));
        assert!((net.rate(f) - 4e9).abs() < 1.0);
    }

    #[test]
    fn incast_shares_receiver() {
        // Four senders (distinct tx NICs) into one rx NIC of 12 GB/s:
        // each should get 3 GB/s.
        let mut net = FlowNet::new();
        let rx = net.add_resource(12e9);
        let mut flows = Vec::new();
        for _ in 0..4 {
            let tx = net.add_resource(12e9);
            flows.push(net.add(spec(&[tx, rx], 10e9, 1e6)));
        }
        for f in flows {
            assert!((net.rate(f) - 3e9).abs() < 1e3);
        }
    }

    #[test]
    fn progress_and_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0); // 10 B/s for easy math
        let f = net.add(spec(&[nic], 100.0, 50.0));
        assert!((net.eta_secs(f) - 5.0).abs() < 1e-12);
        net.progress(2.0);
        assert!((net.remaining(f) - 30.0).abs() < 1e-12);
        assert!((net.eta_secs(f) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn removal_restores_capacity() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 12e9, 1e6));
        let b = net.add(spec(&[nic], 12e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        net.remove(b);
        assert!((net.rate(a) - 12e9).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_has_zero_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 12e9, 0.0));
        assert_eq!(net.eta_secs(f), 0.0);
    }

    #[test]
    fn duplicate_resources_counted_once() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let f = net.add(spec(&[nic, nic], 20e9, 1.0));
        assert!((net.rate(f) - 10e9).abs() < 1.0);
    }

    #[test]
    fn work_conservation_on_shared_resource() {
        // Sum of rates on the shared NIC must equal its capacity when demand
        // exceeds it.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let flows: Vec<_> = (0..5).map(|_| net.add(spec(&[nic], 9e9, 1.0))).collect();
        let total: f64 = flows.iter().map(|&f| net.rate(f)).sum();
        assert!((total - 12e9).abs() < 1e3, "total {total}");
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut net = FlowNet::new();
        net.add(spec(&[ResourceId(7)], 1e9, 1.0));
    }

    #[test]
    fn resource_stats_accumulate_busy_and_overlap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource_kind(10.0, ResourceKind::NicTx(0));
        let a = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(2.0); // one active flow: busy only
        let b = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(3.0); // two active flows: busy + overlap
        let s = net.resource_stats(nic);
        assert!((s.busy_secs - 5.0).abs() < 1e-12, "busy {}", s.busy_secs);
        assert!(
            (s.overlap2_secs - 3.0).abs() < 1e-12,
            "overlap {}",
            s.overlap2_secs
        );
        // 10 B/s for 2 s solo + 10 B/s aggregate for 3 s shared.
        assert!((s.bytes - 50.0).abs() < 1e-9, "bytes {}", s.bytes);
        assert_eq!(s.max_concurrent, 2);
        assert_eq!(net.resource_kind(nic), ResourceKind::NicTx(0));
        assert!(net.resource_kind(nic).is_nic());
        assert_eq!(net.resource_capacity(nic), 10.0);
        let _ = (a, b);
    }

    #[test]
    fn idle_resource_accumulates_nothing() {
        let mut net = FlowNet::new();
        let busy = net.add_resource(10.0);
        let idle = net.add_resource_kind(10.0, ResourceKind::Mem(1));
        net.add(spec(&[busy], 100.0, 100.0));
        net.progress(1.0);
        let s = net.resource_stats(idle);
        assert_eq!(s.busy_secs, 0.0);
        assert_eq!(s.bytes, 0.0);
        assert_eq!(s.max_concurrent, 0);
        assert_eq!(net.resources().count(), 2);
    }

    #[test]
    fn fast_path_add_leaves_other_rates_alone() {
        // Two flows on disjoint NICs, third on its own NIC: no rate of an
        // existing flow may appear in the dirty set when the add does not
        // contend.
        let mut net = FlowNet::new();
        let n0 = net.add_resource(10e9);
        let n1 = net.add_resource(10e9);
        let a = net.add(spec(&[n0], 5e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[n1], 5e9, 1e6));
        assert_eq!(net.take_rate_changes(), vec![b]);
        assert_eq!(net.rate(a), 5e9);
        assert_eq!(net.rate(b), 5e9);
    }

    #[test]
    fn take_rate_changes_reports_contended_adds() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 8e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[nic], 8e9, 1e6));
        let changed = net.take_rate_changes();
        assert_eq!(changed, vec![a, b]);
        assert!((net.rate(a) - 5e9).abs() < 1.0);
        assert!((net.rate(b) - 5e9).abs() < 1.0);
        // The NIC is saturated, so removing `b` takes the slow path:
        // `a` returns to its cap and must be reported as changed.
        net.remove(b);
        assert_eq!(net.take_rate_changes(), vec![a]);
        assert!((net.rate(a) - 8e9).abs() < 1.0);
    }

    #[test]
    fn uncontended_removal_skips_recompute_and_dirty() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 3e9, 1e6));
        let b = net.add(spec(&[nic], 3e9, 1e6));
        net.take_rate_changes();
        net.remove(b);
        assert!(net.take_rate_changes().is_empty());
        assert_eq!(net.rate(a), 3e9);
    }

    #[test]
    fn lazy_settlement_matches_eager_byte_accounting() {
        // Drive a small scenario with rate changes mid-flight and verify the
        // lazily settled remaining-bytes match hand-computed values.
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0);
        let a = net.add(spec(&[nic], 100.0, 100.0)); // rate 10
        net.progress(4.0); // a moved 40, 60 left
        let b = net.add(spec(&[nic], 100.0, 30.0)); // both now rate 5
        assert!((net.remaining(a) - 60.0).abs() < 1e-9);
        net.progress(2.0); // a: 50 left, b: 20 left
        assert!((net.remaining(a) - 50.0).abs() < 1e-9);
        assert!((net.remaining(b) - 20.0).abs() < 1e-9);
        net.progress(4.0); // b done exactly now (20 / 5)
        assert!(net.remaining(b).abs() < 1e-9);
        assert_eq!(net.eta_secs(b), 0.0);
        net.remove(b);
        // a back to rate 10 with 30 left.
        assert!((net.rate(a) - 10.0).abs() < 1e-9);
        assert!((net.remaining(a) - 30.0).abs() < 1e-9);
        assert!((net.eta_secs(a) - 3.0).abs() < 1e-9);
    }
}
