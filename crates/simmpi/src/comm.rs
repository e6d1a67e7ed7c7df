//! Communicators and the user-facing MPI-like API.
//!
//! A [`Comm`] is a per-rank handle (like `MPI_Comm`): it knows the global
//! context id, the member world ranks, and this rank's index. `dup` creates
//! an independent context over the same group — the building block of the
//! paper's nonblocking-overlap technique, which issues each data chunk on
//! its own duplicated communicator. `split` creates row/column/grid
//! communicators of process meshes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ovcomm_simnet::{ParkCell, SimTime, SpanKind};
use ovcomm_verify::plan::{self, CollPlan};
use ovcomm_verify::{CollKind, Event as VEvent, ReqId, Site, VerifyMode};

use crate::agent::Agent;
use crate::coll::CollCtx;
use crate::collsel::CollSelector;
use crate::metrics::OpKind;
use crate::p2p::{irecv_raw, isend_raw};
use crate::payload::Payload;
use crate::planexec::execute_plan;
use crate::request::{ReqMeta, Request};
use crate::state::SplitGather;
use crate::universe::{op_actor_id, PlanCache, UniShared};

/// Largest communicator size whose compiled schedules are model-checked
/// under `Strict`. The check explores receive-match interleavings across
/// eager/rendezvous cutpoints, which grows far faster than the schedule
/// itself; beyond this size the state budget would only ever truncate, so
/// large shapes keep the (linear) lint pass and skip the model check.
pub const MODEL_CHECK_MAX_P: usize = 128;

/// Compile (or fetch from `cache`) the per-rank plans for one collective
/// shape, selecting the algorithm via `sel` and statically analyzing
/// fresh plans per verification level `mode`: `Warn` lints and prints
/// findings, `Strict` additionally model-checks the schedule (every
/// receive-match interleaving at every eager/rendezvous cutpoint, for
/// communicators up to [`MODEL_CHECK_MAX_P`] ranks) and panics on any
/// finding. Analysis results are memoized in the cache, so
/// each shape is analyzed — and its findings rendered — exactly once per
/// run. Backend-neutral: both the simulator and the `ovcomm-rt`
/// wall-clock backend compile collectives through this exact path, so the
/// `CollSelector` and the static-analysis wall behave identically on
/// either.
pub fn compile_plans(
    cache: &parking_lot::Mutex<PlanCache>,
    sel: &CollSelector,
    mode: VerifyMode,
    p: usize,
    kind: CollKind,
    n: usize,
    root: usize,
) -> Arc<Vec<CollPlan>> {
    let algo = sel.select(kind, n, p);
    let key = (kind, algo, p, n, root);
    let mut cache = cache.lock();
    if let Some(cached) = cache.get(&key) {
        // Memoized: findings (if any) were already rendered at first
        // compile — never re-print on a hit.
        return cached.plans.clone();
    }
    let plans = plan::build_all(kind, algo, p, n, root);
    let mut findings: Vec<String> = Vec::new();
    if mode != VerifyMode::Off {
        findings.extend(plan::lint_plans(&plans).iter().map(|f| f.to_string()));
        if mode == VerifyMode::Strict && p <= MODEL_CHECK_MAX_P {
            let report = plan::model_check_single(&plans, &plan::McConfig::default());
            findings.extend(report.findings.iter().map(|f| f.to_string()));
            if report.truncated {
                findings.push(format!(
                    "error[mc-truncated]: model check exhausted its state budget \
                     ({} states explored)",
                    report.states
                ));
            }
        }
        findings.dedup();
        if !findings.is_empty() {
            if mode == VerifyMode::Warn {
                for f in &findings {
                    eprintln!("ovcomm-verify(plan): {f}");
                }
            } else {
                use std::fmt::Write as _;
                let mut msg =
                    format!("static plan analysis failed for {algo} p={p} n={n} root={root}:");
                for f in findings.iter().take(8) {
                    let _ = write!(msg, "\n  {f}");
                }
                if findings.len() > 8 {
                    let _ = write!(msg, "\n  ... and {} more finding(s)", findings.len() - 8);
                }
                panic!("{msg}");
            }
        }
    }
    let cached = crate::universe::CachedPlans {
        plans: Arc::new(plans),
        findings: Arc::new(findings),
    };
    cache.insert(key, cached.clone());
    cached.plans
}

/// `compile_plans` against the simulator universe's cache and selector.
fn plans_for(
    uni: &UniShared,
    p: usize,
    kind: CollKind,
    n: usize,
    root: usize,
) -> Arc<Vec<CollPlan>> {
    compile_plans(
        &uni.plan_cache,
        &uni.coll_select,
        uni.verify_mode,
        p,
        kind,
        n,
        root,
    )
}

/// Unwrap a collective result that the plan contract guarantees exists.
fn expect_out(out: Option<Payload>, what: &str) -> Payload {
    match out {
        Some(v) => v,
        None => panic!("{what} plan produced no output"),
    }
}

/// Group/topology info shared by all clones of a communicator handle.
#[derive(Clone)]
pub(crate) struct CommInfo {
    /// Global context id (matching namespace).
    pub ctx: u32,
    /// Member world ranks, in communicator order.
    pub ranks: Arc<Vec<u32>>,
    /// This rank's index within `ranks`.
    pub me: usize,
}

/// A communicator handle for one rank.
#[derive(Clone)]
pub struct Comm {
    pub(crate) info: CommInfo,
    pub(crate) agent: Agent,
    dup_seq: Arc<AtomicU64>,
    split_seq: Arc<AtomicU64>,
    coll_seq: Arc<AtomicU64>,
    /// Per-rank window-creation counter (all members call `win_create` in
    /// the same order, so the values agree across ranks). Consumed by
    /// `Comm::win_create` in the `rma` module.
    pub(crate) win_seq: Arc<AtomicU64>,
}

impl Comm {
    pub(crate) fn new(info: CommInfo, agent: Agent) -> Comm {
        if let Some(v) = agent.uni.verify.as_ref() {
            // Every rank records the (identical) declaration; the analyzer
            // keys on the context id, so duplicates are harmless.
            v.record(VEvent::CommDecl {
                ctx: info.ctx,
                members: info.ranks.clone(),
            });
        }
        Comm {
            info,
            agent,
            dup_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            win_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Log a collective call on this communicator into the verifier's
    /// per-agent event stream (no-op when verification is off).
    fn record_coll(
        &self,
        kind: CollKind,
        root: Option<u32>,
        len: usize,
        blocking: bool,
        site: Site,
    ) {
        if let Some(v) = self.agent.uni.verify.as_ref() {
            v.record(VEvent::Coll {
                agent: self.agent.id,
                rank: self.agent.rank,
                ctx: self.info.ctx,
                kind,
                root,
                len,
                blocking,
                req: None,
                op_agent: None,
                site: Some(site),
            });
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.info.ranks.len()
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.info.me
    }

    /// World rank of communicator index `idx`.
    pub fn world_rank(&self, idx: usize) -> usize {
        self.info.ranks[idx] as usize
    }

    fn coll_seq_next(&self) -> u64 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn cctx<'a>(&'a self, seq: u64) -> CollCtx<'a> {
        CollCtx {
            agent: &self.agent,
            info: &self.info,
            seq,
        }
    }

    /// This communicator's compiled plans for one collective shape.
    fn plans(&self, kind: CollKind, n: usize, root: usize) -> Arc<Vec<CollPlan>> {
        plans_for(&self.agent.uni, self.size(), kind, n, root)
    }

    // ---------------------------------------------------------------
    // Communicator management
    // ---------------------------------------------------------------

    /// Duplicate: a new context over the same group. All ranks must call in
    /// the same order (as in MPI). Used to create the `N_DUP` communicator
    /// copies of the nonblocking-overlap technique.
    #[track_caller]
    pub fn dup(&self) -> Comm {
        self.record_coll(
            CollKind::Dup,
            None,
            0,
            false,
            std::panic::Location::caller(),
        );
        let seq = self.dup_seq.fetch_add(1, Ordering::Relaxed);
        self.agent
            .uni
            .metrics
            .comm_dup(self.agent.rank, self.info.ctx);
        let ctx = self.agent.uni.state.lock().child_ctx(self.info.ctx, seq);
        Comm::new(
            CommInfo {
                ctx,
                ranks: self.info.ranks.clone(),
                me: self.info.me,
            },
            self.agent.clone(),
        )
    }

    /// `n` duplicates (convenience for building N_DUP bundles).
    #[track_caller]
    pub fn dup_n(&self, n: usize) -> Vec<Comm> {
        (0..n).map(|_| self.dup()).collect()
    }

    /// Split by color/key (like `MPI_Comm_split`). Ranks passing a negative
    /// color get `None`. Synchronizes all members of this communicator.
    // The `expect`s below assert split-rendezvous bookkeeping shared by all
    // members; `position` must succeed because this rank deposited itself.
    #[allow(clippy::expect_used, clippy::unwrap_used)]
    #[track_caller]
    pub fn split(&self, color: i64, key: u64) -> Option<Comm> {
        self.record_coll(
            CollKind::Split,
            None,
            0,
            true,
            std::panic::Location::caller(),
        );
        let seq = self.split_seq.fetch_add(1, Ordering::Relaxed);
        let uni = self.agent.uni.clone();
        let gather_key = (self.info.ctx, seq);
        let expected = self.size();
        let me = self.rank();
        let now = self.agent.now();

        let to_wake = {
            let mut st = uni.state.lock();
            let entry = st.splits.entry(gather_key).or_insert_with(|| SplitGather {
                entries: Vec::new(),
                expected,
                latest: SimTime::ZERO,
                waiters: Vec::new(),
                result: None,
            });
            entry.entries.push((me, color, key));
            entry.latest = entry.latest.max(now);
            entry.waiters.push(self.agent.cell.clone());
            if entry.entries.len() == expected {
                // Last depositor: compute groups, allocate child contexts
                // through the registry (so every rank agrees), publish.
                let mut sg = st.splits.remove(&gather_key).expect("split entry");
                let latest = sg.latest;
                let parent = self.info.ctx;
                let mut res = crate::state::SplitResult::compute(&sg.entries, latest, || 0);
                for (gi, g) in res.groups.iter_mut().enumerate() {
                    g.1 = st.child_ctx(parent, (1 << 32) | (seq << 8) | gi as u64);
                }
                sg.result = Some(Arc::new(res));
                let waiters = std::mem::take(&mut sg.waiters);
                st.splits.insert(gather_key, sg);
                Some((waiters, latest))
            } else {
                None
            }
        };
        // The last depositor wakes everyone, including itself; its own
        // stray wake is consumed below.
        if let Some((waiters, latest)) = to_wake {
            for cell in &waiters {
                uni.engine.wake(cell, latest);
            }
        }

        // Wait until the result is available. Register the block with the
        // verifier so a rank missing from the split shows up in a deadlock
        // diagnosis as "blocked in MPI_Comm_split".
        if let Some(v) = uni.verify.as_ref() {
            v.wait_begin_split(self.agent.id, self.info.ctx);
        }
        let result = loop {
            {
                let mut st = uni.state.lock();
                let entry = st
                    .splits
                    .get_mut(&gather_key)
                    .expect("split entry vanished");
                if let Some(res) = entry.result.clone() {
                    // Last reader cleans up.
                    entry.expected -= 1;
                    if entry.expected == 0 {
                        st.splits.remove(&gather_key);
                    }
                    break res;
                }
            }
            let t = uni.engine.park(&self.agent.cell);
            self.agent.advance_to(t);
        };
        if let Some(v) = uni.verify.as_ref() {
            v.wait_end(self.agent.id);
        }
        if let Some(t) = uni.engine.consume_pending(&self.agent.cell) {
            self.agent.advance_to(t);
        }
        self.agent.advance_to(result.at);

        if color < 0 {
            return None;
        }
        let (ctx, members) = result
            .group_of(me)
            .expect("non-negative color must produce a group");
        let my_index = members.iter().position(|&r| r == me).unwrap();
        let world_ranks: Vec<u32> = members.iter().map(|&r| self.info.ranks[r]).collect();
        Some(Comm::new(
            CommInfo {
                ctx,
                ranks: Arc::new(world_ranks),
                me: my_index,
            },
            self.agent.clone(),
        ))
    }

    // ---------------------------------------------------------------
    // Point-to-point
    // ---------------------------------------------------------------

    /// Nonblocking send to communicator rank `dst` with a user tag.
    #[track_caller]
    pub fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Isend, payload.len());
        isend_raw(
            &self.agent,
            self.info.ctx,
            self.info.ranks[dst],
            tag as u64,
            payload,
        )
    }

    /// Nonblocking receive from communicator rank `src`.
    #[track_caller]
    pub fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        self.agent.uni.metrics.op(self.agent.rank, OpKind::Irecv, 0);
        irecv_raw(&self.agent, self.info.ctx, self.info.ranks[src], tag as u64)
    }

    /// Blocking send.
    #[track_caller]
    pub fn send(&self, dst: usize, tag: u32, payload: Payload) {
        let t0 = self.agent.now();
        let n = payload.len();
        self.agent.uni.metrics.op(self.agent.rank, OpKind::Send, n);
        let r = self.isend(dst, tag, payload);
        self.wait(&r);
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                format!("MPI_Send {n}B -> {dst}")
            });
    }

    /// Blocking receive; returns the payload.
    #[track_caller]
    pub fn recv(&self, src: usize, tag: u32) -> Payload {
        let t0 = self.agent.now();
        let r = self.irecv(src, tag);
        let p = self.wait(&r);
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Recv, p.len());
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                format!("MPI_Recv {}B <- {src}", p.len())
            });
        p
    }

    /// Record the virtual duration of a blocking call that started at `t0`.
    fn blocking_done(&self, t0: SimTime) {
        let d = self.agent.now().saturating_since(t0);
        self.agent
            .uni
            .metrics
            .blocking_duration(self.agent.rank, d.as_nanos());
    }

    /// Blocking concurrent send+receive (`MPI_Sendrecv`).
    #[track_caller]
    pub fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload {
        let rr = self.irecv(src, tag);
        let sr = self.isend(dst, tag, payload);
        self.wait(&sr);
        self.wait(&rr)
    }

    /// Wait for a request (`MPI_Wait`): blocks, returns the value, advances
    /// this rank's clock to the completion time.
    pub fn wait<T>(&self, req: &Request<T>) -> T {
        let t0 = self.agent.now();
        let v = self.agent.wait(req);
        let d = self.agent.now().saturating_since(t0);
        self.agent
            .uni
            .metrics
            .wait_duration(self.agent.rank, d.as_nanos());
        v
    }

    /// Wait for a request, recording a `Wait` trace span with `label`.
    pub fn wait_traced<T>(&self, req: &Request<T>, label: &str) -> T {
        self.wait_traced_impl(req, label, None)
    }

    /// Wait for a request, recording a `Wait` trace span tagged with the
    /// pipeline chunk index the request belongs to.
    pub fn wait_traced_chunk<T>(&self, req: &Request<T>, label: &str, chunk: u32) -> T {
        self.wait_traced_impl(req, label, Some(chunk))
    }

    fn wait_traced_impl<T>(&self, req: &Request<T>, label: &str, chunk: Option<u32>) -> T {
        let t0 = self.agent.now();
        let v = self.wait(req);
        let owned = label.to_string();
        self.agent
            .trace_span_chunk(SpanKind::Wait, chunk, t0, self.agent.now(), move || owned);
        v
    }

    /// Nonblocking completion probe (`MPI_Test`).
    pub fn test<T>(&self, req: &Request<T>) -> bool {
        self.agent.uni.metrics.test_probe(self.agent.rank);
        let done = self.agent.test(req);
        if done {
            // Only successful probes are logged: they prove the rank
            // observed completion (a request retired via `test` is not a
            // leak), and recording failed polls would flood the log.
            if let (Some(v), Some(id)) = (self.agent.uni.verify.as_ref(), req.verify_id()) {
                v.record(VEvent::TestObserved {
                    agent: self.agent.id,
                    req: id,
                });
            }
        }
        done
    }

    /// Wait for all requests in order (`MPI_Waitall` for sends).
    pub fn wait_all(&self, reqs: &[Request<()>]) {
        self.wait_all_payloads(reqs);
    }

    /// Wait for all requests in order and return their values
    /// (`MPI_Waitall` for receives and collectives).
    pub fn wait_all_payloads<T>(&self, reqs: &[Request<T>]) -> Vec<T> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    // ---------------------------------------------------------------
    // Blocking collectives (run inline on the rank fiber)
    // ---------------------------------------------------------------

    /// Blocking broadcast from `root`. `data` must be `Some` at the root;
    /// `len` is the payload size every rank expects.
    #[track_caller]
    pub fn bcast(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        self.record_coll(
            CollKind::Bcast,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        let p = self.size();
        assert!(root < p, "bcast root {root} out of range (p={p})");
        if self.info.me == root {
            match data.as_ref() {
                Some(d) => assert_eq!(d.len(), len, "bcast root data length mismatch"),
                None => panic!("bcast root must supply data"),
            }
        }
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Bcast, len);
        let plans = self.plans(CollKind::Bcast, len, root);
        let input = if self.info.me == root { data } else { None };
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], input),
            "bcast",
        );
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                format!("MPI_Bcast {len}B root={root}")
            });
        out
    }

    /// Blocking sum-reduction to `root`; returns `Some` at the root.
    #[track_caller]
    pub fn reduce(&self, root: usize, contrib: Payload) -> Option<Payload> {
        self.record_coll(
            CollKind::Reduce,
            Some(root as u32),
            contrib.len(),
            true,
            std::panic::Location::caller(),
        );
        let p = self.size();
        assert!(root < p, "reduce root {root} out of range (p={p})");
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Reduce, n);
        let plans = self.plans(CollKind::Reduce, n, root);
        let out = execute_plan(&self.cctx(seq), &plans[self.info.me], Some(contrib));
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                format!("MPI_Reduce {n}B root={root}")
            });
        out
    }

    /// Blocking sum-allreduce.
    #[track_caller]
    pub fn allreduce(&self, contrib: Payload) -> Payload {
        self.record_coll(
            CollKind::Allreduce,
            None,
            contrib.len(),
            true,
            std::panic::Location::caller(),
        );
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Allreduce, n);
        let plans = self.plans(CollKind::Allreduce, n, 0);
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], Some(contrib)),
            "allreduce",
        );
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                format!("MPI_Allreduce {n}B")
            });
        out
    }

    /// Blocking barrier.
    #[track_caller]
    pub fn barrier(&self) {
        self.record_coll(
            CollKind::Barrier,
            None,
            0,
            true,
            std::panic::Location::caller(),
        );
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Barrier, 0);
        let plans = self.plans(CollKind::Barrier, 0, 0);
        execute_plan(&self.cctx(seq), &plans[self.info.me], None);
        self.blocking_done(t0);
        self.agent
            .trace_span(SpanKind::BlockingCall, t0, self.agent.now(), || {
                "MPI_Barrier".to_string()
            });
    }

    /// Blocking scatter of `len` bytes from `root`; returns this rank's
    /// chunk (`chunk_bounds` partitioning in root-relative order).
    #[track_caller]
    pub fn scatter(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        self.record_coll(
            CollKind::Scatter,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        let p = self.size();
        assert!(root < p, "scatter root {root} out of range (p={p})");
        if self.info.me == root {
            match data.as_ref() {
                Some(d) => assert_eq!(d.len(), len, "scatter root data length mismatch"),
                None => panic!("scatter root must supply data"),
            }
        }
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Scatter, len);
        let plans = self.plans(CollKind::Scatter, len, root);
        let input = if self.info.me == root { data } else { None };
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], input),
            "scatter",
        );
        self.blocking_done(t0);
        out
    }

    /// Blocking gather (inverse of scatter); returns `Some` at the root.
    #[track_caller]
    pub fn gather(&self, root: usize, chunk: Payload, len: usize) -> Option<Payload> {
        self.record_coll(
            CollKind::Gather,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        let p = self.size();
        assert!(root < p, "gather root {root} out of range (p={p})");
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Gather, len);
        let plans = self.plans(CollKind::Gather, len, root);
        let out = execute_plan(&self.cctx(seq), &plans[self.info.me], Some(chunk));
        self.blocking_done(t0);
        out
    }

    /// Blocking allgather; `len` is the assembled size.
    #[track_caller]
    pub fn allgather(&self, chunk: Payload, len: usize) -> Payload {
        self.record_coll(
            CollKind::Allgather,
            None,
            len,
            true,
            std::panic::Location::caller(),
        );
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent
            .uni
            .metrics
            .op(self.agent.rank, OpKind::Allgather, len);
        let plans = self.plans(CollKind::Allgather, len, 0);
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], Some(chunk)),
            "allgather",
        );
        self.blocking_done(t0);
        out
    }

    // ---------------------------------------------------------------
    // Nonblocking collectives (run on a progress actor)
    // ---------------------------------------------------------------

    /// Nonblocking broadcast (`MPI_Ibcast`). Posting costs `post_base` only:
    /// the paper's Fig. 6 shows Ibcast posts take "very little time" (the
    /// payload is handed to the progress engine zero-copy), in contrast to
    /// `MPI_Ireduce`, whose posts cost a full buffer copy.
    #[track_caller]
    pub fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        let cost = self.agent.uni.profile.post_base;
        self.agent.advance(cost);
        self.post_done(t0, OpKind::Ibcast, len);
        self.agent
            .trace_span(SpanKind::Post, t0, self.agent.now(), || {
                format!("MPI_Ibcast post {len}B root={root}")
            });
        let p = self.size();
        assert!(root < p, "bcast root {root} out of range (p={p})");
        if self.info.me == root {
            match data.as_ref() {
                Some(d) => assert_eq!(d.len(), len, "bcast root data length mismatch"),
                None => panic!("bcast root must supply data"),
            }
        }
        let plans = self.plans(CollKind::Bcast, len, root);
        let input = if self.info.me == root { data } else { None };
        let info = self.info.clone();
        self.dispatch(
            CollKind::Bcast,
            Some(root as u32),
            len,
            site,
            move |agent| {
                let cctx = CollCtx {
                    agent,
                    info: &info,
                    seq,
                };
                expect_out(execute_plan(&cctx, &plans[info.me], input), "bcast")
            },
        )
    }

    /// Nonblocking reduction (`MPI_Ireduce`); every rank pays the buffer
    /// copy at post time. Root's request yields `Some(result)`.
    #[track_caller]
    pub fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.now();
        let cost = self.agent.uni.profile.post_base + self.agent.uni.profile.copy_time(n);
        self.agent.advance(cost);
        self.post_done(t0, OpKind::Ireduce, n);
        self.agent
            .trace_span(SpanKind::Post, t0, self.agent.now(), || {
                format!("MPI_Ireduce post {n}B root={root}")
            });
        let p = self.size();
        assert!(root < p, "reduce root {root} out of range (p={p})");
        let plans = self.plans(CollKind::Reduce, n, root);
        let info = self.info.clone();
        self.dispatch(CollKind::Reduce, Some(root as u32), n, site, move |agent| {
            let cctx = CollCtx {
                agent,
                info: &info,
                seq,
            };
            execute_plan(&cctx, &plans[info.me], Some(contrib))
        })
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`).
    #[track_caller]
    pub fn iallreduce(&self, contrib: Payload) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.now();
        let cost = self.agent.uni.profile.post_base + self.agent.uni.profile.copy_time(n);
        self.agent.advance(cost);
        self.post_done(t0, OpKind::Iallreduce, n);
        self.agent
            .trace_span(SpanKind::Post, t0, self.agent.now(), || {
                format!("MPI_Iallreduce post {n}B")
            });
        let plans = self.plans(CollKind::Allreduce, n, 0);
        let info = self.info.clone();
        self.dispatch(CollKind::Allreduce, None, n, site, move |agent| {
            let cctx = CollCtx {
                agent,
                info: &info,
                seq,
            };
            expect_out(
                execute_plan(&cctx, &plans[info.me], Some(contrib)),
                "allreduce",
            )
        })
    }

    /// Nonblocking barrier (`MPI_Ibarrier`) — the wake-up signal of the
    /// multiple-PPN sleep mechanism.
    #[track_caller]
    pub fn ibarrier(&self) -> Request<()> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.agent.advance(self.agent.uni.profile.post_base);
        self.post_done(t0, OpKind::Ibarrier, 0);
        let plans = self.plans(CollKind::Barrier, 0, 0);
        let info = self.info.clone();
        self.dispatch(CollKind::Barrier, None, 0, site, move |agent| {
            let cctx = CollCtx {
                agent,
                info: &info,
                seq,
            };
            execute_plan(&cctx, &plans[info.me], None);
        })
    }

    /// Record a nonblocking post: the op counters plus the post-duration
    /// histogram.
    fn post_done(&self, t0: SimTime, kind: OpKind, bytes: usize) {
        let m = &self.agent.uni.metrics;
        m.op(self.agent.rank, kind, bytes);
        m.post_duration(
            self.agent.rank,
            self.agent.now().saturating_since(t0).as_nanos(),
        );
    }

    /// Run `f` on a fresh progress actor whose clock starts at this rank's
    /// current time; the returned request completes with `f`'s value at the
    /// actor's final time. `kind`/`root`/`len`/`site` describe the
    /// collective for the verifier's event log.
    fn dispatch<T, F>(
        &self,
        kind: CollKind,
        root: Option<u32>,
        len: usize,
        site: Site,
        f: F,
    ) -> Request<T>
    where
        T: Send + 'static,
        F: FnOnce(&Agent) -> T + Send + 'static,
    {
        let uni = self.agent.uni.clone();
        let rank = self.agent.rank;
        let op_idx = self.agent.op_counter.fetch_add(1, Ordering::Relaxed);
        let id = op_actor_id(rank, op_idx);
        let cell = Arc::new(ParkCell::new());
        let start = self.agent.now();
        let (req, vid): (Request<T>, Option<ReqId>) = match uni.verify.as_ref() {
            Some(v) => {
                let rid = v.next_req_id();
                v.record(VEvent::Coll {
                    agent: self.agent.id,
                    rank,
                    ctx: self.info.ctx,
                    kind,
                    root,
                    len,
                    blocking: false,
                    req: Some(rid),
                    op_agent: Some(id),
                    site: Some(site),
                });
                (
                    Request::new_tracked(ReqMeta {
                        verifier: v.clone(),
                        id: rid,
                    }),
                    Some(rid),
                )
            }
            None => (Request::new(), None),
        };
        let req2 = req.clone();
        let uni2 = uni.clone();
        let cell2 = cell.clone();
        uni.metrics.pool_occupancy.inc();
        // The op runs on its own fiber, which the engine first releases at
        // the post time `start`.
        let body = move || {
            struct Finish {
                uni: Arc<crate::universe::UniShared>,
                id: u32,
            }
            impl Drop for Finish {
                fn drop(&mut self) {
                    self.uni.engine.actor_finished(self.id);
                }
            }
            let _guard = Finish {
                uni: uni2.clone(),
                id,
            };
            struct Occupied(Arc<crate::universe::UniShared>);
            impl Drop for Occupied {
                fn drop(&mut self) {
                    self.0.metrics.pool_occupancy.dec();
                }
            }
            let _occupied = Occupied(uni2.clone());
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                uni2.engine.await_release(&cell2);
                let agent = Agent::new_op(id, rank, start, cell2.clone(), uni2.clone());
                (f(&agent), agent)
            }));
            match out {
                Ok((v, agent)) => {
                    // Log completion before completing the request, so an
                    // analysis scanning forward from a matched wait always
                    // finds the collective's completion snapshot.
                    if let (Some(vf), Some(rid)) = (uni2.verify.as_ref(), vid) {
                        vf.record(VEvent::CollDone {
                            req: rid,
                            op_agent: id,
                        });
                    }
                    let done = agent.now();
                    uni2.edge(ovcomm_simnet::EdgeKind::PostWait, id, done, rank, done);
                    uni2.complete(&req2, v, done)
                }
                Err(e) => {
                    // Fiber cancellation keeps unwinding; deadlock unwinds
                    // land here; other panics are recorded for the
                    // universe to surface.
                    if e.downcast_ref::<ovcomm_simnet::ForcedUnwind>().is_some() {
                        std::panic::resume_unwind(e);
                    }
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<op actor panic>".to_string());
                    uni2.record_op_panic(rank, msg);
                }
            }
        };
        // Register before returning so the engine cannot advance past the
        // post time before the op actor starts; it becomes ready at its
        // post time, in `(time, actor id)` order with every other actor.
        let fiber = ovcomm_simnet::Fiber::new(uni.fiber_stack, body);
        uni.engine.register_fiber_at(id, fiber, cell, start);
        req
    }
}
