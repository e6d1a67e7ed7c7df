//! Agents: the execution identities that post events and block on requests.
//!
//! Every rank fiber owns an agent, and every in-flight nonblocking
//! collective runs on its own *operation agent* (a fiber with a
//! deterministic actor id and its own virtual clock starting at the post
//! time) — this is how MPI-3 nonblocking collectives make asynchronous
//! progress in the simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ovcomm_simnet::{Action, EventKey, ParkCell, SimDur, SimTime, SpanKind, TraceSpan};

use crate::request::Request;
use crate::universe::UniShared;

/// Event class for p2p injection events.
pub(crate) const CLASS_P2P: u8 = 10;
/// Event class for generic timers (sleep, deferred starts).
pub(crate) const CLASS_TIMER: u8 = 20;

/// An execution identity: actor id, world rank it acts for, its own virtual
/// clock, and its park cell. Clones share the clock (used by `Comm` handles
/// and the end-time bookkeeping).
#[derive(Clone)]
pub(crate) struct Agent {
    /// Engine actor id (equals `rank` for rank agents; high-bit-tagged for
    /// operation agents).
    pub id: u32,
    /// World rank this agent acts on behalf of (decides node placement).
    pub rank: u32,
    clock: Arc<AtomicU64>,
    seq: Arc<AtomicU64>,
    /// Counter of nonblocking operations posted by this rank (used to mint
    /// deterministic operation-actor ids). Only rank agents use it.
    pub op_counter: Arc<AtomicU64>,
    pub cell: Arc<ParkCell>,
    pub uni: Arc<UniShared>,
}

impl Agent {
    /// Agent for a rank fiber.
    pub fn new_rank(rank: u32, cell: Arc<ParkCell>, uni: Arc<UniShared>) -> Agent {
        Agent {
            id: rank,
            rank,
            clock: Arc::new(AtomicU64::new(0)),
            seq: Arc::new(AtomicU64::new(0)),
            op_counter: Arc::new(AtomicU64::new(0)),
            cell,
            uni,
        }
    }

    /// Agent for an operation (progress) actor starting at `start`.
    pub fn new_op(
        id: u32,
        rank: u32,
        start: SimTime,
        cell: Arc<ParkCell>,
        uni: Arc<UniShared>,
    ) -> Agent {
        Agent {
            id,
            rank,
            clock: Arc::new(AtomicU64::new(start.as_nanos())),
            seq: Arc::new(AtomicU64::new(0)),
            op_counter: Arc::new(AtomicU64::new(0)),
            cell,
            uni,
        }
    }

    /// Current local virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Relaxed))
    }

    /// Move the local clock forward by `d`.
    pub fn advance(&self, d: SimDur) {
        let now = self.now();
        self.clock.store((now + d).as_nanos(), Ordering::Relaxed);
    }

    /// Clamp the local clock up to `t` (no-op if already past it).
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.clock.store(t.as_nanos(), Ordering::Relaxed);
        }
    }

    /// Mint a unique event key at time `t` for this agent.
    pub fn event_key(&self, t: SimTime, class: u8) -> EventKey {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        EventKey {
            time: t,
            class,
            origin: self.id,
            seq,
        }
    }

    /// Schedule `action` at this agent's current clock (or later).
    pub fn schedule(&self, at: SimTime, class: u8, action: Action) {
        debug_assert!(at >= self.now() || self.now() == at);
        self.uni.engine.schedule(self.event_key(at, class), action);
    }

    /// Block until `req` completes; returns its value and advances the
    /// clock to `max(local clock, completion time)` — `MPI_Wait`.
    pub fn wait<T>(&self, req: &Request<T>) -> T {
        // Tell the verifier what we are blocked on: if the run deadlocks
        // while we are parked below, this entry becomes our line of the
        // wait-for diagnosis; on success it records the wait edge.
        let vid = if self.uni.verify.is_some() {
            req.verify_id()
        } else {
            None
        };
        if let (Some(v), Some(id)) = (self.uni.verify.as_ref(), vid) {
            v.wait_begin(self.id, id);
        }
        let out = loop {
            if let Some((v, t)) = req.try_take() {
                // A wake may still be pending if the completion raced with
                // our check; consume it so the engine's runnable count stays
                // balanced.
                if let Some(tw) = self.uni.engine.consume_pending(&self.cell) {
                    self.advance_to(tw);
                }
                self.advance_to(t);
                break v;
            }
            if req.add_waiter(&self.cell) {
                let tw = self.uni.engine.park(&self.cell);
                self.advance_to(tw);
            }
        };
        if let (Some(v), Some(id)) = (self.uni.verify.as_ref(), vid) {
            v.wait_end(self.id);
            v.record(ovcomm_verify::Event::WaitDone {
                agent: self.id,
                req: id,
            });
        }
        out
    }

    /// Nonblocking completion probe — `MPI_Test`. True only once the
    /// completion time is at or before this agent's clock (an agent cannot
    /// observe the future).
    pub fn test<T>(&self, req: &Request<T>) -> bool {
        match req.completed_at() {
            Some(t) => t <= self.now(),
            None => false,
        }
    }

    /// Perform `bytes` of local reduction compute through this rank's
    /// shared reduction-CPU resource: the time depends on how many other
    /// operations of the same rank are reducing concurrently (max-min
    /// sharing at `gamma_reduce_bw` per stream, `reduce_parallel x` total).
    /// Blocks the calling agent until the work completes.
    pub fn reduce_compute(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let res = self.uni.cpu[self.rank as usize];
        let cap = self.uni.profile.gamma_reduce_bw;
        let cell = self.cell.clone();
        let at = self.now();
        let uni = self.uni.clone();
        self.schedule(
            at,
            CLASS_TIMER,
            Box::new(move |e| {
                let cell2 = cell.clone();
                let _ = &uni;
                e.start_flow(
                    vec![res],
                    cap,
                    bytes as f64,
                    Box::new(move |e2| {
                        e2.wake(&cell2, e2.now());
                    }),
                );
            }),
        );
        let t = self.uni.engine.park(&self.cell);
        self.advance_to(t);
    }

    /// Sleep for `d` of virtual time.
    pub fn sleep(&self, d: SimDur) {
        let wake_at = self.now() + d;
        let cell = self.cell.clone();
        self.schedule(
            wake_at,
            CLASS_TIMER,
            Box::new(move |e| {
                e.wake(&cell, wake_at);
            }),
        );
        let t = self.uni.engine.park(&self.cell);
        self.advance_to(t);
    }

    /// Record a trace span if tracing is on (label built lazily).
    pub fn trace_span(
        &self,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        self.trace_span_chunk(kind, None, start, end, label);
    }

    /// Record a trace span carrying a pipeline chunk index.
    pub fn trace_span_chunk(
        &self,
        kind: SpanKind,
        chunk: Option<u32>,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        if self.uni.tracing {
            self.uni.engine.record_span(TraceSpan {
                actor: self.id,
                kind,
                label: label(),
                chunk,
                start,
                end,
            });
        }
    }
}
