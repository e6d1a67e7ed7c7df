//! The runtime's communicator handle and per-rank context.
//!
//! [`RtComm`] presents the same surface as the simulator's
//! `ovcomm_simmpi::Comm` — dup/split, point-to-point, requests, blocking
//! and nonblocking collectives — and implements the backend-neutral
//! [`Communicator`] trait, so kernels written against the trait run
//! unchanged here. Collectives are *not* reimplemented: every instance
//! compiles through `ovcomm_simmpi::compile_plans` (same `CollSelector`,
//! same static lint wall) and executes through the shared
//! `execute_plan` interpreter; only the I/O surface ([`RtCollCtx`],
//! implementing `PlanIo`) differs — internal messages go through the
//! shared-memory mailbox and reductions cost real CPU instead of a
//! γ-model charge.

use crate::sync::{AtomicU64, Ordering};
use std::cell::Cell;
use std::sync::Arc;

use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::planexec::{execute_plan, PlanIo};
use ovcomm_simmpi::{compile_plans, OpKind, Request};
use ovcomm_simnet::{MachineProfile, NodeMap, ParkCell, SimDur, SimTime, SpanKind};
use ovcomm_verify::plan::CollPlan;
use ovcomm_verify::{CollKind, Event as VEvent, ReqId, Site};

use crate::mailbox::RtKey;
use crate::shared::{RtShared, RtSplitGather, PARK_SLICE};
use crate::ComputeMode;

/// Deterministic actor id for the `op_idx`-th nonblocking operation posted
/// by `rank` — the same encoding the simulator uses, so verify logs and
/// Perfetto track names read identically on both backends.
fn op_actor_id(rank: u32, op_idx: u64) -> u32 {
    assert!(
        rank < (1 << 17),
        "rank {rank} too large for op-actor encoding"
    );
    assert!(
        op_idx < (1 << 14),
        "rank {rank} posted more than 16384 nonblocking operations in one run"
    );
    0x8000_0000 | (rank << 14) | (op_idx as u32)
}

/// Unwrap a collective result that the plan contract guarantees exists.
fn expect_out(out: Option<Payload>, what: &str) -> Payload {
    match out {
        Some(v) => v,
        None => panic!("{what} plan produced no output"),
    }
}

/// An execution identity on the runtime: actor id, the world rank it acts
/// for, its park cell, and the shared runtime. The analogue of the
/// simulator's `Agent`, minus the virtual clock (time is the wall).
#[derive(Clone)]
pub(crate) struct RtAgent {
    pub id: u32,
    pub rank: u32,
    pub cell: Arc<ParkCell>,
    /// Counter of nonblocking operations posted by this rank (mints op
    /// actor ids). Only rank agents use it.
    pub op_counter: Arc<AtomicU64>,
    pub shared: Arc<RtShared>,
}

impl RtAgent {
    pub(crate) fn wait<T>(&self, req: &Request<T>) -> T {
        self.shared.wait_req(self.id, self.rank, &self.cell, req)
    }
}

/// Group/topology info shared by all clones of a communicator handle.
#[derive(Clone)]
pub(crate) struct RtCommInfo {
    pub(crate) ctx: u32,
    pub(crate) ranks: Arc<Vec<u32>>,
    pub(crate) me: usize,
}

/// A communicator handle for one rank of the wall-clock runtime.
#[derive(Clone)]
pub struct RtComm {
    pub(crate) info: RtCommInfo,
    pub(crate) agent: RtAgent,
    dup_seq: Arc<AtomicU64>,
    split_seq: Arc<AtomicU64>,
    coll_seq: Arc<AtomicU64>,
    /// Per-rank window-creation counter (all members call `win_create` in
    /// the same order, so the values agree across ranks).
    win_seq: Arc<AtomicU64>,
}

impl RtComm {
    pub(crate) fn new_world(agent: RtAgent, ranks: Arc<Vec<u32>>, me: usize) -> RtComm {
        RtComm::with_info(
            RtCommInfo {
                ctx: crate::WORLD_CTX,
                ranks,
                me,
            },
            agent,
        )
    }

    fn with_info(info: RtCommInfo, agent: RtAgent) -> RtComm {
        if let Some(v) = agent.shared.verify.as_ref() {
            v.record(VEvent::CommDecl {
                ctx: info.ctx,
                members: info.ranks.clone(),
            });
        }
        RtComm {
            info,
            agent,
            dup_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            win_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    fn record_coll(
        &self,
        kind: CollKind,
        root: Option<u32>,
        len: usize,
        blocking: bool,
        site: Site,
    ) {
        if let Some(v) = self.agent.shared.verify.as_ref() {
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

    fn plans(&self, kind: CollKind, n: usize, root: usize) -> Arc<Vec<CollPlan>> {
        let sh = &self.agent.shared;
        compile_plans(
            &sh.plan_cache,
            &sh.coll_select,
            sh.verify_mode,
            self.size(),
            kind,
            n,
            root,
        )
    }

    fn key_to(&self, dst: usize, tag: u64) -> RtKey {
        RtKey {
            ctx: self.info.ctx,
            src: self.info.ranks[self.info.me],
            dst: self.info.ranks[dst],
            tag,
        }
    }

    fn key_from(&self, src: usize, tag: u64) -> RtKey {
        RtKey {
            ctx: self.info.ctx,
            src: self.info.ranks[src],
            dst: self.info.ranks[self.info.me],
            tag,
        }
    }

    /// Record the wall duration of a blocking call that started at `t0`.
    fn blocking_done(&self, t0: SimTime) {
        let d = self.agent.shared.now().saturating_since(t0);
        self.agent
            .shared
            .metrics
            .blocking_duration(self.agent.rank, d.as_nanos());
    }

    // ---------------------------------------------------------------
    // Communicator management
    // ---------------------------------------------------------------

    /// Duplicate: a new context over the same group (all members call in
    /// the same order, as in MPI).
    #[track_caller]
    pub fn dup(&self) -> RtComm {
        self.record_coll(
            CollKind::Dup,
            None,
            0,
            false,
            std::panic::Location::caller(),
        );
        let seq = self.dup_seq.fetch_add(1, Ordering::Relaxed);
        let sh = &self.agent.shared;
        sh.metrics.comm_dup(self.agent.rank, self.info.ctx);
        let ctx = sh.state.lock().child_ctx(self.info.ctx, seq);
        RtComm::with_info(
            RtCommInfo {
                ctx,
                ranks: self.info.ranks.clone(),
                me: self.info.me,
            },
            self.agent.clone(),
        )
    }

    /// `n` duplicates (the N_DUP bundles of the overlap technique).
    #[track_caller]
    pub fn dup_n(&self, n: usize) -> Vec<RtComm> {
        (0..n).map(|_| self.dup()).collect()
    }

    /// Collective window creation (`MPI_Win_create`): every member exposes
    /// `local` as its segment and gets back a handle over all segments.
    /// The window starts **outside** any epoch — the first
    /// [`crate::window::RtWin::fence`] opens the first access epoch, or
    /// take a passive-target [`crate::window::RtWin::lock`].
    #[track_caller]
    pub fn win_create(&self, local: Payload) -> crate::window::RtWin {
        let site: Site = std::panic::Location::caller();
        let sh = self.agent.shared.clone();
        let seq = self.win_seq.fetch_add(1, Ordering::Relaxed);
        let key = (self.info.ctx, seq);
        let id = ((self.info.ctx as u64) << 32) | seq;
        let p = self.size();
        if let Some(v) = sh.verify.as_ref() {
            v.record(VEvent::WinDecl {
                agent: self.agent.id,
                rank: self.agent.rank,
                ctx: self.info.ctx,
                win: id,
                len: local.len(),
                site: Some(site),
            });
        }
        sh.metrics
            .record_rma(self.agent.rank, "win_create", local.len());
        let core = {
            let mut st = sh.state.lock();
            st.windows
                .entry(key)
                .or_insert_with(|| Arc::new(crate::window::WinCore::new(p)))
                .clone()
        };
        core.deposit(self.rank(), &local);
        // Private duplicate for the window's own barriers, so fence
        // traffic can never match user traffic on the parent comm.
        let wcomm = self.dup();
        // Creation is collective: no rank may issue one-sided ops until
        // every segment is deposited.
        wcomm.barrier();
        crate::window::RtWin::new(wcomm, core, key, id)
    }

    /// Split by color/key (like `MPI_Comm_split`). Negative colors get
    /// `None`. Synchronizes all members: every rank deposits its
    /// (rank, color, key), the last one computes the grouping (through the
    /// simulator's shared `SplitResult` logic) and wakes everyone.
    // The `expect`s assert split-rendezvous bookkeeping shared by all
    // members; `position` must succeed because this rank is in its group.
    #[allow(clippy::expect_used, clippy::unwrap_used)]
    #[track_caller]
    pub fn split(&self, color: i64, key: u64) -> Option<RtComm> {
        self.record_coll(
            CollKind::Split,
            None,
            0,
            true,
            std::panic::Location::caller(),
        );
        let seq = self.split_seq.fetch_add(1, Ordering::Relaxed);
        let sh = self.agent.shared.clone();
        let gather_key = (self.info.ctx, seq);
        let expected = self.size();
        let me = self.rank();

        let to_wake = {
            let mut st = sh.state.lock();
            let entry = st
                .splits
                .entry(gather_key)
                .or_insert_with(|| RtSplitGather {
                    entries: Vec::new(),
                    expected,
                    waiters: Vec::new(),
                    result: None,
                });
            entry.entries.push((me, color, key));
            entry.waiters.push(self.agent.cell.clone());
            if entry.entries.len() == expected {
                // Last depositor: compute groups, allocate child contexts
                // through the registry (so every rank agrees), publish.
                let mut sg = st.splits.remove(&gather_key).expect("split entry");
                let parent = self.info.ctx;
                let at = sh.now();
                let mut res = ovcomm_simmpi::SplitResult::compute(&sg.entries, at, || 0);
                for (gi, g) in res.groups.iter_mut().enumerate() {
                    g.1 = st.child_ctx(parent, (1 << 32) | (seq << 8) | gi as u64);
                }
                sg.result = Some(Arc::new(res));
                let waiters = std::mem::take(&mut sg.waiters);
                st.splits.insert(gather_key, sg);
                Some(waiters)
            } else {
                None
            }
        };
        if let Some(waiters) = to_wake {
            let at = sh.now();
            for cell in &waiters {
                cell.wake_direct(at);
            }
            sh.progress_epoch.fetch_add(1, Ordering::Relaxed);
        }

        // Wait until the result is available; a rank missing from the split
        // shows up in a deadlock diagnosis as "blocked in MPI_Comm_split".
        if let Some(v) = sh.verify.as_ref() {
            v.wait_begin_split(self.agent.id, self.info.ctx);
        }
        let result = loop {
            {
                let mut st = sh.state.lock();
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
            self.agent.shared.blocked.fetch_add(1, Ordering::SeqCst);
            sh.blocked_agents
                .lock()
                .insert(self.agent.id, self.agent.rank);
            let woke = self.agent.cell.park_timeout_direct(PARK_SLICE);
            sh.blocked_agents.lock().remove(&self.agent.id);
            self.agent.shared.blocked.fetch_sub(1, Ordering::SeqCst);
            if woke.is_none() && sh.aborted.load(Ordering::SeqCst) {
                panic!("rt deadlock: blocked in MPI_Comm_split (member missing from the split?)");
            }
        };
        if let Some(v) = sh.verify.as_ref() {
            v.wait_end(self.agent.id);
        }
        self.agent.cell.take_pending_direct();

        if color < 0 {
            return None;
        }
        let (ctx, members) = result
            .group_of(me)
            .expect("non-negative color must produce a group");
        let my_index = members.iter().position(|&r| r == me).unwrap();
        let world_ranks: Vec<u32> = members.iter().map(|&r| self.info.ranks[r]).collect();
        Some(RtComm::with_info(
            RtCommInfo {
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
        let sh = &self.agent.shared;
        sh.metrics.op(self.agent.rank, OpKind::Isend, payload.len());
        sh.isend_raw(
            self.agent.id,
            self.agent.rank,
            std::panic::Location::caller(),
            self.key_to(dst, tag as u64),
            payload,
        )
    }

    /// Nonblocking receive from communicator rank `src`.
    #[track_caller]
    pub fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        let sh = &self.agent.shared;
        sh.metrics.op(self.agent.rank, OpKind::Irecv, 0);
        sh.irecv_raw(
            self.agent.id,
            self.agent.rank,
            std::panic::Location::caller(),
            self.key_from(src, tag as u64),
        )
    }

    /// Blocking send.
    #[track_caller]
    pub fn send(&self, dst: usize, tag: u32, payload: Payload) {
        let sh = &self.agent.shared;
        let t0 = sh.now();
        let n = payload.len();
        sh.metrics.op(self.agent.rank, OpKind::Send, n);
        let r = self.isend(dst, tag, payload);
        self.wait(&r);
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || format!("MPI_Send {n}B -> {dst}"),
        );
    }

    /// Blocking receive; returns the payload.
    #[track_caller]
    pub fn recv(&self, src: usize, tag: u32) -> Payload {
        let sh = &self.agent.shared;
        let t0 = sh.now();
        let r = self.irecv(src, tag);
        let p = self.wait(&r);
        sh.metrics.op(self.agent.rank, OpKind::Recv, p.len());
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || format!("MPI_Recv {}B <- {src}", p.len()),
        );
        p
    }

    /// Blocking concurrent send+receive (`MPI_Sendrecv`).
    #[track_caller]
    pub fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload {
        let rr = self.irecv(src, tag);
        let sr = self.isend(dst, tag, payload);
        self.wait(&sr);
        self.wait(&rr)
    }

    /// Wait for a request (`MPI_Wait`): blocks the OS thread until the
    /// request completes.
    pub fn wait<T>(&self, req: &Request<T>) -> T {
        let sh = &self.agent.shared;
        let t0 = sh.now();
        let v = self.agent.wait(req);
        let d = sh.now().saturating_since(t0);
        sh.metrics.wait_duration(self.agent.rank, d.as_nanos());
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        let v = self.wait(req);
        let owned = label.to_string();
        sh.span(
            self.agent.id,
            SpanKind::Wait,
            chunk,
            t0,
            sh.now(),
            move || owned,
        );
        v
    }

    /// Nonblocking completion probe (`MPI_Test`). The wall clock cannot
    /// observe the future, so a plain completion-flag check is exact.
    pub fn test<T>(&self, req: &Request<T>) -> bool {
        let sh = &self.agent.shared;
        sh.metrics.test_probe(self.agent.rank);
        let done = req.is_complete();
        if done {
            if let (Some(v), Some(id)) = (sh.verify.as_ref(), req.verify_id()) {
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

    /// Wait for all requests in order and return their values.
    pub fn wait_all_payloads<T>(&self, reqs: &[Request<T>]) -> Vec<T> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    // ---------------------------------------------------------------
    // Blocking collectives (run inline on the rank thread)
    // ---------------------------------------------------------------

    /// Blocking broadcast from `root` (`data` must be `Some` at the root).
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Bcast, len);
        let plans = self.plans(CollKind::Bcast, len, root);
        let input = if self.info.me == root { data } else { None };
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], input),
            "bcast",
        );
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || format!("MPI_Bcast {len}B root={root}"),
        );
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Reduce, n);
        let plans = self.plans(CollKind::Reduce, n, root);
        let out = execute_plan(&self.cctx(seq), &plans[self.info.me], Some(contrib));
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || format!("MPI_Reduce {n}B root={root}"),
        );
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Allreduce, n);
        let plans = self.plans(CollKind::Allreduce, n, 0);
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], Some(contrib)),
            "allreduce",
        );
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || format!("MPI_Allreduce {n}B"),
        );
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Barrier, 0);
        let plans = self.plans(CollKind::Barrier, 0, 0);
        execute_plan(&self.cctx(seq), &plans[self.info.me], None);
        self.blocking_done(t0);
        sh.span(
            self.agent.id,
            SpanKind::BlockingCall,
            None,
            t0,
            sh.now(),
            || "MPI_Barrier".to_string(),
        );
    }

    /// Blocking scatter of `len` bytes from `root`; returns this rank's
    /// chunk.
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Scatter, len);
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Gather, len);
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
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.metrics.op(self.agent.rank, OpKind::Allgather, len);
        let plans = self.plans(CollKind::Allgather, len, 0);
        let out = expect_out(
            execute_plan(&self.cctx(seq), &plans[self.info.me], Some(chunk)),
            "allgather",
        );
        self.blocking_done(t0);
        out
    }

    // ---------------------------------------------------------------
    // Nonblocking collectives (run on a progress worker)
    // ---------------------------------------------------------------

    /// Nonblocking broadcast (`MPI_Ibcast`): posts to a progress worker and
    /// returns immediately — the post cost is whatever the post really
    /// costs.
    #[track_caller]
    pub fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let t0 = self.agent.shared.now();
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
        let req = self.dispatch(
            CollKind::Bcast,
            Some(root as u32),
            len,
            seq,
            site,
            move |cctx| expect_out(execute_plan(cctx, &plans[info.me], input), "bcast"),
        );
        self.post_done(t0, OpKind::Ibcast, len, "MPI_Ibcast", root as i64);
        req
    }

    /// Nonblocking reduction (`MPI_Ireduce`); root's request yields `Some`.
    #[track_caller]
    pub fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.shared.now();
        let p = self.size();
        assert!(root < p, "reduce root {root} out of range (p={p})");
        let plans = self.plans(CollKind::Reduce, n, root);
        let info = self.info.clone();
        let req = self.dispatch(
            CollKind::Reduce,
            Some(root as u32),
            n,
            seq,
            site,
            move |cctx| execute_plan(cctx, &plans[info.me], Some(contrib)),
        );
        self.post_done(t0, OpKind::Ireduce, n, "MPI_Ireduce", root as i64);
        req
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`).
    #[track_caller]
    pub fn iallreduce(&self, contrib: Payload) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let n = contrib.len();
        let t0 = self.agent.shared.now();
        let plans = self.plans(CollKind::Allreduce, n, 0);
        let info = self.info.clone();
        let req = self.dispatch(CollKind::Allreduce, None, n, seq, site, move |cctx| {
            expect_out(
                execute_plan(cctx, &plans[info.me], Some(contrib)),
                "allreduce",
            )
        });
        self.post_done(t0, OpKind::Iallreduce, n, "MPI_Iallreduce", -1);
        req
    }

    /// Nonblocking barrier (`MPI_Ibarrier`) — the wake-up signal of the
    /// multiple-PPN sleep mechanism.
    #[track_caller]
    pub fn ibarrier(&self) -> Request<()> {
        let site = std::panic::Location::caller();
        let seq = self.coll_seq_next();
        let t0 = self.agent.shared.now();
        let plans = self.plans(CollKind::Barrier, 0, 0);
        let info = self.info.clone();
        let req = self.dispatch(CollKind::Barrier, None, 0, seq, site, move |cctx| {
            execute_plan(cctx, &plans[info.me], None);
        });
        self.post_done(t0, OpKind::Ibarrier, 0, "MPI_Ibarrier", -1);
        req
    }

    /// Record a nonblocking post: op counters, post-duration histogram,
    /// and a `Post` trace span.
    fn post_done(&self, t0: SimTime, kind: OpKind, bytes: usize, name: &'static str, root: i64) {
        let sh = &self.agent.shared;
        sh.metrics.op(self.agent.rank, kind, bytes);
        sh.metrics
            .post_duration(self.agent.rank, sh.now().saturating_since(t0).as_nanos());
        sh.span(self.agent.id, SpanKind::Post, None, t0, sh.now(), || {
            if root >= 0 {
                format!("{name} post {bytes}B root={root}")
            } else {
                format!("{name} post {bytes}B")
            }
        });
    }

    fn cctx(&self, seq: u64) -> RtCollCtx {
        RtCollCtx {
            agent: self.agent.clone(),
            ctx: self.info.ctx,
            ranks: self.info.ranks.clone(),
            me: self.info.me,
            seq,
        }
    }

    /// Run `f` on a progress worker under its own operation agent; the
    /// returned request completes with `f`'s value. `seq` scopes the
    /// instance's internal tags.
    fn dispatch<T, F>(
        &self,
        kind: CollKind,
        root: Option<u32>,
        len: usize,
        seq: u64,
        site: Site,
        f: F,
    ) -> Request<T>
    where
        T: Send + 'static,
        F: FnOnce(&RtCollCtx) -> T + Send + 'static,
    {
        let sh = self.agent.shared.clone();
        let rank = self.agent.rank;
        let op_idx = self.agent.op_counter.fetch_add(1, Ordering::Relaxed);
        let id = op_actor_id(rank, op_idx);
        let (req, vid): (Request<T>, Option<ReqId>) = match sh.verify.as_ref() {
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
                    Request::new_tracked(ovcomm_simmpi::request::ReqMeta {
                        verifier: v.clone(),
                        id: rid,
                    }),
                    Some(rid),
                )
            }
            None => (Request::new(), None),
        };
        let req2 = req.clone();
        let ctx = self.info.ctx;
        let ranks = self.info.ranks.clone();
        let me = self.info.me;
        // The job counts as a live thread from post time, so the watchdog
        // never mistakes "everyone blocked waiting on a queued job" for a
        // deadlock.
        sh.live.fetch_add(1, Ordering::SeqCst);
        sh.metrics.pool_occupancy.inc();
        // Route by communicator: each dup'd communicator's collectives
        // progress on their own shard of the engine.
        let shard = sh.progress.shard_of(ctx);
        let sh2 = sh.clone();
        sh.progress.submit(
            shard,
            Box::new(move || {
                struct Finish(Arc<RtShared>, usize);
                impl Drop for Finish {
                    fn drop(&mut self) {
                        self.0.progress.job_finished(self.1);
                        self.0.metrics.pool_occupancy.dec();
                        self.0.live.fetch_sub(1, Ordering::SeqCst);
                        self.0.progress_epoch.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _guard = Finish(sh2.clone(), shard);
                let cctx = RtCollCtx {
                    agent: RtAgent {
                        id,
                        rank,
                        cell: Arc::new(ParkCell::new()),
                        op_counter: Arc::new(AtomicU64::new(0)),
                        shared: sh2.clone(),
                    },
                    ctx,
                    ranks,
                    me,
                    seq,
                };
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&cctx)));
                match out {
                    Ok(v) => {
                        // Log completion before completing the request, so an
                        // analysis scanning forward from a matched wait always
                        // finds the collective's completion snapshot.
                        if let (Some(vf), Some(rid)) = (sh2.verify.as_ref(), vid) {
                            vf.record(VEvent::CollDone {
                                req: rid,
                                op_agent: id,
                            });
                        }
                        let done = sh2.now();
                        sh2.edge(ovcomm_simnet::EdgeKind::PostWait, id, done, rank, done);
                        sh2.complete(&req2, v);
                    }
                    Err(e) => {
                        // Deadlock-abort unwinds land here; record others for
                        // the runtime to surface.
                        let msg = e
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| e.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<op worker panic>".to_string());
                        sh2.record_op_panic(rank, msg);
                    }
                }
            }),
        );
        req
    }
}

/// The runtime's side of the plan executor's I/O surface: internal p2p
/// through the shared-memory mailbox, real-time slack per compute mode,
/// and no γ-charge for reductions — the executor's `reduce_sum_f64` *is*
/// the real work on this thread.
pub(crate) struct RtCollCtx {
    agent: RtAgent,
    ctx: u32,
    ranks: Arc<Vec<u32>>,
    me: usize,
    seq: u64,
}

impl RtCollCtx {
    /// Internal tag for communication step `step` of this instance — the
    /// same encoding as the simulator's `CollCtx`.
    fn tag(&self, step: u32) -> u64 {
        assert!(
            self.seq < (1 << 24),
            "too many collectives on one communicator"
        );
        (1 << 63) | (self.seq << 24) | step as u64
    }
}

impl PlanIo for RtCollCtx {
    fn p(&self) -> usize {
        self.ranks.len()
    }

    fn me(&self) -> usize {
        self.me
    }

    fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        self.agent.shared.isend_raw(
            self.agent.id,
            self.agent.rank,
            std::panic::Location::caller(),
            RtKey {
                ctx: self.ctx,
                src: self.ranks[self.me],
                dst: self.ranks[dst],
                tag: self.tag(tag),
            },
            payload,
        )
    }

    fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        self.agent.shared.irecv_raw(
            self.agent.id,
            self.agent.rank,
            std::panic::Location::caller(),
            RtKey {
                ctx: self.ctx,
                src: self.ranks[src],
                dst: self.ranks[self.me],
                tag: self.tag(tag),
            },
        )
    }

    fn wait_unit(&self, r: &Request<()>) {
        self.agent.wait(r);
    }

    fn wait_payload(&self, r: &Request<Payload>) -> Payload {
        self.agent.wait(r)
    }

    fn slack(&self) {
        let d = self.agent.shared.profile.coll_round_slack;
        self.agent.shared.charge(d);
    }

    fn reduce_charge(&self, _n: usize) {
        // Real arithmetic costs real time; nothing to model.
    }

    fn now(&self) -> SimTime {
        self.agent.shared.now()
    }

    fn step_span(&self, t0: SimTime, label: impl FnOnce() -> String) {
        let sh = &self.agent.shared;
        sh.span(self.agent.id, SpanKind::CollStep, None, t0, sh.now(), label);
    }
}

// ---------------------------------------------------------------------
// The per-rank context
// ---------------------------------------------------------------------

/// Handle passed to each rank's closure on the runtime backend: identity,
/// the wall clock, and the world communicator. The analogue of the
/// simulator's `RankCtx`.
pub struct RtRankCtx {
    pub(crate) agent: RtAgent,
    pub(crate) world: RtComm,
    active_ppn: Cell<usize>,
}

impl RtRankCtx {
    pub(crate) fn new(agent: RtAgent, world: RtComm) -> RtRankCtx {
        RtRankCtx {
            agent,
            world,
            active_ppn: Cell::new(0),
        }
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.agent.rank as usize
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.agent.shared.nodemap.nranks()
    }

    /// Logical node hosting this rank (everything is physically shared
    /// memory; the node map scopes traffic accounting and PPN logic).
    pub fn node(&self) -> usize {
        self.agent.shared.nodemap.node_of(self.rank())
    }

    /// Number of ranks sharing this rank's logical node.
    pub fn ppn(&self) -> usize {
        let me = self.node();
        (0..self.nranks())
            .filter(|&r| self.agent.shared.nodemap.node_of(r) == me)
            .count()
    }

    /// The world communicator (all ranks).
    pub fn world(&self) -> RtComm {
        self.world.clone()
    }

    /// Wall-clock nanoseconds since the run's epoch.
    pub fn now(&self) -> SimTime {
        self.agent.shared.now()
    }
}

use ovcomm_core::{Communicator, RankHandle};

impl Communicator for RtComm {
    fn size(&self) -> usize {
        RtComm::size(self)
    }
    fn rank(&self) -> usize {
        RtComm::rank(self)
    }
    fn world_rank(&self, idx: usize) -> usize {
        RtComm::world_rank(self, idx)
    }
    fn dup(&self) -> Self {
        RtComm::dup(self)
    }
    fn dup_n(&self, n: usize) -> Vec<Self> {
        RtComm::dup_n(self, n)
    }
    fn split(&self, color: i64, key: u64) -> Option<Self> {
        RtComm::split(self, color, key)
    }
    fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        RtComm::isend(self, dst, tag, payload)
    }
    fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        RtComm::irecv(self, src, tag)
    }
    fn send(&self, dst: usize, tag: u32, payload: Payload) {
        RtComm::send(self, dst, tag, payload)
    }
    fn recv(&self, src: usize, tag: u32) -> Payload {
        RtComm::recv(self, src, tag)
    }
    fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload {
        RtComm::sendrecv(self, dst, src, tag, payload)
    }
    fn wait<T>(&self, req: &Request<T>) -> T {
        RtComm::wait(self, req)
    }
    fn wait_traced<T>(&self, req: &Request<T>, label: &str) -> T {
        RtComm::wait_traced(self, req, label)
    }
    fn wait_traced_chunk<T>(&self, req: &Request<T>, label: &str, chunk: u32) -> T {
        RtComm::wait_traced_chunk(self, req, label, chunk)
    }
    fn test<T>(&self, req: &Request<T>) -> bool {
        RtComm::test(self, req)
    }
    fn wait_all(&self, reqs: &[Request<()>]) {
        RtComm::wait_all(self, reqs)
    }
    fn wait_all_payloads<T>(&self, reqs: &[Request<T>]) -> Vec<T> {
        RtComm::wait_all_payloads(self, reqs)
    }
    fn bcast(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        RtComm::bcast(self, root, data, len)
    }
    fn reduce(&self, root: usize, contrib: Payload) -> Option<Payload> {
        RtComm::reduce(self, root, contrib)
    }
    fn allreduce(&self, contrib: Payload) -> Payload {
        RtComm::allreduce(self, contrib)
    }
    fn barrier(&self) {
        RtComm::barrier(self)
    }
    fn scatter(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        RtComm::scatter(self, root, data, len)
    }
    fn gather(&self, root: usize, chunk: Payload, len: usize) -> Option<Payload> {
        RtComm::gather(self, root, chunk, len)
    }
    fn allgather(&self, chunk: Payload, len: usize) -> Payload {
        RtComm::allgather(self, chunk, len)
    }
    fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload> {
        RtComm::ibcast(self, root, data, len)
    }
    fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>> {
        RtComm::ireduce(self, root, contrib)
    }
    fn iallreduce(&self, contrib: Payload) -> Request<Payload> {
        RtComm::iallreduce(self, contrib)
    }
    fn ibarrier(&self) -> Request<()> {
        RtComm::ibarrier(self)
    }
    type Win = crate::window::RtWin;
    fn win_create(&self, local: Payload) -> crate::window::RtWin {
        RtComm::win_create(self, local)
    }
}

impl RankHandle for RtRankCtx {
    type Comm = RtComm;

    fn rank(&self) -> usize {
        RtRankCtx::rank(self)
    }
    fn nranks(&self) -> usize {
        RtRankCtx::nranks(self)
    }
    fn node(&self) -> usize {
        RtRankCtx::node(self)
    }
    fn ppn(&self) -> usize {
        RtRankCtx::ppn(self)
    }
    fn compute_ppn(&self) -> usize {
        let o = self.active_ppn.get();
        if o == 0 {
            self.ppn()
        } else {
            o
        }
    }
    fn set_active_ppn(&self, active: usize) {
        self.active_ppn.set(active);
    }
    fn world(&self) -> RtComm {
        RtRankCtx::world(self)
    }
    fn now(&self) -> SimTime {
        RtRankCtx::now(self)
    }
    fn advance(&self, d: SimDur) {
        self.agent.shared.charge(d);
    }
    fn compute_flops(&self, flops: f64, rate: f64) {
        assert!(rate > 0.0 && flops >= 0.0);
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.charge(SimDur::from_secs_f64(flops / rate));
        sh.span(self.agent.id, SpanKind::Compute, None, t0, sh.now(), || {
            format!("compute {flops:.3e} flops")
        });
    }
    fn sleep(&self, d: SimDur) {
        // The sleep/poll mechanism of §III-B must really yield the core,
        // but under `Skip` long modeled naps are capped so poll loops stay
        // responsive in wall time.
        let real = std::time::Duration::from_nanos(d.as_nanos());
        let capped = match self.agent.shared.compute {
            ComputeMode::Skip => real.min(std::time::Duration::from_millis(1)),
            ComputeMode::Emulate => real,
        };
        if !capped.is_zero() {
            std::thread::sleep(capped);
        }
    }
    fn profile(&self) -> &MachineProfile {
        &self.agent.shared.profile
    }
    fn nodemap(&self) -> &NodeMap {
        &self.agent.shared.nodemap
    }
    fn trace_span(&self, kind: SpanKind, start: SimTime, end: SimTime, label: String) {
        self.agent
            .shared
            .span(self.agent.id, kind, None, start, end, move || label);
    }
    fn trace_span_chunk(
        &self,
        kind: SpanKind,
        chunk: u32,
        start: SimTime,
        end: SimTime,
        label: String,
    ) {
        self.agent
            .shared
            .span(self.agent.id, kind, Some(chunk), start, end, move || label);
    }
    fn phase_span(&self, start: SimTime, label: String) {
        let sh = &self.agent.shared;
        let end = sh.now();
        sh.span(
            self.agent.id,
            SpanKind::Phase,
            None,
            start,
            end,
            move || label,
        );
    }
    fn backend_name(&self) -> &'static str {
        "rt"
    }
}
