//! The three workloads, each driven through a public entry point:
//! `ovcomm_simmpi::run` for the simulator workloads and `ovcomm_rt::run`
//! for `rt_mix2`. Every input is drawn from the run's seed; the program
//! only sees the generated values.

use std::sync::Arc;

use ovcomm_core::{Communicator, NDupComms, RankHandle, Window};
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_kernels::{symm_square_cube_25d, Mesh25D, SymmInput};
use ovcomm_rt::{RtConfig, RtError, RtOutput, RtRankCtx};
use ovcomm_simmpi::{Payload, RankCtx, SimConfig, SimError, SimOutput, VerifyMode};
use ovcomm_simnet::{MachineProfile, SimDur};

use crate::spans::{Span, SpanLog, Tracer};
use crate::stats::process_cpu_s;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Alg. 6 2.5D SymmSquareCube, N_DUP = 4: the paper's burst pattern.
    Ndup25d,
    /// Barrier + 8-byte allreduce rounds at p = 2500 (vector clocks gated off).
    Sync2500,
    /// Two rank threads on `rt` mixing N_DUP iallreduces with a fence epoch.
    RtMix2,
}

const ALL: [Workload; 3] = [Workload::Ndup25d, Workload::Sync2500, Workload::RtMix2];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ndup25d => "ndup25d",
            Workload::Sync2500 => "sync2500",
            Workload::RtMix2 => "rt_mix2",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_sim(self) -> bool {
        self != Workload::RtMix2
    }
}

// --- ndup25d: one Table V mesh of the 2.5D kernel -------------------------

/// Mesh q×q×c and processes per node (Table V row "PPN 2, 5x5x5").
pub const Q: usize = 5;
pub const C: usize = 5;
const NDUP_PPN: usize = 2;
pub const NDUP: usize = 4;
/// Dimension of the paper's 1hsg_70 system.
pub const N_1HSG_70: usize = 7645;

// --- sync2500 ----------------------------------------------------------------

pub const SYNC_RANKS: usize = 2500;
const SYNC_PPN: usize = 4;

/// Barrier + allreduce rounds per unit.
const SYNC_ROUNDS: u64 = 2;

/// Virtual start/compute skew is drawn uniformly from `[0, SKEW_NS)`.
const SKEW_NS: u64 = 2_000;

// --- rt_mix2 ----------------------------------------------------------------

pub const MIX_RANKS: usize = 2;
const MIX_NDUP: usize = 4;
/// f64 elements per iallreduce, per put and per accumulate (32 KiB, below
/// the eager limit). Large enough that moving and reducing data, not
/// thread wake-ups alone, sets a round's time.
pub const MIX_LEN: usize = 4096;
/// Untimed rounds at the start of every batch (thread and pool start-up).
pub const MIX_WARM: usize = 8;
/// Timed rounds per `ovcomm_rt::run` call.
pub const MIX_ROUNDS: usize = 400;

/// The simulator workloads draw their inputs from `seed % SIM_VARIANTS`,
/// so that every seed has a makespan recorded in `check.rs`.
pub const SIM_VARIANTS: u64 = 64;

/// SplitMix64 finaliser: a fixed bijection that scrambles the seed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit draw keyed by the seed and three coordinates.
fn draw(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b ^ mix64(c))))
}

/// An integer-valued f64 below 2^20, so sums of up to 2^33 of them are
/// exact in any order and can be checked bit for bit.
fn value(seed: u64, round: u64, slot: u64, rank: usize) -> f64 {
    (draw(seed, round, slot, rank as u64) >> 44) as f64
}

fn skew(seed: u64, round: u64, rank: usize) -> SimDur {
    SimDur::from_nanos(draw(seed, round, u64::MAX, rank as u64) % SKEW_NS)
}

/// Fiber stack of the simulator workloads' ranks (see `sim_config`).
const FIBER_STACK: usize = 256 << 10;

fn profile() -> MachineProfile {
    MachineProfile::stampede2_skylake()
}

/// Simulator config of one unit of a simulator workload.
fn sim_config(w: Workload, verify: VerifyMode, trace: bool) -> SimConfig {
    let cfg = match w {
        // Quarter-size fiber stacks, as the multi-tenant driver uses. A
        // stack is a zeroed allocation that touches every page once the
        // allocator recycles freed memory for it, so default stacks would
        // add 2.5 GiB to every `sync2500` unit and raise an `ndup25d`
        // unit's peak from 137 to 512 MiB, memory traffic that hides the
        // flow solver the workload is there to measure.
        Workload::Ndup25d => {
            SimConfig::natural(Q * Q * C, NDUP_PPN, profile()).with_fiber_stack(FIBER_STACK)
        }
        Workload::Sync2500 => {
            SimConfig::natural(SYNC_RANKS, SYNC_PPN, profile()).with_fiber_stack(FIBER_STACK)
        }
        Workload::RtMix2 => SimConfig::natural(MIX_RANKS, 1, profile()),
    }
    .with_verify(verify);
    if trace {
        cfg.with_trace()
    } else {
        cfg
    }
}

/// One `simmpi::run` of a simulator workload. Each rank returns whether
/// every output it can check matched its closed form.
pub fn sim_unit(
    w: Workload,
    seed: u64,
    verify: VerifyMode,
    trace: bool,
) -> Result<SimOutput<bool>, SimError> {
    let cfg = sim_config(w, verify, trace);
    let variant = seed % SIM_VARIANTS;
    match w {
        Workload::Ndup25d => ovcomm_simmpi::run(cfg, move |rc: RankCtx| ndup25d_rank(&rc, variant)),
        Workload::Sync2500 => {
            let sums: Arc<Vec<f64>> = Arc::new(
                (0..SYNC_ROUNDS)
                    .map(|k| (0..SYNC_RANKS).map(|r| value(variant, k, 0, r)).sum())
                    .collect(),
            );
            ovcomm_simmpi::run(cfg, move |rc: RankCtx| sync_rank(&rc, variant, &sums))
        }
        Workload::RtMix2 => {
            let job = MixJob {
                seed,
                first_round: 0,
                rounds: MIX_ROUNDS,
            };
            let tracer = Tracer::new();
            ovcomm_simmpi::run(cfg, move |rc: RankCtx| {
                mix_rank(&rc, job, &mut tracer.log(false), None).1
            })
        }
    }
}

/// 2.5D SymmSquareCube on phantom 1hsg_70 blocks after a seeded start skew.
/// The check: D² and D³ land on plane 0 only, with the input block shape.
fn ndup25d_rank(rc: &RankCtx, seed: u64) -> bool {
    let mesh = Mesh25D::new(rc, Q, C);
    let grid = BlockGrid::new(N_1HSG_70, Q);
    let grd_ndup = NDupComms::new(&mesh.grd, NDUP);
    let dims = grid.block_dims(mesh.i, mesh.j);
    let input = SymmInput {
        n: N_1HSG_70,
        d_block: (mesh.k == 0).then_some(BlockBuf::Phantom(dims.0, dims.1)),
    };
    rc.advance(skew(seed, 0, rc.rank()));
    let out = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
    let shaped = |b: &Option<BlockBuf>| match b {
        Some(BlockBuf::Phantom(r, c)) => mesh.k == 0 && (*r, *c) == dims,
        Some(BlockBuf::Real(_)) => false,
        None => mesh.k != 0,
    };
    shaped(&out.d2) && shaped(&out.d3)
}

/// Rounds of skew, dissemination barrier and an 8-byte allreduce whose
/// sum is checked exactly.
fn sync_rank(rc: &RankCtx, seed: u64, sums: &[f64]) -> bool {
    let w = rc.world();
    let me = rc.rank();
    let mut ok = true;
    for (k, &sum) in sums.iter().enumerate() {
        rc.advance(skew(seed, k as u64, me));
        w.barrier();
        let got = w.allreduce(Payload::from_f64s(&[value(seed, k as u64, 0, me)]));
        ok &= got.to_f64s() == [sum];
    }
    ok
}

/// Which rounds one `rt_mix2` run executes.
#[derive(Clone, Copy)]
pub struct MixJob {
    pub seed: u64,
    /// Global index of the first round, so batches draw distinct values.
    pub first_round: u64,
    /// Timed rounds, after `MIX_WARM` untimed ones.
    pub rounds: usize,
}

/// Disjoint value streams: one per dup'd allreduce, one for the put and
/// one for the accumulate.
fn dup_slot(d: usize) -> u64 {
    (d as u64) << 16
}
const SLOT_PUT: u64 = 1 << 32;
const SLOT_ACC: u64 = 2 << 32;

/// One rank's seeded base values for a value stream of a batch.
fn base(job: &MixJob, slot: u64, rank: usize) -> Vec<f64> {
    (0..MIX_LEN as u64)
        .map(|i| value(job.seed, job.first_round, slot + i, rank))
        .collect()
}

/// `base` shifted by a round's offset, as sent in that round.
fn shifted(base: &[f64], off: f64) -> Vec<f64> {
    base.iter().map(|x| x + off).collect()
}

/// One `rt_mix2` rank: every round posts `MIX_NDUP` iallreduces on dup'd
/// communicators, waits for them, then puts and accumulates into the next
/// rank's window inside one fence epoch. Returns the timed rounds' process
/// CPU seconds, as seen from this rank, and whether every sum and every
/// window byte matched. Spans are recorded for the timed rounds only.
///
/// Each rank sends its seeded base values plus the round's offset, so
/// every expected result has a closed form that costs one add per element.
fn mix_rank<R: RankHandle>(
    rc: &R,
    job: MixJob,
    log: &mut SpanLog,
    parent: Option<u64>,
) -> (Vec<f64>, bool) {
    let world = rc.world();
    let (me, p) = (rc.rank(), rc.nranks());
    let (to, from) = ((me + 1) % p, (me + p - 1) % p);
    let mine: Vec<Vec<f64>> = (0..MIX_NDUP).map(|d| base(&job, dup_slot(d), me)).collect();
    let sum_base: Vec<Vec<f64>> = (0..MIX_NDUP)
        .map(|d| {
            let all: Vec<Vec<f64>> = (0..p).map(|q| base(&job, dup_slot(d), q)).collect();
            (0..MIX_LEN)
                .map(|i| all.iter().map(|b| b[i]).sum())
                .collect()
        })
        .collect();
    let (put_mine, put_from) = (base(&job, SLOT_PUT, me), base(&job, SLOT_PUT, from));
    let (acc_mine, acc_from) = (base(&job, SLOT_ACC, me), base(&job, SLOT_ACC, from));

    let comms = world.dup_n(MIX_NDUP);
    let win = world.win_create(Payload::from_f64s(&[0.0; 2 * MIX_LEN]));
    win.fence();
    let mut acc = vec![0.0; MIX_LEN];
    let mut ok = true;
    let mut lat = Vec::with_capacity(job.rounds);
    let traced = log.enabled();
    for i in 0..MIX_WARM + job.rounds {
        log.set_enabled(traced && i >= MIX_WARM);
        let k = job.first_round + i as u64;
        let off = (k % 1024) as f64;
        // Inputs are made and outputs checked outside the timed round.
        let contribs: Vec<Payload> = mine
            .iter()
            .map(|b| Payload::from_f64s(&shifted(b, off)))
            .collect();
        let put = Payload::from_f64s(&shifted(&put_mine, off));
        let add = Payload::from_f64s(&shifted(&acc_mine, off));
        // Both ranks enter the round together and leave it through the
        // fence, so the process's CPU clock over this rank's round covers
        // the round's work on every thread: ranks and progress workers.
        let t0 = process_cpu_s();
        let sums: Vec<Payload> = log.span("round", parent, k, |log, id| {
            let reqs: Vec<_> = log.span("rt.post", id, k, |_, _| {
                comms
                    .iter()
                    .zip(contribs)
                    .map(|(c, x)| c.iallreduce(x))
                    .collect()
            });
            let sums = log.span("rt.wait", id, k, |_, _| {
                reqs.iter().map(|r| world.wait(r)).collect()
            });
            log.span("rt.post", id, k, |_, _| {
                win.put(to, 0, put);
                win.accumulate(to, MIX_LEN * std::mem::size_of::<f64>(), add);
            });
            log.span("rt.fence", id, k, |_, _| win.fence());
            sums
        });
        if i >= MIX_WARM {
            lat.push(process_cpu_s() - t0);
        }
        log.span("check", parent, k, |_, _| {
            for (got, want) in sums.iter().zip(&sum_base) {
                ok &= got.to_f64s() == shifted(want, p as f64 * off);
            }
            for (a, v) in acc.iter_mut().zip(&acc_from) {
                *a += v + off;
            }
            let local = win.local().to_f64s();
            ok &= local[..MIX_LEN] == shifted(&put_from, off)[..];
            ok &= local[MIX_LEN..] == acc[..];
        });
        // Both ranks start the next round together, so neither round
        // absorbs the other rank's check.
        world.barrier();
    }
    win.free();
    (lat, ok)
}

/// What one `rt_mix2` rank thread hands back.
pub struct MixRank {
    pub lat: Vec<f64>,
    pub ok: bool,
    pub spans: Vec<Span>,
}

pub fn rt_config(verify: VerifyMode, trace: bool) -> RtConfig {
    let cfg = RtConfig::natural(MIX_RANKS, 1, profile())
        .with_verify(verify)
        .without_sampler();
    if trace {
        cfg.with_trace()
    } else {
        cfg
    }
}

/// One `ovcomm_rt::run` batch of `rt_mix2` rounds. With `spans`, every
/// rank records its rounds under the given parent span.
pub fn rt_batch(
    job: MixJob,
    cfg: RtConfig,
    spans: Option<(Tracer, Option<u64>)>,
) -> Result<RtOutput<MixRank>, RtError> {
    let (tracer, parent, enabled) = match spans {
        Some((t, parent)) => (t, parent, true),
        None => (Tracer::new(), None, false),
    };
    ovcomm_rt::run(cfg, move |rc: RtRankCtx| {
        let mut log = tracer.log(enabled);
        let (lat, ok) = mix_rank(&rc, job, &mut log, parent);
        MixRank {
            lat,
            ok,
            spans: log.spans,
        }
    })
}
