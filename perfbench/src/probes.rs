//! Layer probes: each times one layer's public functions directly, with
//! sizes taken from the workload, and reports a per-operation host time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ovcomm_core::ChunkPlan;
use ovcomm_rt::queue::SpscRing;
use ovcomm_simmpi::universe::PlanCache;
use ovcomm_simmpi::{compile_plans, CollKind, CollSelector, VerifyMode};
use ovcomm_simnet::{fiber_yield, Engine, Fiber, FlowNet, FlowSpec, ParkCell, SimTime};

use crate::stats::median;
use crate::workloads::{self as wl, Workload};

/// Median over `reps` repetitions of `f`'s seconds per operation, where
/// one call of `f` performs `ops` operations.
fn per_op(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    median(&samples)
}

/// `FlowNet::add` + `FlowNet::remove` of one flow joining a saturated
/// component of `concurrency` flows that share a sender and a receiver
/// NIC, so both calls re-run the max–min filling. Microseconds per pair.
pub fn flow_addremove_us(concurrency: usize) -> f64 {
    const NIC_BPS: f64 = 12.5e9;
    let mut net = FlowNet::new();
    let (tx, rx) = (net.add_resource(NIC_BPS), net.add_resource(NIC_BPS));
    let spec = FlowSpec {
        resources: vec![tx, rx],
        cap: NIC_BPS,
        bytes: 1e12,
    };
    for _ in 0..concurrency.max(1) {
        net.add(spec.clone());
    }
    let ops = 2_000;
    per_op(15, ops, || {
        for _ in 0..ops {
            let id = net.add(black_box(spec.clone()));
            black_box(net.remove(id));
        }
    }) * 1e6
}

/// A `Fiber::resume` into a fiber that immediately `fiber_yield`s back.
/// Nanoseconds per round trip.
pub fn fiber_switch_ns() -> f64 {
    let (reps, ops) = (15, 20_000);
    let mut fiber = Fiber::new(64 << 10, move || {
        for _ in 0..reps * ops {
            fiber_yield();
        }
    });
    let ns = per_op(reps, ops, || {
        for _ in 0..ops {
            fiber.resume();
        }
    }) * 1e9;
    fiber.resume();
    assert!(fiber.done(), "probe fiber must run to completion");
    ns
}

/// `Engine::schedule_engine` of `n` no-op events plus the `run_loop` that
/// fires them. A single fiber actor, ready after the last event, keeps the
/// loop alive until then. Nanoseconds per event.
pub fn engine_event_ns() -> f64 {
    let n = 50_000u64;
    per_op(9, n as usize, || {
        let engine = Arc::new(Engine::new());
        for t in 1..=n {
            engine.schedule_engine(SimTime(t), 0, Box::new(|_| {}));
        }
        let cell = Arc::new(ParkCell::new());
        let (e, c) = (engine.clone(), cell.clone());
        let actor = Fiber::new(64 << 10, move || {
            e.await_release(&c);
            e.actor_finished(0);
        });
        engine.register_fiber_at(0, actor, cell, SimTime(n + 1));
        engine.run_loop();
    }) * 1e9
}

/// The collective shapes `(kind, p, bytes, root)` a workload compiles.
fn coll_shapes(w: Workload) -> Vec<(CollKind, usize, usize, usize)> {
    match w {
        Workload::Ndup25d => {
            let block = (wl::N_1HSG_70 / wl::Q).pow(2) * std::mem::size_of::<f64>();
            let plan = ChunkPlan::new(block, wl::NDUP);
            let mut lens: Vec<usize> = (0..wl::NDUP).map(|c| plan.len(c)).collect();
            lens.dedup();
            lens.iter()
                .flat_map(|&n| {
                    [CollKind::Bcast, CollKind::Allreduce, CollKind::Reduce]
                        .map(|k| (k, wl::C, n, 0))
                })
                .collect()
        }
        Workload::Sync2500 => vec![
            (CollKind::Barrier, wl::SYNC_RANKS, 0, 0),
            (CollKind::Allreduce, wl::SYNC_RANKS, 8, 0),
        ],
        Workload::RtMix2 => vec![(
            CollKind::Allreduce,
            wl::MIX_RANKS,
            wl::MIX_LEN * std::mem::size_of::<f64>(),
            0,
        )],
    }
}

/// A cold `compile_plans` (build, lint and, under Strict, model check) of
/// every collective shape the workload uses. Seconds per workload.
pub fn plan_compile_s(w: Workload) -> f64 {
    let shapes = coll_shapes(w);
    let sel = CollSelector::default();
    per_op(5, 1, || {
        let cache = parking_lot::Mutex::new(PlanCache::new());
        for &(kind, p, n, root) in &shapes {
            black_box(compile_plans(
                &cache,
                &sel,
                VerifyMode::Strict,
                p,
                kind,
                n,
                root,
            ));
        }
    })
}

/// One `SpscRing` push and pop on a single thread. Nanoseconds per pair.
pub fn spsc_ns() -> f64 {
    let ring = SpscRing::<u64>::new(64);
    let ops = 200_000;
    per_op(15, ops, || {
        for i in 0..ops as u64 {
            // SAFETY: this thread is the ring's only producer and only
            // consumer, so neither call can race with another.
            unsafe {
                let _ = ring.try_push(black_box(i));
                black_box(ring.pop());
            }
        }
    }) * 1e9
}
