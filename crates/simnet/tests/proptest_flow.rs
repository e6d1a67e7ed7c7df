//! Property tests for the max–min fair flow allocator: capacity limits,
//! per-flow caps, work conservation and fairness hold for arbitrary
//! topologies and flow sets, and the incremental allocator matches a
//! from-scratch reference after every step of add/remove/progress churn.

use proptest::prelude::*;

use ovcomm_simnet::{FlowId, FlowNet, FlowSpec, ResourceId};

#[derive(Debug, Clone)]
struct Scenario {
    capacities: Vec<f64>,
    flows: Vec<(Vec<usize>, f64, f64)>, // (resource indices, cap, bytes)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let caps = prop::collection::vec(1.0e6..1.0e10f64, 1..6);
    caps.prop_flat_map(|capacities| {
        let nres = capacities.len();
        let flow = (
            prop::collection::vec(0..nres, 1..=nres.min(3)),
            1.0e5..1.0e10f64,
            0.0..1.0e9f64,
        );
        let flows = prop::collection::vec(flow, 1..12);
        (Just(capacities), flows).prop_map(|(capacities, flows)| Scenario { capacities, flows })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn max_min_allocation_invariants(s in scenario()) {
        let mut net = FlowNet::new();
        let res: Vec<ResourceId> = s.capacities.iter().map(|&c| net.add_resource(c)).collect();
        let mut ids = Vec::new();
        for (rs, cap, bytes) in &s.flows {
            let resources: Vec<ResourceId> = rs.iter().map(|&i| res[i]).collect();
            ids.push(net.add(FlowSpec { resources, cap: *cap, bytes: *bytes }));
        }

        // 1. Every flow gets a strictly positive rate no greater than its cap.
        for (id, (_, cap, _)) in ids.iter().zip(&s.flows) {
            let r = net.rate(*id);
            prop_assert!(r > 0.0, "flow starved");
            prop_assert!(r <= cap * (1.0 + 1e-9), "rate {r} exceeds cap {cap}");
        }

        // 2. No resource is over-allocated.
        for (ri, &capacity) in s.capacities.iter().enumerate() {
            let used: f64 = ids
                .iter()
                .zip(&s.flows)
                .filter(|(_, (rs, _, _))| rs.contains(&ri))
                .map(|(id, _)| net.rate(*id))
                .sum();
            prop_assert!(
                used <= capacity * (1.0 + 1e-6),
                "resource {ri} over-allocated: {used} > {capacity}"
            );
        }

        // 3. Work conservation / max-min: every flow is bottlenecked by its
        // own cap or by some saturated resource it crosses.
        for (id, (rs, cap, _)) in ids.iter().zip(&s.flows) {
            let r = net.rate(*id);
            let at_cap = r >= cap * (1.0 - 1e-6);
            let at_bottleneck = rs.iter().any(|&ri| {
                let used: f64 = ids
                    .iter()
                    .zip(&s.flows)
                    .filter(|(_, (rs2, _, _))| rs2.contains(&ri))
                    .map(|(id2, _)| net.rate(*id2))
                    .sum();
                used >= s.capacities[ri] * (1.0 - 1e-6)
            });
            prop_assert!(
                at_cap || at_bottleneck,
                "flow neither capped nor bottlenecked (rate {r}, cap {cap})"
            );
        }
    }

    #[test]
    fn progress_conserves_bytes(bytes in 1.0..1e9f64, dt in 0.0..10.0f64) {
        let mut net = FlowNet::new();
        let r = net.add_resource(1e9);
        let f = net.add(FlowSpec { resources: vec![r], cap: 2e9, bytes });
        let rate = net.rate(f);
        net.progress(dt);
        let expect = (bytes - rate * dt).max(0.0);
        prop_assert!((net.remaining(f) - expect).abs() < 1e-6 * bytes.max(1.0));
    }

    #[test]
    fn removal_never_decreases_other_rates(n in 2usize..8) {
        let mut net = FlowNet::new();
        let r = net.add_resource(1e9);
        let ids: Vec<_> = (0..n)
            .map(|_| net.add(FlowSpec { resources: vec![r], cap: 5e8, bytes: 1e6 }))
            .collect();
        let before: Vec<f64> = ids.iter().map(|&i| net.rate(i)).collect();
        net.remove(ids[0]);
        for (&id, &b) in ids[1..].iter().zip(&before[1..]) {
            prop_assert!(net.rate(id) >= b - 1e-6, "rate dropped after removal");
        }
    }
}

/// From-scratch max–min reference allocator, structured independently of
/// the incremental implementation, for the randomized equivalence tests.
fn reference_rates(caps: &[f64], flows: &[(Vec<usize>, f64)]) -> Vec<f64> {
    let n = flows.len();
    let mut rate = vec![0.0f64; n];
    let mut fixed = vec![false; n];
    let mut rem = caps.to_vec();
    loop {
        let mut count = vec![0usize; caps.len()];
        for (i, (res, _)) in flows.iter().enumerate() {
            if !fixed[i] {
                for &r in res {
                    count[r] += 1;
                }
            }
        }
        if fixed.iter().all(|&f| f) {
            break;
        }
        let mut level = f64::INFINITY;
        for r in 0..caps.len() {
            if count[r] > 0 {
                level = level.min(rem[r].max(0.0) / count[r] as f64);
            }
        }
        for (i, (_, cap)) in flows.iter().enumerate() {
            if !fixed[i] {
                level = level.min(*cap);
            }
        }
        // Decide this round's pinned set against the round-start
        // rem/count snapshot, then apply the subtractions (mutating
        // `rem` mid-sweep with a stale `count` would falsely pin
        // late-checked flows).
        let pinned: Vec<usize> = (0..n)
            .filter(|&i| !fixed[i])
            .filter(|&i| {
                let (res, cap) = &flows[i];
                *cap <= level * (1.0 + 1e-9)
                    || res.iter().any(|&r| {
                        count[r] > 0 && rem[r].max(0.0) / count[r] as f64 <= level * (1.0 + 1e-9)
                    })
            })
            .collect();
        assert!(!pinned.is_empty());
        for i in pinned {
            fixed[i] = true;
            rate[i] = level;
            for &r in &flows[i].0 {
                rem[r] -= level;
            }
        }
    }
    rate
}

#[test]
fn randomized_incremental_matches_from_scratch_reference() {
    // Pseudo-random add/remove churn; after every step, every live
    // flow's incremental rate must match a from-scratch allocation of
    // the current flow set.
    let mut seed = 0x2545F491_4F6CDD1Du64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut net = FlowNet::new();
    let caps: Vec<f64> = (0..6).map(|i| 4e9 + 1e9 * i as f64).collect();
    let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
    let mut live: Vec<(FlowId, Vec<usize>, f64)> = Vec::new();
    for step in 0..200 {
        if live.is_empty() || rng() % 3 != 0 {
            let nres = 1 + (rng() % 3) as usize;
            let mut res: Vec<usize> = (0..nres).map(|_| (rng() % 6) as usize).collect();
            res.sort_unstable();
            res.dedup();
            let cap = 1e9 + (rng() % 10) as f64 * 1e9;
            let id = net.add(FlowSpec {
                resources: res.iter().map(|&r| rids[r]).collect(),
                cap,
                bytes: 1e6,
            });
            live.push((id, res, cap));
        } else {
            let victim = (rng() as usize) % live.len();
            let (id, _, _) = live.swap_remove(victim);
            net.remove(id);
        }
        net.progress(1e-6);
        live.sort_by_key(|(id, _, _)| *id);
        if let Err(e) = rates_match_reference(&net, &caps, &live) {
            panic!("step {step}: {e}");
        }
    }
}

/// Compare every live flow's incremental rate against a from-scratch
/// allocation of the current flow set (`live` must be in id order; each
/// entry is `(id, deduplicated resource indices, cap)`).
///
/// The tolerance is 1e-8 of the largest capacity the flow crosses: a
/// fast-path add may overfill a resource by up to `SAT_EPS` (1e-9) of its
/// capacity, and the reference pins within 1e-9 of each level, so the
/// correct allocator stays well inside it, while a fast path admitting
/// 1e-6 of excess does not.
fn rates_match_reference(
    net: &FlowNet,
    caps: &[f64],
    live: &[(FlowId, Vec<usize>, f64)],
) -> Result<(), String> {
    let flows: Vec<(Vec<usize>, f64)> = live
        .iter()
        .map(|(_, res, cap)| (res.clone(), *cap))
        .collect();
    let expect = reference_rates(caps, &flows);
    for ((id, res, _), want) in live.iter().zip(expect) {
        let got = net.rate(*id);
        let scale = res.iter().map(|&r| caps[r]).fold(want, f64::max);
        if (got - want).abs() > scale * 1e-8 {
            return Err(format!("flow {id:?} rate {got} != reference {want}"));
        }
    }
    Ok(())
}

/// One churn operation: `(kind, a, b)`, where `a` and `b` pick resources,
/// caps, sizes and victims.
type Op = (u8, u64, u64);

/// Relative offsets of a boundary cap from an exact fraction of a
/// resource's capacity: straddling `SAT_EPS` (1e-9) on both sides, so the
/// fast-path add and slow-path remove tests see values just inside and
/// just outside their tolerance, plus a pair far enough outside that a
/// looser tolerance shows up as a rate error.
const BOUNDARY_OFFSETS: [f64; 7] = [-1e-6, -2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9, 1e-6];

fn churn() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    let caps = prop::collection::vec(prop::sample::select(vec![1e9, 4e9, 10e9, 12e9]), 1..7);
    let ops = prop::collection::vec((0u8..6, 0u64..u64::MAX, 0u64..u64::MAX), 1..80);
    (caps, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random add/remove/progress churn against the from-scratch reference.
    /// Kinds: 0 adds a flow whose cap is an exact fraction of one of its
    /// resources' capacity, nudged across the `SAT_EPS` boundary; 1 adds a
    /// generic flow; 2 adds a zero-byte flow; 3 removes a random flow
    /// (often the last one on its resources, leaving the recompute seeds
    /// empty); 4 advances to the next completion and retires every
    /// finished flow; 5 advances by a random interval. Resource lists
    /// keep their duplicates. After every operation every rate must match
    /// the reference, and every resource must have carried exactly the
    /// bytes its flows moved.
    #[test]
    fn churn_matches_reference_and_conserves_bytes((caps, ops) in churn()) {
        let mut net = FlowNet::new();
        let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
        let nres = caps.len() as u64;
        // Live flows: (id, deduplicated resources, cap).
        let mut live: Vec<(FlowId, Vec<usize>, f64)> = Vec::new();
        // Every flow ever added: (id, deduplicated resources, bytes), plus
        // the bytes still outstanding when it was removed.
        let mut all: Vec<(FlowId, Vec<usize>, f64)> = Vec::new();
        let mut left_at_removal: Vec<(FlowId, f64)> = Vec::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            match kind {
                0..=2 => {
                    let n = 1 + (a % 3) as usize;
                    let spec_res: Vec<usize> = (0..n)
                        .map(|i| ((a >> (8 * (i + 1))) % nres) as usize)
                        .collect();
                    let cap = match kind {
                        0 => {
                            let frac = 1.0 + (b % 4) as f64;
                            let off = BOUNDARY_OFFSETS[((b >> 8) % 7) as usize];
                            caps[spec_res[0]] / frac * (1.0 + off)
                        }
                        _ => 1e8 + (b % 1000) as f64 * 1.3e7,
                    };
                    let bytes = match kind {
                        2 => 0.0,
                        _ => 1.0 + ((b >> 16) % 1_000_000) as f64 * 1e3,
                    };
                    let id = net.add(FlowSpec {
                        resources: spec_res.iter().map(|&r| rids[r]).collect(),
                        cap,
                        bytes,
                    });
                    let mut res = spec_res;
                    res.sort_unstable();
                    res.dedup();
                    live.push((id, res.clone(), cap));
                    all.push((id, res, bytes));
                }
                3 if !live.is_empty() => {
                    let (id, _, _) = live.remove((a % live.len() as u64) as usize);
                    left_at_removal.push((id, net.remove(id)));
                }
                4 | 5 => {
                    let next = live
                        .iter()
                        .map(|(id, _, _)| net.eta_secs(*id))
                        .fold(f64::INFINITY, f64::min);
                    let dt = if kind == 5 || !next.is_finite() {
                        (a % 1000) as f64 * 1e-6
                    } else {
                        next
                    };
                    net.progress(dt);
                    let done: Vec<FlowId> = live
                        .iter()
                        .map(|(id, _, _)| *id)
                        .filter(|&id| net.eta_secs(id) == 0.0)
                        .collect();
                    for id in done {
                        live.retain(|(l, _, _)| *l != id);
                        left_at_removal.push((id, net.remove(id)));
                    }
                }
                _ => {}
            }

            let check = rates_match_reference(&net, &caps, &live);
            prop_assert!(check.is_ok(), "step {step} (kind {kind}): {check:?}");

            // Byte conservation: each resource carried exactly what the
            // flows crossing it moved (removed flows: their size minus what
            // `remove` reported outstanding).
            net.settle_all();
            // The tolerance is relative to the flow sizes involved, since
            // `size - outstanding` rounds at the sizes' magnitude.
            let mut moved = vec![0.0f64; caps.len()];
            let mut sizes = vec![0.0f64; caps.len()];
            for (id, res, bytes) in &all {
                let left = match left_at_removal.iter().find(|(r, _)| r == id) {
                    Some(&(_, left)) => left,
                    None => net.remaining(*id),
                };
                for &r in res {
                    moved[r] += bytes - left;
                    sizes[r] += bytes;
                }
            }
            for (r, (_, _, _, stats)) in net.resources().enumerate() {
                prop_assert!(
                    (stats.bytes - moved[r]).abs() <= 1e-12 * sizes[r].max(1.0),
                    "step {step}: resource {r} carried {} bytes, flows moved {}",
                    stats.bytes,
                    moved[r]
                );
            }
        }
    }
}
