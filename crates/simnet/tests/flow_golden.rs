//! Bit-identity pin for the max–min flow solver.
//!
//! A fixed-seed churn of about 5k add / remove / progress operations folds
//! the exact bits of every observable the solver produces into one `u64`:
//! each live flow's `rate` and `remaining` after every operation, each
//! `take_rate_changes()` result, and every `ResourceStats` field. The
//! pinned hash was produced by the `BTreeMap`/`HashMap` solver this crate
//! shipped before its tables became flat; any change to the order of the
//! solver's floating-point operations moves it. The solver counters are
//! pinned the same way, so a change that coalesces or skips recomputes
//! cannot land silently.

use ovcomm_simnet::{FlowId, FlowNet, FlowSpec, ResourceId, ResourceStats, SolverCounters};

/// Hash of the golden churn, as produced by the pre-flattening solver.
const GOLDEN_HASH: u64 = 0x5b55_e8f1_d288_6c68;

/// Solver counters of the golden churn, as produced by the pre-flattening
/// solver.
const GOLDEN_COUNTERS: SolverCounters = SolverCounters {
    recomputes: 3574,
    component_flows: 56596,
    component_resources: 35161,
    filling_rounds: 20689,
};

/// Resources in the churn's ring.
const NRES: usize = 40;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn stats(&mut self, s: &ResourceStats) {
        self.word(s.busy_secs.to_bits());
        self.word(s.overlap2_secs.to_bits());
        self.word(s.bytes.to_bits());
        self.word(u64::from(s.max_concurrent));
    }
}

/// Runs the fixed churn and returns its hash and the final network.
fn golden_churn() -> (u64, FlowNet) {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut net = FlowNet::new();
    // A ring of NIC-like resources with a slower shared link every fifth
    // slot. Each flow touches a few neighbouring resources, so the sharing
    // graph splits into components that merge and separate under churn.
    let caps: Vec<f64> = (0..NRES)
        .map(|i| {
            if i % 5 == 4 {
                5e9
            } else {
                [12e9, 10e9, 8e9][i % 3]
            }
        })
        .collect();
    let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
    // Per-flow caps: exact fractions of the NIC capacities (so fast-path
    // fits land exactly on the saturation boundary), the same nudged just
    // inside and just outside `SAT_EPS`, and generic values.
    let flow_caps = [
        3e9,
        4e9,
        6e9,
        9e9,
        12e9,
        4e9 * (1.0 + 5e-10),
        6e9 * (1.0 + 2e-9),
        2.5e9,
        1e9,
        7.3e9,
    ];
    let mut live: Vec<FlowId> = Vec::new();
    let mut h = Fold(0xCBF2_9CE4_8422_2325);

    for _ in 0..5000 {
        let op = rng() % 10;
        if live.len() < 64 && (live.is_empty() || op < 5) {
            let nres = 1 + (rng() % 3) as usize;
            // Duplicates are kept: the solver must count them once.
            let base = rng() as usize;
            let resources: Vec<ResourceId> = (0..nres)
                .map(|_| rids[(base + (rng() % 4) as usize) % NRES])
                .collect();
            let cap = flow_caps[(rng() % flow_caps.len() as u64) as usize];
            let bytes = if rng() % 10 == 0 {
                0.0
            } else {
                1e3 + (rng() % 10_000_000) as f64
            };
            live.push(net.add(FlowSpec {
                resources,
                cap,
                bytes,
            }));
        } else if op < 7 {
            let victim = (rng() as usize) % live.len();
            let id = live.swap_remove(victim);
            h.word(net.remove(id).to_bits());
        } else {
            // Engine-style step: advance to the earliest completion (or a
            // random shorter interval), then retire every finished flow.
            let next = live
                .iter()
                .map(|&id| net.eta_secs(id))
                .fold(f64::INFINITY, f64::min);
            let dt = if op == 9 || !next.is_finite() {
                (rng() % 1000) as f64 * 1e-7
            } else {
                next
            };
            net.progress(dt);
            let mut i = 0;
            while i < live.len() {
                if net.eta_secs(live[i]) == 0.0 {
                    let id = live.remove(i);
                    h.word(net.remove(id).to_bits());
                } else {
                    i += 1;
                }
            }
        }
        let changed = net.take_rate_changes();
        h.word(changed.len() as u64);
        for id in changed {
            h.word(id.0);
        }
        let ids: Vec<FlowId> = net.flow_ids().collect();
        for id in ids {
            h.word(id.0);
            h.word(net.rate(id).to_bits());
            h.word(net.remaining(id).to_bits());
        }
        for (_, _, _, s) in net.resources() {
            h.stats(&s);
        }
    }
    net.settle_all();
    for &r in &rids {
        let s = net.resource_stats(r);
        h.stats(&s);
    }
    (h.0, net)
}

#[test]
fn golden_churn_is_bit_identical() {
    let (hash, _) = golden_churn();
    assert_eq!(hash, GOLDEN_HASH, "golden churn hash {hash:#018x}");
}

#[test]
fn golden_churn_solver_counters_are_pinned() {
    let (_, net) = golden_churn();
    assert_eq!(net.solver_counters(), GOLDEN_COUNTERS);
}
