//! Golden fingerprints of whole simulations.
//!
//! Each case runs a small MPI program on the fiber scheduler and folds
//! every observable of the run into one FNV-1a `u64`: per-rank result bits
//! and final clocks, `end_times`, `makespan`, the message count, inter- and
//! intra-node bytes, and the rendered verify findings. The pinned values
//! are the ones the thread-per-rank and fiber execution modes both
//! produced when the simulator still had two modes, so a change to release
//! order, virtual timing, traffic accounting or verification moves a hash.
//!
//! Also hosts the large-scale smoke test: a 10,000-rank broadcast +
//! allreduce under `VerifyMode::Strict`.

use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig, SimOutput, VerifyMode};
use ovcomm_simnet::{MachineProfile, SimTime};

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash of everything a run exposes that must not drift.
fn fingerprint(out: &SimOutput<(u64, SimTime)>) -> u64 {
    let mut h = Fold(0xCBF2_9CE4_8422_2325);
    h.word(out.results.len() as u64);
    for (bits, t) in &out.results {
        h.word(*bits);
        h.word(t.as_nanos());
    }
    for t in &out.end_times {
        h.word(t.as_nanos());
    }
    h.word(out.makespan.as_nanos());
    h.word(out.messages);
    h.word(out.inter_node_bytes);
    h.word(out.intra_node_bytes);
    for f in &out.verify.findings {
        let s = f.to_string();
        h.word(s.len() as u64);
        for b in s.bytes() {
            h.word(u64::from(b));
        }
    }
    h.0
}

/// Run `body` on every rank (each rank returns a bit pattern plus its
/// final clock) and assert the run's fingerprint equals `golden`.
fn assert_golden<F>(golden: u64, cfg: SimConfig, body: F)
where
    F: Fn(&RankCtx) -> u64 + Send + Sync + 'static,
{
    let out = run(cfg, move |rc: RankCtx| {
        let v = body(&rc);
        (v, rc.now())
    })
    .unwrap_or_else(|e| panic!("run failed: {e}"));
    let got = fingerprint(&out);
    assert_eq!(
        got, golden,
        "fingerprint {got:#018x} differs from the pinned {golden:#018x}"
    );
}

fn cfg(nranks: usize, ppn: usize) -> SimConfig {
    SimConfig::natural(nranks, ppn, MachineProfile::test_profile())
}

/// Deterministic per-rank payload whose reduction is exactly
/// representable, so sums are bit-stable regardless of order anyway; the
/// tests still compare raw bits.
fn contrib(rank: usize, len: usize) -> Payload {
    Payload::from_f64s(
        &(0..len)
            .map(|i| (rank * len + i) as f64)
            .collect::<Vec<_>>(),
    )
}

/// Order-fixed wrapping sum of a payload's f64 bit patterns.
fn bits(p: &Payload) -> u64 {
    p.to_f64s()
        .iter()
        .fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
}

#[test]
fn p2p_ring_matches_golden() {
    assert_golden(0x49d5_3059_de11_8b90, cfg(6, 2), |rc| {
        let w = rc.world();
        let p = rc.nranks();
        let next = (rc.rank() + 1) % p;
        let prev = (rc.rank() + p - 1) % p;
        bits(&w.sendrecv(next, prev, 7, contrib(rc.rank(), 64)))
    });
}

#[test]
fn blocking_collectives_match_golden() {
    assert_golden(0x2d63_d2f8_b925_5068, cfg(8, 2), |rc| {
        let w = rc.world();
        let me = rc.rank();
        let data = (me == 0).then(|| contrib(1, 32));
        let b = w.bcast(0, data, 32 * 8);
        let red = w.reduce(2, contrib(me, 16));
        let all = w.allreduce(contrib(me, 16));
        w.barrier();
        let sc = w.scatter(
            1,
            (me == 1).then(|| contrib(3, 8 * rc.nranks())),
            8 * 8 * rc.nranks(),
        );
        let ga = w.gather(0, contrib(me, 8), 8 * 8 * rc.nranks());
        let ag = w.allgather(contrib(me, 4), 4 * 8 * rc.nranks());
        bits(&b)
            .wrapping_add(red.as_ref().map_or(0, bits))
            .wrapping_add(bits(&all))
            .wrapping_add(bits(&sc))
            .wrapping_add(ga.as_ref().map_or(0, bits))
            .wrapping_add(bits(&ag))
    });
}

#[test]
fn nonblocking_collectives_match_golden() {
    assert_golden(0xcb51_1a84_e5ed_f12d, cfg(8, 4), |rc| {
        let w = rc.world();
        let me = rc.rank();
        // Two overlapping nonblocking collectives on dup'd comms plus an
        // ibarrier: exercises op actors.
        let c1 = w.dup();
        let c2 = w.dup();
        let r1 = c1.ibcast(0, (me == 0).then(|| contrib(2, 1024)), 1024 * 8);
        let r2 = c2.iallreduce(contrib(me, 512));
        let rb = w.ibarrier();
        let a = c1.wait(&r1);
        let b = c2.wait(&r2);
        w.wait(&rb);
        bits(&a).wrapping_add(bits(&b))
    });
}

#[test]
fn split_grid_traffic_matches_golden() {
    assert_golden(0x1d37_6b74_73fc_9bc0, cfg(9, 3), |rc| {
        let w = rc.world();
        let me = rc.rank();
        let (row, col) = (me / 3, me % 3);
        let rcomm = w.split(row as i64, col as u64).expect("row comm");
        let ccomm = w.split(3 + col as i64, row as u64).expect("col comm");
        let rsum = rcomm.allreduce(contrib(me, 32));
        let croot = ccomm.reduce(0, rsum);
        bits(&ccomm.bcast(0, croot, 32 * 8))
    });
}

#[test]
fn mixed_p2p_and_nonblocking_under_warn_mode_matches_golden() {
    // Warn mode exercises the verifier event log without aborting; any
    // findings are part of the fingerprint.
    assert_golden(
        0x0fa9_ed70_0a4b_36d7,
        cfg(6, 3).with_verify(VerifyMode::Warn),
        |rc| {
            let w = rc.world();
            let me = rc.rank();
            let p = rc.nranks();
            let r = w.ireduce(0, contrib(me, 128));
            let got = w.sendrecv((me + 1) % p, (me + p - 1) % p, 1, contrib(me, 16));
            let red = w.wait(&r);
            bits(&got).wrapping_add(red.as_ref().map_or(0, bits))
        },
    );
}

/// 10,000 ranks in one process, broadcast + allreduce under strict
/// verification (static lint + dynamic recorder; the per-shape model check
/// and the vector-clock race pass gate themselves off at this size).
#[test]
fn ten_thousand_rank_bcast_allreduce_strict_smoke() {
    let p = 10_000;
    let out = run(
        SimConfig::natural(p, 4, MachineProfile::test_profile())
            .with_verify(VerifyMode::Strict)
            // 256 KiB of stack per fiber keeps the footprint modest.
            .with_fiber_stack(256 << 10),
        move |rc: RankCtx| {
            let w = rc.world();
            let data = (rc.rank() == 0).then(|| Payload::from_f64s(&[42.0; 8]));
            let b = w.bcast(0, data, 8 * 8);
            let s = w.allreduce(Payload::from_f64s(&[1.0]));
            (b.to_f64s()[0], s.to_f64s()[0])
        },
    )
    .expect("10k-rank smoke run");
    assert_eq!(out.results.len(), p);
    for (b, s) in &out.results {
        assert_eq!(*b, 42.0);
        assert_eq!(*s, p as f64);
    }
    assert!(out.makespan.as_nanos() > 0);
}
