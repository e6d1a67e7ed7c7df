//! Golden fingerprints of every kernel at small scale.
//!
//! Each case runs one kernel configuration on the fiber scheduler and folds
//! the whole observable simulation into one FNV-1a `u64`: per-rank output
//! bits and final clocks, `end_times`, `makespan`, the message count,
//! inter- and intra-node bytes, and the rendered verify findings. The
//! pinned values are the ones the thread-per-rank and fiber execution modes
//! both produced when the simulator still had two modes, so a change to
//! release order, virtual timing or traffic accounting moves a hash.

use ovcomm_core::NDupComms;
use ovcomm_densemat::{BlockBuf, BlockGrid, Matrix, Partition1D};
use ovcomm_kernels::{
    block_cg, matvec_blocking, matvec_pipelined, md_init, md_run, summa_multiply,
    summa_multiply_pipelined, symm_square_cube_25d, symm_square_cube_baseline,
    symm_square_cube_optimized, symm_square_cube_original, BlockCgConfig, CgComms, MatvecInput,
    MdConfig, Mesh25D, Mesh2D, Mesh3D, SummaBundles, SymmInput, VecBuf,
};
use ovcomm_simmpi::{run, RankCtx, SimConfig, SimOutput};
use ovcomm_simnet::{MachineProfile, SimTime};

fn test_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j) as f64;
        1.0 / (1.0 + d) + if i == j { 0.5 } else { 0.0 } + ((i + j) % 3) as f64 * 0.1
    })
}

/// Fold a slice of f64s into a single bit pattern (wrapping, order-fixed).
fn bits(v: &[f64]) -> u64 {
    v.iter().fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
}

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
    for (b, t) in &out.results {
        h.word(*b);
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

/// Run `body` (which returns a bit pattern) on `nranks` ranks, `ppn` per
/// node, and assert the run's fingerprint equals `golden`.
fn assert_golden<F>(golden: u64, nranks: usize, ppn: usize, body: F)
where
    F: Fn(&RankCtx) -> u64 + Send + Sync + 'static,
{
    let out = run(
        SimConfig::natural(nranks, ppn, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let v = body(&rc);
            (v, rc.now())
        },
    )
    .unwrap_or_else(|e| panic!("run failed: {e}"));
    let got = fingerprint(&out);
    assert_eq!(
        got, golden,
        "fingerprint {got:#018x} differs from the pinned {golden:#018x}"
    );
}

#[test]
fn matvec_blocking_and_pipelined_match_golden() {
    for (golden, n_dup) in [0x90ad_9dde_b95f_0bc8, 0xdeb5_05bb_bbfd_6f78]
        .into_iter()
        .zip([None, Some(2)])
    {
        assert_golden(golden, 4, 2, move |rc| {
            let p = 2;
            let n = 17;
            let mesh = Mesh2D::new(rc, p);
            let part = Partition1D::new(n, p);
            let grid = BlockGrid::new(n, p);
            let a = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
            let x_full: Vec<f64> = (0..n).map(|t| (t as f64 * 0.3).sin()).collect();
            let (s, l) = part.range(mesh.j);
            let input = MatvecInput {
                n,
                a,
                x: VecBuf::Real(x_full[s..s + l].to_vec()),
            };
            let y = match n_dup {
                None => matvec_blocking(rc, &mesh, &input),
                Some(d) => {
                    let row = NDupComms::new(&mesh.row, d);
                    let col = NDupComms::new(&mesh.col, d);
                    matvec_pipelined(rc, &mesh, &row, &col, &input)
                }
            };
            match y {
                VecBuf::Real(v) => bits(&v),
                VecBuf::Phantom(_) => unreachable!(),
            }
        });
    }
}

#[test]
fn symm3d_all_algorithms_match_golden() {
    for (golden, algo) in [
        0xdae3_e9f7_9432_1592,
        0x761e_24a7_dbef_26e9,
        0x378a_7710_03b1_94d2,
    ]
    .into_iter()
    .zip(0..3usize)
    {
        assert_golden(golden, 8, 4, move |rc| {
            let (n, p) = (18, 2);
            let mesh = Mesh3D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let d_block = (mesh.k == 0)
                .then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
            let input = SymmInput { n, d_block };
            let result = match algo {
                0 => symm_square_cube_original(rc, &mesh, &input),
                1 => symm_square_cube_baseline(rc, &mesh, &input),
                _ => {
                    let bundles = mesh.dup_bundles(2);
                    symm_square_cube_optimized(rc, &mesh, &bundles, &input)
                }
            };
            result.d2.map_or(0, |d2| {
                bits(d2.unwrap_real().data())
                    .wrapping_add(bits(result.d3.unwrap().unwrap_real().data()))
            })
        });
    }
}

#[test]
fn symm25d_matches_golden() {
    assert_golden(0x0a27_217a_2afc_200e, 8, 4, |rc| {
        let (n, q, c) = (18, 2, 2);
        let mesh = Mesh25D::new(rc, q, c);
        let grid = BlockGrid::new(n, q);
        let d_block =
            (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
        let grd_ndup = NDupComms::new(&mesh.grd, 2);
        let input = SymmInput { n, d_block };
        let result = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
        result.d2.map_or(0, |d2| {
            bits(d2.unwrap_real().data())
                .wrapping_add(bits(result.d3.unwrap().unwrap_real().data()))
        })
    });
}

#[test]
fn summa_plain_and_pipelined_match_golden() {
    for (golden, pipelined) in [0x3ef0_5756_4e33_d5a9, 0x5a20_652d_2138_6bef]
        .into_iter()
        .zip([false, true])
    {
        assert_golden(golden, 4, 2, move |rc| {
            let (n, p) = (16, 2);
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let bundles = SummaBundles::new(&mesh, 2);
            let a = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
            let b = BlockBuf::Real(grid.extract(&test_matrix(n).transpose(), mesh.i, mesh.j));
            let rate = rc.profile().process_flops(1, n / p);
            let c = if pipelined {
                summa_multiply_pipelined(rc, &mesh, &grid, &bundles, &a, &b, rate)
            } else {
                summa_multiply(rc, &mesh, &grid, &bundles, &a, &b, rate)
            };
            bits(c.unwrap_real().data())
        });
    }
}

#[test]
fn block_cg_matches_golden() {
    for (golden, overlap) in [0x0d2f_ed36_c2a3_a657, 0x5bfa_de40_02a3_770b]
        .into_iter()
        .zip([false, true])
    {
        assert_golden(golden, 4, 2, move |rc| {
            let (n, p, s) = (20, 2, 2);
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let part = Partition1D::new(n, p);
            // SPD by diagonal dominance — deterministic, no RNG.
            let a_full = Matrix::from_fn(n, n, |i, j| {
                let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
                if i == j {
                    base + n as f64
                } else {
                    base
                }
            });
            let a = BlockBuf::Real(grid.extract(&a_full, mesh.i, mesh.j));
            let b_full = Matrix::from_fn(n, s, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
            let (st, l) = part.range(mesh.j);
            let b_seg = BlockBuf::Real(b_full.submatrix(st, 0, l, s));
            let comms = CgComms::new(&mesh, 2);
            let cfg = BlockCgConfig {
                n,
                s,
                tol: 1e-10,
                max_iter: 50,
                overlap,
            };
            let res = block_cg(rc, &mesh, &comms, &cfg, &a, &b_seg);
            bits(res.x_segment.unwrap_real().data()).wrapping_add(res.iterations as u64)
        });
    }
}

#[test]
fn particles_md_matches_golden() {
    for (golden, overlap) in [0xd5d8_88c4_9016_a647, 0x708e_f103_6e80_278d]
        .into_iter()
        .zip([None, Some(2)])
    {
        assert_golden(golden, 4, 2, move |rc| {
            let mesh = Mesh2D::new(rc, 2);
            let cfg = MdConfig {
                n_particles: 24,
                steps: 4,
                dt: 0.01,
                overlap,
                neighbors: None,
            };
            let state = md_init(rc, &mesh, &cfg, false);
            let fin = md_run(rc, &mesh, &cfg, state);
            match fin.x {
                VecBuf::Real(v) => bits(&v),
                VecBuf::Phantom(_) => 0,
            }
        });
    }
}
