//! Host-side roofline calibration and the measured kernels it predicts.
//!
//! [`greenla_model::roofline::Roofline`] needs machine ceilings. The
//! spec-derived constructor models the *simulated* machine; this module
//! builds the *measured* counterpart for the host the kernels actually run
//! on, from five short kernel probes (one per code class) and a
//! streaming-triad bandwidth probe. [`measure_kernels`] then times every
//! pinned kernel next to its closed-form [`KernelProfile`] and reports
//! predicted-vs-measured attainable GFLOP/s — the release roofline
//! acceptance asserts the ratio stays inside [`REL_TOL`] on both sides.
//! Every kernel runs on the calling thread, as it does inside a solver
//! rank.
//!
//! Probes and kernels share the `median_wall` statistic so correlated
//! background load (the usual failure mode on shared runners) shifts
//! calibration and measurement together and cancels in the ratio. Probe
//! sizes are *not* kernel sizes — the model must extrapolate, not memorize.

use crate::bench::retry::median_wall;
use greenla_cg::partition::{RowBlocks, RowSplit};
use greenla_linalg::blas3::{
    dgemm_blocked, dgemm_blocked_path, dgemm_reference, dtrsm_left_lower_unit, dtrsm_left_upper,
    TRSM_BLOCK,
};
use greenla_linalg::flops;
use greenla_linalg::simd::{self, KernelPath};
use greenla_linalg::sparse::laplace2d;
use greenla_linalg::tune::Blocking;
use greenla_linalg::Matrix;
use greenla_model::roofline::{KernelProfile, Roofline};

/// Relative tolerance of every roofline validation: predicted within ±30%
/// of measured (`1/1.3 ≤ predicted/measured ≤ 1.3`). The host acceptance
/// asserts it for every kernel's GFLOP/s, `tests/roofline_sim.rs` for a
/// simulated run's makespan and Joules, and the sparse campaign's model
/// checks for each grid point.
pub const REL_TOL: f64 = 0.30;

/// A roofline calibrated on the running host, plus the kernel path the
/// dispatched probes resolved to (kernel rates are only comparable within
/// one path).
#[derive(Clone, Copy, Debug)]
pub struct HostRoofline {
    pub rf: Roofline,
    pub path: KernelPath,
}

/// Probe edge for the per-class rates. 448 = 56 micro-panels: big enough
/// that per-call and packing overheads sit at their large-`n` asymptote
/// (a size sweep showed 320 still reads a few percent off the 512/1024
/// regime on the scalar nest), small enough that the batched repetitions
/// stay under a second per class — and not a kernel size, so the model
/// extrapolates rather than memorizes.
const PROBE_N: usize = 448;

/// Triad length per array for the bandwidth probe: 3 × 128 MiB,
/// comfortably past the dev box's 105 MiB L3, so the probe streams DRAM,
/// not cache.
const TRIAD_LEN: usize = 1 << 24;

/// Grid edge of the sparse kernels: 6.25 million rows, 50 MB per vector.
/// The CG iteration re-touches five vectors back to back, so the working
/// set must dwarf the last-level cache (105 MB on the reference runner) or
/// the measured rate floats above the DRAM ceiling it is validated against.
const LAPLACE_K: usize = 2500;

fn test_matrix(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| ((i * (7 + salt) + j * 13) % 17) as f64 - 8.0)
}

/// Flop rate of `f` (which performs `flops` per call), batched `iters`
/// calls per timed repetition so every sample measures well above timer
/// granularity.
fn rate_of(flops: u64, iters: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let wall = median_wall(reps, || {
        for _ in 0..iters {
            f();
        }
    });
    (flops * iters as u64) as f64 / wall
}

/// Calibrate a [`Roofline`] on the running host. Four kernel probes (the
/// dispatched microkernel on square and thin panels, the scalar-pinned
/// packed nest, the reference nest) plus a streaming triad. Under
/// `GREENLA_KERNEL=scalar` the dispatched probes calibrate the scalar
/// path, so predictions keep matching what the kernels then measure.
pub fn calibrate() -> HostRoofline {
    let n = PROBE_N;
    let (reps, iters) = (9, 4);
    let tune = Blocking::default_blocking();
    let a = test_matrix(n, 0);
    let b = test_matrix(n, 2);
    let mut c = Matrix::zeros(n, n);
    let sq_flops = flops::dgemm(n, n, n);

    let simd_flops = rate_of(sq_flops, iters, reps, || {
        dgemm_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune);
    });
    let packed_scalar_flops = rate_of(sq_flops, iters, reps, || {
        dgemm_blocked_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            c.block_mut(),
            &tune,
        );
    });
    let reference_flops = rate_of(sq_flops, iters, reps, || {
        dgemm_reference(1.0, a.block(), b.block(), 0.0, c.block_mut());
    });

    // Thin-panel probe: k = TRSM_BLOCK and a tall-and-skinny C, the shape
    // every trailing update of the triangular solves has. Packing and
    // per-call overheads per flop are ~kc/k times the square probe's,
    // which is exactly what this rate is meant to capture.
    let kt = TRSM_BLOCK.min(n);
    let (mt, nt) = (2 * n, n / 2);
    let at = Matrix::from_fn(mt, kt, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
    let bt = Matrix::from_fn(kt, nt, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
    let mut ct = Matrix::zeros(mt, nt);
    // α = −1, β = 1 like the real updates: β = 1 reads C as well as
    // writing it, a per-flop cost that matters exactly when k is thin.
    let thin_simd_flops = rate_of(flops::dgemm(mt, nt, kt), iters * 4, reps, || {
        dgemm_blocked(-1.0, at.block(), bt.block(), 1.0, ct.block_mut(), &tune);
    });

    // Substitution probe, in context: a full triangular solve at a
    // non-kernel size (same 2:1 aspect as the pinned dtrsm kernels).
    // Substitution never executes in isolation — every diagonal block's
    // solve is interleaved with packed trailing updates that disturb the
    // caches, and a pure m = TRSM_BLOCK probe measured the loop ~1.5×
    // faster than it runs inside a real solve. Timing the whole solve and
    // removing the update share predicted by the thin-panel rate
    // calibrates the substitution loop with that interference priced in.
    // The floor guards against a burst-inflated thin rate swallowing the
    // whole wall.
    let (ms, ns) = (384, 192);
    let ls = Matrix::from_fn(ms, ms, |i, j| {
        use std::cmp::Ordering::*;
        match i.cmp(&j) {
            Equal => 1.0,
            Greater => ((i * 3 + j * 7) % 5) as f64 * 0.01 - 0.02,
            Less => 0.0,
        }
    });
    let bs = Matrix::from_fn(ms, ns, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
    let mut xs = bs.as_slice().to_vec();
    let ps = flops::dtrsm_packed_profile(ms, ns, &tune);
    // Per-call RHS restore mirrors the dtrsm kernels, which also time the
    // copy — probe and measurement pay the same overhead.
    let subst_wall = median_wall(reps, || {
        xs.copy_from_slice(bs.as_slice());
        dtrsm_left_lower_unit(ms, ns, ls.as_slice(), ms, &mut xs, ms);
    });
    let update_s = ps.dgemm_flops as f64 / thin_simd_flops;
    let subst_s = (subst_wall - update_s).max(0.25 * subst_wall);
    let subst_flops = ps.subst_flops as f64 / subst_s;

    // Streaming triad c ← a + 3·b: 3 × 8 bytes per element per pass.
    let ta: Vec<f64> = (0..TRIAD_LEN).map(|i| (i % 17) as f64).collect();
    let tb: Vec<f64> = (0..TRIAD_LEN).map(|i| (i % 13) as f64).collect();
    let mut tc = vec![0.0f64; TRIAD_LEN];
    let wall = median_wall(5, || {
        for ((y, &x), &z) in tc.iter_mut().zip(&ta).zip(&tb) {
            *y = x + 3.0 * z;
        }
        std::hint::black_box(&mut tc);
    });
    let mem_bw = (3 * 8 * TRIAD_LEN) as f64 / wall;

    let host = HostRoofline {
        rf: Roofline {
            simd_flops,
            thin_simd_flops,
            packed_scalar_flops,
            reference_flops,
            subst_flops,
            mem_bw,
        },
        path: simd::resolved(),
    };
    host.rf.validate();
    host
}

/// Packed dgemm at `n³`: every flop through the dispatched microkernel.
fn packed_profile(n: usize, tune: &Blocking) -> KernelProfile {
    KernelProfile::simd(
        flops::dgemm(n, n, n) as f64,
        flops::dgemm_packed_bytes(n, n, n, tune) as f64,
    )
}

/// Blocked triangular solve of `m × m` against `nrhs` columns: thin-panel
/// updates plus the substitution loops.
fn trsm_profile(m: usize, nrhs: usize, tune: &Blocking) -> KernelProfile {
    let p = flops::dtrsm_packed_profile(m, nrhs, tune);
    KernelProfile {
        thin_simd_flops: p.dgemm_flops as f64,
        subst_flops: p.subst_flops as f64,
        bytes: p.bytes as f64,
        ..KernelProfile::default()
    }
}

/// Serial CSR SpMV over `n` rows and `nnz` stored entries.
fn spmv_profile(n: usize, nnz: usize) -> KernelProfile {
    KernelProfile::sparse(flops::spmv(nnz), flops::spmv_csr_bytes(n, nnz))
}

/// One unpreconditioned CG iteration: the SpMV plus the BLAS1 sweep
/// `greenla_cg::formulas::blas1_iter_cost` counts.
fn cg_iter_profile(n: usize, nnz: usize) -> KernelProfile {
    let c = greenla_cg::formulas::cg_iter_cost(n, nnz, 0, false);
    KernelProfile::sparse(c.flops, c.bytes)
}

/// The BLAS1 half of one unpreconditioned CG iteration after `q = A·p`,
/// operation for operation what `blas1_iter_cost` charges: three dots, two
/// axpys, the identity-preconditioner copy and the direction update.
fn cg_blas1(x: &mut [f64], r: &mut [f64], z: &mut [f64], p: &mut [f64], q: &[f64]) {
    let pq: f64 = p.iter().zip(q).map(|(a, b)| a * b).sum();
    let rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
    let alpha = if pq != 0.0 { rz / pq } else { 0.0 };
    for (xi, pi) in x.iter_mut().zip(p.iter()) {
        *xi += alpha * pi;
    }
    for (ri, qi) in r.iter_mut().zip(q) {
        *ri -= alpha * qi;
    }
    let rr: f64 = r.iter().map(|v| v * v).sum();
    z.copy_from_slice(r);
    let beta = if rz != 0.0 { rr / rz } else { 0.0 };
    for (pi, zi) in p.iter_mut().zip(z.iter()) {
        *pi = zi + beta * *pi;
    }
    std::hint::black_box(p);
}

/// Time `calls` back-to-back calls of `body` per repetition (small kernels
/// batch so every repetition measures milliseconds, not timer granularity)
/// and return the median wall seconds per call next to the kernel's id and
/// profile.
fn timed(
    id: &'static str,
    profile: KernelProfile,
    reps: usize,
    calls: usize,
    mut body: impl FnMut(),
) -> (&'static str, KernelProfile, f64) {
    let wall = median_wall(reps, || {
        for _ in 0..calls {
            body();
        }
    });
    (id, profile, wall / calls as f64)
}

/// Time every pinned kernel next to its closed-form profile: packed dgemm
/// at four sizes, the scalar reference and the scalar-pinned packed nest
/// (so the packing and SIMD wins stay visible), both blocked triangular
/// solves, and the sparse set on the million-row 5-point Laplacian (the
/// SpMV, the CG iteration in plain and overlapped row order) — and predict
/// each through `host`. Sizes are not probe sizes. Takes a few seconds and
/// ~1 GB in release.
pub fn measure_kernels(host: &HostRoofline) -> Vec<RooflineCheck> {
    const REPS: usize = 9;
    const SPARSE_REPS: usize = 5;
    let tune = Blocking::default_blocking();
    let mut kernels = Vec::new();

    for (id, n, calls) in [
        ("dgemm_packed_128", 128usize, 16),
        ("dgemm_packed_256", 256, 4),
        ("dgemm_packed_512", 512, 1),
        ("dgemm_seq_1024", 1024, 1),
    ] {
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        kernels.push(timed(id, packed_profile(n, &tune), REPS, calls, || {
            dgemm_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune);
        }));
    }

    {
        let n = 512;
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let fl = flops::dgemm(n, n, n) as f64;
        kernels.push(timed(
            "dgemm_scalar_512",
            KernelProfile::reference(fl, flops::dgemm_reference_bytes(n, n, n) as f64),
            REPS,
            1,
            || dgemm_reference(1.0, a.block(), b.block(), 0.0, c.block_mut()),
        ));
        kernels.push(timed(
            "dgemm_packed_scalar_512",
            KernelProfile::packed_scalar(fl, flops::dgemm_packed_bytes(n, n, n, &tune) as f64),
            REPS,
            1,
            || {
                dgemm_blocked_path(
                    KernelPath::Scalar,
                    1.0,
                    a.block(),
                    b.block(),
                    0.0,
                    c.block_mut(),
                    &tune,
                )
            },
        ));
    }

    // One well-conditioned system per triangle, re-solved from a pristine
    // right-hand side every repetition.
    {
        let (m, nrhs) = (512, 256);
        let mut l = test_matrix(m, 4);
        let mut u = test_matrix(m, 6);
        for j in 0..m {
            for i in 0..=j {
                l[(i, j)] = if i == j { 1.0 } else { 0.0 };
            }
            for i in j + 1..m {
                l[(i, j)] *= 0.001;
                u[(i, j)] = 0.0;
            }
            u[(j, j)] = 4.0;
        }
        let b0: Vec<f64> = (0..m * nrhs).map(|i| ((i % 23) as f64) - 11.0).collect();
        let mut x = b0.clone();
        kernels.push(timed(
            "dtrsm_lower_512x256",
            trsm_profile(m, nrhs, &tune),
            REPS,
            1,
            || {
                x.copy_from_slice(&b0);
                dtrsm_left_lower_unit(m, nrhs, l.as_slice(), m, &mut x, m);
            },
        ));
        kernels.push(timed(
            "dtrsm_upper_512x256",
            trsm_profile(m, nrhs, &tune),
            REPS,
            1,
            || {
                x.copy_from_slice(&b0);
                dtrsm_left_upper(m, nrhs, u.as_slice(), m, &mut x, m);
            },
        ));
    }

    // The sparse set streams DRAM well past any cache, so it exercises the
    // bandwidth ceiling, not the flop ceilings.
    {
        let s = laplace2d(LAPLACE_K);
        let (n, nnz) = (s.a.n(), s.a.nnz());
        let ones = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        kernels.push(timed(
            "spmv_2d_6m",
            spmv_profile(n, nnz),
            SPARSE_REPS,
            1,
            || {
                s.a.spmv(&ones, &mut y);
                std::hint::black_box(&mut y);
            },
        ));

        let mut x = vec![0.0f64; n];
        let mut r = s.b.clone();
        let mut z = r.clone();
        let mut p = z.clone();
        let mut q = vec![0.0f64; n];
        kernels.push(timed(
            "cg_iter_2d_6m",
            cg_iter_profile(n, nnz),
            SPARSE_REPS,
            1,
            || {
                s.a.spmv(&p, &mut q);
                cg_blas1(&mut x, &mut r, &mut z, &mut p, &q);
            },
        ));

        // The overlapped solver's sweep order: every 16-way row block's
        // interior rows first, then its boundary rows. An exact
        // repartition of the SpMV, so the profile is the plain
        // iteration's and the rate gap is the price of the indexed sweep.
        let blocks = RowBlocks::new(n, 16);
        let (mut interior, mut boundary) = (Vec::new(), Vec::new());
        for rank in 0..16 {
            let split = RowSplit::build(&s.a, blocks, rank);
            let lo = blocks.lo(rank);
            interior.extend(split.interior.iter().map(|i| lo + i));
            boundary.extend(split.boundary.iter().map(|i| lo + i));
        }
        let mut x = vec![0.0f64; n];
        let mut r = s.b.clone();
        let mut z = r.clone();
        let mut p = z.clone();
        kernels.push(timed(
            "cg_overlap_iter",
            cg_iter_profile(n, nnz),
            SPARSE_REPS,
            1,
            || {
                s.a.spmv_rows(&interior, &p, &mut q);
                s.a.spmv_rows(&boundary, &p, &mut q);
                cg_blas1(&mut x, &mut r, &mut z, &mut p, &q);
            },
        ));
    }
    kernels
        .into_iter()
        .map(|(id, profile, wall_s)| {
            let pred = host.rf.predict(&profile);
            let measured = profile.total_flops() / wall_s / 1e9;
            RooflineCheck {
                id,
                predicted_gflops: pred.gflops,
                measured_gflops: measured,
                ratio: pred.gflops / measured,
                compute_bound: pred.compute_bound,
            }
        })
        .collect()
}

/// One predicted-vs-measured comparison from [`measure_kernels`].
#[derive(Clone, Debug)]
pub struct RooflineCheck {
    pub id: &'static str,
    pub predicted_gflops: f64,
    pub measured_gflops: f64,
    /// `predicted / measured`.
    pub ratio: f64,
    pub compute_bound: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_profiles_sit_under_the_memory_ceiling() {
        // SpMV's arithmetic intensity (~1/6 flop/byte, stored f64 values
        // plus u32 indices) and the CG iteration's (~1/10) are both far
        // below any realistic machine balance, so the acceptance exercises
        // the bandwidth ceiling, not the flop ceilings.
        let s = laplace2d(40);
        let (n, nnz) = (s.a.n(), s.a.nnz());
        for (id, p) in [
            ("spmv", spmv_profile(n, nnz)),
            ("cg_iter", cg_iter_profile(n, nnz)),
        ] {
            let ai = p.total_flops() / p.bytes;
            assert!(ai < 0.5, "{id}: AI {ai} is not memory-bound");
        }
    }

    #[test]
    fn trsm_profile_splits_classes() {
        let tune = Blocking::default_blocking();
        let p = trsm_profile(512, 256, &tune);
        assert!(p.thin_simd_flops > 0.0 && p.subst_flops > 0.0);
        assert_eq!(p.simd_flops, 0.0);
        assert_eq!(p.total_flops(), flops::dtrsm(512, 256) as f64);
    }
}
