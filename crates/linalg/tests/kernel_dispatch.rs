//! Cross-path dispatch properties: every SIMD microkernel the host can
//! execute must agree with the scalar oracle within the documented ulp
//! tolerance and never touch `ld` padding, and every chained-axpy path
//! must equal its `daxpy` sequence bit for bit. (`simd`'s own tests hold
//! the refusal of a path the CPU cannot execute.)
//!
//! Seeded loops per the vendored-stub convention: deterministic per seed,
//! never sensitive to specific draws.

use greenla_linalg::blas3::dgemm_blocked_path;
use greenla_linalg::simd::{self, KernelPath};
use greenla_linalg::tune::Blocking;
use greenla_linalg::{BlockMut, BlockRef};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Documented cross-path tolerance, in ulps of the scalar result: the
/// SIMD kernels contract multiply-add into FMA, so each of the `k`
/// accumulation steps may round differently from the scalar oracle's
/// separate multiply and add. The error is a random walk of at most one
/// ulp per step — 64 ulps gives `k ≤ 256` a wide safety margin while
/// still catching any real indexing or packing defect (which produces
/// wrong *values*, not wrong *roundings*).
const ULP_TOL: f64 = 64.0;

const PATHS: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512];

fn assert_ulp_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= ULP_TOL * f64::EPSILON * (1.0 + w.abs()),
            "{what}: element {idx} beyond {ULP_TOL} ulps: got {g}, want {w}"
        );
    }
}

/// Column-major `rows×cols` buffer with leading dimension `ld`; padding
/// rows hold a sentinel so the tests can assert kernels neither read nor
/// write them. Fractional values (not small integers) so FMA-contraction
/// rounding differences actually materialize and the ulp tolerance is
/// tested against worst-case inputs, not ones where every product is
/// exact.
fn random_buf(
    rng: &mut ChaCha8Rng,
    rows: usize,
    cols: usize,
    ld: usize,
    sentinel: f64,
) -> Vec<f64> {
    let mut buf = vec![sentinel; ld * cols.max(1)];
    for j in 0..cols {
        for i in 0..rows {
            buf[i + j * ld] = rng.gen_range(-2.0..2.0);
        }
    }
    buf
}

#[test]
fn simd_paths_agree_with_scalar_within_ulp_tolerance() {
    let tune = Blocking::default_blocking();
    let mut rng = ChaCha8Rng::seed_from_u64(0x51D0);
    for case in 0..60 {
        let m = rng.gen_range(1..48usize);
        let n = rng.gen_range(1..48usize);
        // k is the accumulation length the tolerance is about; push it
        // past one kc block now and then.
        let k = rng.gen_range(1..200usize);
        let lda = m + rng.gen_range(0..4usize);
        let ldb = k + rng.gen_range(0..4usize);
        let ldc = m + rng.gen_range(0..4usize);
        let alpha = [1.0, -1.0, 0.5][rng.gen_range(0..3usize)];
        let beta = [0.0, 1.0, 0.5][rng.gen_range(0..3usize)];

        let a = random_buf(&mut rng, m, k, lda, 7e77);
        let b = random_buf(&mut rng, k, n, ldb, 7e77);
        let c0 = random_buf(&mut rng, m, n, ldc, 3e33);

        let mut want = c0.clone();
        dgemm_blocked_path(
            KernelPath::Scalar,
            alpha,
            BlockRef::new(&a, m, k, lda),
            BlockRef::new(&b, k, n, ldb),
            beta,
            BlockMut::new(&mut want, m, n, ldc),
            &tune,
        );

        for path in [KernelPath::Avx2, KernelPath::Avx512]
            .into_iter()
            .filter(|p| p.supported())
        {
            let mut c = c0.clone();
            dgemm_blocked_path(
                path,
                alpha,
                BlockRef::new(&a, m, k, lda),
                BlockRef::new(&b, k, n, ldb),
                beta,
                BlockMut::new(&mut c, m, n, ldc),
                &tune,
            );
            // Padding rows of C stay untouched on every path.
            for j in 0..n {
                for i in m..ldc.min(c.len() - j * ldc) {
                    assert_eq!(
                        c[i + j * ldc],
                        3e33,
                        "case {case} {path:?}: padding clobbered"
                    );
                }
            }
            assert_ulp_close(&c, &want, &format!("case {case} ({m}×{n}×{k}) {path:?}"));
        }
    }
}

#[test]
fn daxpy_chain_is_the_daxpy_sequence_bit_for_bit() {
    // Unlike the dgemm microkernels, every chained-axpy path promises the
    // exact bits of one `blas1::daxpy` per level. Specials sit in `x_k` at
    // row `k` only, so no row ever meets two of them.
    let chunk = simd::DAXPY_CHAIN_CHUNK;
    let mut rng = ChaCha8Rng::seed_from_u64(0xC4A1);
    for len in [0, 1, 7, chunk - 1, chunk + 1, 1000] {
        for levels in [1, 2, 8] {
            let xs: Vec<Vec<f64>> = (0..levels)
                .map(|k| {
                    let mut x: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    if k < len {
                        x[k] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k % 3];
                    }
                    x
                })
                .collect();
            let mut y0: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
            for v in y0.iter_mut().skip(2).step_by(5) {
                *v = -0.0;
            }
            // Every level live; then zero and negative-zero α mixed in.
            let live: Vec<f64> = (0..levels).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let zeroed = |zeros: [f64; 2]| -> Vec<f64> {
                live.iter()
                    .enumerate()
                    .map(|(k, &a)| [zeros[0], a, zeros[1]][k % 3])
                    .collect()
            };
            for alphas in [live.clone(), zeroed([0.0, -0.0]), zeroed([-0.0, 0.0])] {
                let mut want = y0.clone();
                for (&a, x) in alphas.iter().zip(&xs) {
                    greenla_linalg::blas1::daxpy(a, x, &mut want);
                }
                for k in (0..levels).filter(|&k| k < len) {
                    let reached = !want[k].is_finite();
                    assert_eq!(
                        reached,
                        alphas[k] != 0.0,
                        "the daxpy oracle itself, row {k}"
                    );
                }
                if alphas.iter().all(|&a| a == 0.0) {
                    assert_eq!(bits(&want), bits(&y0), "all-zero α leaves y (and its −0.0)");
                }
                let x_refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
                for path in PATHS.into_iter().filter(|p| p.supported()) {
                    let mut got = y0.clone();
                    (simd::kernels(path).daxpy_chain)(&alphas, &x_refs, &mut got);
                    let what = format!("{path:?} len={len} levels={levels} alphas={alphas:?}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn resolved_path_is_logged_and_honors_the_env_override() {
    // What the process-wide dispatch resolved to (GREENLA_KERNEL=auto
    // unless the environment says otherwise) — printed so CI logs show
    // which ISA the whole battery actually exercised.
    let path = simd::resolved();
    println!(
        "kernel dispatch: {} (runtime-detected best: {})",
        path.label(),
        simd::best_supported().label()
    );
    assert!(path.supported());
    if let Ok(want) = std::env::var("GREENLA_KERNEL") {
        if let Some(p) = KernelPath::parse(&want) {
            assert_eq!(path, p, "GREENLA_KERNEL={want} not honored");
        }
    }
}
