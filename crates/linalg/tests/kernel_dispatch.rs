//! Cross-path dispatch properties: every SIMD microkernel the host can
//! execute must agree with the scalar oracle within the documented ulp
//! tolerance and never touch `ld` padding, and a path the CPU cannot
//! execute is refused.
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

        for path in PATHS.into_iter().filter(|p| p.is_simd() && p.supported()) {
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
fn unsupported_explicit_path_panics() {
    // The dispatcher refuses to hand out a kernel the CPU cannot run;
    // only meaningful to assert on hosts that actually lack one.
    for path in PATHS.into_iter().filter(|p| !p.supported()) {
        let r = std::panic::catch_unwind(|| {
            let a = [1.0f64];
            let b = [1.0f64];
            let mut c = [0.0f64];
            dgemm_blocked_path(
                path,
                1.0,
                BlockRef::new(&a, 1, 1, 1),
                BlockRef::new(&b, 1, 1, 1),
                0.0,
                BlockMut::new(&mut c, 1, 1, 1),
                &Blocking::default_blocking(),
            );
        });
        assert!(r.is_err(), "{path:?} unsupported but did not panic");
    }
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
