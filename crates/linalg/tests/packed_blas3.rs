//! Property-style tests for the packed Level-3 kernels.
//!
//! Seeded loops (per the vendored-stub convention: deterministic per seed,
//! never sensitive to specific draws) drive the packed `dgemm`/`dtrsm`
//! through randomly shaped problems — padded leading dimensions, empty
//! dimensions, non-square panels, the full `alpha`/`beta` special-case set —
//! and compare every result against a naive triple-loop oracle written
//! independently of `blas3.rs`.

use greenla_linalg::blas3::{dgemm_blocked, dtrsm_left_lower_unit, dtrsm_left_upper};
use greenla_linalg::tune::{Blocking, MR, NR};
use greenla_linalg::{BlockMut, BlockRef};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Naive `C ← α·A·B + β·C` over raw column-major buffers with leading
/// dimensions. No blocking, no packing, no zero-skips: the BLAS-semantics
/// oracle, including the `β = 0` write-without-read convention.
#[allow(
    clippy::too_many_arguments,
    reason = "the raw-buffer BLAS dgemm signature"
)]
fn naive_gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i + p * lda] * b[p + j * ldb];
            }
            let cij = &mut c[i + j * ldc];
            *cij = if beta == 0.0 {
                alpha * acc
            } else {
                alpha * acc + beta * *cij
            };
        }
    }
}

/// Random column-major buffer for a `rows×cols` block with leading
/// dimension `ld`; the padding rows are filled with a sentinel so tests can
/// verify kernels neither read nor write them.
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

fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len());
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol * (1.0 + w.abs()),
            "{what}: element {idx} differs: got {g}, want {w}"
        );
    }
}

const ALPHAS_BETAS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

#[test]
fn packed_gemm_matches_naive_over_random_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e37);
    for case in 0..120 {
        let m = rng.gen_range(0..40usize);
        let n = rng.gen_range(0..40usize);
        let k = rng.gen_range(0..40usize);
        let lda = m.max(1) + rng.gen_range(0..4usize);
        let ldb = k.max(1) + rng.gen_range(0..4usize);
        let ldc = m.max(1) + rng.gen_range(0..4usize);
        let alpha = ALPHAS_BETAS[rng.gen_range(0..4usize)];
        let beta = ALPHAS_BETAS[rng.gen_range(0..4usize)];

        let a = random_buf(&mut rng, m, k, lda, 7e77);
        let b = random_buf(&mut rng, k, n, ldb, 7e77);
        let c0 = random_buf(&mut rng, m, n, ldc, 3e33);

        let mut want = c0.clone();
        naive_gemm(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc);

        // Exercise both the default blocking and a deliberately tiny one
        // that forces every packing edge (partial tiles in all three loops).
        let tiny = Blocking {
            mc: MR,
            nc: NR,
            kc: 1 + rng.gen_range(0..7usize),
        };
        for tune in [Blocking::default_blocking(), tiny] {
            let mut c = c0.clone();
            dgemm_blocked(
                alpha,
                BlockRef::new(&a, m, k, lda),
                BlockRef::new(&b, k, n, ldb),
                beta,
                BlockMut::new(&mut c, m, n, ldc),
                &tune,
            );
            // Padding rows of C must be untouched.
            for j in 0..n {
                for i in m..ldc.min(c.len() - j * ldc) {
                    assert_eq!(c[i + j * ldc], 3e33, "case {case}: padding clobbered");
                }
            }
            assert_close(
                &c,
                &want,
                1e-12,
                &format!("case {case} ({m}×{k}·{n}, α={alpha}, β={beta})"),
            );
        }
    }
}

#[test]
fn packed_gemm_propagates_nan_and_inf() {
    // 0 × NaN and 0 × ∞ from the A/B operands must reach C — the old
    // scalar kernel's `if abv == 0.0 {{ continue }}` skip dropped them.
    let m = 12;
    let n = 9;
    let k = 15;
    let mut rng = ChaCha8Rng::seed_from_u64(0xfeed);
    let mut a = random_buf(&mut rng, m, k, m, 0.0);
    let mut b = random_buf(&mut rng, k, n, k, 0.0);
    a[3] = f64::NAN; // A(3,0) pairs with B(0,j)
    for j in 0..n {
        b[j * k] = 0.0; // 0 × NaN paths
    }
    b[5 * k + 2] = f64::INFINITY; // B(2,5) pairs with A(i,2)
    for i in 0..m {
        a[i + 2 * m] = 0.0; // 0 × ∞ paths
    }
    let mut c = vec![0.0; m * n];
    dgemm_blocked(
        1.0,
        BlockRef::new(&a, m, k, m),
        BlockRef::new(&b, k, n, k),
        0.0,
        BlockMut::new(&mut c, m, n, m),
        &Blocking::default_blocking(),
    );
    for j in 0..n {
        assert!(c[3 + j * m].is_nan(), "NaN row not propagated to col {j}");
    }
    for i in 0..m {
        assert!(
            c[i + 5 * m].is_nan(),
            "0·∞ not propagated to row {i} of col 5"
        );
    }
}

#[test]
fn blocked_trsm_lower_unit_matches_naive_solve() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xbeef);
    for case in 0..40 {
        let m = rng.gen_range(0..90usize);
        let n = rng.gen_range(0..20usize);
        let lda = m.max(1) + rng.gen_range(0..3usize);
        let ldb = m.max(1) + rng.gen_range(0..3usize);
        // Unit-lower L: implicit 1s on the diagonal, modest off-diagonals so
        // the forward substitution stays well conditioned.
        let mut l = random_buf(&mut rng, m, m, lda, 0.0);
        for j in 0..m {
            for i in 0..=j {
                l[i + j * lda] = if i == j { 1.0 } else { 0.0 };
            }
            for i in j + 1..m {
                l[i + j * lda] *= 0.25;
            }
        }
        let b0 = random_buf(&mut rng, m, n, ldb, 5e55);
        let mut x = b0.clone();
        dtrsm_left_lower_unit(m, n, &l, lda, &mut x, ldb);
        // Verify L·X == B elementwise (with the implicit unit diagonal).
        for j in 0..n {
            for i in 0..m {
                let mut acc = x[i + j * ldb];
                for p in 0..i {
                    acc += l[i + p * lda] * x[p + j * ldb];
                }
                let want = b0[i + j * ldb];
                assert!(
                    (acc - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "case {case} ({m}×{n}): L·X ≠ B at ({i},{j}): {acc} vs {want}"
                );
            }
            for i in m..ldb {
                assert_eq!(x[i + j * ldb], 5e55, "case {case}: padding clobbered");
            }
        }
    }
}

#[test]
fn blocked_trsm_upper_matches_naive_solve() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xcafe);
    for case in 0..40 {
        let m = rng.gen_range(0..90usize);
        let n = rng.gen_range(0..20usize);
        let lda = m.max(1) + rng.gen_range(0..3usize);
        let ldb = m.max(1) + rng.gen_range(0..3usize);
        // Upper U with a dominant diagonal so back substitution is stable.
        let mut u = random_buf(&mut rng, m, m, lda, 0.0);
        for j in 0..m {
            for i in j + 1..m {
                u[i + j * lda] = 0.0;
            }
            for i in 0..j {
                u[i + j * lda] *= 0.25;
            }
            u[j + j * lda] = 2.0 + (j % 3) as f64;
        }
        let b0 = random_buf(&mut rng, m, n, ldb, 5e55);
        let mut x = b0.clone();
        dtrsm_left_upper(m, n, &u, lda, &mut x, ldb);
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for p in i..m {
                    acc += u[i + p * lda] * x[p + j * ldb];
                }
                let want = b0[i + j * ldb];
                assert!(
                    (acc - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "case {case} ({m}×{n}): U·X ≠ B at ({i},{j}): {acc} vs {want}"
                );
            }
            for i in m..ldb {
                assert_eq!(x[i + j * ldb], 5e55, "case {case}: padding clobbered");
            }
        }
    }
}
