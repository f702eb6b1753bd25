//! Bit-identity battery for the storage-order passes.
//!
//! `CsrMatrix::from_dense`, `norms::{mat_inf, scaled_residual}` and
//! `diag_dominant`'s row sums walk a column-major matrix column by column.
//! The row walks they replaced live on here as oracles: the new code must
//! give the same `CsrMatrix` (`==`) and the same floats (`to_bits`), on
//! every generator and on a matrix seeded with `-0.0` and `NaN`.

use greenla_linalg::generate::{self, LinearSystem, SystemKind};
use greenla_linalg::norms;
use greenla_linalg::{CsrMatrix, Matrix};
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tiny orders, the neighbours of a power of two (every vector-tail length)
/// and one whose columns span many cache lines.
const ORDERS: [usize; 7] = [1, 2, 7, 63, 64, 65, 300];
const POISSON_K: [usize; 4] = [1, 2, 8, 17];

// ---------------------------------------------------------------------------
// Oracles: the same quantities by row walk.
// ---------------------------------------------------------------------------

fn from_dense_rows(a: &Matrix) -> CsrMatrix {
    let n = a.rows();
    let rows = (0..n)
        .map(|i| {
            (0..n)
                .filter_map(|j| {
                    let v = a[(i, j)];
                    (v != 0.0).then_some((j, v))
                })
                .collect()
        })
        .collect();
    CsrMatrix::from_rows(rows)
}

fn mat_inf_rows(a: &Matrix) -> f64 {
    let mut best = 0.0f64;
    for i in 0..a.rows() {
        let mut s = 0.0;
        for j in 0..a.cols() {
            s += a[(i, j)].abs();
        }
        best = best.max(s);
    }
    best
}

fn matvec_rows(a: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            let mut s = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                s += a[(i, j)] * xj;
            }
            s
        })
        .collect()
}

fn scaled_residual_rows(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = matvec_rows(a, x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    // A non-finite `x` or `A·x − b` is no solution (the salted matrices'
    // NaN entries make one): `NaN`, never what a max-fold skipping it reads.
    if !x.iter().chain(&r).all(|v| v.is_finite()) {
        return f64::NAN;
    }
    let denom = mat_inf_rows(a) * norms::vec_inf(x) + norms::vec_inf(b);
    if denom == 0.0 {
        norms::vec_inf(&r)
    } else {
        norms::vec_inf(&r) / denom
    }
}

/// `generate::diag_dominant`'s matrix with the row sums taken row by row.
fn diag_dominant_rows(n: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] = dist.sample(&mut rng);
        }
    }
    for i in 0..n {
        let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
        let sign = if a[(i, i)] >= 0.0 { 1.0 } else { -1.0 };
        a[(i, i)] = sign * (row_sum + 1.0);
    }
    a
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A diagonally dominant matrix salted with the values "exact zero" has to
/// take a side on: `+0.0`, `-0.0` (both dropped by `from_dense`), `NaN`
/// (kept), one all-zero row and one all-zero column.
fn salted(n: usize) -> LinearSystem {
    let mut sys = generate::diag_dominant(n, 0x5a17);
    for j in 0..n {
        for i in 0..n {
            sys.a[(i, j)] = match (3 * i + 5 * j) % 11 {
                0 => 0.0,
                1 => -0.0,
                2 if i != j => f64::NAN,
                _ => continue,
            };
        }
    }
    for k in 0..n {
        sys.a[(n / 2, k)] = 0.0;
        sys.a[(k, n / 3)] = -0.0;
    }
    sys
}

/// Every generated system of the battery, labelled.
fn systems() -> Vec<(String, LinearSystem)> {
    let mut out = Vec::new();
    for n in ORDERS {
        for kind in [
            SystemKind::DiagDominant,
            SystemKind::Spd,
            SystemKind::Circuit,
        ] {
            out.push((format!("{kind:?} n={n}"), kind.generate(n, n as u64 + 1)));
        }
        out.push((format!("banded n={n}"), generate::banded(n, 3, 9)));
        out.push((format!("salted n={n}"), salted(n)));
    }
    for k in POISSON_K {
        out.push((
            format!("Poisson2d k={k}"),
            SystemKind::Poisson2d.generate(k * k, 0),
        ));
    }
    out
}

/// A trial solution with a few exact zeros next to ordinary entries.
fn trial_x(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 5 {
            3 => 0.0,
            _ => 0.75 - (i % 13) as f64 / 4.0,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// The O(n²) passes
// ---------------------------------------------------------------------------

#[test]
fn from_dense_matches_the_row_walk() {
    for (what, sys) in systems() {
        let (got, want) = (CsrMatrix::from_dense(&sys.a), from_dense_rows(&sys.a));
        // `NaN != NaN`: the salted matrices compare through their bits only.
        if !what.starts_with("salted") {
            assert_eq!(got, want, "{what}");
        }
        assert_eq!((got.n(), got.nnz()), (want.n(), want.nnz()), "{what}");
        for i in 0..got.n() {
            assert_eq!(got.row(i).0, want.row(i).0, "{what} row {i} columns");
            assert_eq!(
                bits(got.row(i).1),
                bits(want.row(i).1),
                "{what} row {i} values"
            );
        }
    }
}

#[test]
fn from_dense_drops_both_zeros_and_keeps_nan() {
    let a = Matrix::from_rows(&[
        &[0.0, -0.0, f64::NAN],
        &[-0.0, 0.0, -0.0],
        &[f64::MIN_POSITIVE, -1.0, 0.0],
    ]);
    let csr = CsrMatrix::from_dense(&a);
    assert_eq!(csr.nnz(), 3);
    let (cols, vals) = csr.row(0);
    assert_eq!(cols, [2]);
    assert!(vals[0].is_nan());
    assert_eq!(csr.row(1), (&[][..], &[][..]));
    assert_eq!(csr.row(2), (&[0, 1][..], &[f64::MIN_POSITIVE, -1.0][..]));
}

#[test]
fn mat_inf_matches_the_row_walk() {
    for (what, sys) in systems() {
        assert_eq!(
            norms::mat_inf(&sys.a).to_bits(),
            mat_inf_rows(&sys.a).to_bits(),
            "{what}"
        );
    }
}

#[test]
fn scaled_residual_matches_the_row_walk() {
    for (what, sys) in systems() {
        let mut trials = vec![trial_x(sys.n())];
        trials.extend(sys.x_ref.clone());
        for x in trials {
            assert_eq!(
                sys.residual(&x).to_bits(),
                scaled_residual_rows(&sys.a, &x, &sys.b).to_bits(),
                "{what}"
            );
        }
    }
}

#[test]
fn diag_dominant_matches_the_row_walk() {
    for n in ORDERS {
        for seed in [0, 7, u64::MAX] {
            let sys = generate::diag_dominant(n, seed);
            let want = diag_dominant_rows(n, seed);
            assert_eq!(bits(sys.a.as_slice()), bits(want.as_slice()), "n={n}");
            let x = sys.x_ref.as_ref().unwrap();
            assert_eq!(bits(&sys.b), bits(&matvec_rows(&want, x)), "n={n} rhs");
        }
    }
}
