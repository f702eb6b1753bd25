//! Vector and matrix norms plus the scaled residual used to judge solver
//! exactness throughout the workspace.

use crate::blas1;
use crate::matrix::Matrix;

/// Vector ∞-norm.
pub fn vec_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Vector 1-norm.
pub fn vec_one(x: &[f64]) -> f64 {
    blas1::dasum(x)
}

/// Vector 2-norm.
pub fn vec_two(x: &[f64]) -> f64 {
    blas1::dnrm2(x)
}

/// `sums[i] += |col[i]|` — one column's share of the per-row absolute
/// sums. Walking a column-major matrix column by column through this
/// keeps every O(n²) pass in storage order while each row still adds its
/// terms in ascending `j`, so the sums equal a row walk's bit for bit.
pub(crate) fn add_abs(sums: &mut [f64], col: &[f64]) {
    for (s, v) in sums.iter_mut().zip(col) {
        *s += v.abs();
    }
}

/// Largest of the per-row absolute sums (`0.0` for none; a `NaN` sum is
/// passed over, as `f64::max` does).
fn max_row_sum(sums: &[f64]) -> f64 {
    sums.iter().fold(0.0f64, |m, &s| m.max(s))
}

/// Matrix ∞-norm (max row sum).
pub fn mat_inf(a: &Matrix) -> f64 {
    let mut sums = vec![0.0; a.rows()];
    for j in 0..a.cols() {
        add_abs(&mut sums, a.col(j));
    }
    max_row_sum(&sums)
}

/// Matrix 1-norm (max column sum).
pub fn mat_one(a: &Matrix) -> f64 {
    let mut best = 0.0f64;
    for j in 0..a.cols() {
        best = best.max(blas1::dasum(a.col(j)));
    }
    best
}

/// Frobenius norm.
pub fn mat_fro(a: &Matrix) -> f64 {
    blas1::dnrm2(a.as_slice())
}

/// Componentwise backward-style scaled residual
/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`; a numerically exact solver returns a
/// value within a modest multiple of machine epsilon.
///
/// One sweep over `A` in storage order: column `j` adds its share of `A·x`
/// and of the row sums behind `‖A‖∞` while it is in cache.
pub fn scaled_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.cols(), x.len());
    assert_eq!(a.rows(), b.len());
    let mut ax = vec![0.0; a.rows()];
    let mut sums = vec![0.0; a.rows()];
    for (j, &xj) in x.iter().enumerate() {
        for ((yi, si), &av) in ax.iter_mut().zip(&mut sums).zip(a.col(j)) {
            *yi += av * xj;
            *si += av.abs();
        }
    }
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    let denom = max_row_sum(&sums) * vec_inf(x) + vec_inf(b);
    if denom == 0.0 {
        vec_inf(&r)
    } else {
        vec_inf(&r) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_norm_picks_max_row() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(mat_inf(&a), 7.0);
        assert_eq!(mat_one(&a), 6.0);
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let a = Matrix::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        assert_eq!(scaled_residual(&a, &b, &b), 0.0);
    }

    #[test]
    fn residual_positive_for_wrong_solution() {
        let a = Matrix::identity(2);
        let b = vec![1.0, 1.0];
        let x = vec![2.0, 1.0];
        assert!(scaled_residual(&a, &x, &b) > 0.1);
    }

    #[test]
    fn fro_norm() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(mat_fro(&a), 5.0);
    }

    #[test]
    fn vec_norms() {
        let x = [3.0, -4.0];
        assert_eq!(vec_inf(&x), 4.0);
        assert_eq!(vec_one(&x), 7.0);
        assert_eq!(vec_two(&x), 5.0);
    }
}
