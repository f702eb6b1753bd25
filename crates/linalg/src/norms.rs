//! Vector and matrix norms plus the scaled residual used to judge solver
//! exactness throughout the workspace.

use crate::matrix::Matrix;

/// Vector ∞-norm.
pub fn vec_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
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

/// Componentwise backward-style scaled residual
/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`; a numerically exact solver returns a
/// value within a modest multiple of machine epsilon, and a solution with
/// a non-finite component returns `NaN`.
///
/// One sweep over `A` in storage order: column `j` adds its share of `A·x`
/// and of the row sums behind `‖A‖∞` while it is in cache.
pub fn scaled_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.cols(), x.len());
    assert_eq!(a.rows(), b.len());
    let mut sweep = ResidualSweep::new(a.rows());
    for (j, &xj) in x.iter().enumerate() {
        sweep.column(a.col(j), xj);
    }
    sweep.finish(x, b)
}

/// [`scaled_residual`]'s sweep, one column at a time. A seeded system that
/// never stores `A` feeds it the same columns in the same order, so its
/// residual is the stored matrix's bit for bit.
pub(crate) struct ResidualSweep {
    /// `A·x`, accumulated in ascending `j` per row.
    ax: Vec<f64>,
    /// Per-row absolute sums behind `‖A‖∞`.
    sums: Vec<f64>,
}

impl ResidualSweep {
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            ax: vec![0.0; rows],
            sums: vec![0.0; rows],
        }
    }

    /// Add column `j` of `A`, the one `x[j]` multiplies.
    pub(crate) fn column(&mut self, col: &[f64], xj: f64) {
        for ((yi, si), &av) in self.ax.iter_mut().zip(&mut self.sums).zip(col) {
            *yi += av * xj;
            *si += av.abs();
        }
    }

    /// The scaled residual once every column went in.
    pub(crate) fn finish(mut self, x: &[f64], b: &[f64]) -> f64 {
        for (ri, bi) in self.ax.iter_mut().zip(b) {
            *ri -= bi;
        }
        scale_residual(&self.ax, max_row_sum(&self.sums), x, b)
    }
}

/// `‖r‖∞ / (a_inf·‖x‖∞ + ‖b‖∞)` for `r = A·x − b` (`‖r‖∞` alone when the
/// denominator is 0) — the tail [`scaled_residual`] and
/// [`crate::sparse::SparseSystem::residual`] share. `NaN` when `x` or `r`
/// has a non-finite component: the `f64::max` folds pass `NaN` over, and a
/// solve that produced no number must not read as exact.
pub(crate) fn scale_residual(r: &[f64], a_inf: f64, x: &[f64], b: &[f64]) -> f64 {
    if !x.iter().chain(r).all(|v| v.is_finite()) {
        return f64::NAN;
    }
    let denom = a_inf * vec_inf(x) + vec_inf(b);
    if denom == 0.0 {
        vec_inf(r)
    } else {
        vec_inf(r) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_norm_picks_max_row() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(mat_inf(&a), 7.0);
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
    fn a_non_finite_solution_is_nan_not_exact() {
        let sys = crate::generate::diag_dominant(4, 1);
        let id = Matrix::identity(3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(scaled_residual(&id, &[bad; 3], &[1.0, 2.0, 3.0]).is_nan());
            assert!(scaled_residual(&id, &[1.0, bad, 3.0], &[1.0, 2.0, 3.0]).is_nan());
            assert!(sys.residual(&[bad; 4]).is_nan());
        }
        // A finite `x` whose `A·x` overflows: the residual is not finite.
        let x = [f64::MAX, f64::MAX, 0.0];
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert!(scaled_residual(&a, &x, &[0.0; 3]).is_nan());
    }

    #[test]
    fn vec_norms() {
        let x = [3.0, -4.0];
        assert_eq!(vec_inf(&x), 4.0);
    }
}
