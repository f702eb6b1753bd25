//! Level-2 BLAS over column-major buffers with explicit leading dimension.
//!
//! The raw-slice forms operate on sub-blocks of larger matrices (as the
//! blocked LU factorisation needs); [`crate::matrix::Matrix`] wrappers are
//! provided where whole-matrix operation is more ergonomic.

use crate::block::BlockRef;
use crate::matrix::Matrix;

/// `y ← α·A·x + β·y` for an `m × n` column-major block view `a`.
pub fn dgemv(alpha: f64, a: BlockRef, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n, lda) = (a.rows(), a.cols(), a.ld());
    let a = a.data();
    assert!(x.len() >= n && y.len() >= m, "vector length mismatch");
    if beta != 1.0 {
        for yi in y[..m].iter_mut() {
            *yi *= beta;
        }
    }
    if alpha == 0.0 {
        return;
    }
    for j in 0..n {
        let axj = alpha * x[j];
        let col = &a[j * lda..j * lda + m];
        for i in 0..m {
            y[i] += col[i] * axj;
        }
    }
}

/// Solve `L·x = b` in place where `L` is the unit lower triangle of the
/// leading `n × n` block of `a`.
pub fn dtrsv_lower_unit(n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    assert!(lda >= n.max(1) && x.len() >= n);
    for j in 0..n {
        let xj = x[j];
        if xj != 0.0 {
            let col = &a[j * lda..j * lda + n];
            for i in j + 1..n {
                x[i] -= xj * col[i];
            }
        }
    }
}

/// Solve `U·x = b` in place where `U` is the non-unit upper triangle of the
/// leading `n × n` block of `a`. Panics on a zero diagonal entry.
pub fn dtrsv_upper(n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    assert!(lda >= n.max(1) && x.len() >= n);
    for j in (0..n).rev() {
        let d = a[j + j * lda];
        assert!(d != 0.0, "singular upper triangle at {j}");
        x[j] /= d;
        let xj = x[j];
        if xj != 0.0 {
            let col = &a[j * lda..j * lda + j];
            for i in 0..j {
                x[i] -= xj * col[i];
            }
        }
    }
}

/// Whole-matrix convenience: `A·x`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    dgemv(1.0, a.block(), x, 0.0, &mut y);
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn dgemv_identity() {
        let a = Matrix::identity(3);
        let mut y = vec![0.0; 3];
        dgemv(1.0, a.block(), &[1.0, 2.0, 3.0], 0.0, &mut y);
        approx(&y, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dgemv_beta_accumulates() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut y = vec![10.0, 20.0];
        dgemv(2.0, a.block(), &[1.0, 1.0], 0.5, &mut y);
        approx(&y, &[7.0, 12.0]);
    }

    #[test]
    fn trsv_lower_unit_solves() {
        // L = [[1,0],[2,1]], b = [1, 4] -> x = [1, 2]
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0]]);
        let mut x = vec![1.0, 4.0];
        dtrsv_lower_unit(2, l.as_slice(), 2, &mut x);
        approx(&x, &[1.0, 2.0]);
    }

    #[test]
    fn trsv_upper_solves() {
        // U = [[2,1],[0,4]], b = [4, 8] -> x = [1, 2]
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let mut x = vec![4.0, 8.0];
        dtrsv_upper(2, u.as_slice(), 2, &mut x);
        approx(&x, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "singular upper triangle")]
    fn trsv_upper_rejects_zero_diag() {
        let u = Matrix::zeros(2, 2);
        let mut x = vec![1.0, 1.0];
        dtrsv_upper(2, u.as_slice(), 2, &mut x);
    }
}
