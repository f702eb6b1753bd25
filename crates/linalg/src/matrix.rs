//! Column-major dense matrix.
//!
//! Storage follows the LAPACK convention: element `(i, j)` lives at
//! `data[i + j * rows]`. Column-major keeps the ScaLAPACK-lite crate's
//! block-cyclic maths identical to the reference library.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense column-major `f64` matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row-major nested slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Build element-wise from a function of `(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Leading dimension of the underlying buffer (= `rows`).
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Raw column-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Swap rows `a` and `b` over the column range `jlo..jhi`.
    pub fn swap_rows(&mut self, a: usize, b: usize, jlo: usize, jhi: usize) {
        assert!(a < self.rows && b < self.rows && jhi <= self.cols && jlo <= jhi);
        if a == b {
            return;
        }
        for j in jlo..jhi {
            let base = j * self.rows;
            self.data.swap(base + a, base + b);
        }
    }

    /// View the whole matrix as a column-major block.
    pub fn block(&self) -> crate::block::BlockRef<'_> {
        crate::block::BlockRef::new(&self.data, self.rows, self.cols, self.rows)
    }

    /// Mutable whole-matrix block view.
    pub fn block_mut(&mut self) -> crate::block::BlockMut<'_> {
        crate::block::BlockMut::new(&mut self.data, self.rows, self.cols, self.rows)
    }

    /// Dense matrix-vector product `A * x` (unaccounted convenience; hot
    /// paths use [`crate::blas2::dgemv`]).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            for (yi, &av) in y.iter_mut().zip(self.col(j)) {
                *yi += av * xj;
            }
        }
        y
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>11.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn swap_rows_partial_range() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        m.swap_rows(0, 1, 1, 3);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 5.0, 6.0], &[4.0, 2.0, 3.0]]));
    }

    #[test]
    fn matvec_identity() {
        let m = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(m.matvec(&x), x);
    }
}
