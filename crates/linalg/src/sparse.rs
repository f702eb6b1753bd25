//! Sparse substrate for the memory-bound workload family: CSR storage,
//! seeded SPD generators (Laplacian stencils and random diagonally
//! dominant), and a sequential SpMV whose DRAM traffic has a closed form
//! in [`crate::flops`] so the roofline model can place it on the memory
//! ceiling.
//!
//! Everything here mirrors the dense side's contracts: generators are
//! deterministic per seed, systems carry a known reference solution, and
//! the kernels are allocation-free on the hot path so the simulated
//! runtime can charge flops and bytes exactly.

use crate::generate::{reference_solution, LinearSystem};
use crate::matrix::Matrix;
use crate::simd;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Square sparse matrix in compressed-sparse-row form.
///
/// Column indices are `u32` (the simulator never exceeds 2³² unknowns and
/// the narrower index stream is half the gather traffic — the byte model
/// in [`crate::flops::spmv_csr_bytes`] counts exactly this layout).
/// Within each row the column indices are strictly increasing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries; `n + 1` long.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from per-row `(col, value)` lists. Each row's entries must be
    /// sorted by column with no duplicates; zeros are kept as given (the
    /// generators never emit them).
    pub fn from_rows(rows: Vec<Vec<(usize, f64)>>) -> Self {
        let n = rows.len();
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &rows {
            let mut prev: Option<usize> = None;
            for &(j, v) in row {
                assert!(j < n, "column {j} out of range for order {n}");
                assert!(prev.is_none_or(|p| p < j), "row entries not sorted");
                prev = Some(j);
                col_idx.push(j as u32);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Compress a dense matrix, dropping exact zeros: every entry with
    /// `v == 0.0`, so `-0.0` is dropped too and `NaN` is kept.
    ///
    /// Two scans of the column-major buffer in storage order — count each
    /// row's entries, prefix-sum the counts into `row_ptr`, scatter — with
    /// O(n + nnz) scratch. Columns are visited in ascending `j`, so every
    /// row's entries arrive already sorted.
    pub fn from_dense(a: &Matrix) -> Self {
        assert!(a.is_square(), "CSR storage here is square-only");
        let n = a.rows();
        assert!(
            n <= u32::MAX as usize,
            "order {n} does not fit the u32 column indices"
        );
        let mut row_ptr = vec![0usize; n + 1];
        for j in 0..n {
            for (count, &v) in row_ptr[1..].iter_mut().zip(a.col(j)) {
                *count += usize::from(v != 0.0);
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = row_ptr[n];
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        // Where row `i`'s next entry goes.
        let mut next = row_ptr[..n].to_vec();
        for j in 0..n {
            for (slot, &v) in next.iter_mut().zip(a.col(j)) {
                if v != 0.0 {
                    col_idx[*slot] = j as u32;
                    values[*slot] = v;
                    *slot += 1;
                }
            }
        }
        let csr = CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert!(
            (0..n).all(|i| csr.row(i).0.windows(2).all(|w| w[0] < w[1])),
            "row entries not strictly increasing"
        );
        csr
    }

    /// Order of the (square) matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as parallel column/value slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// The diagonal, with `0.0` for rows that store no diagonal entry.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .position(|&j| j as usize == i)
                    .map_or(0.0, |p| vals[p])
            })
            .collect()
    }

    /// Sequential SpMV: `y = A·x` on the dispatched
    /// [`crate::simd::active`] path. Flop count is
    /// [`crate::flops::spmv`]`(nnz)`, DRAM traffic
    /// [`crate::flops::spmv_csr_bytes`]`(n, nnz)`. Every kernel path
    /// accumulates rows in the same left-to-right order, so results are
    /// bit-identical across `GREENLA_KERNEL` settings.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        (simd::active().spmv)(&self.row_ptr, &self.col_idx, &self.values, x, y);
    }

    /// Convenience allocating SpMV (tests and reference paths).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.spmv(x, &mut y);
        y
    }

    /// Expand to dense storage (oracle paths only — O(n²) memory).
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                a[(i, j as usize)] = v;
            }
        }
        a
    }

    /// A contiguous row block `[lo, hi)` as its own CSR matrix with
    /// unchanged (global) column indices — the 1-D row-block distribution
    /// the distributed SpMV uses.
    pub fn row_block(&self, lo: usize, hi: usize) -> CsrMatrix {
        assert!(lo <= hi && hi <= self.n);
        let span = self.row_ptr[lo]..self.row_ptr[hi];
        CsrMatrix {
            n: self.n, // column space stays global
            row_ptr: self.row_ptr[lo..=hi]
                .iter()
                .map(|p| p - self.row_ptr[lo])
                .collect(),
            col_idx: self.col_idx[span.clone()].to_vec(),
            values: self.values[span].to_vec(),
        }
    }

    /// Number of rows stored locally (differs from [`Self::n`] only for
    /// [`Self::row_block`] views, where `n` is the global column space).
    pub fn local_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// SpMV restricted to a row block: `y[i] = Σ A[lo+i, j]·x[j]` with `x`
    /// spanning the full (global) column space, on the dispatched kernel
    /// path (bit-identical across paths, like [`Self::spmv`]).
    pub fn spmv_block(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.local_rows());
        (simd::active().spmv)(&self.row_ptr, &self.col_idx, &self.values, x, y);
    }

    /// SpMV over an arbitrary subset of local rows: `y[i] = Σ A[i,j]·x[j]`
    /// for each `i` in `rows`, leaving every other slot of `y` untouched.
    /// Each row accumulates left to right — the same order every kernel
    /// path uses — so computing a partition of the rows in any subset
    /// order is bit-identical to one [`Self::spmv_block`] sweep (the
    /// overlapped CG solver's interior/boundary split relies on exactly
    /// this).
    pub fn spmv_rows(&self, rows: &[usize], x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.local_rows());
        for &i in rows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j as usize];
            }
            y[i] = acc;
        }
    }
}

/// A sparse SPD linear system `A·x = b` with a known reference solution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparseSystem {
    /// Coefficient matrix (SPD for every generator in this module).
    pub a: CsrMatrix,
    /// Right-hand side `A·x_ref`.
    pub b: Vec<f64>,
    /// Reference solution used to build `b`.
    pub x_ref: Vec<f64>,
}

impl SparseSystem {
    fn from_matrix(a: CsrMatrix) -> Self {
        let x_ref = reference_solution(a.n());
        let b = a.matvec(&x_ref);
        SparseSystem { a, b, x_ref }
    }

    /// Order of the system.
    pub fn n(&self) -> usize {
        self.a.n()
    }

    /// Scaled residual `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of a candidate
    /// solution — the normalisation of [`crate::norms::scaled_residual`],
    /// `NaN` included, and for a finite `x` its bits: each row adds its
    /// stored entries in ascending column order, as the dense sweep does
    /// (the zeros it also adds change no sum).
    pub fn residual(&self, x: &[f64]) -> f64 {
        let mut r = self.a.matvec(x);
        for (ri, bi) in r.iter_mut().zip(&self.b) {
            *ri -= bi;
        }
        let a_inf = (0..self.n())
            .map(|i| self.a.row(i).1.iter().map(|v| v.abs()).sum())
            .fold(0.0f64, f64::max);
        crate::norms::scale_residual(&r, a_inf, x, &self.b)
    }

    /// Max-norm error against the reference solution.
    pub fn error_vs_ref(&self, x: &[f64]) -> f64 {
        self.x_ref
            .iter()
            .zip(x)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Densify into the dense-side [`LinearSystem`] (oracle paths only).
    pub fn to_dense(&self) -> LinearSystem {
        LinearSystem {
            a: self.a.to_dense(),
            b: self.b.clone(),
            x_ref: Some(self.x_ref.clone()),
        }
    }
}

/// 5-point Laplacian on a `k × k` grid (`n = k²`): tridiagonal blocks of
/// `4` on the diagonal and `−1` towards the four grid neighbours. SPD,
/// ≤ 5 entries per row — the canonical memory-bound stencil system.
pub fn laplace2d(k: usize) -> SparseSystem {
    assert!(k > 0, "empty grid");
    let n = k * k;
    let rows = (0..n)
        .map(|row| {
            let (gy, gx) = (row / k, row % k);
            let mut entries = Vec::with_capacity(5);
            if gy > 0 {
                entries.push((row - k, -1.0));
            }
            if gx > 0 {
                entries.push((row - 1, -1.0));
            }
            entries.push((row, 4.0));
            if gx + 1 < k {
                entries.push((row + 1, -1.0));
            }
            if gy + 1 < k {
                entries.push((row + k, -1.0));
            }
            entries
        })
        .collect();
    SparseSystem::from_matrix(CsrMatrix::from_rows(rows))
}

/// 7-point Laplacian on a `k × k × k` grid (`n = k³`): `6` on the
/// diagonal, `−1` towards the six grid neighbours. SPD, ≤ 7 entries per
/// row.
pub fn laplace3d(k: usize) -> SparseSystem {
    assert!(k > 0, "empty grid");
    let n = k * k * k;
    let rows = (0..n)
        .map(|row| {
            let gz = row / (k * k);
            let gy = (row / k) % k;
            let gx = row % k;
            let mut entries = Vec::with_capacity(7);
            if gz > 0 {
                entries.push((row - k * k, -1.0));
            }
            if gy > 0 {
                entries.push((row - k, -1.0));
            }
            if gx > 0 {
                entries.push((row - 1, -1.0));
            }
            entries.push((row, 6.0));
            if gx + 1 < k {
                entries.push((row + 1, -1.0));
            }
            if gy + 1 < k {
                entries.push((row + k, -1.0));
            }
            if gz + 1 < k {
                entries.push((row + k * k, -1.0));
            }
            entries
        })
        .collect();
    SparseSystem::from_matrix(CsrMatrix::from_rows(rows))
}

/// Random symmetric strictly-diagonally-dominant system: a symmetric
/// pattern of about `extra` off-diagonal pairs per row with U(−1, 1)
/// values, the diagonal inflated one above the absolute row sum.
/// Symmetric + strictly dominant + positive diagonal ⇒ SPD (Gershgorin),
/// with condition number modest enough that CG converges fast.
pub fn random_spd(n: usize, extra: usize, seed: u64) -> SparseSystem {
    assert!(n > 0, "empty system");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5b_5bd5);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let col = Uniform::new(0usize, n);
    // Symmetric off-diagonal pattern via a BTreeMap per row: insertion
    // order is randomised, storage order is sorted, duplicates collapse.
    let mut pattern: Vec<std::collections::BTreeMap<usize, f64>> = vec![Default::default(); n];
    for i in 0..n {
        for _ in 0..extra {
            let j = col.sample(&mut rng);
            if i != j {
                let v = dist.sample(&mut rng);
                pattern[i].insert(j, v);
                pattern[j].insert(i, v);
            }
        }
    }
    let rows = pattern
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let dom: f64 = row.values().map(|v| v.abs()).sum();
            let mut entries: Vec<(usize, f64)> = row.iter().map(|(&j, &v)| (j, v)).collect();
            let at = entries.partition_point(|&(j, _)| j < i);
            entries.insert(at, (i, dom + 1.0));
            entries
        })
        .collect();
    SparseSystem::from_matrix(CsrMatrix::from_rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trips_through_dense() {
        let sys = laplace2d(4);
        let dense = sys.a.to_dense();
        let back = CsrMatrix::from_dense(&dense);
        assert_eq!(sys.a, back);
    }

    #[test]
    fn laplace2d_matches_dense_poisson() {
        // The dense generator and the sparse one must describe the same
        // operator, entry for entry.
        let k = 5;
        let sparse = laplace2d(k);
        let dense = crate::generate::poisson2d(k, 0);
        assert_eq!(sparse.a.to_dense(), dense.a);
        assert_eq!(sparse.b, dense.b);
    }

    #[test]
    fn spmv_agrees_with_dense_matvec() {
        for sys in [laplace3d(3), random_spd(40, 5, 7)] {
            let x: Vec<f64> = (0..sys.n()).map(|i| (i as f64).sin()).collect();
            let sparse = sys.a.matvec(&x);
            let dense = sys.a.to_dense().matvec(&x);
            for (s, d) in sparse.iter().zip(&dense) {
                assert!((s - d).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn generators_are_spd_shaped_and_deterministic() {
        let sys = random_spd(30, 4, 11);
        let a = sys.a.to_dense();
        for i in 0..30 {
            assert!(a[(i, i)] > 0.0);
            let off: f64 = (0..30).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)] > off, "row {i} lost dominance");
            for j in 0..30 {
                assert_eq!(a[(i, j)], a[(j, i)], "asymmetry at ({i},{j})");
            }
        }
        assert_eq!(random_spd(30, 4, 11).a, sys.a);
        assert_ne!(random_spd(30, 4, 12).a, sys.a);
    }

    #[test]
    fn reference_solution_closes_the_residual() {
        for sys in [laplace2d(6), laplace3d(3), random_spd(25, 3, 3)] {
            assert!(sys.residual(&sys.x_ref) < 1e-14);
            assert_eq!(sys.error_vs_ref(&sys.x_ref), 0.0);
        }
    }

    #[test]
    fn a_non_finite_solution_is_nan_not_exact() {
        let sys = laplace2d(3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(sys.residual(&[bad; 9]).is_nan());
            let mut x = sys.x_ref.clone();
            x[4] = bad;
            assert!(sys.residual(&x).is_nan());
        }
        // A finite `x` whose `A·x` overflows.
        assert!(sys.residual(&[f64::MAX; 9]).is_nan());
    }

    #[test]
    fn row_block_partitions_the_spmv() {
        let sys = laplace2d(4);
        let n = sys.n();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let full = sys.a.matvec(&x);
        let (lo, hi) = (5, 11);
        let block = sys.a.row_block(lo, hi);
        assert_eq!(block.local_rows(), hi - lo);
        let mut y = vec![0.0; hi - lo];
        block.spmv_block(&x, &mut y);
        assert_eq!(&full[lo..hi], &y[..]);
    }

    #[test]
    fn diagonal_extraction() {
        let sys = laplace3d(2);
        assert!(sys.a.diagonal().iter().all(|&d| d == 6.0));
        let sys = laplace2d(3);
        assert!(sys.a.diagonal().iter().all(|&d| d == 4.0));
    }

    /// Seeded awkward shapes for the dispatch property test: empty rows, a
    /// dense row, single-entry rows, n = 0 and n = 1.
    fn awkward_shapes() -> Vec<CsrMatrix> {
        let n = 37;
        let mixed = CsrMatrix::from_rows(
            (0..n)
                .map(|i| match i % 4 {
                    0 => Vec::new(),                                    // empty row
                    1 => (0..n).map(|j| (j, 0.5 - j as f64)).collect(), // dense row
                    2 => vec![(i, 2.0)],
                    _ => vec![(i / 2, -1.0), (i, 3.0)],
                })
                .collect(),
        );
        vec![
            mixed,
            CsrMatrix::from_rows(Vec::new()),           // n = 0
            CsrMatrix::from_rows(vec![vec![(0, 2.5)]]), // n = 1
            CsrMatrix::from_rows(vec![Vec::new()]),     // n = 1, empty row
            laplace2d(96).a,                            // 9216 rows
            random_spd(1500, 5, 3).a,
        ]
    }

    #[test]
    fn spmv_paths_are_bit_identical_on_matrices() {
        use crate::simd::{kernels, KernelPath};
        for a in awkward_shapes() {
            let x: Vec<f64> = (0..a.n()).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let spmv_path = |path, y: &mut [f64]| {
                (kernels(path).spmv)(&a.row_ptr, &a.col_idx, &a.values, &x, y);
            };
            let mut want = vec![0.0; a.local_rows()];
            spmv_path(KernelPath::Scalar, &mut want);
            for path in [KernelPath::Avx2, KernelPath::Avx512] {
                if !path.supported() {
                    continue;
                }
                let mut got = vec![f64::NAN; a.local_rows()];
                spmv_path(path, &mut got);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "n={} {path}",
                    a.n()
                );
            }
        }
    }

    #[test]
    fn spmv_rows_partition_reassembles_the_block_sweep() {
        let sys = laplace2d(8);
        let a = sys.a.row_block(10, 50);
        let x: Vec<f64> = (0..sys.n()).map(|i| (i as f64).sqrt()).collect();
        let mut want = vec![0.0; a.local_rows()];
        a.spmv_block(&x, &mut want);
        // Odd rows first, then even: subset order must not matter.
        let odd: Vec<usize> = (0..a.local_rows()).filter(|i| i % 2 == 1).collect();
        let even: Vec<usize> = (0..a.local_rows()).filter(|i| i % 2 == 0).collect();
        let mut got = vec![f64::NAN; a.local_rows()];
        a.spmv_rows(&odd, &x, &mut got);
        a.spmv_rows(&even, &x, &mut got);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    #[test]
    fn nnz_matches_stencil_closed_form() {
        // k×k 5-point stencil: 5k² − 4k entries (each of the 2k(k−1)
        // interior edges contributes two off-diagonals).
        let k = 7;
        let sys = laplace2d(k);
        assert_eq!(sys.a.nnz(), 5 * k * k - 4 * k);
        // k³ 7-point stencil: 7k³ − 6k².
        let k = 4;
        let sys = laplace3d(k);
        assert_eq!(sys.a.nnz(), 7 * k * k * k - 6 * k * k);
    }
}
