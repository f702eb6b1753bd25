//! Seeded generators for test linear systems.
//!
//! The paper loads its input system from a file so repeated measurements see
//! identical data; these generators produce those files deterministically.
//! All generators yield well-conditioned, uniquely solvable systems unless
//! stated otherwise, with a known reference solution (`x = 1, 2, …, n`
//! scaled) so residual checks need no factorisation.

use crate::matrix::Matrix;
use crate::norms::{add_abs, ResidualSweep};
use crate::simd;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A square dense linear system `A·x = b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinearSystem {
    /// Coefficient matrix (square).
    pub a: Matrix,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Reference solution used to build `b`, if known.
    pub x_ref: Option<Vec<f64>>,
}

impl LinearSystem {
    /// Order of the system.
    pub fn n(&self) -> usize {
        self.a.rows()
    }

    /// Scaled residual of a candidate solution (see
    /// [`crate::norms::scaled_residual`]).
    pub fn residual(&self, x: &[f64]) -> f64 {
        crate::norms::scaled_residual(&self.a, x, &self.b)
    }

    /// Max-norm error against the reference solution, if one is known.
    pub fn error_vs_ref(&self, x: &[f64]) -> Option<f64> {
        self.x_ref.as_ref().map(|r| {
            r.iter()
                .zip(x)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
        })
    }
}

pub(crate) fn reference_solution(n: usize) -> Vec<f64> {
    // Bounded, non-trivial entries: 1 + (i mod 7)/7 with alternating sign.
    (0..n)
        .map(|i| {
            let base = 1.0 + (i % 7) as f64 / 7.0;
            if i % 2 == 0 {
                base
            } else {
                -base
            }
        })
        .collect()
}

fn with_reference_rhs(a: Matrix) -> LinearSystem {
    let x = reference_solution(a.rows());
    let b = a.matvec(&x);
    LinearSystem {
        a,
        b,
        x_ref: Some(x),
    }
}

/// Strictly row-diagonally-dominant random system: entries U(−1, 1), the
/// diagonal inflated above the row sum. Always non-singular, condition
/// number modest; the workhorse input for solver exactness tests.
///
/// [`DiagDominantStream`] filled out into a matrix: entry `(i, j)` is the
/// `(j·n + i)`-th U(−1, 1) draw of `ChaCha8Rng::seed_from_u64(seed)`, and
/// diagonal `i` is `sign(a_ii) · (Σ_{j≠i} |a_ij| + 1)`, summed in
/// ascending `j`.
pub fn diag_dominant(n: usize, seed: u64) -> LinearSystem {
    DiagDominantStream::new(n, seed).into_system()
}

/// A dense `rows × cols` matrix read one column at a time, in runs of rows:
/// what one rank of a block-cyclic grid needs of it (its rows of each of
/// its columns).
pub trait ColumnSource {
    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// Write rows `runs[0]`, then `runs[1]`, … of column `j` into `out`,
    /// back to back. The runs ascend without overlapping, and `out` is as
    /// long as they are together.
    fn fill_column(&self, j: usize, runs: &[Range<usize>], out: &mut [f64]);
}

impl ColumnSource for Matrix {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    fn fill_column(&self, j: usize, runs: &[Range<usize>], out: &mut [f64]) {
        let src = self.col(j);
        let mut at = 0;
        for r in runs {
            out[at..at + r.len()].copy_from_slice(&src[r.clone()]);
            at += r.len();
        }
    }
}

/// [`diag_dominant`]'s system with O(n) state: the key, the diagonal, `b`
/// and `x_ref`. Any run of any column is drawn from the seed on demand —
/// the keystream is counter-mode, so entry `e = j·n + i` (the `e`-th
/// `next_u64`, words `2e` and `2e + 1`) lies in block `e / 8` whatever was
/// drawn before it.
///
/// Three streaming passes replay the stored matrix's arithmetic in its own
/// order, so every value is `diag_dominant`'s bit for bit: the row sums
/// behind the diagonal (pass 1, in [`new`](Self::new)), `b = A·x_ref` in
/// `Matrix::matvec`'s column order (pass 2, also in `new`) and
/// [`residual`](Self::residual) in `norms::scaled_residual`'s.
#[derive(Clone, Debug)]
pub struct DiagDominantStream {
    n: usize,
    key: [u32; 8],
    /// The finished diagonal.
    diag: Vec<f64>,
    /// Right-hand side `A·x_ref`.
    pub b: Vec<f64>,
    /// Reference solution used to build `b`.
    pub x_ref: Vec<f64>,
}

impl DiagDominantStream {
    /// The system of order `n` for `seed`: two passes over the keystream,
    /// O(n) memory.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "empty system");
        let seed_bytes = ChaCha8Rng::seed_from_u64(seed).get_seed();
        let key = std::array::from_fn(|k| {
            u32::from_le_bytes(
                seed_bytes[4 * k..4 * k + 4]
                    .try_into()
                    .expect("4-byte chunk"),
            )
        });
        // Pass 1: off-diagonal row sums, gathered column by column (each row
        // adds in ascending `j`); the sign comes from the drawn diagonal.
        let mut entries = EntryStream::new(key);
        let mut col = vec![0.0; n];
        let mut off = vec![0.0; n];
        let mut diag = Vec::with_capacity(n);
        for j in 0..n {
            entries.draw(j * n, std::slice::from_ref(&(0..n)), &mut col);
            add_abs(&mut off[..j], &col[..j]);
            add_abs(&mut off[j + 1..], &col[j + 1..]);
            diag.push(if col[j] >= 0.0 { 1.0 } else { -1.0 });
        }
        for (d, row_sum) in diag.iter_mut().zip(off) {
            *d *= row_sum + 1.0;
        }
        let mut sys = Self {
            n,
            key,
            diag,
            b: Vec::new(),
            x_ref: reference_solution(n),
        };
        // Pass 2: `b = A·x_ref`, `Matrix::matvec`'s loop column by column.
        let mut b = vec![0.0; n];
        sys.for_each_column(|j, col| {
            let xj = sys.x_ref[j];
            for (bi, &av) in b.iter_mut().zip(col) {
                *bi += av * xj;
            }
        });
        sys.b = b;
        sys
    }

    /// Order of the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Scaled residual of a candidate solution: one more pass, bit for bit
    /// [`LinearSystem::residual`] of the stored system.
    pub fn residual(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut sweep = ResidualSweep::new(self.n);
        self.for_each_column(|j, col| sweep.column(col, x[j]));
        sweep.finish(x, &self.b)
    }

    /// The stored system: every column drawn once more.
    pub fn into_system(self) -> LinearSystem {
        let mut a = Matrix::zeros(self.n, self.n);
        self.for_each_column(|j, col| a.col_mut(j).copy_from_slice(col));
        LinearSystem {
            a,
            b: self.b,
            x_ref: Some(self.x_ref),
        }
    }

    /// `f(j, column j)` for every `j` in order, diagonal in place.
    fn for_each_column(&self, mut f: impl FnMut(usize, &[f64])) {
        let n = self.n;
        let mut entries = EntryStream::new(self.key);
        let mut col = vec![0.0; n];
        for j in 0..n {
            entries.draw(j * n, std::slice::from_ref(&(0..n)), &mut col);
            col[j] = self.diag[j];
            f(j, &col);
        }
    }
}

impl ColumnSource for DiagDominantStream {
    fn shape(&self) -> (usize, usize) {
        (self.n, self.n)
    }

    fn fill_column(&self, j: usize, runs: &[Range<usize>], out: &mut [f64]) {
        EntryStream::new(self.key).draw(j * self.n, runs, out);
        let mut at = 0;
        for r in runs {
            if r.contains(&j) {
                out[at + j - r.start] = self.diag[j];
                break;
            }
            at += r.len();
        }
    }
}

/// `diag_dominant`'s entries straight from the keystream, whole blocks at a
/// time through the dispatched [`simd::Chacha8Kernel`].
struct EntryStream {
    key: [u32; 8],
    kernel: simd::Chacha8Kernel,
    counters: Vec<u64>,
    blocks: Vec<[u32; 16]>,
}

impl EntryStream {
    fn new(key: [u32; 8]) -> Self {
        Self {
            key,
            kernel: simd::active().chacha8,
            counters: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Entries `base + r` for each `r` of each run, back to back into
    /// `out`: one kernel call computes every block the runs touch (a run
    /// of `len` entries spans at most `⌈len/8⌉ + 1`), then each entry maps
    /// its two words as a sequential `Uniform` draw would.
    fn draw(&mut self, base: usize, runs: &[Range<usize>], out: &mut [f64]) {
        const ENTRIES_PER_BLOCK: usize = 8;
        let block_of = |e: usize| (e / ENTRIES_PER_BLOCK) as u64;
        self.counters.clear();
        for r in runs.iter().filter(|r| !r.is_empty()) {
            let (first, last) = (block_of(base + r.start), block_of(base + r.end - 1));
            // Adjacent runs may share a block.
            let from = match self.counters.last() {
                Some(&c) if c >= first => c + 1,
                _ => first,
            };
            self.counters.extend(from..=last);
        }
        self.blocks.resize(self.counters.len(), [0; 16]);
        (self.kernel)(&self.key, &self.counters, &mut self.blocks);
        let words = self.blocks.as_flattened();
        let (mut at, mut filled) = (0, 0);
        for r in runs.iter().filter(|r| !r.is_empty()) {
            let e0 = base + r.start;
            while self.counters[at] != block_of(e0) {
                at += 1;
            }
            let first_word = 16 * at + 2 * (e0 % ENTRIES_PER_BLOCK);
            let pairs = words[first_word..].chunks_exact(2);
            for (v, pair) in out[filled..filled + r.len()].iter_mut().zip(pairs) {
                *v = unit_entry(pair[0] as u64 | (pair[1] as u64) << 32);
            }
            filled += r.len();
        }
        debug_assert_eq!(filled, out.len(), "out is as long as the runs");
    }
}

/// The entry one `next_u64` makes: `Uniform::new_inclusive(-1.0, 1.0)`
/// written out, `lo + (hi − lo)·u` with `u` the draw's top 53 bits over
/// 2^53. Those bits convert to `f64` exactly through `i64`, one instruction
/// where the unsigned conversion is a branchy sequence; the batteries hold
/// the result to sequential `Uniform` draws bit for bit.
#[inline(always)]
fn unit_entry(bits: u64) -> f64 {
    -1.0 + 2.0 * ((bits >> 11) as i64 as f64 / (1u64 << 53) as f64)
}

/// A dense system as a distributed solver reads it: stored, or drawn from
/// its seed one column run at a time (only O(n) held).
pub enum DenseSystem {
    /// A materialised system.
    Stored(LinearSystem),
    /// [`SystemKind::DiagDominant`], seeded.
    Seeded(DiagDominantStream),
}

impl DenseSystem {
    /// `kind`'s system of order `n`: seeded for `DiagDominant`, stored for
    /// every other kind.
    pub fn generate(kind: SystemKind, n: usize, seed: u64) -> DenseSystem {
        match kind {
            SystemKind::DiagDominant => DenseSystem::Seeded(DiagDominantStream::new(n, seed)),
            _ => DenseSystem::Stored(kind.generate(n, seed)),
        }
    }

    /// Order of the system.
    pub fn n(&self) -> usize {
        match self {
            DenseSystem::Stored(s) => s.n(),
            DenseSystem::Seeded(s) => s.n(),
        }
    }

    /// Right-hand side.
    pub fn b(&self) -> &[f64] {
        match self {
            DenseSystem::Stored(s) => &s.b,
            DenseSystem::Seeded(s) => &s.b,
        }
    }

    /// Scaled residual of a candidate solution.
    pub fn residual(&self, x: &[f64]) -> f64 {
        match self {
            DenseSystem::Stored(s) => s.residual(x),
            DenseSystem::Seeded(s) => s.residual(x),
        }
    }
}

impl ColumnSource for DenseSystem {
    fn shape(&self) -> (usize, usize) {
        match self {
            DenseSystem::Stored(s) => s.a.shape(),
            DenseSystem::Seeded(s) => s.shape(),
        }
    }

    fn fill_column(&self, j: usize, runs: &[Range<usize>], out: &mut [f64]) {
        match self {
            DenseSystem::Stored(s) => s.a.fill_column(j, runs, out),
            DenseSystem::Seeded(s) => s.fill_column(j, runs, out),
        }
    }
}

/// Symmetric positive-definite system `A = Mᵀ·M + n·I` with random `M`.
pub fn spd(n: usize, seed: u64) -> LinearSystem {
    assert!(n > 0, "empty system");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5350445f);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let m = Matrix::from_fn(n, n, |_, _| dist.sample(&mut rng));
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += m[(k, i)] * m[(k, j)];
            }
            a[(i, j)] = s / n as f64 + if i == j { 1.0 } else { 0.0 };
        }
    }
    with_reference_rhs(a)
}

/// Nodal conductance matrix of a random resistor ladder network with a
/// grounded reference node — the class of systems the Inhibition Method was
/// invented for (Ciampolini 1963). Diagonally dominant and symmetric.
pub fn circuit_network(n: usize, seed: u64) -> LinearSystem {
    assert!(n > 0, "empty system");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc19c71);
    let gdist = Uniform::new(0.1, 10.0); // conductances in siemens
    let mut a = Matrix::zeros(n, n);
    // Chain conductances between adjacent nodes plus random cross links.
    let connect = |a: &mut Matrix, i: usize, j: usize, g: f64| {
        a[(i, i)] += g;
        a[(j, j)] += g;
        a[(i, j)] -= g;
        a[(j, i)] -= g;
    };
    for i in 0..n.saturating_sub(1) {
        let g = gdist.sample(&mut rng);
        connect(&mut a, i, i + 1, g);
    }
    let extra = Uniform::new(0usize, n);
    for _ in 0..n {
        let i = extra.sample(&mut rng);
        let j = extra.sample(&mut rng);
        if i != j {
            let g = gdist.sample(&mut rng);
            connect(&mut a, i, j, g);
        }
    }
    // Ground conductance at every node keeps the matrix non-singular.
    for i in 0..n {
        a[(i, i)] += gdist.sample(&mut rng);
    }
    with_reference_rhs(a)
}

/// Dense 5-point-Laplacian system on a `k × k` grid (`n = k²` unknowns):
/// the classic PDE workload motivating dense solvers in the paper's intro.
pub fn poisson2d(k: usize, _seed: u64) -> LinearSystem {
    assert!(k > 0, "empty grid");
    let n = k * k;
    let mut a = Matrix::zeros(n, n);
    for gy in 0..k {
        for gx in 0..k {
            let row = gy * k + gx;
            a[(row, row)] = 4.0;
            if gx > 0 {
                a[(row, row - 1)] = -1.0;
            }
            if gx + 1 < k {
                a[(row, row + 1)] = -1.0;
            }
            if gy > 0 {
                a[(row, row - k)] = -1.0;
            }
            if gy + 1 < k {
                a[(row, row + k)] = -1.0;
            }
        }
    }
    with_reference_rhs(a)
}

/// Banded diagonally-dominant system with bandwidth `band` (number of
/// non-zero off-diagonals on each side). ScaLAPACK's banded solvers
/// motivate the shape; here it exercises the dense solvers on the sparsity
/// pattern (the paper's library also targets banded systems).
pub fn banded(n: usize, band: usize, seed: u64) -> LinearSystem {
    assert!(n > 0, "empty system");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xba4ded);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(band);
        let hi = (i + band + 1).min(n);
        for j in lo..hi {
            a[(i, j)] = dist.sample(&mut rng);
        }
        let off: f64 = (lo..hi).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = off + 1.0;
    }
    with_reference_rhs(a)
}

/// Named generator kinds for configuration files and the harness CLI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// [`diag_dominant`]
    DiagDominant,
    /// [`spd`]
    Spd,
    /// [`circuit_network`]
    Circuit,
    /// [`poisson2d`] (n must be a perfect square)
    Poisson2d,
}

impl SystemKind {
    /// Generate a system of order `n` (for `Poisson2d`, `n` must be a
    /// perfect square).
    pub fn generate(self, n: usize, seed: u64) -> LinearSystem {
        match self {
            SystemKind::DiagDominant => diag_dominant(n, seed),
            SystemKind::Spd => spd(n, seed),
            SystemKind::Circuit => circuit_network(n, seed),
            SystemKind::Poisson2d => {
                let k = (n as f64).sqrt().round() as usize;
                assert_eq!(k * k, n, "Poisson2d needs a perfect square n, got {n}");
                poisson2d(k, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_dominant_is_dominant() {
        let sys = diag_dominant(20, 7);
        for i in 0..20 {
            let off: f64 = (0..20)
                .filter(|&j| j != i)
                .map(|j| sys.a[(i, j)].abs())
                .sum();
            assert!(sys.a[(i, i)].abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = diag_dominant(10, 42);
        let b = diag_dominant(10, 42);
        assert_eq!(a.a, b.a);
        assert_eq!(a.b, b.b);
        let c = diag_dominant(10, 43);
        assert_ne!(a.a, c.a);
    }

    #[test]
    fn reference_rhs_consistent() {
        let sys = diag_dominant(16, 3);
        let x = sys.x_ref.clone().unwrap();
        assert!(sys.residual(&x) < 1e-14);
    }

    #[test]
    fn spd_is_symmetric_with_positive_diag() {
        let sys = spd(12, 5);
        for i in 0..12 {
            assert!(sys.a[(i, i)] > 0.0);
            for j in 0..12 {
                assert!((sys.a[(i, j)] - sys.a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn circuit_rows_sum_to_ground_conductance() {
        let sys = circuit_network(15, 9);
        // Off-diagonals are non-positive, matrix symmetric, strictly dominant.
        for i in 0..15 {
            let off: f64 = (0..15).filter(|&j| j != i).map(|j| sys.a[(i, j)]).sum();
            assert!(sys.a[(i, i)] > -off, "row {i} lost dominance");
            for j in 0..15 {
                if i != j {
                    assert!(sys.a[(i, j)] <= 0.0);
                }
            }
        }
    }

    #[test]
    fn poisson_structure() {
        let sys = poisson2d(3, 0);
        assert_eq!(sys.n(), 9);
        assert_eq!(sys.a[(0, 0)], 4.0);
        assert_eq!(sys.a[(0, 1)], -1.0);
        assert_eq!(sys.a[(0, 3)], -1.0);
        assert_eq!(sys.a[(0, 2)], 0.0); // no wraparound across grid rows
        assert_eq!(sys.a[(2, 3)], 0.0);
    }

    #[test]
    fn banded_respects_bandwidth_and_dominance() {
        let sys = banded(30, 3, 4);
        for i in 0..30 {
            for j in 0..30 {
                if (i as isize - j as isize).unsigned_abs() > 3 {
                    assert_eq!(sys.a[(i, j)], 0.0, "entry ({i},{j}) outside band");
                }
            }
            let off: f64 = (0..30)
                .filter(|&j| j != i)
                .map(|j| sys.a[(i, j)].abs())
                .sum();
            assert!(sys.a[(i, i)] > off);
        }
        assert!(sys.residual(&sys.x_ref.clone().unwrap()) < 1e-13);
    }

    #[test]
    fn kind_dispatch() {
        let s = SystemKind::Poisson2d.generate(16, 1);
        assert_eq!(s.n(), 16);
        let s = SystemKind::Circuit.generate(8, 1);
        assert_eq!(s.n(), 8);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn poisson_rejects_non_square() {
        // message comes from the assert in generate()
        let _ = SystemKind::Poisson2d.generate(10, 0);
    }
}
