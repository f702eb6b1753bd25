//! Seeded generators for test linear systems.
//!
//! The paper loads its input system from a file so repeated measurements see
//! identical data; these generators produce those files deterministically.
//! All generators yield well-conditioned, uniquely solvable systems unless
//! stated otherwise, with a known reference solution (`x = 1, 2, …, n`
//! scaled) so residual checks need no factorisation.

use crate::matrix::Matrix;
use crate::norms::add_abs;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

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
pub fn diag_dominant(n: usize, seed: u64) -> LinearSystem {
    assert!(n > 0, "empty system");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let mut a = Matrix::zeros(n, n);
    // Off-diagonal row sums, gathered column by column while the freshly
    // drawn column is still in cache (each row adds in ascending `j`).
    let mut off = vec![0.0; n];
    for j in 0..n {
        let col = a.col_mut(j);
        for v in col.iter_mut() {
            *v = dist.sample(&mut rng);
        }
        add_abs(&mut off[..j], &col[..j]);
        add_abs(&mut off[j + 1..], &col[j + 1..]);
    }
    for (i, row_sum) in off.into_iter().enumerate() {
        let sign = if a[(i, i)] >= 0.0 { 1.0 } else { -1.0 };
        a[(i, i)] = sign * (row_sum + 1.0);
    }
    with_reference_rhs(a)
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
