//! Sequential Inhibition Method.

use crate::error::ImeError;
use crate::table::init_table;
use greenla_linalg::blas1::ddot;
use greenla_linalg::generate::LinearSystem;

/// Statistics of a sequential IMe run (used by tests verifying the
/// complexity claims and by the analytic model's calibration).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ImeStats {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Levels processed (= n).
    pub levels: usize,
}

/// Solve `A·x = b` with the sequential Inhibition Method. Returns the
/// solution and run statistics.
///
/// Level `l` (descending) eliminates right-block column `l` with row `l`:
/// auxiliary quantities `hᵢ = t_{i,n+l}/t_{l,n+l}` and `h_l = 1/t_{l,n+l}`,
/// update `t_{i,j} ← t_{i,j} − hᵢ·t_{l,j}` for `i ≠ l` then
/// `t_{l,j} ← h_l·t_{l,j}`, over the active window (left columns `l..n`,
/// right columns `0..l` — eliminated right columns are already canonical
/// and the left block has no fill below the window). Afterwards the left
/// block equals `A⁻ᵀ` and `x_j = ⟨t_{·,j}, b⟩`.
pub fn solve_seq(sys: &LinearSystem) -> Result<(Vec<f64>, ImeStats), ImeError> {
    let n = sys.n();
    let mut t = init_table(&sys.a)?;
    let mut stats = ImeStats {
        flops: 2 * (n * n) as u64,
        levels: n,
    }; // INITIME divisions & scales
    let mut h = vec![0.0; n];

    for l in (0..n).rev() {
        let piv = t[(l, n + l)];
        if piv == 0.0 {
            return Err(ImeError::ZeroInhibitor { level: l });
        }
        // Auxiliary quantities h^(l).
        for i in 0..n {
            h[i] = t[(i, n + l)] / piv;
        }
        let hl = 1.0 / piv;
        stats.flops += n as u64 + 1;
        // Active columns: left l..n, right 0..l (global n..n+l).
        let update_col = |t: &mut greenla_linalg::Matrix, c: usize, h: &[f64]| {
            crate::par::apply_level(t.col_mut(c), l, h, hl);
        };
        for c in l..n {
            update_col(&mut t, c, &h);
        }
        for j in 0..l {
            update_col(&mut t, n + j, &h);
        }
        stats.flops += 2 * (n as u64) * ((n - l) + l) as u64;
        // Column n+l is eliminated: set it to the canonical basis vector so
        // rounding residue cannot leak into later levels.
        for i in 0..n {
            t[(i, n + l)] = if i == l { 1.0 } else { 0.0 };
        }
    }

    // Left block is now A^{-T}: x_j = ⟨t_{·,j}, b⟩.
    let mut x = vec![0.0; n];
    for (j, xj) in x.iter_mut().enumerate() {
        *xj = ddot(t.col(j), &sys.b);
    }
    stats.flops += 2 * (n * n) as u64;
    Ok((x, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_linalg::generate;
    use greenla_linalg::Matrix;

    #[test]
    fn solves_generated_systems_exactly() {
        for (n, seed) in [(1, 0), (2, 1), (5, 2), (20, 3), (64, 4), (120, 5)] {
            let sys = generate::diag_dominant(n, seed);
            let (x, _) = solve_seq(&sys).unwrap();
            let r = sys.residual(&x);
            assert!(r < 1e-12, "residual {r} for n={n}");
            assert!(sys.error_vs_ref(&x).unwrap() < 1e-8);
        }
    }

    #[test]
    fn solves_circuit_and_spd_systems() {
        let c = generate::circuit_network(40, 7);
        let (x, _) = solve_seq(&c).unwrap();
        assert!(c.residual(&x) < 1e-12);
        let s = generate::spd(30, 8);
        let (x, _) = solve_seq(&s).unwrap();
        assert!(s.residual(&x) < 1e-11);
    }

    #[test]
    fn agrees_with_lu_reference() {
        let sys = generate::diag_dominant(50, 9);
        let (x_ime, _) = solve_seq(&sys).unwrap();
        let x_lu = greenla_scalapack_free_gesv(&sys);
        for (a, b) in x_ime.iter().zip(&x_lu) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// Small local LU so this crate's tests don't depend on
    /// greenla-scalapack (which would be a dependency cycle in dev-deps).
    fn greenla_scalapack_free_gesv(sys: &generate::LinearSystem) -> Vec<f64> {
        let n = sys.n();
        let mut a = sys.a.clone();
        let mut b = sys.b.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| a[(i, k)].abs().partial_cmp(&a[(j, k)].abs()).unwrap())
                .unwrap();
            a.swap_rows(k, p, 0, n);
            b.swap(k, p);
            perm.swap(k, p);
            for i in k + 1..n {
                let m = a[(i, k)] / a[(k, k)];
                for j in k..n {
                    let v = a[(k, j)];
                    a[(i, j)] -= m * v;
                }
                b[i] -= m * b[k];
            }
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in i + 1..n {
                s -= a[(i, j)] * x[j];
            }
            x[i] = s / a[(i, i)];
        }
        x
    }

    #[test]
    fn flop_count_scales_as_2_n_cubed() {
        // The reconstruction's measured constant (documented in
        // EXPERIMENTS.md against the paper's 3/2).
        let sys = generate::diag_dominant(100, 10);
        let (_, stats) = solve_seq(&sys).unwrap();
        let c = stats.flops as f64 / 100f64.powi(3);
        assert!((1.8..=2.3).contains(&c), "constant {c}");
        // And it is superlinear vs a smaller n with the same constant.
        let sys2 = generate::diag_dominant(50, 10);
        let (_, s2) = solve_seq(&sys2).unwrap();
        let c2 = s2.flops as f64 / 50f64.powi(3);
        assert!((c - c2).abs() < 0.25, "constants diverge: {c} vs {c2}");
    }

    #[test]
    fn zero_inhibitor_detected() {
        // Non-zero diagonal but the method hits a vanishing inhibitor:
        // a[(1,1)] chosen so that level-1 elimination zeroes the pivot of
        // level 0. Easiest robust case: a singular matrix with non-zero
        // diagonal.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let sys = generate::LinearSystem {
            a,
            b: vec![1.0, 1.0],
            x_ref: None,
        };
        match solve_seq(&sys) {
            Err(ImeError::ZeroInhibitor { .. }) => {}
            other => panic!("expected ZeroInhibitor, got {other:?}"),
        }
    }

    #[test]
    fn zero_diagonal_rejected_up_front() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let sys = generate::LinearSystem {
            a,
            b: vec![1.0, 1.0],
            x_ref: None,
        };
        assert_eq!(solve_seq(&sys), Err(ImeError::ZeroDiagonal { row: 0 }));
    }

    #[test]
    fn stats_levels_equals_n() {
        let sys = generate::diag_dominant(17, 12);
        let (_, stats) = solve_seq(&sys).unwrap();
        assert_eq!(stats.levels, 17);
    }
}
