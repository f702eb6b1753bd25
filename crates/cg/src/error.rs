//! CG failure modes.
//!
//! A failed solve surfaces as one of these — never a hang or a NaN spin —
//! and callers match on the variant; the harness ends the run with it as
//! `AbortKind::Solver`. Every `Display` reads `"cg aborted: …"`.

use std::fmt;

/// Why conjugate gradients could not solve a system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CgError {
    /// A diagonal entry is missing, zero, or negative — the operator
    /// cannot be SPD and the Jacobi preconditioner `1/aᵢᵢ` is undefined.
    /// Detected up front on the replicated matrix, so every rank aborts
    /// in unison instead of deadlocking in a half-abandoned exchange.
    NonPositiveDiagonal { row: usize, value: f64 },
    /// The curvature `pᵀ·A·p` came out non-positive (or non-finite) at
    /// some iteration: the operator is indefinite or singular and the CG
    /// recurrence is no longer a descent method.
    IndefiniteOperator { iteration: usize, curvature: f64 },
    /// The residual never reached the tolerance within the iteration
    /// budget.
    NoConvergence {
        iterations: usize,
        rel_residual: f64,
    },
}

impl fmt::Display for CgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgError::NonPositiveDiagonal { row, value } => write!(
                f,
                "cg aborted: non-positive diagonal a[{row},{row}] = {value}: \
                 operator is not SPD"
            ),
            CgError::IndefiniteOperator {
                iteration,
                curvature,
            } => write!(
                f,
                "cg aborted: indefinite operator (p·Ap = {curvature} at \
                 iteration {iteration})"
            ),
            CgError::NoConvergence {
                iterations,
                rel_residual,
            } => write!(
                f,
                "cg aborted: no convergence after {iterations} iterations \
                 (relative residual {rel_residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for CgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_carries_the_stable_prefix() {
        let errs = [
            CgError::NonPositiveDiagonal { row: 3, value: 0.0 },
            CgError::IndefiniteOperator {
                iteration: 7,
                curvature: -1.0,
            },
            CgError::NoConvergence {
                iterations: 100,
                rel_residual: 0.5,
            },
        ];
        for e in errs {
            assert!(e.to_string().starts_with("cg aborted:"), "{e}");
        }
    }
}
