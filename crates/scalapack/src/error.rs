//! Factorisation errors.

use std::fmt;

/// LU factorisation failure, mirroring LAPACK's `INFO > 0` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// `U(col, col)` is exactly zero: the matrix is singular to working
    /// precision and the solve cannot proceed.
    Singular { col: usize },
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::Singular { col } => {
                write!(f, "matrix is singular: zero pivot at column {col}")
            }
        }
    }
}

impl std::error::Error for LuError {}
