#![forbid(unsafe_code)]
//! # greenla-ime
//!
//! The **Inhibition Method** (IMe) linear-system solver — the iterative,
//! exact, non-pivoting algorithm of Ciampolini (1963) / Artioli & Filippetti
//! (2001) that the paper profiles against ScaLAPACK — in sequential form and
//! in the column-wise parallel form **IMeP** over the simulated MPI runtime.
//!
//! ## Reconstruction note
//!
//! The paper defines the inhibition table
//! `T(n) = [diag(1/aᵢᵢ) | diag(1/aᵢᵢ)·Aᵀ]` and the per-level communication
//! pattern (owner of the level's last column broadcasts it; the master
//! computes and broadcasts the auxiliary quantities `h`; slaves return their
//! modified last-row entries to the master), but not the fundamental
//! formula itself. This crate reconstructs an *exact* method with that
//! table and that dataflow: level `l` (from `n−1` down to `0`) eliminates
//! right-block column `l` using row `l` with multipliers
//! `hᵢ = t_{i,n+l}/t_{l,n+l}` (the auxiliary quantities), after which the
//! right block is the identity and the left block equals `A⁻ᵀ`, so each
//! left-column owner produces its solution components with a local dot
//! product `x_j = ⟨t_{·,j}, b⟩` — the locality that makes the column-wise
//! scheme "fit the integration with the fault tolerance requirements", as
//! the paper puts it. Exactness is verified against LU in the tests; the
//! measured arithmetic constant is ≈ 2n³ against the paper's reported
//! `3/2·n³ + O(n²)` (see EXPERIMENTS.md for the comparison).

pub mod error;
pub mod formulas;
mod ft;
pub mod par;
pub mod seq;
pub mod table;

pub use error::ImeError;
pub use par::{reduce_table, solve_imep, solve_imep_multi, ImepOptions, ReducedTable};
pub use seq::solve_seq;
