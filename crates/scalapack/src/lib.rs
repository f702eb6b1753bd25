#![forbid(unsafe_code)]
//! # greenla-scalapack
//!
//! A from-scratch "ScaLAPACK-lite": dense LU factorisation with partial
//! pivoting and the matching triangular solves, in both sequential blocked
//! form (`getrf`/`getrs`, the LAPACK layer) and distributed form over a
//! BLACS-style 2-D process grid with block-cyclic data distribution
//! (`pdgetrf`/`pdgetrs`/`pdgesv`), running on the `greenla-mpi` simulated
//! runtime.
//!
//! The distributed algorithm is the textbook right-looking ScaLAPACK
//! formulation: per panel, pivot search via MAXLOC reductions down the
//! process column, row swaps, panel broadcast along the process row, row
//! interchanges on the trailing matrix, a triangular solve for the U block
//! row broadcast down process columns, and a local GEMM trailing update —
//! so its communication volume, message count and critical path reproduce
//! the real library's behaviour on the simulated interconnect.

pub mod desc;
pub mod distribute;
pub mod error;
pub mod getrf;
pub mod getrs;
pub mod grid;
pub mod pdgesv;
pub mod pdgetrf;
pub mod pdgetrs;

pub use desc::BlockDesc;
pub use error::LuError;
pub use grid::ProcessGrid;
