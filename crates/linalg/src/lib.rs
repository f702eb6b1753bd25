#![deny(unsafe_code)]
//! # greenla-linalg
//!
//! Dense linear-algebra substrate for the `greenla` workspace: a column-major
//! [`Matrix`] type, a from-scratch mini-BLAS (levels 1–3), seeded,
//! well-conditioned test-system generators (bit-reproducible, so repeated
//! measurements see identical inputs) and closed-form flop counts for every
//! kernel.
//!
//! Everything is `f64`; all kernels are deterministic and allocation-free on
//! the hot path so higher layers can account flops and bytes exactly.
//!
//! `unsafe` is denied crate-wide with exactly one carve-out: the [`simd`]
//! dispatch module, whose `#[target_feature]` microkernels are the only
//! intrinsic code in the workspace's numerics (every `unsafe` block there
//! carries a SAFETY note, every kernel a `# Safety` section — clippy denies
//! the build otherwise — and the kernels sit in a private submodule).

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod block;
pub mod flops;
pub mod generate;
pub mod matrix;
pub mod norms;
pub mod permutation;
#[allow(
    unsafe_code,
    reason = "the ISA microkernels are intrinsics; see the crate docs"
)]
pub mod simd;
pub mod sparse;
pub mod tune;

pub use block::{BlockMut, BlockRef};
pub use generate::LinearSystem;
pub use matrix::Matrix;
pub use sparse::{CsrMatrix, SparseSystem};
