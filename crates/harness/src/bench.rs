//! Host wall-clock statistics for the roofline acceptance
//! ([`crate::roofline`]) and the out-of-workspace `benchmark/` package.
//! The repo's performance gate is `benchmark/`; everything the paper
//! reports comes from the virtual clock.

pub mod retry;
