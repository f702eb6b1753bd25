#![forbid(unsafe_code)]
//! # greenla-cluster
//!
//! Simulated HPC hardware model: CPU/node/interconnect specifications (with
//! a CINECA Marconi A3 preset matching the paper's testbed), Slurm-like rank
//! placement generating exactly the paper's Table 1 configurations, the
//! power model that drives the simulated RAPL counters, and the activity
//! ledger in which the simulated MPI runtime records what every core did at
//! every instant of virtual time.
//!
//! Layering: `greenla-mpi` *writes* the ledger while ranks execute;
//! `greenla-rapl` *reads* it to expose energy counters; this crate owns the
//! shared vocabulary so neither needs to know about the other.

pub mod jitter;
pub mod ledger;
pub mod placement;
pub mod power;
pub mod spec;
pub mod topology;

pub use ledger::{ActivityKind, Ledger};
pub use placement::{LoadLayout, Placement};
pub use power::PowerModel;
pub use spec::{ClusterSpec, CpuSpec, Interconnect, NodeSpec};
pub use topology::CoreId;
