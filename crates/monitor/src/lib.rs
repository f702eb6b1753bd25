#![forbid(unsafe_code)]
//! # greenla-monitor
//!
//! The paper's contribution: a **white-box, per-node energy-monitoring
//! framework** for MPI linear-system solvers.
//!
//! One rank per node — the one with the *highest rank value* in the node's
//! `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)` communicator — is designated
//! the *monitoring rank*. It reads a baseline of the powercap energy
//! events (CPU packages 0/1 and DRAM 0/1) from the simulated RAPL device,
//! runs its share of the solver like every other rank, and reads the
//! counters again once all ranks on its node have finished. Every
//! start/stop is bracketed by node-communicator barriers (and the whole
//! measured region by world barriers), which is the paper's
//! accuracy-for-overhead trade-off: measurements align exactly with the
//! slowest rank of each node at the cost of extra synchronisation
//! ([`overhead`] quantifies it).
//!
//! Modules mirror the paper's `papi_monitoring.h` decomposition:
//! [`monitoring`] holds `start_monitoring`/`end_monitoring` (the paper's
//! PAPI calls, as plain counter reads), [`protocol`] the Figure-2 barrier
//! choreography, [`files`] the per-processor human-readable result files,
//! [`report`] the cross-node aggregation, and [`overhead`] the
//! monitored-vs-raw comparison. The white-box and [`blackbox`] modes name
//! their events through one private `events` module.

pub mod blackbox;
pub mod error;
mod events;
pub mod files;
pub mod monitoring;
pub mod overhead;
pub mod protocol;
pub mod report;

pub use blackbox::{blackbox_run, BlackboxReport};
pub use error::MonitorError;
pub use monitoring::MonitorConfig;
pub use protocol::{monitored_run, MonitorHandle, MonitorOutput};
pub use report::{JobSummary, NodeReport, PhaseReport};
