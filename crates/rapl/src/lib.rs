#![forbid(unsafe_code)]
//! # greenla-rapl
//!
//! A functional simulation of Intel's Running Average Power Limit (RAPL)
//! energy counters as PAPI's powercap component exposes them: one
//! cumulative microjoule read per `(node, socket, domain)` at a virtual
//! time, faithful to the properties real RAPL readers must deal with:
//!
//! * counters update roughly **once per millisecond with jitter**, so two
//!   immediate reads may return the same value;
//! * a CPU model that predates RAPL has no counters, so every read on it
//!   fails ([`MsrError::NoRapl`]);
//! * reading a node, socket or domain the machine does not have fails
//!   (server parts have no PP1 plane), and planned counter faults can
//!   freeze a counter, pile phantom joules on it or fail its reads.
//!
//! The counters are backed by the [`greenla_cluster`] power model integrated
//! over the activity ledger that the simulated MPI runtime fills in, so a
//! read at virtual time *t* reports exactly the energy the model says the
//! domain consumed in `[0, t]`, quantised to the counter's update grid.

pub mod counter;
pub mod cpuid;
pub mod domains;
pub mod sim;

pub use domains::Domain;
pub use sim::{MsrError, RaplSim};
