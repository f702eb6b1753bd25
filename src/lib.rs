#![forbid(unsafe_code)]
//! # greenla
//!
//! Energy-consumption comparison of parallel linear-system solvers on a
//! simulated HPC infrastructure — a Rust reproduction of Montebugnoli &
//! Ciampolini, *"Energy consumption comparison of parallel linear systems
//! solver algorithms on HPC infrastructure"* (SC-W 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`linalg`] — dense matrices, mini-BLAS, generators, system file I/O;
//! * [`cluster`] — the simulated Marconi-A3-like hardware: nodes, sockets,
//!   Slurm-style placement (the paper's Table 1), power model;
//! * [`mpi`] — the virtual-time MPI runtime (rank threads, communicators,
//!   collectives, traffic accounting);
//! * [`rapl`] — simulated RAPL energy counters (powercap µJ reads, ~1 ms
//!   updates, CPU-model detection, counter faults);
//! * [`monitor`] — the paper's white-box per-node monitoring framework,
//!   reading the powercap events straight from [`rapl`];
//! * [`ime`] — the Inhibition Method (sequential, parallel, fault-tolerant);
//! * [`scalapack`] — ScaLAPACK-lite distributed LU with partial pivoting;
//! * [`model`] — calibrated analytic models for paper-scale extrapolation;
//! * [`harness`] — the experiment harness regenerating every table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use greenla::cluster::{placement::{LoadLayout, Placement}, spec::ClusterSpec, PowerModel};
//! use greenla::linalg::generate;
//! use greenla::monitor::{monitoring::MonitorConfig, protocol::monitored_run};
//! use greenla::mpi::Machine;
//! use greenla::rapl::RaplSim;
//! use std::sync::Arc;
//!
//! // A 2-node simulated cluster, 8 ranks, full load.
//! let spec = ClusterSpec::test_cluster(2, 4);
//! let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
//! let power = PowerModel::scaled_for(&spec.node);
//! let machine = Machine::new(spec, placement, power, 1).unwrap();
//! let rapl = Arc::new(RaplSim::new(machine.ledger(), machine.power().clone(), 1));
//!
//! let sys = generate::diag_dominant(64, 42);
//! let out = machine.run(|ctx| {
//!     let world = ctx.world();
//!     monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
//!         greenla::ime::solve_imep(ctx, &world, &sys, Default::default()).unwrap()
//!     })
//!     .unwrap()
//!     .report
//! });
//! let reports: Vec<_> = out.results.into_iter().flatten().collect();
//! assert_eq!(reports.len(), 2); // one monitoring rank per node
//! ```

pub use greenla_cluster as cluster;
pub use greenla_harness as harness;
pub use greenla_ime as ime;
pub use greenla_linalg as linalg;
pub use greenla_model as model;
pub use greenla_monitor as monitor;
pub use greenla_mpi as mpi;
pub use greenla_rapl as rapl;
pub use greenla_scalapack as scalapack;
