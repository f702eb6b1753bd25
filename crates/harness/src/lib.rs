#![forbid(unsafe_code)]
//! # greenla-harness
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5). Two tiers:
//!
//! * **functional tier** — real solves through the whole simulated stack
//!   (rank threads, actual numerics, counter-read energies) on scaled-down
//!   configurations that keep Table 1's geometry (three load layouts,
//!   square rank counts, four matrix dimensions in fixed ratio);
//! * **model tier** — the calibrated analytic model evaluated at the
//!   paper's exact configurations (8640…34560 × 144/576/1296 ranks),
//!   printing the same rows/series the paper reports.
//!
//! Every figure slices a [`Dataset`], and each tier is one:
//! a single measurement [`campaign`](run::Dataset::campaign) produces the
//! functional dataset, as in the paper, and
//! [`paper_dataset`](experiments::paper_dataset) evaluates the model into
//! the same schema, so each figure has one body for both tiers. [`summary`]
//! distils the headline claims (energy gap, power gap, load-level ordering,
//! crossovers) of either and checks them against the paper's stated bands.

pub mod bench;
pub mod charts;
pub mod chrome_trace;
pub mod config;
pub mod experiments;
pub mod output;
pub mod power_trace;
pub mod powercap;
pub mod roofline;
pub mod run;
pub mod sparse;
pub mod summary;

pub use config::{FunctionalGrid, SolverChoice};
pub use run::{run_once, Aggregated, DataPoint, Dataset, Measurement, RunConfig};
