#![forbid(unsafe_code)]
//! # greenla-faults — deterministic fault injection for the simulated runtime
//!
//! Energy campaigns on real clusters fight node dropouts, lost messages
//! and glitching RAPL counters mid-run. This crate turns those failure
//! modes into a *seeded, virtual-time-deterministic* [`FaultPlan`] that
//! the simulated MPI machine and its measurement stack consult at fixed
//! injection points:
//!
//! - **Messages** — drop (with bounded retry-and-virtual-backoff at the
//!   sender), duplicate (discarded at the receiver), and delay-by-virtual-
//!   time, on point-to-point traffic and therefore on every collective
//!   built on top of it.
//! - **Ranks** — death at a chosen virtual time or call count; the run
//!   aborts as an injected fault, naming the rank, instead of hanging.
//! - **Measurement** — RAPL counter wrap storms, stuck counters, glitched
//!   (failing) reads, and monitoring-rank death mid-protocol; the monitor
//!   protocol degrades the affected node to "unmeasured" when asked to.
//! - **Application** — a runtime-driven single-column loss for checksum-
//!   protected solvers (IMe's fault-tolerant path).
//!
//! Every trigger is keyed on virtual time or deterministic per-rank
//! counters, never on wall clocks, so the same `(seed, plan)` pair yields
//! bit-identical virtual timings, traces and [`FaultReport`]s checked or
//! unchecked, and whatever carries the ranks (fibers or OS threads): a
//! delay shifts a message's *virtual* arrival, a drop re-charges
//! *virtual* backoff, so injection never touches how a rank waits and
//! nothing in this crate knows the carrier. A machine without a plan pays one
//! branch per hook ([`FaultSink::disabled`]) and is bit-identical in
//! virtual time to a build without this crate — the discipline of
//! `greenla-mpi`'s trace and checker, whose ranks log nothing without a
//! sink attached.
//!
//! The outcome is a [`FaultReport`]: what the plan injected, what the
//! runtime observed, and what it recovered from, plus the list of nodes
//! degraded to "unmeasured". Each rank queries its own [`RankFaults`]
//! schedule and keeps every [`FaultNote`] it emits in its log; once per
//! run, after every rank has stopped, the machine folds the notes through
//! [`FaultReport::note`] into one report for [`FaultSink::bank`], so a
//! rank that crashed or unwound out of an aborted run still counts.

mod plan;
mod report;
mod sink;

pub use plan::{
    retry_backoff_s, ColumnLoss, CounterFault, CounterFaultKind, CrashFault, CrashWhen, FaultPlan,
    MsgFault, MsgFaultKind, PlanShape, MAX_SEND_RETRIES,
};
pub use report::{FaultCounts, FaultReport};
pub use sink::{FaultNote, FaultSink, RankFaults};
