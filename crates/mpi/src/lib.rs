//! # greenla-mpi
//!
//! A simulated MPI runtime with **virtual time**. Each MPI rank is a task
//! of one scheduling engine, carried by a fiber on a small worker pool
//! where the target has a fiber switch (which makes 10k–100k-rank worlds
//! tractable) or by its own OS thread elsewhere (see
//! [`sched::SchedulerKind`]); either way the rank is pinned
//! (logically) to one core of the simulated cluster, and every
//! rank carries its own virtual clock which advances when the rank computes
//! (`compute`), sends or receives messages, or synchronises in collectives.
//! Message timing follows a LogGP-style α + β·size model with distinct
//! intra-node and inter-node parameters; collectives are implemented over
//! point-to-point messages — binomial trees for small payloads, recursive
//! doubling, a ring and reduce-scatter + allgather for larger ones,
//! selected by payload size (see [`coll`]) — so their cost emerges from
//! the same model. Clock causality is conservative: a receive completes no
//! earlier than the message's arrival time, and barriers align every
//! participant to the latest arrival — the same guarantees real MPI gives,
//! minus wall-clock nondeterminism.
//!
//! While ranks run, the engine records every busy interval into the
//! [`greenla_cluster::Ledger`], which the simulated RAPL layer integrates
//! into energy counters. Each rank tallies the messages it sends and their
//! volume, and adds the tally to [`traffic::Traffic`] when it ends, so the
//! paper's closed-form communication formulas can be checked against
//! actual runs.
//!
//! The API mirrors the MPI subset the paper's framework uses:
//! `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)` → [`RankCtx::split_shared`],
//! `MPI_Barrier` → [`RankCtx::barrier`], plus broadcast/reduce/gather and
//! matched-pair send/recv.
//!
//! Everything optional that watches a rank hangs off one spine: each
//! operation ends in one [`RankCtx::emit`] of a [`RankEvent`] — a single
//! branch when nothing listens — and [`event`] alone decides what the
//! listeners hear. Three exist. Attach a [`TraceSink`] with
//! [`Machine::with_trace`] and the events become [`trace`] spans
//! (compute, point-to-point, every collective, the monitoring
//! choreography). Attach a [`CheckSink`] with [`Machine::with_check`] and
//! each rank logs the collectives and monitor steps among those events
//! for [`check`], a MUST-style dynamic correctness checker that reports
//! collective lockstep mismatches, leaked messages at finalize and
//! monitor protocol breaches as structured [`Violation`]s, plus the
//! runtime's deadlock report as DL001. Each rank keeps its trace events
//! and its checker log as plain state of its [`RankCtx`], appended without
//! a lock; the machine banks both when the rank's body ends, however it
//! ends, next to its traffic tally. The deadlock report needs no
//! listener: a stuck run, checked or not, aborts as
//! [`AbortKind::Deadlock`] naming what every parked rank waits on and the
//! cycle among them (see [`Machine::try_run`]). Every other verdict is
//! given once, after the run, from the ranks' logs, the ledger's compute
//! spans and the finalize leftovers, so it does not depend on the order
//! the ranks ran in. The checker watches the program, not the runtime:
//! monotone clocks, receive causality and the collective tag layout are
//! invariants the runtime holds itself, in every build — a
//! collective that would need more tag chunks than the layout has dies
//! as [`AbortKind::CollectiveContract`]. Attach a
//! [`FaultSink`] with [`Machine::with_faults`] and [`RankEvent::Fault`]
//! notes become the [`FaultReport`]'s tallies. Listeners are handed the
//! clock by value, so an observed run is bit-identical in timing to an
//! unobserved one; only a fault plan's *injections* — direct calls on
//! [`RankFaults`], not events — may move a clock. The always-on
//! [`Traffic`] and ledger tallies are direct calls too: RAPL reads the
//! ledger mid-run, so they are part of the simulation, not observers of
//! it.

pub mod check;
pub mod coll;
pub mod comm;
pub mod context;
pub mod envelope;
pub mod error;
pub mod event;
pub mod machine;
pub(crate) mod mailbox;
mod registry;
pub mod sched;
mod tagspace;
pub mod trace;
pub mod traffic;

pub use check::{CheckSink, CollEvent, CollKind, Rule, Violation};
pub use comm::Comm;
pub use context::RankCtx;
pub use envelope::{copy_audit, Payload};
pub use error::{Abort, AbortKind, CollContractError, MachineError};
pub use event::{MonitorStep, RankEvent};
pub use greenla_faults::{
    ColumnLoss, CounterFault, CounterFaultKind, CrashFault, CrashWhen, FaultNote, FaultPlan,
    FaultReport, FaultSink, MsgFault, MsgFaultKind, PlanShape, RankFaults,
};
pub use machine::{Machine, RunOutput};
pub use sched::SchedulerKind;
pub use trace::{EventKind, TraceEvent, TraceSink};
pub use traffic::{Traffic, TrafficSnapshot};
