#![forbid(unsafe_code)]
//! # greenla-check
//!
//! A MUST-style dynamic correctness checker for the simulated MPI runtime.
//! Real MPI deployments run verifiers like MUST or ISP next to the
//! application to catch deadlocks and collective mismatches; the
//! virtual-time runtime can do strictly better, because execution is
//! deterministic and every envelope and clock advance is observable. This
//! crate is the analysis layer: `greenla-mpi` calls its hooks from the
//! runtime's hot paths, and the sink turns what it sees into structured
//! diagnostics ([`Violation`]) instead of hangs or silently-wrong energy
//! numbers.
//!
//! Five rule families:
//!
//! * **Deadlock (DL001)** — the runtime's own wait-for report. The rank
//!   engine knows the exact moment every live rank is blocked with no wake
//!   in flight; the runtime then names what each parked rank waits on
//!   (ranks, tags, communicators) and the cycle among them, aborts the run
//!   with that report, and hands the same text to
//!   [`CheckSink::report_deadlock`].
//! * **Message hygiene (MSG001)** — mailbox residue at finalize: every
//!   sent-but-never-received message is named.
//! * **Collective lockstep (COLL001/COLL002)** — all members of a
//!   communicator must issue the same collective (kind, root, element
//!   count) at the same sequence position; sequence numbers and chunk ids
//!   must fit the [`tagspace`] bit-fields.
//! * **Monitor protocol (MON001–MON004)** — the Figure-2 choreography:
//!   designated (highest) rank starts the counters, a node barrier
//!   precedes `end_monitoring`, and no rank's work straddles the
//!   measurement window.
//! * **Clock causality (CLK001/CLK002)** — per-rank virtual clocks are
//!   monotone and receives complete no earlier than the message's arrival.
//!
//! Like `greenla-trace`, the sink is an *observer*: hooks never touch a
//! virtual clock, so a checked run produces bit-identical timings to an
//! unchecked one (the mpi and harness test suites assert this), and a
//! disabled sink costs one branch per hook.
//!
//! # Example
//!
//! ```
//! use greenla_check::{CheckSink, CollEvent, CollKind, Rule};
//!
//! let sink = CheckSink::enabled();
//! sink.begin_run(vec![0, 0]); // two ranks on node 0
//! let mut c0 = sink.checker(0, 0);
//! let mut c1 = sink.checker(1, 0);
//!
//! // Rank 0 broadcasts from root 0, rank 1 from root 1: a lockstep bug.
//! let site = |root| CollEvent { comm: 0, seq: 0, kind: CollKind::Bcast, root: Some(root), elems: 0 };
//! c0.enter_coll(site(0), &[0, 1], 0.0);
//! c1.enter_coll(site(1), &[0, 1], 0.0);
//!
//! let violations = sink.violations();
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, Rule::CollectiveMismatch);
//! assert_eq!(violations[0].rule.id(), "COLL001");
//! ```

pub mod sink;
pub mod tagspace;
pub mod violation;

pub use sink::{CheckSink, CollEvent, CollKind, RankChecker};
pub use violation::{Rule, Violation};
