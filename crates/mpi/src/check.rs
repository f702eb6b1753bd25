#![forbid(unsafe_code)]
//! A MUST-style dynamic correctness checker for programs on the runtime.
//!
//! Real MPI deployments run verifiers like MUST or ISP next to the
//! application to catch deadlocks and collective mismatches; the
//! virtual-time runtime can do strictly better, because execution is
//! deterministic and every collective and monitor step is observable.
//! With a [`CheckSink`] attached ([`crate::Machine::with_check`]), the
//! collectives a program enters and the Figure-2 steps it takes become
//! structured diagnostics ([`Violation`]) instead of hangs or
//! silently-wrong energy numbers.
//!
//! It checks the program, not the runtime. What the runtime guarantees
//! itself — monotone virtual clocks, receives that complete no earlier
//! than their message's arrival, collective tags that fit their bit
//! fields — is held there in every build, checked or not.
//!
//! Each rank logs what it did in its own `Vec`, without a lock
//! (`crate::event` holds the mapping). The machine banks every rank's log
//! when the rank's body ends, however it ends, and once the run stops
//! judges every rule but DL001 in one pass over the logs, from
//! virtual-time data alone, so a verdict does not depend on the order the
//! ranks ran in.
//!
//! Four rule families:
//!
//! * **Deadlock (DL001)** — the runtime's own wait-for report. The rank
//!   engine knows the exact moment every live rank is blocked with no wake
//!   in flight; the runtime then names what each parked rank waits on
//!   (ranks, tags, communicators) and the cycle among them, aborts the run
//!   with that report, and records the same text as DL001.
//! * **Message hygiene (MSG001)** — mailbox residue at finalize: every
//!   sent-but-never-received message is named.
//! * **Collective lockstep (COLL001)** — all members of a communicator
//!   must issue the same collective (kind, root, element count) at the
//!   same sequence position.
//! * **Monitor protocol (MON001–MON004)** — the Figure-2 choreography:
//!   designated (highest) rank starts the counters, a node barrier
//!   precedes `end_monitoring`, and no rank's work straddles the
//!   measurement window (read from the activity ledger).
//!
//! Like the trace, the checker is an *observer*: a log entry never
//! touches a virtual clock, so a checked run produces bit-identical
//! timings to an unchecked one (the mpi and harness test suites assert
//! this), and with no sink attached a rank logs nothing.
//!
//! # Example
//!
//! ```
//! use greenla_cluster::placement::{LoadLayout, Placement};
//! use greenla_cluster::spec::ClusterSpec;
//! use greenla_cluster::PowerModel;
//! use greenla_mpi::{CheckSink, Machine, Rule};
//!
//! let spec = ClusterSpec::test_cluster(1, 1); // one node, 2×1 cores
//! let placement = Placement::layout(&spec.node, 2, LoadLayout::FullLoad).unwrap();
//! let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1)
//!     .unwrap()
//!     .with_check(CheckSink::enabled());
//!
//! // Rank 0 broadcasts from root 0, rank 1 from root 1: a lockstep bug.
//! machine.run(|ctx| {
//!     let world = ctx.world();
//!     ctx.bcast_shared_f64(&world, ctx.rank(), Some(vec![1.0]));
//! });
//!
//! // COLL001 comes first; each rank's unreceived broadcast is an MSG001.
//! let violations = machine.check().violations();
//! assert_eq!(violations[0].rule, Rule::CollectiveMismatch);
//! assert_eq!(violations[0].rule.id(), "COLL001");
//! assert_eq!(violations[0].ranks, vec![0, 1]);
//! ```

mod violation;

pub use violation::{Rule, Violation};

use crate::tagspace::describe_tag;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Which collective a rank entered (the lockstep signature's first field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    Barrier,
    Split,
    Bcast,
    BcastPipelined,
    Reduce,
    Gather,
    /// Butterfly allreduce, recursive doubling or reduce-scatter +
    /// allgather (the kind doubles as the lockstep algorithm
    /// discriminator: a rank taking the small-payload tree path instead
    /// records Reduce + Bcast sites, and the two butterflies are told
    /// apart by the element count they are selected on, so divergent
    /// algorithm selection surfaces as COLL001).
    Allreduce,
    /// Ring allgather, the only allgather algorithm.
    Allgather,
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CollKind::Barrier => "barrier",
            CollKind::Split => "split",
            CollKind::Bcast => "bcast",
            CollKind::BcastPipelined => "bcast_pipelined",
            CollKind::Reduce => "reduce",
            CollKind::Gather => "gather",
            CollKind::Allreduce => "allreduce",
            CollKind::Allgather => "allgather",
        })
    }
}

/// Lockstep signature of one collective call site: what every member of
/// the communicator must agree on at a given sequence position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollEvent {
    /// Communicator id the collective runs on.
    pub comm: u64,
    /// Per-communicator sequence number of the call site.
    pub seq: u64,
    pub kind: CollKind,
    /// Root as a communicator index, when the collective has one.
    pub root: Option<usize>,
    /// Element count when all members must agree on it (reduce lengths,
    /// pipelined chunk sizes); 0 when receivers cannot know it (bcast).
    pub elems: u64,
}

/// How a diagnostic names a signature: `kind(root=r, elems=n)`.
fn fmt_sig(ev: CollEvent) -> String {
    let root = ev.root.map_or("-".to_string(), |r| r.to_string());
    format!("{}(root={root}, elems={})", ev.kind, ev.elems)
}

/// One entry of a rank's log, which keeps the rank's program order: the
/// collectives before an `End` are the ones the rank entered before it.
#[derive(Clone, Copy)]
pub(crate) enum Entry {
    /// A collective's signature and the rank's clock on entry.
    Coll(CollEvent, f64),
    /// `split_shared` produced the rank's node communicator (its id).
    NodeComm(u64),
    /// `start_monitoring` ran at this time.
    Start(f64),
    /// `end_monitoring` ran at this time.
    End(f64),
}

/// A message still in an inbox at finalize: `(src, dst, comm_id, tag,
/// arrival_s)`.
pub(crate) type Leftover = (usize, usize, u64, u64, f64);

/// Machine-wide checking handle: cheap to clone, and a disabled sink
/// holds no allocation. It holds the verdicts of the last run it was
/// attached to.
#[derive(Clone, Default)]
pub struct CheckSink {
    verdicts: Option<Arc<Mutex<Vec<Violation>>>>,
}

impl CheckSink {
    /// A sink that checks nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink that enforces the full rule set.
    pub fn enabled() -> Self {
        Self {
            verdicts: Some(Arc::default()),
        }
    }

    /// Is this sink checking?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.verdicts.is_some()
    }

    fn record(&self, verdicts: impl IntoIterator<Item = Violation>) {
        if let Some(v) = &self.verdicts {
            v.lock().extend(verdicts);
        }
    }

    /// Forget the previous run's verdicts: a run is checked on its own.
    pub(crate) fn clear(&self) {
        if let Some(v) = &self.verdicts {
            v.lock().clear();
        }
    }

    /// Record the runtime's deadlock report as DL001: the run stopped with
    /// the ranks `blocked` parked for good, and `report` says what each
    /// waits on. The runtime calls it once, at the moment a rank observes
    /// quiescence (every task blocked, no wake in flight), with that
    /// rank's clock `t`.
    pub(crate) fn report_deadlock(&self, blocked: Vec<usize>, report: &str, t: f64) {
        self.record([Violation::new(
            Rule::Deadlock,
            blocked,
            t,
            report.to_string(),
        )]);
    }

    /// Record the [`judge`]ment of a stopped run (nothing, and no ledger
    /// read, when the sink is disabled).
    pub(crate) fn end_run(
        &self,
        node_of: &[usize],
        logs: &[Vec<Entry>],
        span_across: &mut dyn FnMut(usize, f64) -> Option<(f64, f64)>,
        leftovers: &[Leftover],
    ) {
        if self.is_enabled() {
            self.record(judge(node_of, logs, span_across, leftovers));
        }
    }

    /// Snapshot of all violations recorded so far, in recording order.
    pub fn violations(&self) -> Vec<Violation> {
        self.verdicts
            .as_ref()
            .map(|v| v.lock().clone())
            .unwrap_or_default()
    }
}

/// Judge a run once every rank has stopped: every rule but DL001, from
/// virtual-time data alone, so the verdicts are the same whatever order
/// the ranks ran in. They come out in a fixed order: COLL001 by `(comm,
/// seq)`, then MON001–MON003 by rank and log order, MON004 by rank,
/// MSG001.
///
/// Rank `r` sits on node `node_of[r]` and logged `logs[r]`.
/// `span_across(rank, t)` is the rank's compute span `(start, end)` with
/// `start < t < end`, if it has one (MON004). Each of `leftovers` is a
/// message still in an inbox at finalize (MSG001).
pub(crate) fn judge(
    node_of: &[usize],
    logs: &[Vec<Entry>],
    span_across: &mut dyn FnMut(usize, f64) -> Option<(f64, f64)>,
    leftovers: &[Leftover],
) -> Vec<Violation> {
    let mut out = Vec::new();

    // COLL001, once per site: each rank against the lowest rank that
    // logged it (ranks are visited in ascending order). Sites are indexed
    // by communicator id (dense: 0 is the world, splits count up from 1),
    // then by sequence number.
    let mut lead: Vec<Vec<Option<(usize, CollEvent, f64)>>> = Vec::new();
    let mut differs = BTreeMap::new();
    for (rank, log) in logs.iter().enumerate() {
        for &entry in log {
            let Entry::Coll(ev, t) = entry else {
                continue;
            };
            let (comm, seq) = (ev.comm as usize, ev.seq as usize);
            if lead.len() <= comm {
                lead.resize_with(comm + 1, Vec::new);
            }
            let sites = &mut lead[comm];
            if sites.len() <= seq {
                sites.resize(seq + 1, None);
            }
            if sites[seq].get_or_insert((rank, ev, t)).1 != ev {
                differs.entry((ev.comm, ev.seq)).or_insert((rank, ev, t));
            }
        }
    }
    for ((comm, seq), (rank, ev, t)) in differs {
        let (first, a, ta) =
            lead[comm as usize][seq as usize].expect("a differing site has a lead");
        let msg = format!(
            "collective mismatch on comm {comm} at sequence {seq}: rank {first} issued {} \
             but rank {rank} issued {}",
            fmt_sig(a),
            fmt_sig(ev)
        );
        let v = Violation::new(Rule::CollectiveMismatch, vec![first, rank], ta.max(t), msg);
        out.push(v);
    }

    // MON001–MON003, in each rank's log order. A node has started if any
    // of its ranks logged a start at or before the end's time.
    let started = |node: usize, t: f64| {
        logs.iter().enumerate().any(|(r, log)| {
            let start = |e: &Entry| matches!(*e, Entry::Start(ts) if ts <= t);
            node_of[r] == node && log.iter().any(start)
        })
    };
    let mut node_end = BTreeMap::new();
    for (rank, log) in logs.iter().enumerate() {
        let node = node_of[rank];
        let (mut node_comm, mut last) = (None, None);
        for &entry in log {
            match entry {
                Entry::Coll(ev, _) => last = Some(ev),
                Entry::NodeComm(id) => node_comm = Some(id),
                Entry::Start(t) => {
                    let designated = node_of.iter().rposition(|&n| n == node);
                    if designated != Some(rank) {
                        let msg = format!(
                            "start_monitoring on rank {rank} (node {node}), but the \
                             designated monitoring rank is the node's highest rank {}",
                            designated.map_or("?".to_string(), |r| r.to_string())
                        );
                        out.push(Violation::new(Rule::MonitorDesignation, vec![rank], t, msg));
                    }
                }
                Entry::End(t) => {
                    // MON004 holds the node to the last end logged by its
                    // highest ending rank.
                    node_end.insert(node, t);
                    if !started(node, t) {
                        out.push(Violation::new(
                            Rule::MonitorMissingStart,
                            vec![rank],
                            t,
                            format!(
                                "end_monitoring on rank {rank} (node {node}) without a \
                                 matching start_monitoring"
                            ),
                        ));
                    }
                    let barrier_ok = matches!(
                        (node_comm, last),
                        (Some(nc), Some(ev)) if ev.comm == nc && ev.kind == CollKind::Barrier
                    );
                    if !barrier_ok {
                        let last = match last {
                            Some(ev) => format!("{} on comm {}", ev.kind, ev.comm),
                            None => "no collective at all".to_string(),
                        };
                        out.push(Violation::new(
                            Rule::MonitorBarrierBeforeEnd,
                            vec![rank],
                            t,
                            format!(
                                "end_monitoring on rank {rank} (node {node}) is not \
                                 immediately preceded by a barrier on the node \
                                 communicator (last collective: {last}); Figure 2 \
                                 requires the node barrier so the window covers all \
                                 of the node's work"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // MON004: each rank whose work runs across its node's end, read from
    // the finished ledger.
    for (rank, node) in node_of.iter().enumerate() {
        let Some(&te) = node_end.get(node) else {
            continue;
        };
        let Some((t0, t1)) = span_across(rank, te) else {
            continue;
        };
        out.push(Violation::new(
            Rule::MonitorWindowStraddle,
            vec![rank],
            te,
            format!(
                "rank {rank}'s work interval [{t0:.6e}s, {t1:.6e}s] straddles \
                 node {node}'s measurement end at {te:.6e}s: the monitoring \
                 window missed {:.6e}s of its work",
                t1 - te
            ),
        ));
    }

    // MSG001: every message sent but never received.
    for &(src, rank, comm, tag, arrival) in leftovers {
        let msg = format!(
            "finalize: rank {rank}'s mailbox still holds a message from rank {src} \
             (comm {comm}, tag {}, arrival {arrival:.6e}s) that was never received",
            describe_tag(tag)
        );
        out.push(Violation::new(
            Rule::MessageLeak,
            vec![src, rank],
            arrival,
            msg,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use Entry::{Coll, End, NodeComm, Start};

    fn ev(comm: u64, seq: u64, kind: CollKind, root: Option<usize>, elems: u64) -> CollEvent {
        CollEvent {
            comm,
            seq,
            kind,
            root,
            elems,
        }
    }

    /// The verdicts on these logs, with no compute span and no leftover
    /// message.
    fn verdicts(node_of: &[usize], logs: &[Vec<Entry>]) -> Vec<Violation> {
        judge(node_of, logs, &mut |_, _| None, &[])
    }

    #[test]
    fn disabled_sink_ignores_everything() {
        let s = CheckSink::disabled();
        assert!(!s.is_enabled());
        s.report_deadlock(vec![0], "deadlock", 0.0);
        // Would be MON002 and MON003 on an enabled sink.
        s.end_run(
            &[0],
            &[vec![End(1.0)]],
            &mut |_, _| panic!("a disabled sink reads no ledger"),
            &[],
        );
        assert!(s.violations().is_empty());
    }

    #[test]
    fn clean_hook_sequence_yields_no_violations() {
        let logs = [
            vec![NodeComm(5), Coll(ev(5, 0, CollKind::Barrier, None, 0), 1.0)],
            vec![
                NodeComm(5),
                Start(0.0),
                Coll(ev(5, 0, CollKind::Barrier, None, 0), 1.5),
                End(1.5),
            ],
        ];
        // Work ended at the node's end and began after it.
        let v = judge(
            &[0, 0],
            &logs,
            &mut |rank, t| {
                assert_eq!(t, 1.5);
                let [t0, t1] = [[0.5, 1.5], [1.5, 2.0]][rank];
                (t0 < t && t1 > t).then_some((t0, t1))
            },
            &[],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn collective_root_mismatch_reported_once() {
        // Three roots at one site: the lowest rank is the reference, the
        // lowest rank that differs from it is named, and the stamp is the
        // later of their two entry clocks.
        let logs: Vec<Vec<Entry>> = (0..3)
            .map(|r| {
                vec![Coll(
                    ev(0, 0, CollKind::Bcast, Some(r), 0),
                    [0.5, 0.25, 0.75][r],
                )]
            })
            .collect();
        let v = verdicts(&[0; 3], &logs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveMismatch);
        assert_eq!(v[0].ranks, vec![0, 1]);
        assert_eq!(v[0].t_s, 0.5);
        assert!(
            v[0].message.contains("rank 0 issued bcast(root=0")
                && v[0].message.contains("rank 1 issued bcast(root=1"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn wrong_monitor_designation_flagged() {
        // Ranks 0 and 1 on node 0.
        let v = verdicts(&[0, 0], &[vec![Start(0.0)], vec![]]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::MonitorDesignation);
        assert!(v[0].message.contains("highest rank 1"), "{}", v[0].message);
    }

    #[test]
    fn end_without_start_or_barrier_flagged() {
        let rules: Vec<Rule> = verdicts(&[0], &[vec![End(1.0)]])
            .iter()
            .map(|v| v.rule)
            .collect();
        assert!(rules.contains(&Rule::MonitorMissingStart), "{rules:?}");
        assert!(rules.contains(&Rule::MonitorBarrierBeforeEnd), "{rules:?}");

        // A start logged first but stamped after the end does not count:
        // MON002 reads virtual time, not log order.
        let v = verdicts(&[0, 0], &[vec![], vec![Start(2.0), End(1.0)]]);
        let mon002: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == Rule::MonitorMissingStart)
            .collect();
        assert_eq!(mon002.len(), 1, "{v:?}");
        assert_eq!((mon002[0].ranks.clone(), mon002[0].t_s), (vec![1], 1.0));
    }

    #[test]
    fn end_run_flags_each_rank_whose_span_crosses_its_nodes_end() {
        // Two nodes of two ranks; node 0 ends monitoring at 0.3 and node 1
        // at 0.7. Rank 0 straddles 0.3; rank 3 would straddle 0.3 too, but
        // it sits on node 1, whose end it does not cross.
        let logs = [vec![], vec![End(0.3)], vec![], vec![End(0.7)]];
        let spans = [(0.1, 9.0), (0.0, 0.3), (0.7, 0.8), (0.2, 0.5)];
        let mut asked = Vec::new();
        let v = judge(
            &[0, 0, 1, 1],
            &logs,
            &mut |rank, t| {
                asked.push((rank, t));
                let (t0, t1) = spans[rank];
                (t0 < t && t1 > t).then_some((t0, t1))
            },
            &[],
        );
        assert_eq!(asked, vec![(0, 0.3), (1, 0.3), (2, 0.7), (3, 0.7)]);
        let straddles: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == Rule::MonitorWindowStraddle)
            .collect();
        assert_eq!(straddles.len(), 1, "{straddles:?}");
        assert_eq!(straddles[0].ranks, vec![0]);
        assert_eq!(straddles[0].t_s, 0.3);
        assert!(
            straddles[0].message.contains("missed 8.7"),
            "{}",
            straddles[0].message
        );
    }

    #[test]
    fn residue_reported_per_leftover_message() {
        let v = judge(
            &[0, 0],
            &[vec![], vec![]],
            &mut |_, _| None,
            &[(0, 1, 0, 7, 0.25)],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MessageLeak);
        assert_eq!(v[0].ranks, vec![0, 1]);
        assert!(
            v[0].message.contains("rank 1's mailbox") && v[0].message.contains("tag 7"),
            "{}",
            v[0].message
        );
    }
}
