//! The checking sink: per-rank logs kept without a lock, and the one
//! pass after the run that judges them.

use crate::violation::{Rule, Violation};
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
enum Entry {
    /// A collective's signature and the rank's clock on entry.
    Coll(CollEvent, f64),
    /// `split_shared` produced the rank's node communicator (its id).
    NodeComm(u64),
    /// `start_monitoring` ran at this time.
    Start(f64),
    /// `end_monitoring` ran at this time.
    End(f64),
}

#[derive(Default)]
struct State {
    node_of: Vec<usize>,
    /// Each rank's log, handed over when its [`RankChecker`] drops.
    logs: Vec<(usize, Vec<Entry>)>,
    violations: Vec<Violation>,
}

/// Machine-wide checking handle, mirroring `greenla_trace::TraceSink`:
/// cheap to clone, a disabled sink holds no allocation, and every hook
/// behind it costs one branch. The sink checks one machine run at a time
/// ([`CheckSink::begin_run`] resets all state).
#[derive(Clone, Default)]
pub struct CheckSink {
    shared: Option<Arc<Mutex<State>>>,
}

impl CheckSink {
    /// A sink that checks nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink that enforces the full rule set.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::default()),
        }
    }

    /// Is this sink checking?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Reset all per-run state for a run with `node_of.len()` ranks,
    /// rank `r` placed on node `node_of[r]`.
    pub fn begin_run(&self, node_of: Vec<usize>) {
        if let Some(sh) = &self.shared {
            *sh.lock() = State {
                node_of,
                ..State::default()
            };
        }
    }

    /// Hook handle for rank `rank`. It logs without a lock and hands its
    /// log to the sink when it drops.
    pub fn checker(&self, rank: usize) -> RankChecker {
        RankChecker {
            shared: self.shared.clone(),
            rank,
            log: Vec::new(),
        }
    }

    /// Record the runtime's deadlock report as DL001: the run stopped with
    /// the ranks `blocked` parked for good, and `report` says what each
    /// waits on. The runtime calls it once, at the moment a rank observes
    /// quiescence (every task blocked, no wake in flight), with that
    /// rank's clock `t`.
    pub fn report_deadlock(&self, blocked: Vec<usize>, report: &str, t: f64) {
        if let Some(sh) = &self.shared {
            let v = Violation::new(Rule::Deadlock, blocked, t, report.to_string());
            sh.lock().violations.push(v);
        }
    }

    /// Judge the run once every rank has stopped and dropped its
    /// [`RankChecker`]: every rule but DL001, from virtual-time data
    /// alone, so the verdicts are the same whatever order the ranks ran
    /// in. They come out in a fixed order: COLL001 by `(comm, seq)`, then
    /// MON001–MON003 by rank and log order, MON004 by rank, MSG001.
    ///
    /// `span_across(rank, t)` is the rank's compute span `(start, end)`
    /// with `start < t < end`, if it has one (MON004). Each of `leftovers`
    /// is `(src, dst, comm_id, tag, arrival_s)` of a message still in rank
    /// `dst`'s inbox at finalize, its tag rendered by the runtime (MSG001).
    pub fn end_run(
        &self,
        span_across: &mut dyn FnMut(usize, f64) -> Option<(f64, f64)>,
        leftovers: &[(usize, usize, u64, String, f64)],
    ) {
        let Some(sh) = &self.shared else {
            return;
        };
        let mut guard = sh.lock();
        let st = &mut *guard;
        let node_of = &st.node_of;
        let mut logs = std::mem::take(&mut st.logs);
        logs.retain(|&(rank, _)| rank < node_of.len());
        logs.sort_by_key(|&(rank, _)| rank);
        let out = &mut st.violations;

        // COLL001, once per site: each rank against the lowest rank that
        // logged it (ranks are visited in ascending order). A
        // communicator's sites are indexed by sequence number.
        let mut lead: BTreeMap<u64, Vec<_>> = BTreeMap::new();
        let mut differs = BTreeMap::new();
        for (rank, log) in &logs {
            for &entry in log {
                let Entry::Coll(ev, t) = entry else {
                    continue;
                };
                let sites = lead.entry(ev.comm).or_default();
                let seq = ev.seq as usize;
                if sites.len() <= seq {
                    sites.resize(seq + 1, None);
                }
                if sites[seq].get_or_insert((*rank, ev, t)).1 != ev {
                    differs.entry((ev.comm, ev.seq)).or_insert((*rank, ev, t));
                }
            }
        }
        for ((comm, seq), (rank, ev, t)) in differs {
            let (first, a, ta) = lead[&comm][seq as usize].expect("a differing site has a lead");
            let msg = format!(
                "collective mismatch on comm {comm} at sequence {seq}: rank {first} issued {} \
                 but rank {rank} issued {}",
                fmt_sig(a),
                fmt_sig(ev)
            );
            let v = Violation::new(Rule::CollectiveMismatch, vec![first, rank], ta.max(t), msg);
            out.push(v);
        }

        // MON001–MON003, in each rank's log order. A node has started if
        // any of its ranks logged a start at or before the end's time.
        let started = |node: usize, t: f64| {
            logs.iter().any(|(r, log)| {
                let start = |e: &Entry| matches!(*e, Entry::Start(ts) if ts <= t);
                node_of[*r] == node && log.iter().any(start)
            })
        };
        let mut node_end = BTreeMap::new();
        for (rank, log) in &logs {
            let (rank, node) = (*rank, node_of[*rank]);
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
                        // MON004 holds the node to the last end logged by
                        // its highest ending rank.
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

        // MON004: each rank whose work runs across its node's end, read
        // from the finished ledger.
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
        for &(src, rank, comm, ref tag, arrival) in leftovers {
            let msg = format!(
                "finalize: rank {rank}'s mailbox still holds a message from rank {src} \
                 (comm {comm}, tag {tag}, arrival {arrival:.6e}s) that was never received"
            );
            let v = Violation::new(Rule::MessageLeak, vec![src, rank], arrival, msg);
            out.push(v);
        }
    }

    /// Snapshot of all violations recorded so far, in recording order.
    pub fn violations(&self) -> Vec<Violation> {
        self.shared
            .as_ref()
            .map(|sh| sh.lock().violations.clone())
            .unwrap_or_default()
    }
}

/// Per-rank hook handle, mirroring `greenla_trace::RankTracer`: hooks
/// append to the rank's own log without a lock (a no-op, one branch,
/// when the parent sink is disabled), and the log reaches the sink when
/// the handle drops — also when the rank unwinds out of an aborted run.
/// None of them ever touches a virtual clock, so checking a run cannot
/// change its timings.
pub struct RankChecker {
    shared: Option<Arc<Mutex<State>>>,
    rank: usize,
    log: Vec<Entry>,
}

impl RankChecker {
    /// Is this checker active? Callers can skip assembling hook arguments
    /// when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The rank entered a collective at `t`; the [`CollEvent`] carries the
    /// lockstep signature (COLL001).
    pub fn enter_coll(&mut self, ev: CollEvent, t: f64) {
        self.log(Entry::Coll(ev, t));
    }

    /// The node communicator produced by `split_shared` in the Figure-2
    /// choreography.
    pub fn monitor_node_comm(&mut self, comm_id: u64) {
        self.log(Entry::NodeComm(comm_id));
    }

    /// `start_monitoring` ran on this rank at `t` (MON001 checks the
    /// designation).
    pub fn monitor_start(&mut self, t: f64) {
        self.log(Entry::Start(t));
    }

    /// `end_monitoring` ran on this rank at `t` (MON002/MON003; the time
    /// is what [`CheckSink::end_run`] holds the node's work to, MON004).
    pub fn monitor_end(&mut self, t: f64) {
        self.log(Entry::End(t));
    }

    fn log(&mut self, entry: Entry) {
        if self.enabled() {
            self.log.push(entry);
        }
    }
}

impl Drop for RankChecker {
    fn drop(&mut self) {
        if let Some(sh) = &self.shared {
            let log = std::mem::take(&mut self.log);
            sh.lock().logs.push((self.rank, log));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(comm: u64, seq: u64, kind: CollKind, root: Option<usize>, elems: u64) -> CollEvent {
        CollEvent {
            comm,
            seq,
            kind,
            root,
            elems,
        }
    }

    fn sink(n: usize) -> CheckSink {
        let s = CheckSink::enabled();
        s.begin_run(vec![0; n]);
        s
    }

    /// The verdicts of a run whose checkers have all dropped, with no
    /// compute span and no leftover message.
    fn judge(s: &CheckSink) -> Vec<Violation> {
        s.end_run(&mut |_, _| None, &[]);
        s.violations()
    }

    #[test]
    fn disabled_sink_ignores_everything() {
        let s = CheckSink::disabled();
        assert!(!s.is_enabled());
        let mut c = s.checker(0);
        assert!(!c.enabled());
        c.monitor_end(1.0); // would be MON002 and MON003 if enabled
        drop(c);
        s.report_deadlock(vec![0], "deadlock", 0.0);
        s.end_run(&mut |_, _| panic!("a disabled sink reads no ledger"), &[]);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn clean_hook_sequence_yields_no_violations() {
        let s = sink(2);
        let mut c0 = s.checker(0);
        let mut c1 = s.checker(1);
        c0.monitor_node_comm(5);
        c1.monitor_node_comm(5);
        c1.monitor_start(0.0);
        c0.enter_coll(ev(5, 0, CollKind::Barrier, None, 0), 1.0);
        c1.enter_coll(ev(5, 0, CollKind::Barrier, None, 0), 1.5);
        c1.monitor_end(1.5);
        drop((c0, c1));
        // Work ended at the node's end and began after it.
        s.end_run(
            &mut |rank, t| {
                assert_eq!(t, 1.5);
                let [t0, t1] = [[0.5, 1.5], [1.5, 2.0]][rank];
                (t0 < t && t1 > t).then_some((t0, t1))
            },
            &[],
        );
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn collective_root_mismatch_reported_once() {
        // Three roots at one site: the lowest rank is the reference, the
        // lowest rank that differs from it is named, and the stamp is the
        // later of their two entry clocks — whatever order the handles
        // dropped in.
        let s = sink(3);
        let mut cs: Vec<RankChecker> = (0..3).map(|r| s.checker(r)).collect();
        for (r, c) in cs.iter_mut().enumerate() {
            c.enter_coll(ev(0, 0, CollKind::Bcast, Some(r), 0), [0.5, 0.25, 0.75][r]);
        }
        cs.into_iter().rev().for_each(drop);
        let v = judge(&s);
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
        let s = CheckSink::enabled();
        s.begin_run(vec![0, 0]); // ranks 0 and 1 on node 0
        s.checker(0).monitor_start(0.0);
        let v = judge(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::MonitorDesignation);
        assert!(v[0].message.contains("highest rank 1"), "{}", v[0].message);
    }

    #[test]
    fn end_without_start_or_barrier_flagged() {
        let s = sink(1);
        s.checker(0).monitor_end(1.0);
        let rules: Vec<Rule> = judge(&s).iter().map(|v| v.rule).collect();
        assert!(rules.contains(&Rule::MonitorMissingStart), "{rules:?}");
        assert!(rules.contains(&Rule::MonitorBarrierBeforeEnd), "{rules:?}");

        // A start logged first but stamped after the end does not count:
        // MON002 reads virtual time, not the order the hooks ran in.
        let s = sink(2);
        s.checker(1).monitor_start(2.0);
        s.checker(1).monitor_end(1.0);
        let v = judge(&s);
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
        let s = CheckSink::enabled();
        s.begin_run(vec![0, 0, 1, 1]);
        s.checker(1).monitor_end(0.3);
        s.checker(3).monitor_end(0.7);
        let spans = [(0.1, 9.0), (0.0, 0.3), (0.7, 0.8), (0.2, 0.5)];
        let mut asked = Vec::new();
        s.end_run(
            &mut |rank, t| {
                asked.push((rank, t));
                let (t0, t1) = spans[rank];
                (t0 < t && t1 > t).then_some((t0, t1))
            },
            &[],
        );
        assert_eq!(asked, vec![(0, 0.3), (1, 0.3), (2, 0.7), (3, 0.7)]);
        let v = s.violations();
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
        let s = sink(2);
        s.end_run(&mut |_, _| None, &[(0, 1, 0, "7".to_string(), 0.25)]);
        let v = s.violations();
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
