//! The checking sink: machine-wide shared state, per-rank hook handles,
//! and the deadlock probe.

use crate::tagspace;
use crate::violation::{Rule, Violation};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
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

fn fmt_root(root: Option<usize>) -> String {
    match root {
        Some(r) => r.to_string(),
        None => "-".to_string(),
    }
}

/// What a rank is blocked on right now (the wait-for graph's node labels).
#[derive(Clone, Debug)]
enum Wait {
    Running,
    Recv {
        src: usize,
        comm: u64,
        tag: u64,
    },
    Coll {
        comm: u64,
        seq: u64,
        members: Arc<Vec<usize>>,
    },
}

/// Lockstep record for one `(communicator, sequence)` call site.
struct CollSite {
    kind: CollKind,
    root: Option<usize>,
    elems: u64,
    first_rank: usize,
    seen: usize,
    expected: usize,
    reported: bool,
}

/// Figure-2 protocol state for one node.
#[derive(Default)]
struct MonState {
    node_comm: Option<u64>,
    started: bool,
    end_t: Option<f64>,
}

struct State {
    node_of: Vec<usize>,
    waits: Vec<Wait>,
    finished: Vec<bool>,
    last_clock: Vec<f64>,
    clock_flagged: Vec<bool>,
    overflow_flagged: Vec<bool>,
    last_coll: Vec<Option<(u64, CollKind)>>,
    last_compute: Vec<Option<(f64, f64)>>,
    colls: HashMap<(u64, u64), CollSite>,
    monitors: HashMap<usize, MonState>,
    straddle_flagged: HashSet<(usize, usize)>,
    deadlock_msg: Option<String>,
    violations: Vec<Violation>,
}

impl State {
    fn new(node_of: Vec<usize>) -> Self {
        let n = node_of.len();
        Self {
            node_of,
            waits: vec![Wait::Running; n],
            finished: vec![false; n],
            last_clock: vec![0.0; n],
            clock_flagged: vec![false; n],
            overflow_flagged: vec![false; n],
            last_coll: vec![None; n],
            last_compute: vec![None; n],
            colls: HashMap::new(),
            monitors: HashMap::new(),
            straddle_flagged: HashSet::new(),
            deadlock_msg: None,
            violations: Vec::new(),
        }
    }

    /// Per-rank clock monotonicity (CLK001); flags at most once per rank.
    fn note_clock(&mut self, rank: usize, t: f64) {
        if t < self.last_clock[rank] && !self.clock_flagged[rank] {
            self.clock_flagged[rank] = true;
            self.violations.push(Violation::new(
                Rule::ClockRegression,
                vec![rank],
                t,
                format!(
                    "rank {rank}'s virtual clock moved backwards: {:.6e}s after {:.6e}s",
                    t, self.last_clock[rank]
                ),
            ));
        }
        if t > self.last_clock[rank] {
            self.last_clock[rank] = t;
        }
    }

    fn in_same_coll(&self, rank: usize, comm: u64, seq: u64) -> bool {
        matches!(
            &self.waits[rank],
            Wait::Coll { comm: c, seq: s, .. } if *c == comm && *s == seq
        )
    }

    /// Who is rank `r` waiting for? One representative edge of the
    /// wait-for graph.
    fn successor(&self, r: usize) -> Option<usize> {
        match &self.waits[r] {
            Wait::Running => None,
            Wait::Recv { src, .. } => Some(*src),
            Wait::Coll { comm, seq, members } => members
                .iter()
                .copied()
                .find(|&m| m != r && !self.in_same_coll(m, *comm, *seq)),
        }
    }

    fn find_cycle(&self, blocked: &[usize]) -> Option<Vec<usize>> {
        let mut visited: HashSet<usize> = HashSet::new();
        for &start in blocked {
            if visited.contains(&start) {
                continue;
            }
            let mut path = vec![start];
            let mut on_path: HashMap<usize, usize> = HashMap::new();
            on_path.insert(start, 0);
            let mut cur = start;
            while let Some(next) = self.successor(cur) {
                if self.finished.get(next).copied().unwrap_or(true) {
                    break;
                }
                if let Some(&pos) = on_path.get(&next) {
                    let mut cyc = path[pos..].to_vec();
                    cyc.push(next);
                    return Some(cyc);
                }
                if visited.contains(&next) {
                    break;
                }
                on_path.insert(next, path.len());
                path.push(next);
                cur = next;
            }
            visited.extend(path);
        }
        None
    }

    fn describe_deadlock(&self, blocked: &[usize]) -> String {
        let mut s = format!(
            "deadlock: {} blocked rank(s), no progress possible",
            blocked.len()
        );
        for &r in blocked {
            match &self.waits[r] {
                Wait::Recv { src, comm, tag } => {
                    s.push_str(&format!(
                        "\n  rank {r}: recv(src={src}, comm={comm}, tag={})",
                        tagspace::describe_tag(*tag)
                    ));
                }
                Wait::Coll { comm, seq, members } => {
                    let missing: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&m| m != r && !self.in_same_coll(m, *comm, *seq))
                        .collect();
                    s.push_str(&format!(
                        "\n  rank {r}: collective(comm={comm}, seq={seq}) waiting for ranks {missing:?}"
                    ));
                }
                Wait::Running => {}
            }
        }
        if let Some(cycle) = self.find_cycle(blocked) {
            let chain: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            s.push_str(&format!("\n  cycle: {}", chain.join(" -> ")));
        } else if let Some((w, fin)) = blocked.iter().find_map(|&r| {
            self.successor(r)
                .filter(|&n| self.finished.get(n).copied().unwrap_or(false))
                .map(|n| (r, n))
        }) {
            s.push_str(&format!(
                "\n  rank {w} waits on rank {fin}, which has already finished"
            ));
        }
        s
    }
}

struct Shared {
    state: Mutex<State>,
}

impl Shared {
    /// The deadlock probe, run on the engine's quiescence signal. The
    /// scheduler has already proved every task is blocked and no wake is
    /// in flight, so there is no timer and no message to wait out:
    /// declare immediately if every unfinished rank holds a wait record.
    /// Latches: DL001 is recorded exactly once, and a later probe repeats
    /// that report.
    fn probe_quiescent(&self) -> Option<String> {
        let mut st = self.state.lock();
        if st.deadlock_msg.is_some() {
            return st.deadlock_msg.clone();
        }
        if st.waits.is_empty() {
            return None;
        }
        let mut blocked = Vec::new();
        for r in 0..st.waits.len() {
            if st.finished[r] {
                continue;
            }
            if matches!(st.waits[r], Wait::Running) {
                return None;
            }
            blocked.push(r);
        }
        if blocked.is_empty() {
            return None;
        }
        let msg = st.describe_deadlock(&blocked);
        let t = blocked
            .iter()
            .map(|&r| st.last_clock[r])
            .fold(0.0f64, f64::max);
        st.violations
            .push(Violation::new(Rule::Deadlock, blocked, t, msg.clone()));
        st.deadlock_msg = Some(msg.clone());
        Some(msg)
    }
}

/// Machine-wide checking handle, mirroring `greenla_trace::TraceSink`:
/// cheap to clone, a disabled sink holds no allocation, and every hook
/// behind it costs one branch. The sink checks one machine run at a time
/// ([`CheckSink::begin_run`] resets all state).
#[derive(Clone, Default)]
pub struct CheckSink {
    shared: Option<Arc<Shared>>,
}

impl CheckSink {
    /// A sink that checks nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink that enforces the full rule set.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                state: Mutex::new(State::new(Vec::new())),
            })),
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
            *sh.state.lock() = State::new(node_of);
        }
    }

    /// Hook handle for one rank.
    pub fn checker(&self, rank: usize, node: usize) -> RankChecker {
        RankChecker {
            shared: self.shared.clone(),
            rank,
            node,
        }
    }

    /// Run the deadlock probe: `Some(diagnostic)` once a deadlock is
    /// declared. The rank engine calls it at the moment it observes
    /// quiescence (every task blocked, no wake in flight) — never on a
    /// timer, so there is no grace period to tune.
    pub fn probe_deadlock_quiescent(&self) -> Option<String> {
        self.shared.as_ref().and_then(|sh| sh.probe_quiescent())
    }

    /// Report mailbox residue found after rank `rank` returned: each
    /// leftover is `(src, comm_id, tag, arrival_s)` of a message that was
    /// sent but never received (MSG001).
    pub fn report_residue(&self, rank: usize, leftovers: &[(usize, u64, u64, f64)]) {
        let Some(sh) = &self.shared else {
            return;
        };
        let mut st = sh.state.lock();
        for &(src, comm, tag, arrival) in leftovers {
            let msg = format!(
                "finalize: rank {rank}'s mailbox still holds a message from rank {src} \
                 (comm {comm}, tag {}, arrival {arrival:.6e}s) that was never received",
                tagspace::describe_tag(tag)
            );
            st.violations.push(Violation::new(
                Rule::MessageLeak,
                vec![src, rank],
                arrival,
                msg,
            ));
        }
    }

    /// Snapshot of all violations recorded so far, in recording order.
    pub fn violations(&self) -> Vec<Violation> {
        self.shared
            .as_ref()
            .map(|sh| sh.state.lock().violations.clone())
            .unwrap_or_default()
    }
}

/// Per-rank hook handle. Every method is a no-op (one branch) when the
/// parent sink is disabled, and none of them ever touches a virtual
/// clock — checking a run cannot change its timings.
pub struct RankChecker {
    shared: Option<Arc<Shared>>,
    rank: usize,
    node: usize,
}

impl RankChecker {
    /// Is this checker active? Callers can skip assembling hook arguments
    /// when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    fn with_state(&self, f: impl FnOnce(&mut State, usize, usize)) {
        if let Some(sh) = &self.shared {
            let mut st = sh.state.lock();
            if self.rank < st.waits.len() {
                f(&mut st, self.rank, self.node);
            }
        }
    }

    /// A compute (or memory-touch) interval `[t0, t1]` completed.
    pub fn compute(&mut self, t0: f64, t1: f64) {
        self.with_state(|st, rank, node| {
            st.note_clock(rank, t1);
            st.last_compute[rank] = Some((t0, t1));
            if let Some(te) = st.monitors.get(&node).and_then(|m| m.end_t) {
                if t0 < te && t1 > te && st.straddle_flagged.insert((node, rank)) {
                    st.violations.push(Violation::new(
                        Rule::MonitorWindowStraddle,
                        vec![rank],
                        t1,
                        format!(
                            "rank {rank}'s work interval [{t0:.6e}s, {t1:.6e}s] straddles \
                             node {node}'s measurement end at {te:.6e}s: the monitoring \
                             window missed {:.6e}s of its work",
                            t1 - te
                        ),
                    ));
                }
            }
        });
    }

    /// A message left this rank at virtual time `t`.
    pub fn sent(&mut self, t: f64) {
        self.with_state(|st, rank, _| st.note_clock(rank, t));
    }

    /// The rank is about to block in a receive.
    pub fn block_recv(&mut self, src: usize, comm: u64, tag: u64, t: f64) {
        self.with_state(|st, rank, _| {
            st.note_clock(rank, t);
            st.waits[rank] = Wait::Recv { src, comm, tag };
        });
    }

    /// The receive completed at `t` for a message that arrived at
    /// `arrival` (CLK002 checks causality).
    pub fn unblock_recv(&mut self, arrival: f64, t: f64) {
        self.with_state(|st, rank, _| {
            st.note_clock(rank, t);
            if t + 1e-12 < arrival {
                st.violations.push(Violation::new(
                    Rule::RecvBeforeArrival,
                    vec![rank],
                    t,
                    format!(
                        "rank {rank} completed a receive at {t:.6e}s but the message \
                         only arrives at {arrival:.6e}s"
                    ),
                ));
            }
            st.waits[rank] = Wait::Running;
        });
    }

    /// The rank entered a collective. The [`CollEvent`] carries the
    /// lockstep signature (COLL001); barrier/split also become wait-for
    /// graph nodes until [`RankChecker::coll_done`].
    pub fn enter_coll(&mut self, ev: CollEvent, members: &[usize], t: f64) {
        let CollEvent {
            comm,
            seq,
            kind,
            root,
            elems,
        } = ev;
        self.with_state(|st, rank, _| {
            st.note_clock(rank, t);
            st.last_coll[rank] = Some((comm, kind));
            match st.colls.entry((comm, seq)) {
                Entry::Vacant(v) => {
                    v.insert(CollSite {
                        kind,
                        root,
                        elems,
                        first_rank: rank,
                        seen: 1,
                        expected: members.len(),
                        reported: false,
                    });
                }
                Entry::Occupied(mut o) => {
                    let site = o.get_mut();
                    site.seen += 1;
                    let mismatch = (site.kind, site.root, site.elems) != (kind, root, elems);
                    if mismatch && !site.reported {
                        site.reported = true;
                        let msg = format!(
                            "collective mismatch on comm {comm} at sequence {seq}: \
                             rank {} issued {}(root={}, elems={}) but rank {rank} \
                             issued {}(root={}, elems={})",
                            site.first_rank,
                            site.kind,
                            fmt_root(site.root),
                            site.elems,
                            kind,
                            fmt_root(root),
                            elems
                        );
                        let first = site.first_rank;
                        st.violations.push(Violation::new(
                            Rule::CollectiveMismatch,
                            vec![first, rank],
                            t,
                            msg,
                        ));
                    } else if site.seen >= site.expected {
                        o.remove(); // all members checked in; site complete
                    }
                }
            }
            if matches!(kind, CollKind::Barrier | CollKind::Split) {
                st.waits[rank] = Wait::Coll {
                    comm,
                    seq,
                    members: Arc::new(members.to_vec()),
                };
            }
        });
    }

    /// A blocking collective (barrier/split) released this rank at `t`.
    pub fn coll_done(&mut self, t: f64) {
        self.with_state(|st, rank, _| {
            st.note_clock(rank, t);
            st.waits[rank] = Wait::Running;
        });
    }

    /// Tag-space audit for one collective: sequence number `seq` and (for
    /// pipelined transfers) `data_chunks` chunk ids must fit their
    /// reserved bit-fields (COLL002). Flags at most once per rank.
    pub fn coll_tag_space(&mut self, seq: u64, data_chunks: u64, t: f64) {
        self.with_state(|st, rank, _| {
            if st.overflow_flagged[rank] {
                return;
            }
            if !tagspace::seq_fits(seq) {
                st.overflow_flagged[rank] = true;
                st.violations.push(Violation::new(
                    Rule::CollectiveTagOverflow,
                    vec![rank],
                    t,
                    format!(
                        "collective sequence number {seq} on rank {rank} overflows the \
                         {}-bit field of the COLL_TAG space (max {})",
                        tagspace::SEQ_BITS,
                        tagspace::MAX_SEQ
                    ),
                ));
            } else if data_chunks > tagspace::MAX_PIPELINE_CHUNKS {
                st.overflow_flagged[rank] = true;
                st.violations.push(Violation::new(
                    Rule::CollectiveTagOverflow,
                    vec![rank],
                    t,
                    format!(
                        "pipelined collective on rank {rank} uses {data_chunks} chunks, \
                         colliding with the reserved chunk markers (max {})",
                        tagspace::MAX_PIPELINE_CHUNKS
                    ),
                ));
            }
        });
    }

    /// The node communicator produced by `split_shared` in the Figure-2
    /// choreography.
    pub fn monitor_node_comm(&mut self, comm_id: u64, t: f64) {
        self.with_state(|st, rank, node| {
            st.note_clock(rank, t);
            st.monitors.entry(node).or_default().node_comm = Some(comm_id);
        });
    }

    /// `start_monitoring` ran on this rank (MON001 checks the designation).
    pub fn monitor_start(&mut self, t: f64) {
        self.with_state(|st, rank, node| {
            st.note_clock(rank, t);
            let designated = st
                .node_of
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n == node)
                .map(|(r, _)| r)
                .max();
            if designated != Some(rank) {
                let msg = format!(
                    "start_monitoring on rank {rank} (node {node}), but the designated \
                     monitoring rank is the node's highest rank {}",
                    designated.map_or("?".to_string(), |r| r.to_string())
                );
                st.violations
                    .push(Violation::new(Rule::MonitorDesignation, vec![rank], t, msg));
            }
            st.monitors.entry(node).or_default().started = true;
        });
    }

    /// `end_monitoring` ran on this rank at `t` (MON002/MON003/MON004).
    pub fn monitor_end(&mut self, t: f64) {
        self.with_state(|st, rank, node| {
            st.note_clock(rank, t);
            let (started, node_comm) = {
                let ms = st.monitors.entry(node).or_default();
                (ms.started, ms.node_comm)
            };
            if !started {
                st.violations.push(Violation::new(
                    Rule::MonitorMissingStart,
                    vec![rank],
                    t,
                    format!(
                        "end_monitoring on rank {rank} (node {node}) without a matching \
                         start_monitoring"
                    ),
                ));
            }
            let barrier_ok = matches!(
                (node_comm, st.last_coll[rank]),
                (Some(nc), Some((c, CollKind::Barrier))) if c == nc
            );
            if !barrier_ok {
                let last = match st.last_coll[rank] {
                    Some((c, k)) => format!("{k} on comm {c}"),
                    None => "no collective at all".to_string(),
                };
                st.violations.push(Violation::new(
                    Rule::MonitorBarrierBeforeEnd,
                    vec![rank],
                    t,
                    format!(
                        "end_monitoring on rank {rank} (node {node}) is not immediately \
                         preceded by a barrier on the node communicator (last collective: \
                         {last}); Figure 2 requires the node barrier so the window covers \
                         all of the node's work"
                    ),
                ));
            }
            st.monitors.entry(node).or_default().end_t = Some(t);
            // Work already recorded past the measurement end (MON004).
            let mut straddles = Vec::new();
            for r in 0..st.node_of.len() {
                if st.node_of[r] != node {
                    continue;
                }
                if let Some((a, b)) = st.last_compute[r] {
                    if a < t && b > t && st.straddle_flagged.insert((node, r)) {
                        straddles.push((r, a, b));
                    }
                }
            }
            for (r, a, b) in straddles {
                st.violations.push(Violation::new(
                    Rule::MonitorWindowStraddle,
                    vec![r],
                    t,
                    format!(
                        "rank {r}'s work interval [{a:.6e}s, {b:.6e}s] straddles node \
                         {node}'s measurement end at {t:.6e}s: the monitoring window \
                         missed {:.6e}s of its work",
                        b - t
                    ),
                ));
            }
        });
    }

    /// The rank's closure returned at virtual time `t`; it no longer
    /// participates in the wait-for graph.
    pub fn rank_finished(&mut self, t: f64) {
        self.with_state(|st, rank, _| {
            st.note_clock(rank, t);
            st.finished[rank] = true;
            st.waits[rank] = Wait::Running;
        });
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

    #[test]
    fn disabled_sink_ignores_everything() {
        let s = CheckSink::disabled();
        assert!(!s.is_enabled());
        let mut c = s.checker(0, 0);
        assert!(!c.enabled());
        c.compute(1.0, 0.5); // would be CLK001 if enabled
        c.block_recv(1, 0, 7, 0.0);
        assert!(s.probe_deadlock_quiescent().is_none());
        assert!(s.violations().is_empty());
    }

    #[test]
    fn clean_hook_sequence_yields_no_violations() {
        let s = sink(2);
        let mut c0 = s.checker(0, 0);
        let mut c1 = s.checker(1, 0);
        c0.compute(0.0, 1.0);
        c0.sent(1.0);
        c1.block_recv(0, 0, 7, 0.0);
        c1.unblock_recv(1.5, 1.5);
        c0.enter_coll(ev(0, 0, CollKind::Barrier, None, 0), &[0, 1], 1.0);
        c1.enter_coll(ev(0, 0, CollKind::Barrier, None, 0), &[0, 1], 1.5);
        c0.coll_done(2.0);
        c1.coll_done(2.0);
        c0.rank_finished(2.0);
        c1.rank_finished(2.0);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn clock_regression_flagged_once() {
        let s = sink(1);
        let mut c = s.checker(0, 0);
        c.compute(0.0, 2.0);
        c.compute(0.5, 0.6);
        c.compute(0.1, 0.2); // second regression must not re-report
        let v = s.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ClockRegression);
        assert_eq!(v[0].ranks, vec![0]);
    }

    #[test]
    fn recv_before_arrival_flagged() {
        let s = sink(2);
        let mut c = s.checker(1, 0);
        c.block_recv(0, 0, 3, 0.0);
        c.unblock_recv(5.0, 1.0); // completes 4 s before the arrival
        let v = s.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RecvBeforeArrival);
    }

    #[test]
    fn collective_root_mismatch_reported_once() {
        let s = sink(2);
        let mut c0 = s.checker(0, 0);
        let mut c1 = s.checker(1, 0);
        c0.enter_coll(ev(0, 0, CollKind::Bcast, Some(0), 0), &[0, 1], 0.0);
        c1.enter_coll(ev(0, 0, CollKind::Bcast, Some(1), 0), &[0, 1], 0.0);
        let v = s.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveMismatch);
        assert_eq!(v[0].ranks, vec![0, 1]);
        assert!(v[0].message.contains("root=0") && v[0].message.contains("root=1"));
    }

    #[test]
    fn matching_collectives_leave_no_state_behind() {
        let s = sink(2);
        let mut c0 = s.checker(0, 0);
        let mut c1 = s.checker(1, 0);
        for seq in 0..10 {
            c0.enter_coll(ev(0, seq, CollKind::Reduce, Some(0), 4), &[0, 1], 0.0);
            c1.enter_coll(ev(0, seq, CollKind::Reduce, Some(0), 4), &[0, 1], 0.0);
        }
        assert!(s.violations().is_empty());
        let sh = s.shared.as_ref().unwrap();
        assert!(
            sh.state.lock().colls.is_empty(),
            "completed sites must be garbage-collected"
        );
    }

    #[test]
    fn tag_overflow_flagged() {
        let s = sink(1);
        let mut c = s.checker(0, 0);
        c.coll_tag_space(tagspace::MAX_SEQ, 0, 0.0); // last valid seq: fine
        assert!(s.violations().is_empty());
        c.coll_tag_space(tagspace::MAX_SEQ + 1, 0, 0.0);
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::CollectiveTagOverflow);
    }

    #[test]
    fn wrong_monitor_designation_flagged() {
        let s = CheckSink::enabled();
        s.begin_run(vec![0, 0]); // ranks 0 and 1 on node 0
        let mut c = s.checker(0, 0);
        c.monitor_start(0.0);
        let v = s.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::MonitorDesignation);
        assert!(v[0].message.contains("highest rank 1"), "{}", v[0].message);
    }

    #[test]
    fn end_without_start_or_barrier_flagged() {
        let s = sink(1);
        let mut c = s.checker(0, 0);
        c.monitor_end(1.0);
        let rules: Vec<Rule> = s.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&Rule::MonitorMissingStart), "{rules:?}");
        assert!(rules.contains(&Rule::MonitorBarrierBeforeEnd), "{rules:?}");
    }

    #[test]
    fn straddling_compute_flagged_in_both_hook_orders() {
        // end_monitoring sees an already-recorded straddling interval…
        let s = CheckSink::enabled();
        s.begin_run(vec![0, 0]);
        let mut worker = s.checker(0, 0);
        let mut mon = s.checker(1, 0);
        mon.monitor_node_comm(5, 0.0);
        mon.monitor_start(0.0);
        worker.compute(0.1, 9.0);
        mon.enter_coll(ev(5, 0, CollKind::Barrier, None, 0), &[0, 1], 0.2);
        mon.coll_done(0.3);
        mon.monitor_end(0.3);
        let rules: Vec<Rule> = s.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::MonitorWindowStraddle], "{rules:?}");

        // …and a compute recorded after the end is caught by the compute hook.
        let s2 = CheckSink::enabled();
        s2.begin_run(vec![0, 0]);
        let mut worker2 = s2.checker(0, 0);
        let mut mon2 = s2.checker(1, 0);
        mon2.monitor_node_comm(5, 0.0);
        mon2.monitor_start(0.0);
        mon2.enter_coll(ev(5, 0, CollKind::Barrier, None, 0), &[0, 1], 0.2);
        mon2.coll_done(0.3);
        mon2.monitor_end(0.3);
        worker2.compute(0.1, 9.0);
        let rules2: Vec<Rule> = s2.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules2, vec![Rule::MonitorWindowStraddle], "{rules2:?}");
    }

    #[test]
    fn residue_reported_per_leftover_message() {
        let s = sink(2);
        s.report_residue(1, &[(0, 0, 7, 0.25)]);
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MessageLeak);
        assert_eq!(v[0].ranks, vec![0, 1]);
        assert!(v[0].message.contains("tag 7"), "{}", v[0].message);
    }

    #[test]
    fn quiescent_probe_declares_without_grace() {
        let s = sink(3);
        let mut c0 = s.checker(0, 0);
        let mut c1 = s.checker(1, 0);
        let mut c2 = s.checker(2, 0);
        c0.block_recv(1, 0, 7, 0.0);
        c2.block_recv(0, 0, 3, 0.0);
        // Rank 1 is Running: never a deadlock, however blocked the rest.
        assert!(s.probe_deadlock_quiescent().is_none());
        assert!(s.violations().is_empty());
        // A finished rank is skipped, not counted as runnable.
        c2.unblock_recv(0.0, 0.1);
        c2.rank_finished(0.1);
        assert!(s.probe_deadlock_quiescent().is_none(), "rank 1 still runs");
        c1.block_recv(0, 0, 9, 0.0);
        let msg = s
            .probe_deadlock_quiescent()
            .expect("quiescence needs no grace period");
        assert!(msg.contains("cycle: 0 -> 1 -> 0"), "{msg}");
        assert!(msg.contains("tag=7"), "{msg}");
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Deadlock);
        assert_eq!(v[0].ranks, vec![0, 1], "finished rank 2 is not blocked");
        // Declared once; later probes repeat the report.
        assert_eq!(s.probe_deadlock_quiescent(), Some(msg));
        assert_eq!(s.violations().len(), 1);
    }

    #[test]
    fn wait_on_finished_rank_is_named() {
        let s = sink(2);
        let mut c0 = s.checker(0, 0);
        let mut c1 = s.checker(1, 0);
        c1.rank_finished(1.0);
        c0.block_recv(1, 0, 4, 0.5);
        let msg = s
            .probe_deadlock_quiescent()
            .expect("all live ranks are blocked");
        assert!(msg.contains("rank 0 waits on rank 1"), "{msg}");
        assert!(msg.contains("already finished"), "{msg}");
    }
}
