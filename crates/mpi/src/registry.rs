//! Rendezvous machinery for synchronising collectives, the abort channel,
//! and the deadlock report.
//!
//! Barriers and communicator splits need *exact* max-of-clocks semantics
//! (every participant leaves at the same virtual instant), which a
//! tree-of-messages implementation only approximates. The registry gives
//! each collective call site a rendezvous cell keyed by
//! `(communicator id, per-communicator sequence number)`; the last arrival
//! computes the outcome and wakes the rest. Both kinds share one wait loop
//! and cleanup (`Registry::rendezvous`) and differ only in what an arrival
//! contributes and what each member leaves with. Sequence numbers stay consistent
//! because MPI programs must issue collectives in the same order on every
//! member — the same invariant real MPI relies on.
//!
//! The registry writes no activity ledger: each member keeps its own wait
//! there, open from its arrival until it leaves (`RankCtx::barrier`,
//! `RankCtx::split`), so a read at the release sees every member's wait.
//!
//! The registry is also the abort channel. The rank on which a run's
//! cause of death occurs records it here as an [`Abort`] — first cause
//! wins — and only then poisons the run; every other rank notices the
//! poison at its next wait and unwinds without a word, so a casualty can
//! neither overwrite the cause nor be mistaken for it.
//!
//! A deadlock is named from the runtime's own wait state. When the engine
//! reports quiescence, every unfinished rank is parked in a receive —
//! its inbox notes the message it still needs — or on a rendezvous cell,
//! which keeps its communicator's members next to the ranks parked on it.
//! Those records and the engine's finished tasks are the whole wait-for
//! graph: the report says what each parked rank waits on, then names a
//! cycle or the finished rank a wait can never hear from. Every
//! deadlocked run dies with that report, checked or not, and a checker
//! records the same text as its one DL001.

use crate::comm::Comm;
use crate::error::{Abort, AbortKind};
use crate::mailbox::{Mailboxes, RecvWait};
use crate::sched::{self, WakeReason};
use greenla_check::tagspace::describe_tag;
use greenla_check::CheckSink;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Unwind payload of a rank leaving an aborted run, cause and casualties
/// alike. `resume_unwind` bypasses the panic hook, so an abort prints
/// nothing; [`crate::Machine::try_run`] tells it from a rank body's own
/// panic by this type.
pub(crate) struct RankExit;

/// A casualty's exit: the run is failing for a cause already on record,
/// so the calling rank just leaves.
fn leave_run() -> ! {
    resume_unwind(Box::new(RankExit))
}

/// Outcome of a communicator split for one rank.
#[derive(Clone, Debug)]
pub(crate) struct SplitOutcome {
    pub(crate) comm_id: u64,
    pub(crate) members: Arc<Vec<usize>>,
    pub(crate) my_index: usize,
    /// Virtual time at which the collective completes.
    pub(crate) release_t: f64,
}

/// One rank's entry into a split of some communicator: which call site it
/// joins (`seq`), its identity and ordering inputs, and its timing
/// contribution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SplitEntry {
    /// Per-communicator sequence number of the call site.
    pub(crate) seq: u64,
    /// This rank's global rank.
    pub(crate) grank: usize,
    /// Partition this rank chose.
    pub(crate) color: u64,
    /// Ordering key within the partition (ties broken by global rank).
    pub(crate) key: u64,
    /// This rank's arrival time (virtual seconds).
    pub(crate) t: f64,
    /// This rank's estimate of the collective's cost; the largest entry
    /// wins.
    pub(crate) cost: f64,
}

/// One rendezvous call site: the communicator's members it waits for,
/// what the arrivals so far contribute (`S`, the completion rule's
/// state), and who is parked on it.
struct Cell<S> {
    /// Global ranks of the communicator, shared with its handles.
    members: Arc<Vec<usize>>,
    arrived: usize,
    left: usize,
    state: S,
    /// Task ids parked on this cell; the completing arrival wakes them.
    waiters: Vec<usize>,
}

/// A split cell: every arrival's entry and — once the last member is
/// in — each global rank's new communicator.
#[derive(Default)]
struct SplitState {
    entries: Vec<SplitEntry>,
    outcome: HashMap<usize, SplitOutcome>,
}

type Cells<S> = Mutex<HashMap<(u64, u64), Cell<S>>>;

/// Shared rendezvous state for one machine run.
pub(crate) struct Registry {
    next_comm_id: AtomicU64,
    /// Why the run died. Set once, and set *is* poisoned: there is no
    /// separate flag a rank could see raised before the cause is on record.
    cause: OnceLock<Abort>,
    /// Barrier cells: the release rule's `(max arrival, max cost)`.
    barriers: Cells<(f64, f64)>,
    splits: Cells<SplitState>,
    /// Checking sink of the owning machine (disabled by default): records
    /// the deadlock report as DL001.
    check: CheckSink,
    /// The run's mailboxes, and through them the engine that parks and
    /// wakes waiters.
    mail: Arc<Mailboxes>,
}

impl Registry {
    pub(crate) fn new(mail: Arc<Mailboxes>, check: CheckSink) -> Self {
        Self {
            next_comm_id: AtomicU64::new(1), // 0 is the world
            cause: OnceLock::new(),
            barriers: Mutex::new(HashMap::new()),
            splits: Mutex::new(HashMap::new()),
            check,
            mail,
        }
    }

    /// Fail the run because of `cause`: record it unless an earlier cause
    /// already stands, then wake every task. Every blocking wait checks
    /// the flag after each wake (a wake that lands on a running task is
    /// kept for its next park), so no blocked rank can miss it. Must not
    /// hold a lock guard.
    pub(crate) fn poison(&self, cause: Abort) {
        #[cfg(debug_assertions)]
        sched::assert_no_guard_held("Registry::poison");
        let _ = self.cause.set(cause);
        self.mail.engine().wake_all();
    }

    /// The one way a rank dies ([`crate::RankCtx::abort`]): poison the run
    /// with this cause and unwind. Must not hold a lock guard.
    pub(crate) fn abort(&self, rank: usize, kind: AbortKind, detail: String) -> ! {
        #[cfg(debug_assertions)]
        sched::assert_no_guard_held("Registry::abort");
        self.poison(Abort { rank, kind, detail });
        leave_run()
    }

    /// Why the run was poisoned, if it was.
    pub(crate) fn cause(&self) -> Option<&Abort> {
        self.cause.get()
    }

    /// The one way a rank waits, for a message or a rendezvous: park in
    /// the engine until a wake, leaving first if the run is failing. A
    /// wake says only that something changed — the caller re-checks its
    /// condition and parks again if it still does not hold. When nothing
    /// can ever wake the rank (exact quiescence, however the last
    /// runnable task stopped) the run aborts here as a deadlock, with
    /// the wait-for report as the detail and a checker's DL001. Must not
    /// hold a lock guard.
    pub(crate) fn park(&self) {
        self.leave_if_poisoned();
        if self.mail.engine().block_current() == WakeReason::Quiescent {
            let (blocked, detail) = self.wait_graph().report();
            self.check.report_deadlock(blocked, &detail);
            let rank = sched::current_task().expect("rank outside an engine task");
            self.abort(rank, AbortKind::Deadlock, detail)
        }
        self.leave_if_poisoned();
    }

    /// Where a waiting rank notices the run is failing: the one check it
    /// makes before and after every park.
    fn leave_if_poisoned(&self) {
        if self.cause().is_some() {
            leave_run();
        }
    }

    /// The wait-for graph at quiescence, from the records the waits keep
    /// anyway: each inbox's pending receive, the rendezvous cells' members
    /// and parked ranks, and the engine's finished tasks.
    fn wait_graph(&self) -> WaitGraph {
        let engine = self.mail.engine();
        let n = engine.ntasks();
        let mut waits: Vec<Option<Wait>> = (0..n)
            .map(|r| self.mail.waiting(r).map(Wait::Recv))
            .collect();
        let mut parked_on = |(comm, seq): (u64, u64), members: &[usize], waiters: &[usize]| {
            let missing: Vec<usize> = members
                .iter()
                .copied()
                .filter(|m| !waiters.contains(m))
                .collect();
            for &w in waiters {
                let missing = missing.clone();
                waits[w] = Some(Wait::Coll { comm, seq, missing });
            }
        };
        for (&key, cell) in self.barriers.lock().iter() {
            parked_on(key, &cell.members, &cell.waiters);
        }
        for (&key, cell) in self.splits.lock().iter() {
            parked_on(key, &cell.members, &cell.waiters);
        }
        let finished = (0..n).map(|r| engine.finished(r)).collect();
        WaitGraph { waits, finished }
    }

    /// The one rendezvous. Join the cell `(comm, seq)` of `cells`
    /// (creating it with `init` on first arrival) and fold this arrival in
    /// with `arrive`, whose flag says it is the last; park until every
    /// member of `comm` is in, then leave with `leave` of its state. The
    /// last member to leave removes the cell, so the key can be reused.
    fn rendezvous<S, R>(
        &self,
        cells: &Cells<S>,
        comm: &Comm,
        seq: u64,
        init: S,
        arrive: impl FnOnce(&mut S, bool),
        leave: impl FnOnce(&S) -> R,
    ) -> R {
        let key = (comm.id(), seq);
        let mut map = cells.lock();
        let cell = map.entry(key).or_insert_with(|| Cell {
            members: Arc::clone(comm.shared_members()),
            arrived: 0,
            left: 0,
            state: init,
            waiters: Vec::new(),
        });
        let expected = cell.members.len();
        assert_eq!(
            expected,
            comm.size(),
            "rendezvous participant mismatch on {key:?}"
        );
        cell.arrived += 1;
        let complete = cell.arrived == expected;
        arrive(&mut cell.state, complete);
        let released = if complete {
            std::mem::take(&mut cell.waiters)
        } else {
            Vec::new()
        };
        loop {
            let cell = map.get_mut(&key).expect("rendezvous cell vanished");
            if cell.arrived == expected {
                let out = leave(&cell.state);
                cell.left += 1;
                if cell.left == expected {
                    map.remove(&key);
                }
                // The completing arrival wakes the rest only after letting
                // go of the map, so they do not pile up on its lock.
                drop(map);
                for tid in released {
                    self.mail.engine().wake(tid);
                }
                return out;
            }
            // Register on the cell and park. Poison wakes every task
            // (not just registered waiters), so the poison check after a
            // wake cannot be missed.
            cell.waiters
                .push(sched::current_task().expect("rank outside an engine task"));
            drop(map);
            self.park();
            map = cells.lock();
        }
    }

    /// Enter the barrier at call site `seq` of `comm` at virtual time `t`;
    /// returns the common release time `max(t_i) + cost`.
    pub(crate) fn barrier(&self, comm: &Comm, seq: u64, t: f64, cost: f64) -> f64 {
        self.rendezvous(
            &self.barriers,
            comm,
            seq,
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
            |(max_t, max_cost), _| {
                *max_t = max_t.max(t);
                *max_cost = max_cost.max(cost);
            },
            |&(max_t, max_cost)| max_t + max_cost,
        )
    }

    /// Enter a split of `comm` with this rank's [`SplitEntry`]; blocks
    /// until every member arrives and returns this rank's new
    /// communicator.
    pub(crate) fn split(&self, comm: &Comm, entry: SplitEntry) -> SplitOutcome {
        self.rendezvous(
            &self.splits,
            comm,
            entry.seq,
            SplitState::default(),
            |st, last| {
                st.entries.push(entry);
                if last {
                    self.settle_split(st);
                }
            },
            |st| {
                st.outcome
                    .get(&entry.grank)
                    .expect("rank missing from split outcome")
                    .clone()
            },
        )
    }

    /// The completing arrival's work for a split: one communicator per
    /// color, allocated in ascending color order, members ordered by
    /// `(key, global rank)`, all released at `max(t_i) + cost`.
    fn settle_split(&self, st: &mut SplitState) {
        let max =
            |f: fn(&SplitEntry) -> f64| st.entries.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        let release_t = max(|e| e.t) + max(|e| e.cost);
        st.entries
            .sort_unstable_by_key(|e| (e.color, e.key, e.grank));
        for group in st.entries.chunk_by(|a, b| a.color == b.color) {
            let members: Arc<Vec<usize>> = Arc::new(group.iter().map(|e| e.grank).collect());
            let comm_id = self.next_comm_id.fetch_add(1, Ordering::Relaxed);
            for (my_index, e) in group.iter().enumerate() {
                st.outcome.insert(
                    e.grank,
                    SplitOutcome {
                        comm_id,
                        members: Arc::clone(&members),
                        my_index,
                        release_t,
                    },
                );
            }
        }
    }
}

/// What a parked rank waits on: a node label of the wait-for graph.
enum Wait {
    Recv(RecvWait),
    /// Parked on the rendezvous `(comm, seq)`, whose members `missing`
    /// have not arrived.
    Coll {
        comm: u64,
        seq: u64,
        missing: Vec<usize>,
    },
}

/// Every rank's wait at quiescence (`None` for a finished one).
struct WaitGraph {
    waits: Vec<Option<Wait>>,
    finished: Vec<bool>,
}

impl WaitGraph {
    /// The edge out of rank `r`: the rank it waits on (the first missing
    /// member, for a collective).
    fn successor(&self, r: usize) -> Option<usize> {
        match self.waits[r].as_ref()? {
            Wait::Recv(w) => Some(w.src),
            Wait::Coll { missing, .. } => missing.first().copied(),
        }
    }

    /// A cycle of waits among unfinished ranks, its first rank repeated
    /// at the end. Each rank waits on at most one other, so a walk from
    /// any rank ends at a finished rank, joins an earlier walk, or closes
    /// a cycle.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        let mut walked_from = vec![None; self.waits.len()];
        for start in 0..self.waits.len() {
            let mut path = Vec::new();
            let mut cur = Some(start);
            while let Some(r) = cur.filter(|&r| !self.finished[r]) {
                if let Some(from) = walked_from[r] {
                    if from != start {
                        break;
                    }
                    let mut cycle = path.split_off(path.iter().position(|&p| p == r)?);
                    cycle.push(r);
                    return Some(cycle);
                }
                walked_from[r] = Some(start);
                path.push(r);
                cur = self.successor(r);
            }
        }
        None
    }

    /// The blocked ranks and the report naming what each waits on, then
    /// a cycle or a wait on a finished rank.
    fn report(&self) -> (Vec<usize>, String) {
        let blocked: Vec<usize> = (0..self.waits.len())
            .filter(|&r| self.waits[r].is_some())
            .collect();
        let mut s = format!(
            "deadlock: {} blocked rank(s), no progress possible",
            blocked.len()
        );
        for (r, wait) in self.waits.iter().enumerate() {
            s.push_str(&match wait {
                Some(Wait::Recv(RecvWait { src, comm, tag })) => format!(
                    "\n  rank {r}: recv(src={src}, comm={comm}, tag={})",
                    describe_tag(*tag)
                ),
                Some(Wait::Coll { comm, seq, missing }) => format!(
                    "\n  rank {r}: collective(comm={comm}, seq={seq}) waiting for ranks {missing:?}"
                ),
                None => continue,
            });
        }
        if let Some(cycle) = self.find_cycle() {
            let chain: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            s.push_str(&format!("\n  cycle: {}", chain.join(" -> ")));
        } else if let Some((w, fin)) = blocked.iter().find_map(|&r| {
            self.successor(r)
                .filter(|&n| self.finished[n])
                .map(|n| (r, n))
        }) {
            s.push_str(&format!(
                "\n  rank {w} waits on rank {fin}, which has already finished"
            ));
        }
        (blocked, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Engine, SchedulerKind};
    use crate::{Machine, RankCtx};
    use greenla_check::{Rule, Violation};
    use greenla_cluster::placement::{LoadLayout, Placement};
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;

    /// Rank `me`'s handle on a communicator `id` over global ranks `0..n`.
    fn comm(id: u64, n: usize, me: usize) -> Comm {
        Comm::new(id, Arc::new((0..n).collect()), me)
    }

    /// Run `f(task, registry)` as the `n` tasks of an OS-thread engine —
    /// registry waits park in the engine, so they need one around them.
    fn run_tasks<R: Send>(
        n: usize,
        f: impl Fn(usize, &Registry) -> R + Sync,
    ) -> (Registry, Vec<R>) {
        let engine = Engine::new(n, SchedulerKind::ThreadPerRank, None);
        let reg = Registry::new(Arc::new(Mailboxes::new(engine)), CheckSink::disabled());
        let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|i| {
                let (f, reg, out) = (&f, &reg, &out);
                Box::new(move || *out[i].lock() = Some(f(i, reg))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        reg.mail.engine().run(bodies);
        let out = out
            .into_iter()
            .map(|m| m.into_inner().expect("task produced no result"))
            .collect();
        (reg, out)
    }

    #[test]
    fn barrier_releases_at_max_plus_cost() {
        let times = [1.0, 5.0, 3.0];
        for release in run_tasks(3, |i, reg| reg.barrier(&comm(0, 3, i), 0, times[i], 0.5)).1 {
            assert_eq!(release, 5.5);
        }
    }

    #[test]
    fn barrier_state_cleaned_up_for_reuse() {
        let (reg, out) = run_tasks(2, |i, reg| {
            (0..3)
                .map(|seq| reg.barrier(&comm(7, 2, i), seq, i as f64, 0.0))
                .collect::<Vec<_>>()
        });
        assert_eq!(out, vec![vec![1.0; 3]; 2]);
        assert!(reg.barriers.lock().is_empty());
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        // 4 ranks: colors 0,0,1,1; keys reversed within color 0.
        let plan = [(0u64, 9u64), (0, 1), (1, 0), (1, 5)];
        let (_, results) = run_tasks(4, |g, reg| {
            reg.split(
                &comm(0, 4, g),
                SplitEntry {
                    seq: 0,
                    grank: g,
                    color: plan[g].0,
                    key: plan[g].1,
                    t: 0.0,
                    cost: 0.1,
                },
            )
        });
        // color 0: keys 9 (rank0), 1 (rank1) → order [1, 0]
        assert_eq!(*results[0].members, vec![1, 0]);
        assert_eq!(results[0].my_index, 1);
        assert_eq!(results[1].my_index, 0);
        // color 1: order [2, 3]
        assert_eq!(*results[2].members, vec![2, 3]);
        // distinct communicators, shared release time.
        assert_ne!(results[0].comm_id, results[2].comm_id);
        assert_eq!(results[0].release_t, results[2].release_t);
        assert_eq!(results[0].release_t, 0.1);
    }

    #[test]
    fn poison_unblocks_waiters() {
        // Task 0 enters a barrier task 1 never joins; whether the poison
        // lands before or after task 0 parks, it must unwind out — as a
        // casualty, leaving task 1's cause on record.
        let cause = Abort {
            rank: 1,
            kind: AbortKind::Solver,
            detail: "task 1 gave up".into(),
        };
        let (reg, left_as_casualty) = run_tasks(2, |i, reg| {
            if i == 0 {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    reg.barrier(&comm(0, 2, 0), 0, 0.0, 0.0)
                }))
                .is_err_and(|payload| payload.is::<RankExit>())
            } else {
                reg.poison(cause.clone());
                false
            }
        });
        assert!(left_as_casualty[0], "waiter should have unwound out");
        assert_eq!(reg.cause(), Some(&cause));
    }

    /// Run `body` on four ranks of one node until it deadlocks, with a
    /// checker attached when `checked`: the abort and the checker's
    /// findings.
    fn deadlock_of(checked: bool, body: impl Fn(&mut RankCtx) + Sync) -> (Abort, Vec<Violation>) {
        let spec = ClusterSpec::test_cluster(1, 2);
        let placement = Placement::layout(&spec.node, 4, LoadLayout::FullLoad).unwrap();
        let sink = if checked {
            CheckSink::enabled()
        } else {
            CheckSink::disabled()
        };
        let m = Machine::new(spec, placement, PowerModel::deterministic(), 1)
            .unwrap()
            .with_check(sink.clone());
        let abort = m.try_run(body).err().expect("the run must deadlock");
        assert_eq!(abort.kind, AbortKind::Deadlock, "{abort}");
        (abort, sink.violations())
    }

    #[test]
    fn quiescent_probe_declares_without_grace() {
        // Rank 0 blocks while rank 1 still computes and rank 2 still
        // waits for rank 1: no deadlock until rank 1 blocks too. Ranks 2
        // and 3 finish first and are not counted as blocked.
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.recv_f64(&world, 1, 7);
                }
                1 => {
                    ctx.compute(50_000_000, 0);
                    ctx.send_f64(&world, 2, 3, &[1.0]);
                    ctx.recv_f64(&world, 0, 9);
                }
                2 => {
                    ctx.recv_f64(&world, 1, 3);
                }
                _ => {}
            }
        };
        let (unchecked, _) = deadlock_of(false, program);
        let (abort, v) = deadlock_of(true, program);
        assert_eq!(abort.detail, unchecked.detail, "checked or not, one report");
        let msg = &abort.detail;
        assert!(msg.starts_with("deadlock: 2 blocked rank(s)"), "{msg}");
        assert!(msg.contains("rank 0: recv(src=1, comm=0, tag=7)"), "{msg}");
        assert!(msg.contains("rank 1: recv(src=0, comm=0, tag=9)"), "{msg}");
        assert!(msg.contains("cycle: 0 -> 1 -> 0"), "{msg}");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Deadlock);
        assert_eq!(v[0].ranks, vec![0, 1], "finished ranks are not blocked");
        assert_eq!(&v[0].message, msg);
    }

    #[test]
    fn wait_on_finished_rank_is_named() {
        for checked in [false, true] {
            let (abort, _) = deadlock_of(checked, |ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    ctx.recv_f64(&world, 1, 4);
                }
            });
            let msg = &abort.detail;
            assert!(msg.starts_with("deadlock: 1 blocked rank(s)"), "{msg}");
            assert!(
                msg.contains("rank 0 waits on rank 1, which has already finished"),
                "{msg}"
            );
        }
    }
}
