//! Rendezvous machinery for synchronising collectives.
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

use crate::error::{Abort, AbortKind};
use crate::mailbox::Mailboxes;
use crate::sched::{self, WakeReason};
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
pub struct SplitOutcome {
    pub comm_id: u64,
    pub members: Arc<Vec<usize>>,
    pub my_index: usize,
    /// Virtual time at which the collective completes.
    pub release_t: f64,
}

/// One rank's entry into a communicator split: which call site it joins
/// (`parent_id`, `seq`), its identity and ordering inputs, and its timing
/// contribution.
#[derive(Clone, Copy, Debug)]
pub struct SplitEntry {
    /// Communicator being split.
    pub parent_id: u64,
    /// Per-communicator sequence number of the call site.
    pub seq: u64,
    /// Number of members expected at this call site.
    pub expected: usize,
    /// This rank's global rank.
    pub grank: usize,
    /// Partition this rank chose.
    pub color: u64,
    /// Ordering key within the partition (ties broken by global rank).
    pub key: u64,
    /// This rank's arrival time (virtual seconds).
    pub t: f64,
    /// This rank's estimate of the collective's cost; the largest entry
    /// wins.
    pub cost: f64,
}

/// One rendezvous call site: how many members it waits for, what the
/// arrivals so far contribute (`S`, the completion rule's state), and
/// who is parked on it.
struct Cell<S> {
    expected: usize,
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
pub struct Registry {
    next_comm_id: AtomicU64,
    /// Why the run died. Set once, and set *is* poisoned: there is no
    /// separate flag a rank could see raised before the cause is on record.
    cause: OnceLock<Abort>,
    /// Barrier cells: the release rule's `(max arrival, max cost)`.
    barriers: Cells<(f64, f64)>,
    splits: Cells<SplitState>,
    /// Checking sink of the owning machine (disabled by default): names
    /// the wait-for cycle when the engine reports quiescence.
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
    /// runnable task stopped) the run aborts here as a deadlock. Must not
    /// hold a lock guard.
    pub(crate) fn park(&self) {
        self.leave_if_poisoned();
        if self.mail.engine().block_current() == WakeReason::Quiescent {
            self.report_quiescent_deadlock();
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

    /// The engine detected machine-wide quiescence while the calling rank
    /// waited on something that can never complete: abort the run as
    /// deadlocked, with the probe's wait-for report when checking is on.
    fn report_quiescent_deadlock(&self) -> ! {
        let detail = self.check.probe_deadlock_quiescent().unwrap_or_else(|| {
            "deadlock: every rank is blocked and none can be woken; run with \
             greenla-check attached for the wait-for cycle"
                .to_string()
        });
        let rank = sched::current_task().expect("rank outside an engine task");
        self.abort(rank, AbortKind::Deadlock, detail)
    }

    /// The one rendezvous. Join the cell `key` of `cells` (creating it
    /// with `init` on first arrival) and fold this arrival in with
    /// `arrive`, whose flag says it is the last; park until the cell is
    /// complete, then leave with `leave` of its state. The last member to
    /// leave removes the cell, so the key can be reused.
    fn rendezvous<S, R>(
        &self,
        cells: &Cells<S>,
        key: (u64, u64),
        expected: usize,
        init: S,
        arrive: impl FnOnce(&mut S, bool),
        leave: impl FnOnce(&S) -> R,
    ) -> R {
        let mut map = cells.lock();
        let cell = map.entry(key).or_insert(Cell {
            expected,
            arrived: 0,
            left: 0,
            state: init,
            waiters: Vec::new(),
        });
        assert_eq!(
            cell.expected, expected,
            "rendezvous participant mismatch on {key:?}"
        );
        cell.arrived += 1;
        let complete = cell.arrived == cell.expected;
        arrive(&mut cell.state, complete);
        let released = if complete {
            std::mem::take(&mut cell.waiters)
        } else {
            Vec::new()
        };
        loop {
            let cell = map.get_mut(&key).expect("rendezvous cell vanished");
            if cell.arrived == cell.expected {
                let out = leave(&cell.state);
                cell.left += 1;
                if cell.left == cell.expected {
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

    /// Enter a barrier on `(comm_id, seq)` with `expected` participants at
    /// virtual time `t`; returns the common release time `max(t_i) + cost`.
    pub fn barrier(&self, comm_id: u64, seq: u64, expected: usize, t: f64, cost: f64) -> f64 {
        self.rendezvous(
            &self.barriers,
            (comm_id, seq),
            expected,
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
            |(max_t, max_cost), _| {
                *max_t = max_t.max(t);
                *max_cost = max_cost.max(cost);
            },
            |&(max_t, max_cost)| max_t + max_cost,
        )
    }

    /// Enter a split call site with this rank's [`SplitEntry`]; blocks
    /// until all expected members arrive and returns this rank's new
    /// communicator.
    pub fn split(&self, entry: SplitEntry) -> SplitOutcome {
        self.rendezvous(
            &self.splits,
            (entry.parent_id, entry.seq),
            entry.expected,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Engine, SchedulerKind};

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
        for release in run_tasks(3, |i, reg| reg.barrier(0, 0, 3, times[i], 0.5)).1 {
            assert_eq!(release, 5.5);
        }
    }

    #[test]
    fn barrier_state_cleaned_up_for_reuse() {
        let (reg, out) = run_tasks(2, |i, reg| {
            (0..3)
                .map(|seq| reg.barrier(7, seq, 2, i as f64, 0.0))
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
            reg.split(SplitEntry {
                parent_id: 0,
                seq: 0,
                expected: 4,
                grank: g,
                color: plan[g].0,
                key: plan[g].1,
                t: 0.0,
                cost: 0.1,
            })
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
                    reg.barrier(0, 0, 2, 0.0, 0.0)
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
}
