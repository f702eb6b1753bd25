//! Rendezvous machinery for synchronising collectives.
//!
//! Barriers and communicator splits need *exact* max-of-clocks semantics
//! (every participant leaves at the same virtual instant), which a
//! tree-of-messages implementation only approximates. The registry gives
//! each collective call site a rendezvous cell keyed by
//! `(communicator id, per-communicator sequence number)`; the last arrival
//! computes the outcome and wakes the rest. Sequence numbers stay consistent
//! because MPI programs must issue collectives in the same order on every
//! member — the same invariant real MPI relies on.
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
pub(crate) fn leave_run() -> ! {
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

struct BarrierState {
    expected: usize,
    arrived: usize,
    max_t: f64,
    cost: f64,
    release_t: Option<f64>,
    left: usize,
    /// Task ids parked on this cell; the completing arrival (or poison)
    /// wakes them.
    waiters: Vec<usize>,
}

struct SplitState {
    expected: usize,
    /// (global rank, color, key, arrival time)
    entries: Vec<(usize, u64, u64, f64)>,
    cost: f64,
    outcome: Option<HashMap<usize, SplitOutcome>>,
    left: usize,
    /// See [`BarrierState::waiters`].
    waiters: Vec<usize>,
}

/// Shared rendezvous state for one machine run.
pub struct Registry {
    next_comm_id: AtomicU64,
    /// Why the run died. Set once, and set *is* poisoned: there is no
    /// separate flag a rank could see raised before the cause is on record.
    cause: OnceLock<Abort>,
    barriers: Mutex<HashMap<(u64, u64), BarrierState>>,
    splits: Mutex<HashMap<(u64, u64), SplitState>>,
    /// Checking sink of the owning machine (disabled by default): names
    /// the wait-for cycle when the engine reports quiescence.
    check: CheckSink,
    /// The run's mailboxes — how [`Registry::poison`] reaches every rank
    /// — and, through them, the engine that parks and wakes waiters.
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
    /// already stands, then make every blocked rank leave — each inbox
    /// gets an abort control message and every task is woken, and a woken
    /// waiter re-checks the flag before it parks again.
    pub(crate) fn poison(&self, cause: Abort) {
        let _ = self.cause.set(cause);
        self.mail.poison_broadcast();
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

    /// Has the run been poisoned by a peer's failure?
    pub fn is_poisoned(&self) -> bool {
        self.cause().is_some()
    }

    /// Where a blocked rank notices the run is failing: the one check it
    /// makes before and after every park.
    pub(crate) fn leave_if_poisoned(&self) {
        if self.is_poisoned() {
            leave_run();
        }
    }

    /// The engine detected machine-wide quiescence while the calling rank
    /// waited on something that can never complete: abort the run as
    /// deadlocked, with the probe's wait-for report when checking is on.
    /// Must not hold a lock guard.
    pub(crate) fn report_quiescent_deadlock(&self) -> ! {
        #[cfg(debug_assertions)]
        sched::assert_no_guard_held("Registry::report_quiescent_deadlock");
        let detail = self.check.probe_deadlock_quiescent().unwrap_or_else(|| {
            "deadlock: every rank is blocked and none can be woken; run with \
             greenla-check attached for the wait-for cycle"
                .to_string()
        });
        let rank = sched::current_task().expect("rank outside an engine task");
        self.abort(rank, AbortKind::Deadlock, detail)
    }

    /// Enter a barrier on `(comm_id, seq)` with `expected` participants at
    /// virtual time `t`; returns the common release time `max(t_i) + cost`.
    pub fn barrier(&self, comm_id: u64, seq: u64, expected: usize, t: f64, cost: f64) -> f64 {
        let key = (comm_id, seq);
        let mut map = self.barriers.lock();
        let st = map.entry(key).or_insert(BarrierState {
            expected,
            arrived: 0,
            max_t: f64::NEG_INFINITY,
            cost,
            release_t: None,
            left: 0,
            waiters: Vec::new(),
        });
        assert_eq!(
            st.expected, expected,
            "barrier participant mismatch on {key:?}"
        );
        st.arrived += 1;
        st.max_t = st.max_t.max(t);
        st.cost = st.cost.max(cost);
        let mut released = Vec::new();
        if st.arrived == st.expected {
            st.release_t = Some(st.max_t + st.cost);
            released = std::mem::take(&mut st.waiters);
        }
        loop {
            let st = map.get_mut(&key).expect("barrier state vanished");
            if let Some(rt) = st.release_t {
                st.left += 1;
                if st.left == st.expected {
                    map.remove(&key);
                }
                // The completing arrival wakes the rest only after letting
                // go of the map, so they do not pile up on its lock.
                drop(map);
                for tid in released {
                    self.mail.engine().wake(tid);
                }
                return rt;
            }
            // Register on the cell and park. Poison wakes every task
            // (not just registered waiters), so the poison check after a
            // wake cannot be missed.
            st.waiters
                .push(sched::current_task().expect("rank outside an engine task"));
            drop(map);
            self.leave_if_poisoned();
            match self.mail.engine().block_current() {
                WakeReason::Woken => {}
                WakeReason::Quiescent => self.report_quiescent_deadlock(),
            }
            self.leave_if_poisoned();
            map = self.barriers.lock();
        }
    }

    /// Enter a split call site with this rank's [`SplitEntry`]; blocks
    /// until all expected members arrive and returns this rank's new
    /// communicator.
    pub fn split(&self, entry: SplitEntry) -> SplitOutcome {
        let SplitEntry {
            parent_id,
            seq,
            expected,
            grank,
            color,
            key,
            t,
            cost,
        } = entry;
        let map_key = (parent_id, seq);
        let mut map = self.splits.lock();
        let st = map.entry(map_key).or_insert(SplitState {
            expected,
            entries: Vec::new(),
            cost,
            outcome: None,
            left: 0,
            waiters: Vec::new(),
        });
        assert_eq!(
            st.expected, expected,
            "split participant mismatch on {map_key:?}"
        );
        st.entries.push((grank, color, key, t));
        st.cost = st.cost.max(cost);
        let mut released = Vec::new();
        if st.entries.len() == st.expected {
            let release_t = st
                .entries
                .iter()
                .map(|e| e.3)
                .fold(f64::NEG_INFINITY, f64::max)
                + st.cost;
            // Group by color, order by (key, global rank).
            let mut by_color: HashMap<u64, Vec<(u64, usize)>> = HashMap::new();
            for &(g, c, k, _) in &st.entries {
                by_color.entry(c).or_default().push((k, g));
            }
            let mut outcome = HashMap::with_capacity(st.expected);
            // Deterministic comm-id assignment: colors in ascending order.
            let mut colors: Vec<u64> = by_color.keys().copied().collect();
            colors.sort_unstable();
            for color in colors {
                let mut group = by_color.remove(&color).unwrap();
                group.sort_unstable();
                let members: Arc<Vec<usize>> = Arc::new(group.iter().map(|&(_, g)| g).collect());
                let comm_id = self.next_comm_id.fetch_add(1, Ordering::Relaxed);
                for (idx, &(_, g)) in group.iter().enumerate() {
                    outcome.insert(
                        g,
                        SplitOutcome {
                            comm_id,
                            members: Arc::clone(&members),
                            my_index: idx,
                            release_t,
                        },
                    );
                }
            }
            st.outcome = Some(outcome);
            released = std::mem::take(&mut st.waiters);
        }
        loop {
            let st = map.get_mut(&map_key).expect("split state vanished");
            if let Some(out) = &st.outcome {
                let mine = out
                    .get(&grank)
                    .expect("rank missing from split outcome")
                    .clone();
                st.left += 1;
                if st.left == st.expected {
                    map.remove(&map_key);
                }
                // As in `barrier`: wake outside the map lock.
                drop(map);
                for tid in released {
                    self.mail.engine().wake(tid);
                }
                return mine;
            }
            // See `barrier` for the wake/poison ordering argument.
            st.waiters
                .push(sched::current_task().expect("rank outside an engine task"));
            drop(map);
            self.leave_if_poisoned();
            match self.mail.engine().block_current() {
                WakeReason::Woken => {}
                WakeReason::Quiescent => self.report_quiescent_deadlock(),
            }
            self.leave_if_poisoned();
            map = self.splits.lock();
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
