//! Rank scheduling: one engine, one wait/wake protocol, two carriers.
//!
//! Every simulated rank is a task of one [`Engine`]. A rank that cannot
//! make progress — no matching envelope in its inbox, an incomplete
//! barrier or split — parks through `Registry::park`, the one caller of
//! `Engine::block_current`; whoever completes the condition (a sender,
//! the last arrival of a collective, a poisoned run's wake-all) calls
//! [`Engine::wake`]. There is no other way to wait anywhere in this
//! crate, and no timer: the engine counts runnable tasks, so it knows the
//! exact moment nothing can ever run again and reports it
//! ([`WakeReason::Quiescent`]) — whether the last runnable task blocked or
//! finished, the run then aborts as a deadlock (checked runs name the
//! wait-for cycle), never hangs.
//!
//! What a [`SchedulerKind`] selects is only what *carries* a task:
//!
//! * **Fibers** ([`SchedulerKind::EventDriven`]): stackful fibers
//!   multiplexed onto a small worker pool. Blocking switches stacks in
//!   user space (~12 instructions) instead of parking a kernel thread,
//!   which is what makes 10k–100k-rank simulations tractable and the
//!   message-bound campaigns about 3× faster on the host. The switch is
//!   hand-written x86_64 assembly and the stacks are one anonymous Linux
//!   mapping ([`SchedulerKind::supported`] says whether this build has
//!   them).
//! * **OS threads** ([`SchedulerKind::ThreadPerRank`]): every task's body
//!   runs on its own scoped thread and parks on a per-task condvar. No
//!   assembly and no `unsafe`, so it exists on every target, works under
//!   ThreadSanitizer and ordinary debuggers, and is the reference the
//!   cross-engine tests hold the fibers to — but the OS caps practical
//!   world sizes at a few thousand ranks.
//!
//! [`SchedulerKind::default`] is fibers wherever this build has them and
//! OS threads otherwise: the portable fallback, and what a
//! `--cfg greenla_no_fibers` (ThreadSanitizer) build runs.
//!
//! # The scheduler-invariance contract
//!
//! Virtual-time outcomes must be **bit-identical** across carriers:
//! traces, per-rank final clocks, violations, and fault reports. This
//! holds by construction because every timing decision is a function of
//! virtual clocks carried in envelopes and registry cells, never of
//! wall-clock scheduling — e.g. multi-source receives charge in sorted
//! `(arrival, src)` order regardless of delivery order, and fault delays
//! shift virtual arrival times rather than sleeping. The
//! `scheduler_invariance` harness test suite enforces the contract,
//! including under active fault plans and checked runs.

pub(crate) mod engine;
pub(crate) mod fiber;

pub(crate) use engine::current_task;
pub use engine::{Engine, WakeReason};

/// Panic if the calling rank holds a `parking_lot` guard as it enters
/// `point`: somewhere it may park, or that sweeps every inbox and task
/// lock. A parked rank keeps every lock it holds, and the peer that must
/// run to wake it then blocks on that lock, where the engine cannot see
/// it — a hang no schedule-based test reliably reproduces. Debug builds
/// count guards per thread (`parking_lot::guards_held`), so every lock of
/// every crate is checked on every path a test takes.
#[cfg(debug_assertions)]
#[track_caller]
pub(crate) fn assert_no_guard_held(point: &str) {
    let held = parking_lot::guards_held();
    assert!(
        held == 0,
        "{held} lock guard(s) held on entry to `{point}`: drop every guard before \
         blocking or aborting (a parked rank keeps the locks it holds)"
    );
}

/// What carries each rank of a [`crate::Machine::run`].
///
/// Selecting a carrier changes *only* wall-clock execution: how many OS
/// threads exist and what a blocked rank parks on. Everything observable
/// in virtual time is identical (see the module docs for the contract).
///
/// ```
/// use greenla_cluster::placement::{LoadLayout, Placement};
/// use greenla_cluster::spec::ClusterSpec;
/// use greenla_cluster::PowerModel;
/// use greenla_mpi::{Machine, SchedulerKind};
///
/// let spec = ClusterSpec::test_cluster(1, 4);
/// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
/// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1)
///     .unwrap()
///     .with_scheduler(SchedulerKind::EventDriven);
///
/// let out = machine.run(|ctx| {
///     let world = ctx.world();
///     ctx.barrier(&world);
///     ctx.allreduce_sum_f64(&world, &[1.0])[0]
/// });
/// assert!(out.results.iter().all(|&r| r == 8.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// One OS thread per rank: runs on every target, so it is the default
    /// where the build has no fibers, the ThreadSanitizer target, and the
    /// portable reference the fibers are held to.
    ThreadPerRank,
    /// Fibers over a small worker pool (the default wherever
    /// [`SchedulerKind::supported`]): about 3× faster on message-bound
    /// work and the only way to world sizes of 10k+ ranks. Needs the
    /// hand-written x86_64 switch and Linux's `mmap`.
    EventDriven,
}

impl Default for SchedulerKind {
    /// Fibers where this build has them, OS threads otherwise.
    fn default() -> Self {
        if SchedulerKind::EventDriven.supported() {
            SchedulerKind::EventDriven
        } else {
            SchedulerKind::ThreadPerRank
        }
    }
}

impl SchedulerKind {
    /// Can this build run the carrier? OS threads always; fibers on
    /// x86_64 Linux, unless the build passes `--cfg greenla_no_fibers`.
    pub fn supported(self) -> bool {
        match self {
            SchedulerKind::ThreadPerRank => true,
            SchedulerKind::EventDriven => fiber::supported(),
        }
    }

    /// Parse a CLI-style name: `thread` | `event`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "thread" => Some(SchedulerKind::ThreadPerRank),
            "event" => Some(SchedulerKind::EventDriven),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedulerKind::ThreadPerRank => "thread",
            SchedulerKind::EventDriven => "event",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for kind in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
            assert_eq!(SchedulerKind::parse(&kind.to_string()), Some(kind));
        }
        for other in ["fifo", "thread-per-rank", "event-driven"] {
            assert_eq!(SchedulerKind::parse(other), None);
        }
    }

    #[test]
    fn default_is_fibers_exactly_where_the_build_has_them() {
        // A `--cfg greenla_no_fibers` (ThreadSanitizer) build must still
        // default to OS threads.
        let default = SchedulerKind::default();
        assert_eq!(
            default == SchedulerKind::EventDriven,
            SchedulerKind::EventDriven.supported()
        );
        assert!(default.supported());
    }

    #[test]
    fn serde_names_are_stable() {
        // RunConfig serialises the scheduler; renaming variants would
        // silently invalidate saved campaign configs.
        let j = serde_json::to_string(&SchedulerKind::EventDriven).unwrap();
        assert_eq!(j, "\"EventDriven\"");
        let k: SchedulerKind = serde_json::from_str("\"ThreadPerRank\"").unwrap();
        assert_eq!(k, SchedulerKind::ThreadPerRank);
    }
}
