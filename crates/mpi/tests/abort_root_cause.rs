//! An abort names its root cause, every time, and says it once.
//!
//! The cause is recorded before the run is poisoned, so a rank the poison
//! unblocks can never be reported in its place — however the host
//! schedules the race — and casualties leave without firing the panic
//! hook. The second test counts hook firings, which is process-global
//! state: this file is its own test binary for that reason.

mod common;

use common::{abort_of, carriers, machine};
use greenla_mpi::{AbortKind, CrashFault, CrashWhen, FaultPlan, FaultSink, RankCtx, Rule};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rank 0 forgets the world barrier everyone else enters.
fn rank_0_skips_the_barrier(ctx: &mut RankCtx) {
    let world = ctx.world();
    if ctx.rank() != 0 {
        ctx.barrier(&world);
    }
}

#[test]
fn a_skipped_barrier_is_always_reported_as_the_deadlock_it_is() {
    // The reporter is whichever rank blocks last; the moment it poisons
    // the run, up to 63 peers wake and leave. None of them may win.
    for kind in carriers() {
        for ranks in [8, 64] {
            for rep in 0..50 {
                let (abort, _) = abort_of(ranks, kind, false, None, rank_0_skips_the_barrier);
                let leg = format!("{kind}, P={ranks}, rep {rep}: {abort}");
                assert_eq!(abort.kind, AbortKind::Deadlock, "{leg}");
                assert!(
                    (1..ranks).contains(&abort.rank),
                    "{leg}: rank 0 never blocked"
                );
            }
            // Checked, the cause is the probe's wait-for report, verbatim.
            let (abort, violations) = abort_of(ranks, kind, true, None, rank_0_skips_the_barrier);
            let reports: Vec<_> = violations
                .iter()
                .filter(|v| v.rule == Rule::Deadlock)
                .collect();
            assert_eq!(reports.len(), 1, "{kind}, P={ranks}: {violations:?}");
            assert_eq!(
                abort.kind,
                AbortKind::Deadlock,
                "{kind}, P={ranks}: {abort}"
            );
            assert_eq!(abort.detail, reports[0].message, "{kind}, P={ranks}");
        }
    }
}

#[test]
fn an_aborted_run_fires_the_panic_hook_only_when_run_panics() {
    static FIRED: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        FIRED.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));
    let crashing_machine = |kind| {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                rank: 3,
                when: CrashWhen::AtCall { calls: 2 },
            }],
            ..Default::default()
        };
        machine(16, kind).with_faults(FaultSink::with_plan(plan))
    };
    let program = |ctx: &mut RankCtx| {
        let world = ctx.world();
        ctx.compute(1_000, 0);
        ctx.compute(1_000, 0);
        ctx.barrier(&world);
    };
    for kind in carriers() {
        let before = FIRED.load(Ordering::SeqCst);
        let abort = crashing_machine(kind).try_run(program).err();
        assert_eq!(abort.map(|a| a.kind), Some(AbortKind::InjectedFault));
        assert_eq!(
            FIRED.load(Ordering::SeqCst) - before,
            0,
            "{kind}: try_run hands the abort back; nobody panics"
        );
        let run = catch_unwind(AssertUnwindSafe(|| crashing_machine(kind).run(program)));
        assert!(run.is_err(), "{kind}: run panics with the abort");
        assert_eq!(
            FIRED.load(Ordering::SeqCst) - before,
            1,
            "{kind}: run panics once, on the caller's thread"
        );
    }
    let _ = std::panic::take_hook();
}
