//! The abort-kind table: one broken mini-program per [`AbortKind`], run on
//! every carrier, checked and unchecked. Each must end the run as its
//! kind, on the rank where the cause occurred — whatever the other ranks
//! were blocked in when the run was poisoned under them.

mod common;

use common::{abort_of, carriers};
use greenla_mpi::AbortKind::{self, *};
use greenla_mpi::{CrashFault, CrashWhen, FaultPlan, RankCtx};

const RANKS: usize = 16;
/// The rank most rows kill.
const CULPRIT: usize = 3;

/// The culprit dies in `die`; everybody else waits on it, between them in
/// each of the three places a rank can block. The culprit stays runnable
/// until it dies, so no bystander can be deadlocked first.
fn culprit_dies(ctx: &mut RankCtx, die: impl FnOnce(&mut RankCtx)) {
    let world = ctx.world();
    match ctx.rank() {
        CULPRIT => die(ctx),
        r if r % 3 == 0 => drop(ctx.recv_f64(&world, CULPRIT, 1)),
        r if r % 3 == 1 => drop(ctx.split(&world, 0, r as u64)),
        _ => ctx.barrier(&world),
    }
}

/// A kind, the rank its cause occurs on (where the program pins it) and
/// the program.
type Row = (AbortKind, Option<usize>, fn(&mut RankCtx));

const TABLE: [Row; 8] = [
    // Under `crash_plan`, the culprit's second call is its last.
    (InjectedFault, Some(CULPRIT), |ctx| {
        culprit_dies(ctx, |ctx| (0..2).for_each(|_| ctx.compute(1_000, 0)))
    }),
    // Ranks 0 and 1 wait on each other, everyone else on them: any of the
    // sixteen may be the last to block and report.
    (Deadlock, None, |ctx| {
        let world = ctx.world();
        match ctx.rank() {
            0 => drop(ctx.recv_f64(&world, 1, 7)),
            1 => drop(ctx.recv_f64(&world, 0, 9)),
            _ => ctx.barrier(&world),
        }
    }),
    // Rank 1 waits for a message nobody sends while everyone else returns.
    // Whether it parks before or after the last peer finishes, it ends up
    // the only unfinished rank with nothing left to wake it: a deadlock.
    (Deadlock, Some(1), |ctx| {
        if ctx.rank() == 1 {
            let world = ctx.world();
            ctx.recv_f64(&world, 0, 1);
        }
    }),
    // Rank 5's odd buffer is combined by its tree parent.
    (CollectiveContract, Some(4), |ctx| {
        let len = if ctx.rank() == 5 { 3 } else { 2 };
        let world = ctx.world();
        ctx.reduce_sum_f64(&world, 0, vec![1.0; len]);
    }),
    // Ranks 0 and 1 pipeline 2^20 elements one per chunk: two more chunks
    // than the tag layout has ids for. The root refuses before it sends.
    (CollectiveContract, Some(0), |ctx| {
        let world = ctx.world();
        let pair = ctx.split(&world, u64::from(ctx.rank() > 1), 0);
        if ctx.rank() < 2 {
            let data = (ctx.rank() == 0).then(|| vec![0.0; 1 << 20]);
            ctx.bcast_pipelined_shared_f64(&pair, 0, data, 1);
        }
    }),
    (Solver, Some(CULPRIT), |ctx| {
        culprit_dies(ctx, |ctx| ctx.abort(Solver, "the solver gave up"))
    }),
    (Monitor, Some(CULPRIT), |ctx| {
        culprit_dies(ctx, |ctx| ctx.abort(Monitor, "the monitor gave up"))
    }),
    (Panic, Some(CULPRIT), |ctx| {
        culprit_dies(ctx, |_| panic!("the culprit hit a bug"))
    }),
];

#[test]
fn every_abort_kind_is_reported_as_itself_on_every_carrier() {
    let crash_plan = FaultPlan {
        crashes: vec![CrashFault {
            rank: CULPRIT,
            when: CrashWhen::AtCall { calls: 2 },
        }],
        ..Default::default()
    };
    for (kind, rank, program) in TABLE {
        for carrier in carriers() {
            for checked in [false, true] {
                let plan = (kind == InjectedFault).then(|| crash_plan.clone());
                let (abort, _) = abort_of(RANKS, carrier, checked, plan, program);
                let leg = format!("{kind:?} row, {carrier}, checked={checked}: {abort:?}");
                assert_eq!(abort.kind, kind, "{leg}");
                assert!(rank.is_none_or(|rank| rank == abort.rank), "{leg}");
            }
        }
    }
}
