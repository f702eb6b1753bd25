//! No lock guard across a yield point, held at run time
//! (`sched::assert_no_guard_held`): the engine refuses to park — and the
//! registry to abort — a rank that holds a `parking_lot` guard.
//!
//! The programs are the shapes a lexical rule used to look for, run for
//! real on every carrier. Rank 1 is the one under test; the bad programs
//! wait for a tag nobody sends, so their receive reaches
//! `Engine::block_current` on every schedule.
#![cfg(debug_assertions)]

mod common;

use common::{abort_of, carriers, machine};
use greenla_mpi::{AbortKind, RankCtx};
use parking_lot::Mutex;

/// The tag rank 0 sends, and one nobody does.
const SENT: u64 = 1;
const NEVER: u64 = 2;

/// One node's worth, the smallest machine `common::machine` places.
const RANKS: usize = 8;

/// What rank 1 does with its locks around a blocking call.
type Shape = fn(&mut RankCtx);

/// Rank 1 runs `shape`; rank 0 sends it the one message it may wait for.
fn program(ctx: &mut RankCtx, shape: Shape) {
    let world = ctx.world();
    match ctx.rank() {
        0 => ctx.send_f64(&world, 1, SENT, &[1.0]),
        1 => shape(ctx),
        _ => {}
    }
}

fn blocking_recv(ctx: &mut RankCtx, tag: u64) {
    let world = ctx.world();
    ctx.recv_f64(&world, 0, tag);
}

/// Two guards live across a blocking receive.
fn bad_hold(ctx: &mut RankCtx) {
    let (state, other) = (Mutex::new(false), Mutex::new(0));
    let (_st, _other) = (state.lock(), other.lock());
    blocking_recv(ctx, NEVER);
}

/// Dropped, then taken again before blocking.
fn bad_revive(ctx: &mut RankCtx) {
    let state = Mutex::new(false);
    let mut st = state.lock();
    drop(st);
    st = state.lock();
    blocking_recv(ctx, NEVER);
    drop(st);
}

/// A guard live across the one way a rank dies.
fn bad_abort(ctx: &mut RankCtx) {
    let state = Mutex::new(false);
    let _st = state.lock();
    ctx.abort(AbortKind::Solver, "gave up under a guard");
}

fn good_drop(ctx: &mut RankCtx) {
    let state = Mutex::new(false);
    let st = state.lock();
    let ready = *st;
    drop(st);
    if !ready {
        blocking_recv(ctx, SENT);
    }
}

fn good_scope(ctx: &mut RankCtx) {
    let state = Mutex::new(false);
    {
        let mut st = state.lock();
        *st = true;
    }
    blocking_recv(ctx, SENT);
}

#[test]
fn a_rank_holding_a_guard_at_a_yield_point_panics_with_the_count() {
    let bad: [(Shape, usize, &str); 3] = [
        (bad_hold, 2, "Engine::block_current"),
        (bad_revive, 1, "Engine::block_current"),
        // Refused before the poison sweep: the rank's own `Solver` cause
        // never gets on record.
        (bad_abort, 1, "Registry::abort"),
    ];
    for (shape, held, point) in bad {
        let finding = format!("{held} lock guard(s) held on entry to `{point}`");
        for carrier in carriers() {
            let (abort, _) = abort_of(RANKS, carrier, false, None, move |ctx| program(ctx, shape));
            let leg = format!("{carrier}: {abort:?}");
            assert_eq!((abort.kind, abort.rank), (AbortKind::Panic, 1), "{leg}");
            assert!(abort.detail.contains(&finding), "{leg}");
        }
    }
}

#[test]
fn a_rank_that_let_go_before_blocking_completes() {
    for shape in [good_drop as Shape, good_scope] {
        for carrier in carriers() {
            machine(RANKS, carrier).run(move |ctx| program(ctx, shape));
        }
    }
}
