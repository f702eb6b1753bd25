//! The rank engine, end to end, over both carriers: parity of fibers with
//! OS threads on real programs, exact deadlock detection without timed
//! polls, abort behaviour that never hangs on either carrier, and
//! world sizes only fibers can reach.
//!
//! Fibers exist where `SchedulerKind::EventDriven.supported()` (the
//! switch is hand-written x86_64 assembly); the fiber-only tests return
//! early elsewhere, and the both-carrier tests run the OS-thread leg
//! everywhere.

mod common;

use common::{abort_of, carriers, machine};
use greenla_mpi::{
    AbortKind, CheckSink, CrashFault, CrashWhen, FaultPlan, FaultSink, MsgFault, MsgFaultKind,
    RankCtx, Rule, SchedulerKind,
};

fn fibers() -> bool {
    SchedulerKind::EventDriven.supported()
}

/// A rank program that exercises every blocking path: compute, matched
/// sends/receives around a ring, barriers, and the registry split, plus
/// reductions that take the tree or ring path depending on size.
fn workout(ctx: &mut RankCtx) -> (f64, Vec<f64>) {
    let world = ctx.world();
    let r = ctx.rank();
    let p = ctx.size();
    ctx.compute(1_000_000 * (r as u64 % 7 + 1), 4096);
    ctx.barrier(&world);
    // Ring shift: send to the right, receive from the left.
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    if r % 2 == 0 {
        ctx.send_f64(&world, right, 5, &[r as f64]);
        let got = ctx.recv_f64(&world, left, 5);
        assert_eq!(got, vec![left as f64]);
    } else {
        let got = ctx.recv_f64(&world, left, 5);
        assert_eq!(got, vec![left as f64]);
        ctx.send_f64(&world, right, 5, &[r as f64]);
    }
    let node_comm = ctx.split_shared(&world);
    ctx.barrier(&node_comm);
    let sums = ctx.allreduce_sum_f64(&world, &[1.0, r as f64]);
    ctx.barrier(&world);
    (ctx.now(), sums)
}

#[test]
fn engines_agree_bit_for_bit_on_a_full_workout() {
    if !fibers() {
        return;
    }
    let p = 64;
    let thread = machine(p, SchedulerKind::ThreadPerRank).run(workout);
    let event = machine(p, SchedulerKind::EventDriven).run(workout);
    assert_eq!(thread.makespan.to_bits(), event.makespan.to_bits());
    for r in 0..p {
        assert_eq!(
            thread.final_clocks[r].to_bits(),
            event.final_clocks[r].to_bits(),
            "rank {r} clock diverged"
        );
        assert_eq!(thread.results[r].1, event.results[r].1, "rank {r} sums");
    }
    assert_eq!(thread.traffic.msgs, event.traffic.msgs);
    assert_eq!(thread.traffic.bytes, event.traffic.bytes);
}

#[test]
fn checked_thousand_rank_run_is_clean() {
    for kind in carriers() {
        let sink = CheckSink::enabled();
        let m = machine(1000, kind).with_check(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            ctx.compute(100_000, 0);
            ctx.barrier(&world);
            let s = ctx.allreduce_sum_f64(&world, &[1.0]);
            ctx.barrier(&world);
            s[0]
        });
        assert!(out.results.iter().all(|&s| s == 1000.0));
        assert!(
            sink.violations().is_empty(),
            "{kind}: clean program must check clean: {:?}",
            sink.violations()
        );
    }
}

/// Ranks 0 and 1 wait on each other; everyone else blocks in a world
/// barrier the pair never joins.
fn recv_cycle(ctx: &mut RankCtx) {
    let world = ctx.world();
    match ctx.rank() {
        0 => {
            ctx.recv_f64(&world, 1, 7);
        }
        1 => {
            ctx.recv_f64(&world, 0, 9);
        }
        _ => ctx.barrier(&world),
    }
}

#[test]
fn recv_deadlock_aborts_exactly_with_the_cycle_named() {
    // No poll, no grace timer, on either carrier: the engine's quiescence
    // signal runs the probe the moment the last task blocks.
    for kind in carriers() {
        let (abort, v) = abort_of(1000, kind, true, None, recv_cycle);
        assert_eq!(abort.kind, AbortKind::Deadlock, "{kind}: {abort}");
        let dl: Vec<_> = v.iter().filter(|v| v.rule == Rule::Deadlock).collect();
        assert_eq!(dl.len(), 1, "{kind}: exactly one DL001: {v:?}");
        assert_eq!(
            abort.detail, dl[0].message,
            "{kind}: the abort is the report"
        );
        assert!(
            dl[0].message.contains("cycle: 0 -> 1 -> 0")
                || dl[0].message.contains("cycle: 1 -> 0 -> 1"),
            "{kind}: cycle must be named: {}",
            dl[0].message
        );
    }
}

#[test]
fn unchecked_deadlock_aborts_instead_of_hanging() {
    // Same shape without the checker: quiescence is exact on both
    // carriers, so the run aborts just the same, minus the cycle.
    for kind in carriers() {
        let (abort, _) = abort_of(64, kind, false, None, recv_cycle);
        assert_eq!(abort.kind, AbortKind::Deadlock, "{kind}: {abort}");
    }
}

#[test]
fn barrier_one_rank_never_enters_aborts() {
    for kind in carriers() {
        for checked in [false, true] {
            let (abort, v) = abort_of(64, kind, checked, None, |ctx| {
                let world = ctx.world();
                if ctx.rank() != 5 {
                    ctx.barrier(&world);
                }
            });
            let leg = format!("{kind}, checked={checked}: {abort}");
            assert_eq!(abort.kind, AbortKind::Deadlock, "{leg}");
            assert_ne!(
                abort.rank, 5,
                "{leg}: the reporter was blocked in the barrier"
            );
            if checked {
                let dl: Vec<_> = v.iter().filter(|v| v.rule == Rule::Deadlock).collect();
                assert_eq!(dl.len(), 1, "{leg}: {v:?}");
                assert!(dl[0].message.contains("waiting for ranks [5]"), "{leg}");
            }
        }
    }
}

#[test]
fn rank_panic_unblocks_ranks_in_recv_barrier_and_split() {
    // Rank 3 queues an unmatched message for rank 5 before it lets rank 0
    // reach its panic, so rank 5's wait wakes to traffic that is not the
    // message it awaits: only the poison flag can make it leave.
    for kind in carriers() {
        for checked in [false, true] {
            let (abort, _) = abort_of(64, kind, checked, None, |ctx| {
                let world = ctx.world();
                match ctx.rank() {
                    0 => {
                        ctx.recv_f64(&world, 3, 3);
                        panic!("rank 0 hit a bug")
                    }
                    1 | 5 => {
                        ctx.recv_f64(&world, 0, 1);
                    }
                    3 => {
                        ctx.send_f64(&world, 5, 2, &[3.0]);
                        ctx.send_f64(&world, 0, 3, &[3.0]);
                        ctx.barrier(&world);
                    }
                    r if r % 2 == 0 => {
                        ctx.split(&world, 0, r as u64);
                    }
                    _ => ctx.barrier(&world),
                }
            });
            assert_eq!(
                (abort.kind, abort.rank, abort.detail.as_str()),
                (AbortKind::Panic, 0, "rank 0 hit a bug"),
                "{kind}, checked={checked}: the root cause wins over casualties"
            );
        }
    }
}

#[test]
fn a_receiver_left_alone_by_finished_peers_aborts_as_deadlock() {
    // Rank 1 waits on a message nobody will ever send while everyone
    // else returns. Whether it parks before or after the last peer
    // finishes, it is the last to block with nothing left to wake it:
    // one kind of stuck run, on rank 1, and with the checker attached the
    // probe names the finished peer.
    for kind in carriers() {
        for checked in [false, true] {
            let (abort, v) = abort_of(64, kind, checked, None, |ctx| {
                let world = ctx.world();
                if ctx.rank() == 1 {
                    ctx.recv_f64(&world, 0, 1);
                }
            });
            let leg = format!("{kind}, checked={checked}: {abort}");
            assert_eq!((abort.kind, abort.rank), (AbortKind::Deadlock, 1), "{leg}");
            if checked {
                assert!(
                    v.iter().any(|v| v.rule == Rule::Deadlock
                        && v.message.contains("rank 1 waits on rank 0")),
                    "{leg}: {v:?}"
                );
            }
        }
    }
}

#[test]
fn fault_reports_and_clocks_match_across_engines() {
    if !fibers() {
        return;
    }
    let plan = || FaultPlan {
        messages: vec![
            MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop { count: 2 },
            },
            MsgFault {
                src: 2,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: 0.25 },
            },
            MsgFault {
                src: 3,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
        ],
        ..Default::default()
    };
    let program = |ctx: &mut RankCtx| {
        let world = ctx.world();
        let r = ctx.rank();
        let p = ctx.size();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        if r % 2 == 0 {
            ctx.send_f64(&world, right, 3, &[r as f64]);
            ctx.recv_f64(&world, left, 3);
        } else {
            ctx.recv_f64(&world, left, 3);
            ctx.send_f64(&world, right, 3, &[r as f64]);
        }
        ctx.barrier(&world);
        ctx.now()
    };
    let run = |kind: SchedulerKind| {
        let sink = FaultSink::with_plan(plan());
        let m = machine(16, kind).with_faults(sink.clone());
        let out = m.run(program);
        (out.results.clone(), sink.report())
    };
    let (clocks_t, rep_t) = run(SchedulerKind::ThreadPerRank);
    let (clocks_e, rep_e) = run(SchedulerKind::EventDriven);
    for (a, b) in clocks_t.iter().zip(&clocks_e) {
        assert_eq!(a.to_bits(), b.to_bits(), "faulted clocks diverged");
    }
    assert_eq!(rep_t.injected, rep_e.injected);
    assert_eq!(rep_t.recovered, rep_e.recovered);
    assert_eq!(rep_t.observed, rep_e.observed);
}

#[test]
fn planned_crash_aborts_checked_event_runs() {
    for kind in carriers() {
        for checked in [false, true] {
            let plan = FaultPlan {
                crashes: vec![CrashFault {
                    rank: 3,
                    when: CrashWhen::AtCall { calls: 2 },
                }],
                ..Default::default()
            };
            let (abort, _) = abort_of(64, kind, checked, Some(plan), |ctx| {
                let world = ctx.world();
                ctx.compute(1_000, 0);
                ctx.compute(1_000, 0);
                ctx.barrier(&world);
            });
            assert_eq!(
                (abort.kind, abort.rank),
                (AbortKind::InjectedFault, 3),
                "{kind}, checked={checked}: {abort}"
            );
        }
    }
}

#[test]
fn ten_thousand_rank_smoke_spins_up_and_synchronises() {
    // What fibers are for: a world size OS threads cannot reach (10k of
    // them would exhaust default process limits). Spin-up, a barrier
    // storm, one bcast, and an allreduce — then verify everyone agrees.
    if !fibers() {
        return;
    }
    let p = 10_000;
    let m = machine(p, SchedulerKind::EventDriven).with_sched_workers(4);
    let out = m.run(|ctx| {
        let world = ctx.world();
        for _ in 0..3 {
            ctx.barrier(&world);
        }
        let root_word = ctx.bcast_shared_f64(&world, 0, (ctx.rank() == 0).then(|| vec![42.0]));
        let total = ctx.allreduce_sum_f64(&world, &[1.0]);
        ctx.barrier(&world); // aligns every clock to the same release time
        (root_word[0], total[0])
    });
    assert_eq!(out.results.len(), p);
    assert!(out.results.iter().all(|&(w, t)| w == 42.0 && t == p as f64));
    let clock0 = out.final_clocks[0];
    assert!(out.final_clocks.iter().all(|&c| (c - clock0).abs() < 1e-9));
}
