//! The broken-program battery: each mini-program violates exactly one
//! checker rule and must trip exactly that diagnostic, while a clean
//! program using every collective stays violation-free. Also asserts the
//! checker's zero-interference property: a checked run's virtual timings
//! are bit-identical to an unchecked run's.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_mpi::{AbortKind, CheckSink, Machine, Rule};

fn checked_machine(ranks: usize) -> Machine {
    // Nodes of 2×4 cores for big runs; a 2-core node for the 2-rank
    // mini-programs (FullLoad placement needs ranks % node size == 0).
    let per_socket = if ranks < 8 { ranks.div_ceil(2) } else { 4 };
    let spec = ClusterSpec::test_cluster(ranks.div_ceil(2 * per_socket), per_socket);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 7)
        .unwrap()
        .with_check(CheckSink::enabled())
}

#[test]
fn send_recv_cycle_aborts_with_dl001_instead_of_hanging() {
    let m = checked_machine(2);
    let abort = m
        .try_run(|ctx| {
            let world = ctx.world();
            // Classic head-to-head deadlock: both ranks receive first.
            let peer = 1 - ctx.rank();
            ctx.recv_f64(&world, peer, 3);
            ctx.send_f64(&world, peer, 3, &[1.0]);
        })
        .err()
        .expect("deadlocked run must abort, not hang");
    assert_eq!(abort.kind, AbortKind::Deadlock);
    let violations = m.check().violations();
    let dl: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::Deadlock)
        .collect();
    assert_eq!(dl.len(), 1, "exactly one DL001: {violations:#?}");
    assert_eq!(dl[0].ranks, vec![0, 1]);
    assert_eq!(dl[0].rule.id(), "DL001");
    // The run dies with the runtime's report, which the checker records
    // as its DL001; the report spells out the cycle and the blocked
    // receives.
    let report = &dl[0].message;
    assert_eq!(&abort.detail, report);
    assert!(
        report.contains("cycle: 0 -> 1 -> 0") || report.contains("cycle: 1 -> 0 -> 1"),
        "cycle must be spelled out: {report}"
    );
    assert!(
        report.contains("recv(src=1, comm=0, tag=3)"),
        "blocked receives must be named with src/comm/tag: {report}"
    );
}

#[test]
fn skipped_barrier_names_the_finished_rank() {
    let m = checked_machine(2);
    let abort = m
        .try_run(|ctx| {
            let world = ctx.world();
            // Rank 0 forgets the barrier and finalizes early.
            if ctx.rank() == 1 {
                ctx.barrier(&world);
            }
        })
        .err()
        .expect("half-entered barrier must abort");
    assert_eq!((abort.kind, abort.rank), (AbortKind::Deadlock, 1));
    let violations = m.check().violations();
    let dl: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::Deadlock)
        .collect();
    assert_eq!(dl.len(), 1, "exactly one DL001: {violations:#?}");
    assert_eq!(abort.detail, dl[0].message);
    assert!(
        dl[0]
            .message
            .contains("rank 1 waits on rank 0, which has already finished"),
        "diagnostic must name the finished rank: {}",
        dl[0].message
    );
}

#[test]
fn mismatched_bcast_root_trips_coll001() {
    let m = checked_machine(2);
    m.run(|ctx| {
        let world = ctx.world();
        // Each rank believes IT is the broadcast root: the sends cross in
        // flight and nobody receives, so the run completes — silently wrong
        // without the checker.
        ctx.bcast_shared_f64(&world, ctx.rank(), Some(vec![ctx.rank() as f64]));
    });
    let violations = m.check().violations();
    let coll: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::CollectiveMismatch)
        .collect();
    assert_eq!(coll.len(), 1, "exactly one COLL001: {violations:#?}");
    assert_eq!(coll[0].ranks, vec![0, 1]);
    assert!(
        coll[0].message.contains("root=0") && coll[0].message.contains("root=1"),
        "both roots must be named: {}",
        coll[0].message
    );
    // The crossed sends are also caught as mailbox residue at finalize.
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.rule == Rule::MessageLeak)
            .count(),
        2,
        "both undelivered broadcast messages leak: {violations:#?}"
    );
}

#[test]
fn unreceived_message_trips_msg001_with_src_dst_tag() {
    let m = checked_machine(2);
    m.run(|ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            ctx.send_f64(&world, 1, 42, &[1.0, 2.0]);
        }
        // Rank 1 never posts the matching receive.
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    assert_eq!(violations.len(), 1, "exactly one MSG001: {violations:#?}");
    let v = &violations[0];
    assert_eq!(v.rule, Rule::MessageLeak);
    assert_eq!(v.rule.id(), "MSG001");
    assert_eq!(v.ranks, vec![0, 1], "sender and receiver are both named");
    assert!(
        v.message.contains("from rank 0") && v.message.contains("tag 42"),
        "source and tag must be named: {}",
        v.message
    );
    assert!(!v.suggestion.is_empty(), "every rule carries a fix hint");
}

#[test]
fn a_message_passed_over_by_a_receive_still_leaks_at_finalize() {
    // Rank 1's receive of tag 43 searches past tag 42, which arrived
    // first; the envelope it passes over must still be audited.
    let m = checked_machine(2);
    m.run(|ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            ctx.send_f64(&world, 1, 42, &[1.0]);
            ctx.send_f64(&world, 1, 43, &[2.0]);
        } else {
            assert_eq!(ctx.recv_f64(&world, 0, 43), vec![2.0]);
        }
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    assert_eq!(violations.len(), 1, "exactly one MSG001: {violations:#?}");
    let v = &violations[0];
    assert_eq!(v.rule, Rule::MessageLeak);
    assert!(
        v.message.contains("from rank 0") && v.message.contains("tag 42"),
        "the passed-over message is the leak: {}",
        v.message
    );
}

#[test]
fn clean_program_with_every_collective_is_violation_free() {
    let m = checked_machine(16);
    m.run(|ctx| {
        let world = ctx.world();
        ctx.compute(1_000_000 * (1 + ctx.rank() as u64), 128);
        ctx.barrier(&world);
        // Matched point-to-point ring.
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send_f64(&world, next, 9, &[ctx.rank() as f64]);
        ctx.recv_f64(&world, prev, 9);
        // Every collective the runtime offers.
        ctx.bcast_shared_f64(&world, 2, (ctx.rank() == 2).then(|| vec![1.0; 64]));
        let big = (ctx.rank() == 0).then(|| vec![2.0; 4096]);
        ctx.bcast_pipelined_shared_f64(&world, 0, big, 256);
        ctx.bcast_shared_u64(&world, 1, (ctx.rank() == 1).then(|| vec![7; 8]));
        ctx.reduce_sum_f64(&world, 1, vec![ctx.rank() as f64]);
        ctx.allreduce_sum_f64(&world, &[1.0]);
        ctx.allreduce_maxloc_abs(&world, ctx.rank() as f64, ctx.rank() as u64);
        ctx.gather_f64(&world, 0, &[ctx.rank() as f64]);
        ctx.allgather_f64(&world, &[ctx.rank() as f64]);
        let node_comm = ctx.split_shared(&world);
        ctx.barrier(&node_comm);
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    assert!(
        violations.is_empty(),
        "clean program must produce no diagnostics: {violations:#?}"
    );
}

#[test]
fn checked_run_timings_are_bit_identical_to_unchecked() {
    let program = |ctx: &mut greenla_mpi::RankCtx| {
        let world = ctx.world();
        ctx.compute(10_000_000 * (1 + ctx.rank() as u64 % 3), 512);
        ctx.barrier(&world);
        let buf = (ctx.rank() == 0).then(|| vec![1.5; 2048]);
        ctx.bcast_pipelined_shared_f64(&world, 0, buf, 128);
        ctx.allreduce_sum_f64(&world, &[ctx.rank() as f64]);
        ctx.now()
    };
    let run = |check: bool| {
        let spec = ClusterSpec::test_cluster(2, 4);
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 7).unwrap();
        if check {
            m = m.with_check(CheckSink::enabled());
        }
        let out = m.run(program);
        assert!(m.check().violations().is_empty());
        (out.makespan, out.results)
    };
    let (makespan_checked, clocks_checked) = run(true);
    let (makespan_plain, clocks_plain) = run(false);
    assert_eq!(
        makespan_checked.to_bits(),
        makespan_plain.to_bits(),
        "checking must not perturb the virtual clock"
    );
    for (a, b) in clocks_checked.iter().zip(&clocks_plain) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
