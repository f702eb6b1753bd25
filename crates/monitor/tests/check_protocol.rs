//! Monitor-protocol conformance under the greenla-check sink: the real
//! Figure-2 choreography must be violation-free, and intentionally broken
//! variants must trip exactly the monitor rules (MON001/MON003/MON004).

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::monitored_run;
use greenla_mpi::{CheckSink, Machine, MonitorStep, RankEvent, Rule, SchedulerKind};
use greenla_rapl::RaplSim;
use std::sync::Arc;

fn checked_machine(nodes: usize, ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(nodes, 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 21)
        .unwrap()
        .with_check(CheckSink::enabled())
}

#[test]
fn figure_2_protocol_is_violation_free() {
    let m = checked_machine(2, 16);
    let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), m.seed()));
    m.run(|ctx| {
        monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, handle| {
            ctx.compute(5_000_000 * (1 + ctx.rank() as u64), 256);
            handle.phase(ctx, "execution").unwrap();
        })
        .unwrap()
    });
    let violations = m.check().violations();
    assert!(
        violations.is_empty(),
        "clean monitored run must produce no diagnostics: {violations:#?}"
    );
}

#[test]
fn wrong_designation_trips_mon001() {
    let m = checked_machine(1, 8);
    m.run(|ctx| {
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::Monitor(MonitorStep::NodeComm(node_comm.id())));
        ctx.barrier(&node_comm);
        // Broken program: the LOWEST rank starts the counters instead of
        // the node's highest rank.
        if ctx.rank() == 0 {
            ctx.emit(RankEvent::Monitor(MonitorStep::Start));
        }
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    let mon001: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorDesignation)
        .collect();
    assert_eq!(mon001.len(), 1, "exactly one MON001: {violations:#?}");
    assert_eq!(mon001[0].ranks, vec![0]);
    assert_eq!(mon001[0].rule.id(), "MON001");
    assert!(
        mon001[0].message.contains("highest rank 7"),
        "diagnostic must name the designated rank: {}",
        mon001[0].message
    );
}

#[test]
fn barrierless_finish_trips_mon003_and_mon004() {
    let m = checked_machine(1, 8);
    m.run(|ctx| {
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::Monitor(MonitorStep::NodeComm(node_comm.id())));
        ctx.barrier(&node_comm);
        if node_comm.is_highest() {
            ctx.emit(RankEvent::Monitor(MonitorStep::Start));
        }
        ctx.barrier(&world);
        // Rank 0 works far longer than the monitoring rank.
        let flops = if ctx.rank() == 0 {
            200_000_000u64
        } else {
            1_000_000
        };
        ctx.compute(flops, 0);
        // Broken program: the monitoring rank stops the counters at its OWN
        // finish time, without the node barrier Figure 2 requires.
        if node_comm.is_highest() {
            ctx.emit(RankEvent::Monitor(MonitorStep::End));
        }
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    let mon003: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorBarrierBeforeEnd)
        .collect();
    assert_eq!(mon003.len(), 1, "exactly one MON003: {violations:#?}");
    assert_eq!(mon003[0].ranks, vec![7]);
    assert!(
        mon003[0].message.contains("node barrier"),
        "diagnostic must explain the missing barrier: {}",
        mon003[0].message
    );
    // The under-covered window is also caught: rank 0's work straddles the
    // premature measurement end.
    let mon004: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorWindowStraddle)
        .collect();
    assert_eq!(mon004.len(), 1, "exactly one MON004: {violations:#?}");
    assert_eq!(mon004[0].ranks, vec![0]);
    assert!(
        mon004[0].message.contains("missed"),
        "diagnostic must quantify the missed work: {}",
        mon004[0].message
    );
}

#[test]
fn mon004_is_wake_order_free() {
    // The barrier-less finish again, but rank 0 computes twice after the
    // premature end: its first span straddles it, its second starts past
    // it. Which of the two a rank's last hook saw used to depend on the
    // wake order; read from the ledger after the run, every run on every
    // carrier names rank 0 exactly once. The program trips MON003 too, and
    // every run gives the same verdicts in the same order.
    let mut carriers = vec![(SchedulerKind::ThreadPerRank, None)];
    if SchedulerKind::EventDriven.supported() {
        carriers.extend([1, 2, 8].map(|w| (SchedulerKind::EventDriven, Some(w))));
    }
    let mut first = None;
    for (kind, workers) in carriers {
        for rep in 0..20 {
            let mut m = checked_machine(1, 8).with_scheduler(kind);
            if let Some(w) = workers {
                m = m.with_sched_workers(w);
            }
            m.run(|ctx| {
                let world = ctx.world();
                let node_comm = ctx.split_shared(&world);
                ctx.emit(RankEvent::Monitor(MonitorStep::NodeComm(node_comm.id())));
                ctx.barrier(&node_comm);
                if node_comm.is_highest() {
                    ctx.emit(RankEvent::Monitor(MonitorStep::Start));
                }
                ctx.barrier(&world);
                if ctx.rank() == 0 {
                    ctx.compute(200_000_000, 0);
                    ctx.compute(1_000_000, 0);
                } else {
                    ctx.compute(1_000_000, 0);
                }
                if node_comm.is_highest() {
                    ctx.emit(RankEvent::Monitor(MonitorStep::End));
                }
            });
            let violations = m.check().violations();
            let mon004: Vec<_> = violations
                .iter()
                .filter(|v| v.rule == Rule::MonitorWindowStraddle)
                .collect();
            let leg = format!("{kind}, workers {workers:?}, rep {rep}: {violations:#?}");
            assert_eq!(mon004.len(), 1, "exactly one MON004 on {leg}");
            assert_eq!(mon004[0].ranks, vec![0], "{leg}");
            let first = first.get_or_insert_with(|| violations.clone());
            assert_eq!(&violations, first, "{leg}");
        }
    }
}
