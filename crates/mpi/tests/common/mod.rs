//! Helpers shared by the integration tests that run real programs on every
//! carrier of the rank engine.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_mpi::{
    Abort, CheckSink, FaultPlan, FaultSink, Machine, RankCtx, SchedulerKind, Violation,
};
use std::sync::mpsc;
use std::time::Duration;

/// Every carrier this target has; the OS-thread one always exists.
pub fn carriers() -> Vec<SchedulerKind> {
    let mut all = vec![SchedulerKind::ThreadPerRank];
    if SchedulerKind::EventDriven.supported() {
        all.push(SchedulerKind::EventDriven);
    }
    all
}

pub fn machine(ranks: usize, kind: SchedulerKind) -> Machine {
    let nodes = ranks.div_ceil(8).max(1);
    let spec = ClusterSpec::test_cluster(nodes, 4); // 2×4 cores per node
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 42)
        .unwrap()
        .with_scheduler(kind)
}

/// Wall-clock budget for a leg that must abort. Vastly above the
/// sub-second normal case: hitting it means a hang, not a slow machine.
const ABORT_TIMEOUT: Duration = Duration::from_secs(120);

/// Run a program that must abort — under `plan`, if the cause is a planned
/// fault — on a watchdog thread, so a carrier that parks forever fails
/// this leg instead of stalling the suite, and return the cause plus the
/// checker's findings.
pub fn abort_of(
    ranks: usize,
    kind: SchedulerKind,
    checked: bool,
    plan: Option<FaultPlan>,
    body: impl Fn(&mut RankCtx) + Send + Sync + 'static,
) -> (Abort, Vec<Violation>) {
    let sink = if checked {
        CheckSink::enabled()
    } else {
        CheckSink::disabled()
    };
    let mut m = machine(ranks, kind).with_check(sink.clone());
    if let Some(plan) = plan {
        m = m.with_faults(FaultSink::with_plan(plan));
    }
    let leg = format!("{kind} engine, checked={checked}");
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(m.try_run(body).err());
    });
    let outcome = rx
        .recv_timeout(ABORT_TIMEOUT)
        .unwrap_or_else(|_| panic!("{leg}: run hung past {ABORT_TIMEOUT:?} instead of aborting"));
    run.join()
        .expect("try_run returns the abort, it does not panic");
    let abort = outcome.unwrap_or_else(|| panic!("{leg}: run must abort, but it completed"));
    (abort, sink.violations())
}
