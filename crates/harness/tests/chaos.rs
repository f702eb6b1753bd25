//! The chaos battery: a seeded grid of fault plans against all three
//! solvers, proving the recovery story end to end. Every plan must
//! terminate — recover (correct answer + fault accounting), degrade (nodes
//! drop to unmeasured), or abort with a typed cause: any [`AbortKind`] but
//! `Panic` is a legitimate death. No hangs, no silent wrong answers.
//!
//! Each run executes on a watchdog thread with a generous wall-clock
//! budget; a run that neither finishes nor aborts within it fails the
//! battery loudly. Set `CHAOS_REPORT_DIR` to collect the per-plan
//! [`FaultReport`]s and abort causes as a JSON artifact (CI uploads them).

use greenla_cluster::placement::LoadLayout;
use greenla_harness::run::{run_once, run_prepared, Inputs, Measurement, RunConfig};
use greenla_harness::SolverChoice;
use greenla_linalg::generate::SystemKind;
use greenla_mpi::{
    Abort, AbortKind, CounterFault, CounterFaultKind, CrashFault, CrashWhen, FaultPlan,
    FaultReport, MsgFault, MsgFaultKind, PlanShape, TraceSink,
};
use serde::Serialize;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const N: usize = 64;
const RANKS: usize = 16;
/// Wall-clock budget per chaos run. Vastly above the sub-second normal
/// case: hitting it means a genuine hang, not a slow machine.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

fn chaos_cfg(solver: SolverChoice, plan: FaultPlan) -> RunConfig {
    // CG runs on the 8×8 Poisson stencil (N = 64 is a perfect square), the
    // sparse workload it exists for; the dense solvers keep DiagDominant.
    let system = match solver {
        SolverChoice::Cg { .. } => SystemKind::Poisson2d,
        _ => SystemKind::DiagDominant,
    };
    RunConfig {
        n: N,
        ranks: RANKS,
        layout: LoadLayout::FullLoad,
        solver,
        system,
        cores_per_socket: 4,
        seed: 77,
        check: true,
        faults: Some(plan),
        scheduler: Default::default(),
        batch: 1,
        cg_overlap: true,
    }
}

/// Run one configuration to completion or abort on a watchdog thread; a
/// run that does neither within [`RUN_TIMEOUT`] is a hang and fails here.
fn run_with_watchdog(tag: &str, cfg: RunConfig) -> Result<Measurement, Abort> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = run_prepared(&cfg, &Inputs::prepare(&cfg), TraceSink::disabled());
        let _ = tx.send(run.map(|run| run.measurement));
    });
    match rx.recv_timeout(RUN_TIMEOUT) {
        Ok(outcome) => outcome,
        Err(RecvTimeoutError::Timeout) => {
            panic!("chaos run {tag} hung past {RUN_TIMEOUT:?} — the no-hang guarantee broke")
        }
        Err(RecvTimeoutError::Disconnected) => {
            panic!("chaos run {tag} panicked in the harness, outside every rank body")
        }
    }
}

/// One battery entry for the JSON artifact.
#[derive(Serialize)]
struct ChaosRecord {
    seed: u64,
    solver: String,
    outcome: &'static str,
    kind: Option<AbortKind>,
    rank: Option<usize>,
    diagnostic: Option<String>,
    fault_report: Option<FaultReport>,
}

#[test]
fn chaos_battery_every_plan_terminates_with_stable_outcome() {
    let shape = PlanShape {
        ranks: RANKS,
        nodes: 2,
        n: N,
    };
    let mut records = Vec::new();
    let (mut completed, mut aborted) = (0usize, 0usize);
    for seed in 0..50u64 {
        for solver in [
            SolverChoice::ime_optimized(),
            SolverChoice::scalapack(),
            SolverChoice::cg(),
        ] {
            let plan = FaultPlan::seeded(seed, &shape);
            assert!(!plan.is_empty(), "seeded plans always inject something");
            let tag = format!("seed{seed}-{}", solver.label());
            match run_with_watchdog(&tag, chaos_cfg(solver, plan)) {
                Ok(m) => {
                    completed += 1;
                    assert!(
                        m.residual < 1e-6,
                        "{tag}: silent wrong answer (residual {})",
                        m.residual
                    );
                    let rep = m
                        .fault_report
                        .clone()
                        .expect("a faulted run carries its fault report");
                    records.push(ChaosRecord {
                        seed,
                        solver: solver.label().into(),
                        outcome: "completed",
                        kind: None,
                        rank: None,
                        diagnostic: None,
                        fault_report: Some(rep),
                    });
                }
                Err(abort) => {
                    aborted += 1;
                    assert_ne!(
                        abort.kind,
                        AbortKind::Panic,
                        "{tag}: rank {} panicked instead of aborting: {abort}",
                        abort.rank
                    );
                    records.push(ChaosRecord {
                        seed,
                        solver: solver.label().into(),
                        outcome: "aborted",
                        kind: Some(abort.kind),
                        rank: Some(abort.rank),
                        diagnostic: Some(abort.detail),
                        fault_report: None,
                    });
                }
            }
        }
    }
    assert_eq!(completed + aborted, 150, "every plan terminated");
    // The seeded mix guarantees both fates appear: ~40% of plans carry a
    // fatal fault, the rest are recoverable.
    assert!(completed > 0, "some plans must recover");
    assert!(aborted > 0, "some plans must abort");
    // CG specifically must show both fates: recovery proves the halo
    // retry path, abort proves its breakdowns die as typed causes.
    for outcome in ["completed", "aborted"] {
        assert!(
            records
                .iter()
                .any(|r| r.solver == "CG" && r.outcome == outcome),
            "no CG plan {outcome}"
        );
    }
    if let Some(dir) = std::env::var_os("CHAOS_REPORT_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create chaos report dir");
        let text = serde_json::to_string_pretty(&records).expect("serialise chaos records");
        std::fs::write(dir.join("chaos_reports.json"), text + "\n").expect("write chaos records");
    }
}

#[test]
fn drop_burst_past_retry_budget_aborts_end_to_end() {
    let plan = FaultPlan {
        messages: vec![MsgFault {
            src: 0,
            nth_send: 0,
            kind: MsgFaultKind::Drop { count: 99 },
        }],
        ..FaultPlan::default()
    };
    match run_with_watchdog("drop-burst", chaos_cfg(SolverChoice::ime_optimized(), plan)) {
        Ok(_) => panic!("an unrecoverable drop burst must abort"),
        // The faulted sender only ever waits on healthy peers, so nothing
        // can be recorded before it gives up.
        Err(abort) => {
            assert_eq!((abort.kind, abort.rank), (AbortKind::InjectedFault, 0))
        }
    }
}

#[test]
fn planned_crash_aborts_end_to_end() {
    for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                rank: 3,
                when: CrashWhen::AtCall { calls: 5 },
            }],
            ..FaultPlan::default()
        };
        match run_with_watchdog("crash", chaos_cfg(solver, plan)) {
            Ok(_) => panic!("a planned crash must abort the run"),
            Err(abort) => {
                assert_eq!((abort.kind, abort.rank), (AbortKind::InjectedFault, 3))
            }
        }
    }
}

#[test]
fn wrap_storm_completes_and_is_accounted() {
    // A wrap-storm inflates the counters without killing the reads: the
    // run completes, stays numerically correct, and the report counts one
    // counter fault. Nothing reconstructs the phantom joules, so nothing
    // is counted as recovered.
    let plan = FaultPlan {
        counters: vec![CounterFault {
            node: 0,
            socket: 0,
            from_s: 0.0,
            kind: CounterFaultKind::WrapStorm { extra_w: 5.0e7 },
        }],
        ..FaultPlan::default()
    };
    match run_with_watchdog("wrap-storm", chaos_cfg(SolverChoice::ime_optimized(), plan)) {
        Ok(m) => {
            assert!(m.residual < 1e-10, "residual {}", m.residual);
            let rep = m.fault_report.clone().expect("fault report present");
            assert_eq!(rep.injected.counter, 1, "{rep:?}");
            assert_eq!(rep.observed.counter, 1);
            assert_eq!(rep.recovered.counter, 0, "{rep:?}");
        }
        Err(abort) => panic!("wrap storm must not abort: {abort}"),
    }
}

#[test]
fn malformed_collective_aborts_within_the_stable_set() {
    // A rank feeding a wrong-length buffer into a reduction is a program
    // bug, not an injected fault — but it dies the same way: a typed
    // cause, on the rank that combined the odd buffer (3's tree parent).
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::Machine;
    let spec = ClusterSpec::test_cluster(2, 4);
    let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
    let m = Machine::new(spec, placement, PowerModel::deterministic(), 77).unwrap();
    let abort = m
        .try_run(|ctx| {
            let world = ctx.world();
            let len = if ctx.rank() == 3 { 5 } else { 4 };
            ctx.allreduce_sum_f64(&world, &vec![1.0; len]);
        })
        .err()
        .expect("mismatched reduce lengths must abort");
    assert_eq!((abort.kind, abort.rank), (AbortKind::CollectiveContract, 2));
}

#[test]
fn empty_plan_runs_bit_identical_to_no_plan() {
    // `Some(FaultPlan::default())` must not even arm the sink: the run is
    // bit-identical in virtual time to a plain run and carries no report.
    let base = chaos_cfg(SolverChoice::ime_optimized(), FaultPlan::default());
    let plain = RunConfig {
        faults: None,
        ..base.clone()
    };
    let a = run_once(&base);
    let b = run_once(&plain);
    assert!(
        a.fault_report.is_none(),
        "empty plan leaves faults disabled"
    );
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    assert_eq!(a.msgs, b.msgs);
    assert_eq!(a.volume_elems, b.volume_elems);
}
