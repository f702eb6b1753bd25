//! End-to-end correctness of the monitoring framework on the simulated
//! cluster: designation, measurement-window coverage, agreement with the
//! ground-truth power model, phase accounting, and failure propagation.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_monitor::blackbox::blackbox_run;
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::monitored_run;
use greenla_monitor::report::JobSummary;
use greenla_monitor::MonitorError;
use greenla_mpi::{AbortKind, Machine, SchedulerKind};
use greenla_rapl::{Domain, MsrError, RaplSim};
use std::sync::Arc;

fn machine(nodes: usize, ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(nodes, 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 21).unwrap()
}

fn rapl_for(m: &Machine) -> Arc<RaplSim> {
    Arc::new(RaplSim::new(m.ledger(), m.power().clone(), m.seed()))
}

#[test]
fn exactly_one_monitoring_rank_per_node_and_it_is_the_highest() {
    let m = machine(3, 24); // 8 ranks/node
    let rapl = rapl_for(&m);
    let out = m.run(|ctx| {
        let r = monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
            ctx.compute(1_000_000, 0);
        })
        .unwrap();
        r.report.is_some()
    });
    for (rank, &is_mon) in out.results.iter().enumerate() {
        // Highest rank on each 8-rank node: 7, 15, 23.
        assert_eq!(is_mon, rank % 8 == 7, "rank {rank}");
    }
}

#[test]
fn measurement_window_covers_every_ranks_work() {
    let m = machine(2, 16);
    let rapl = rapl_for(&m);
    let out = m.run(|ctx| {
        let r = monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
            // Strongly rank-dependent workloads.
            ctx.compute(5_000_000 * (1 + ctx.rank() as u64), 256);
            ctx.now()
        })
        .unwrap();
        (r.result, r.report)
    });
    // Monitoring windows must start before any work and end after the
    // slowest rank of the node.
    for node in 0..2 {
        let monitor = (node + 1) * 8 - 1;
        let report = out.results[monitor]
            .1
            .as_ref()
            .expect("monitor rank has a report");
        let slowest_finish = out.results[node * 8..(node + 1) * 8]
            .iter()
            .map(|(t, _)| *t)
            .fold(0.0f64, f64::max);
        assert!(
            report.end_usec as f64 / 1e6 >= slowest_finish * 0.999999,
            "node {node}: window ends at {} but work ran to {slowest_finish}",
            report.end_usec as f64 / 1e6
        );
    }
}

#[test]
fn monitored_energy_matches_ground_truth_model() {
    let m = machine(2, 16);
    let rapl = rapl_for(&m);
    let rapl2 = Arc::clone(&rapl);
    let out = m.run(|ctx| {
        monitored_run(ctx, &rapl2, &MonitorConfig::default(), |ctx, _| {
            ctx.compute(50_000_000, 1_000_000);
        })
        .unwrap()
        .report
    });
    for report in out.results.into_iter().flatten() {
        let node = report.node;
        let t0 = report.start_usec as f64 / 1e6;
        let t1 = report.end_usec as f64 / 1e6;
        for socket in 0..2 {
            let measured = report.energy_j_socket(Domain::Package, socket).unwrap();
            let truth = rapl
                .ground_truth_j(node, socket, Domain::Package, t1)
                .unwrap()
                - rapl
                    .ground_truth_j(node, socket, Domain::Package, t0)
                    .unwrap();
            let err = (measured - truth).abs();
            // Quantisation loses at most ~2 ms of power plus rounding.
            assert!(
                err < 0.5,
                "node {node} socket {socket}: {measured} vs {truth}"
            );
            assert!(measured > 0.0);
        }
    }
}

#[test]
fn without_node_barrier_the_window_misses_work() {
    // Demonstrate the design point: a monitor that stops at ITS OWN finish
    // time (no node barrier) under-covers slower peers. This is why the
    // paper's protocol pays the synchronisation overhead.
    let m = machine(1, 8);
    let out = m.run(|ctx| {
        // Monitor (rank 7) does little work; rank 0 works long.
        let flops = if ctx.rank() == 0 {
            200_000_000u64
        } else {
            1_000_000
        };
        ctx.compute(flops, 0);
        ctx.now()
    });
    let monitor_finish = out.results[7];
    let slowest = out.results[0];
    assert!(
        monitor_finish < slowest * 0.5,
        "naive stop time {monitor_finish} would miss most of {slowest}"
    );
}

#[test]
fn phases_partition_the_window() {
    let m = machine(2, 16);
    let rapl = rapl_for(&m);
    let out = m.run(|ctx| {
        monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, handle| {
            ctx.touch_memory(10_000_000); // allocation
            handle.phase(ctx, "allocation").unwrap();
            ctx.compute(80_000_000, 0); // execution
            handle.phase(ctx, "execution").unwrap();
        })
        .unwrap()
        .report
    });
    for report in out.results.into_iter().flatten() {
        assert_eq!(report.phases.len(), 3, "allocation, execution, final");
        assert_eq!(report.phases[0].label, "allocation");
        let total: f64 = report.phases.iter().map(|p| p.duration_s).sum();
        assert!(
            (total - report.duration_s()).abs() < 2e-6,
            "phases must tile the window"
        );
        // Per-event phase values must sum to the totals.
        for (e, &total_uj) in report.totals_uj.iter().enumerate() {
            let s: i64 = report.phases.iter().map(|p| p.values_uj[e]).sum();
            assert_eq!(s, total_uj, "event {e} {}", report.events[e]);
        }
        // The execution phase (hard compute) must dominate energy.
        assert!(
            report.phases[1].values_uj[0] > report.phases[0].values_uj[0],
            "execution should out-consume allocation on package 0"
        );
    }
}

#[test]
fn per_processor_files_written_and_parse_back() {
    let dir = std::env::temp_dir().join(format!("greenla_mon_files_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = machine(2, 16);
    let rapl = rapl_for(&m);
    let cfg = MonitorConfig {
        output_dir: Some(dir.clone()),
        degrade_on_fault: false,
    };
    let out = m.run(|ctx| {
        monitored_run(ctx, &rapl, &cfg, |ctx, _| ctx.compute(10_000_000, 0))
            .unwrap()
            .report
    });
    let from_files = greenla_monitor::files::load_all(&dir).unwrap();
    assert_eq!(from_files.len(), 2, "one file per processor/node");
    let in_memory: Vec<_> = out.results.into_iter().flatten().collect();
    assert_eq!(from_files, in_memory);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aggregation_produces_job_summary() {
    let m = machine(3, 24);
    let rapl = rapl_for(&m);
    let out = m.run(|ctx| {
        monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
            ctx.compute(30_000_000, 100_000);
        })
        .unwrap()
        .report
    });
    let reports: Vec<_> = out.results.into_iter().flatten().collect();
    let summary = JobSummary::aggregate(&reports);
    assert_eq!(summary.nodes, 3);
    assert!(summary.total_energy_j > 0.0);
    assert!(summary.pkg_energy_j > summary.dram_energy_j);
    assert!(summary.mean_power_w > 0.0);
    // Full-load layout: both sockets active, similar energy.
    let ratio = summary.pkg_by_socket_j[0] / summary.pkg_by_socket_j[1];
    assert!((0.8..1.25).contains(&ratio), "socket balance {ratio}");
}

#[test]
fn idle_socket_draws_half_ish_under_one_socket_layout() {
    // §5.3's surprising observation: the "idle" socket still draws 50-60 %
    // less (not ~100 % less) than the loaded one.
    let spec = ClusterSpec::test_cluster(2, 4);
    let placement = Placement::layout(&spec.node, 8, LoadLayout::HalfOneSocket).unwrap();
    let power = PowerModel::scaled_deterministic(&spec.node);
    let m = Machine::new(spec, placement, power, 22).unwrap();
    let rapl = rapl_for(&m);
    let out = m.run(|ctx| {
        monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
            ctx.compute(100_000_000, 0);
        })
        .unwrap()
        .report
    });
    for report in out.results.into_iter().flatten() {
        let loaded = report.energy_j_socket(Domain::Package, 0).unwrap();
        let idle = report.energy_j_socket(Domain::Package, 1).unwrap();
        let drop = 1.0 - idle / loaded;
        assert!(
            (0.4..0.65).contains(&drop),
            "idle socket should consume 50-60% less, got {:.0}% less",
            drop * 100.0
        );
    }
}

#[test]
fn papi_failure_reported_on_every_rank_of_the_node() {
    use greenla_mpi::{CounterFault, CounterFaultKind, FaultPlan, FaultSink};
    // Node 0's monitoring rank cannot start measuring (its package-0
    // counter fails every read from t = 0) and may not degrade. The
    // failure must reach every rank of its node *and* of every other node
    // as the run's one typed cause, recorded where it happened — an `Err`
    // handed to node 0 alone left node 1 waiting in the job-wide barrier
    // until quiescence blamed one of its healthy ranks for a deadlock.
    for (nodes, ranks) in [(2, 16), (1, 8)] {
        for kind in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
            if !kind.supported() {
                continue;
            }
            let m = machine(nodes, ranks).with_scheduler(kind);
            let plan = FaultPlan {
                counters: vec![CounterFault {
                    node: 0,
                    socket: 0,
                    from_s: 0.0,
                    kind: CounterFaultKind::Glitch,
                }],
                ..Default::default()
            };
            let rapl = Arc::new(
                RaplSim::new(m.ledger(), m.power().clone(), m.seed())
                    .with_faults(FaultSink::with_plan(plan)),
            );
            // On a watchdog thread, so a carrier that parks forever fails
            // this leg instead of stalling the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let out = m.try_run(|ctx| {
                    let cfg = MonitorConfig::default();
                    monitored_run(ctx, &rapl, &cfg, |ctx, _| ctx.compute(1000, 0)).map(|_| ())
                });
                let _ = tx.send(out.err());
            });
            let leg = format!("{nodes} node(s), {kind} engine");
            let abort = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("{leg}: run hung instead of aborting"))
                .unwrap_or_else(|| panic!("{leg}: run must abort, but it completed"));
            run.join().expect("try_run returns the abort");
            assert_eq!(
                (abort.kind, abort.rank),
                (AbortKind::Monitor, 7),
                "{leg}: {abort}"
            );
        }
    }
}

#[test]
fn monitor_death_degrades_node_instead_of_aborting() {
    use greenla_mpi::{FaultPlan, FaultSink};
    let plan = FaultPlan {
        monitor_deaths: vec![0],
        ..Default::default()
    };
    let sink = FaultSink::with_plan(plan);
    let m = machine(2, 16).with_faults(sink.clone());
    let rapl =
        Arc::new(RaplSim::new(m.ledger(), m.power().clone(), m.seed()).with_faults(sink.clone()));
    let cfg = MonitorConfig {
        degrade_on_fault: true,
        ..Default::default()
    };
    let out = m.run(|ctx| {
        let r = monitored_run(ctx, &rapl, &cfg, |ctx, _| {
            ctx.compute(1_000_000, 0);
        })
        .expect("degraded node must not fail the protocol");
        r.report
    });
    let reports: Vec<_> = out.results.into_iter().flatten().collect();
    assert_eq!(reports.len(), 1, "only the healthy node reports");
    assert_eq!(reports[0].node, 1);
    let rep = sink.report();
    assert_eq!(rep.degraded_nodes, vec![0]);
    assert_eq!(rep.injected.monitor, 1);
    assert_eq!(rep.recovered.monitor, 1);
}

#[test]
fn monitor_death_without_degradation_aborts_with_stable_diagnostic() {
    use greenla_mpi::{FaultPlan, FaultSink};
    let plan = FaultPlan {
        monitor_deaths: vec![0],
        ..Default::default()
    };
    let m = machine(2, 16).with_faults(FaultSink::with_plan(plan));
    let rapl = rapl_for(&m);
    let abort = m
        .try_run(|ctx| {
            monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
                ctx.compute(1_000_000, 0);
            })
            .map(|_| ())
            .ok();
        })
        .err()
        .expect("strict mode must abort on monitoring-rank death");
    // Node 0's monitoring rank is its highest, and it stays runnable until
    // it dies, so no peer can be deadlocked first.
    assert_eq!((abort.kind, abort.rank), (AbortKind::InjectedFault, 7));
}

#[test]
fn report_write_failure_reaches_the_monitoring_ranks_after_the_final_barrier() {
    // `output_dir` names a regular file, so every node's report write
    // fails. The monitoring ranks must still take the job-wide barrier
    // the other 14 ranks are about to enter, and only then hand the error
    // back — returning early strands the job.
    for kind in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
        if !kind.supported() {
            continue;
        }
        let not_a_dir =
            std::env::temp_dir().join(format!("greenla-finish-io-{}-{kind}", std::process::id()));
        std::fs::write(&not_a_dir, "in the way").expect("create the blocking file");
        let m = machine(2, 16).with_scheduler(kind);
        let rapl = rapl_for(&m);
        let cfg = MonitorConfig {
            output_dir: Some(not_a_dir.clone()),
            ..Default::default()
        };
        let out = m.try_run(|ctx| {
            monitored_run(ctx, &rapl, &cfg, |ctx, _| ctx.compute(1_000_000, 0)).map(|r| r.report)
        });
        std::fs::remove_file(&not_a_dir).expect("remove the blocking file");
        let out = out.unwrap_or_else(|abort| panic!("{kind}: the run must finish: {abort}"));
        for (rank, result) in out.results.iter().enumerate() {
            if rank % 8 == 7 {
                assert!(
                    matches!(result, Err(MonitorError::Io(_))),
                    "{kind}: monitoring rank {rank}: {result:?}"
                );
            } else {
                assert_eq!(result, &Ok(None), "{kind}: rank {rank}");
            }
        }
    }
}

#[test]
fn glitched_counter_degrades_node_mid_run() {
    use greenla_mpi::{CounterFault, CounterFaultKind, FaultPlan, FaultSink};
    // Counter dies after monitoring starts: the phase read or the stop
    // fails, and the node forfeits its report instead of failing the job.
    let plan = FaultPlan {
        counters: vec![CounterFault {
            node: 0,
            socket: 0,
            from_s: 1.0e-6,
            kind: CounterFaultKind::Glitch,
        }],
        ..Default::default()
    };
    let sink = FaultSink::with_plan(plan);
    let m = machine(2, 16).with_faults(sink.clone());
    let rapl =
        Arc::new(RaplSim::new(m.ledger(), m.power().clone(), m.seed()).with_faults(sink.clone()));
    let cfg = MonitorConfig {
        degrade_on_fault: true,
        ..Default::default()
    };
    let out = m.run(|ctx| {
        let r = monitored_run(ctx, &rapl, &cfg, |ctx, handle| {
            ctx.compute(50_000_000, 0);
            handle.phase(ctx, "solve").unwrap();
            ctx.compute(1_000_000, 0);
        })
        .expect("degraded node must not fail the protocol");
        r.report
    });
    let reports: Vec<_> = out.results.into_iter().flatten().collect();
    assert_eq!(reports.len(), 1, "only the healthy node reports");
    assert_eq!(reports[0].node, 1);
    assert_eq!(sink.report().degraded_nodes, vec![0]);
}

#[test]
fn cpu_without_rapl_refuses_both_monitoring_modes() {
    // A Nehalem node has no RAPL counters: the white-box monitoring rank
    // cannot start, and every black-box daemon must refuse alike instead
    // of sampling counters the CPU does not have.
    let machine = || {
        let mut spec = ClusterSpec::test_cluster(2, 4);
        spec.node.cpu.model = 0x1a;
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 21).unwrap()
    };
    let m = machine();
    let rapl = rapl_for(&m);
    let abort = m
        .try_run(|ctx| {
            monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, _| {
                ctx.compute(1000, 0)
            })
            .map(|_| ())
        })
        .err()
        .expect("white-box monitoring must abort without RAPL");
    assert_eq!(abort.kind, AbortKind::Monitor, "{abort}");

    let m = machine();
    let rapl = rapl_for(&m);
    let cpu = rapl.cpu();
    let out = m.run(|ctx| {
        blackbox_run(ctx, &rapl, &MonitorConfig::default(), 1e-3, |ctx, _| {
            ctx.compute(1000, 0)
        })
        .map(|o| o.report.is_some())
    });
    for (rank, result) in out.results.iter().enumerate() {
        if rank % 8 == 7 {
            assert_eq!(
                result,
                &Err(MonitorError::Counter(MsrError::NoRapl(cpu))),
                "daemon rank {rank}"
            );
        } else {
            assert_eq!(result, &Ok(false), "application rank {rank}");
        }
    }
}

#[test]
fn session_reads_are_the_direct_counter_differences() {
    use greenla_monitor::monitoring::{end_monitoring, start_monitoring};
    // After a run, replay one node's measurement at fixed virtual times:
    // every total and phase value must be the plain difference of two
    // `energy_uj` reads, bit for bit, in the order PKG0, PKG1, DRAM0, DRAM1.
    let m = machine(2, 16);
    let rapl = rapl_for(&m);
    m.run(|ctx| ctx.compute(5_000_000 * (1 + ctx.rank() as u64), 1 << 20));
    let order = [
        (0, Domain::Package),
        (1, Domain::Package),
        (0, Domain::Dram),
        (1, Domain::Dram),
    ];
    let (t0, t1, t2, t3) = (0.000_25, 0.001_7, 0.003_1, 0.009_9);
    for node in 0..2 {
        let read = |t: f64| -> Vec<u64> {
            order
                .iter()
                .map(|&(s, d)| rapl.energy_uj(node, s, d, t).unwrap())
                .collect()
        };
        let diff = |a: &[u64], b: &[u64]| -> Vec<i64> {
            a.iter()
                .zip(b)
                .map(|(a, b)| a.wrapping_sub(*b) as i64)
                .collect()
        };
        let (e0, e1, e2, e3) = (read(t0), read(t1), read(t2), read(t3));
        let mut s = start_monitoring(&rapl, node, t0).unwrap();
        s.mark_phase("allocation", t1).unwrap();
        s.mark_phase("execution", t2).unwrap();
        let r = end_monitoring(s, 8 * node + 7, t3).unwrap();
        assert_eq!(
            r.events,
            [
                "powercap:::ENERGY_UJ:ZONE0",
                "powercap:::ENERGY_UJ:ZONE1",
                "powercap:::ENERGY_UJ:ZONE0_SUBZONE1",
                "powercap:::ENERGY_UJ:ZONE1_SUBZONE1",
            ]
        );
        assert_eq!((r.node, r.monitor_rank), (node, 8 * node + 7));
        assert_eq!((r.start_usec, r.end_usec), (250, 9_900));
        assert_eq!(r.totals_uj, diff(&e3, &e0), "node {node} totals");
        let labels: Vec<_> = r.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["allocation", "execution", "final"]);
        for (p, (a, b, dt)) in r.phases.iter().zip([
            (&e1, &e0, t1 - t0),
            (&e2, &e1, t2 - t1),
            (&e3, &e2, t3 - t2),
        ]) {
            assert_eq!(p.values_uj, diff(a, b), "node {node} phase {}", p.label);
            assert_eq!(p.duration_s.to_bits(), dt.to_bits(), "{}", p.label);
            assert!(p.values_uj.iter().all(|&v| v > 0), "{}", p.label);
        }
    }
}
