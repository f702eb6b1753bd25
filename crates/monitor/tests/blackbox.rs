//! Black-box monitoring mode: unmodified applications, per-node sampling
//! daemons, deterministic power traces.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_monitor::blackbox::blackbox_run;
use greenla_monitor::monitoring::MonitorConfig;
use greenla_mpi::Machine;
use greenla_rapl::RaplSim;
use std::sync::Arc;

fn machine(nodes: usize, ranks: usize, seed: u64) -> Machine {
    let spec = ClusterSpec::test_cluster(nodes, 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    let power = PowerModel::scaled_deterministic(&spec.node);
    Machine::new(spec, placement, power, seed).unwrap()
}

#[test]
fn daemons_dont_run_the_app_and_apps_dont_see_daemons() {
    let m = machine(2, 16, 1);
    let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), 1));
    let out = m.run(|ctx| {
        blackbox_run(
            ctx,
            &rapl,
            &MonitorConfig::default(),
            1e-3,
            |ctx, app_comm| {
                // The unmodified app: uses only its own communicator.
                ctx.compute(10_000_000, 0);
                ctx.barrier(app_comm);
                app_comm.size()
            },
        )
        .unwrap()
    });
    let mut app_sizes = Vec::new();
    let mut daemons = 0;
    for (rank, o) in out.results.iter().enumerate() {
        match (&o.result, &o.report) {
            (Some(sz), None) => app_sizes.push((rank, *sz)),
            (None, Some(r)) => {
                daemons += 1;
                assert_eq!(r.monitor_rank, rank);
            }
            other => panic!(
                "rank {rank}: inconsistent output {:?}",
                (other.0.is_some(), other.1.is_some())
            ),
        }
    }
    assert_eq!(daemons, 2, "one daemon per node");
    // 16 ranks − 2 daemons = 14 app ranks, all seeing a 14-member comm.
    assert_eq!(app_sizes.len(), 14);
    assert!(app_sizes.iter().all(|&(_, sz)| sz == 14));
    // Daemons are the highest rank of each node (7 and 15).
    assert!(out.results[7].report.is_some());
    assert!(out.results[15].report.is_some());
}

#[test]
fn power_trace_covers_the_run_and_grows_monotonically() {
    let m = machine(1, 8, 2);
    let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), 2));
    let period = 2e-3;
    let out = m.run(|ctx| {
        blackbox_run(ctx, &rapl, &MonitorConfig::default(), period, |ctx, _| {
            ctx.compute(40_000_000, 1000); // ~20 ms on the slow test CPU
        })
        .unwrap()
    });
    let report = out.results[7].report.clone().expect("daemon report");
    assert!(
        report.samples.len() >= 5,
        "got {} samples",
        report.samples.len()
    );
    // Samples are periodic and end at the app's completion.
    for w in report.samples.windows(2) {
        assert!(w[1].t_s > w[0].t_s);
        assert!(w[1].t_s - w[0].t_s <= period + 1e-12);
        // Cumulative energy counters never decrease.
        for (a, b) in w[0].values_uj.iter().zip(&w[1].values_uj) {
            assert!(b >= a, "counter regressed");
        }
    }
    let last = report.samples.last().unwrap();
    assert!(
        (last.t_s - report.end_s).abs() < 1e-12,
        "final sample at completion"
    );
    assert!(report.total_energy_j() > 0.0);
    // The power trace is plausible: every interval within (0, 2×TDP-ish).
    for (t, w) in report.power_trace() {
        assert!(t >= 0.0 && t <= report.end_s);
        assert!((0.0..200.0).contains(&w), "implausible power {w} W");
    }
}

#[test]
fn blackbox_is_deterministic() {
    let run = || {
        let m = machine(2, 16, 7);
        let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), 7));
        let out = m.run(|ctx| {
            blackbox_run(ctx, &rapl, &MonitorConfig::default(), 1e-3, |ctx, app| {
                ctx.compute(5_000_000 * (1 + ctx.rank() as u64 % 3), 0);
                ctx.barrier(app);
            })
            .unwrap()
        });
        out.results
            .into_iter()
            .filter_map(|o| o.report)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "sample series must be bit-identical across runs"
    );
}

#[test]
fn blackbox_writes_trace_files() {
    let dir = std::env::temp_dir().join(format!("greenla_bb_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = machine(1, 8, 3);
    let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), 3));
    let cfg = MonitorConfig {
        output_dir: Some(dir.clone()),
        degrade_on_fault: false,
    };
    m.run(|ctx| {
        blackbox_run(ctx, &rapl, &cfg, 1e-3, |ctx, _| ctx.compute(2_000_000, 0)).unwrap();
    });
    let file = dir.join("greenla_blackbox_node0000.json");
    let text = std::fs::read_to_string(&file).expect("trace file written");
    let back: greenla_monitor::BlackboxReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back.node, 0);
    assert!(!back.samples.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn whitebox_and_blackbox_energies_agree() {
    // Same workload measured both ways must yield comparable node energy
    // (black-box trails by at most its sampling resolution).
    use greenla_monitor::protocol::monitored_run;
    let work = |ctx: &mut greenla_mpi::RankCtx| ctx.compute(30_000_000, 0);

    let m1 = machine(1, 8, 9);
    let rapl1 = Arc::new(RaplSim::new(m1.ledger(), m1.power().clone(), 9));
    let wb = m1.run(|ctx| {
        monitored_run(ctx, &rapl1, &MonitorConfig::default(), |ctx, _| work(ctx))
            .unwrap()
            .report
    });
    let wb_energy = wb
        .results
        .into_iter()
        .flatten()
        .next()
        .unwrap()
        .total_energy_j();

    let m2 = machine(1, 8, 9); // same node; one core hosts the daemon instead of an app rank
    let rapl2 = Arc::new(RaplSim::new(m2.ledger(), m2.power().clone(), 9));
    let bb = m2.run(|ctx| {
        blackbox_run(ctx, &rapl2, &MonitorConfig::default(), 1e-3, |ctx, _| {
            work(ctx)
        })
        .unwrap()
    });
    let bb_energy = bb
        .results
        .into_iter()
        .filter_map(|o| o.report)
        .next()
        .unwrap()
        .total_energy_j();
    let ratio = bb_energy / wb_energy;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "white {wb_energy} vs black {bb_energy}"
    );
}
