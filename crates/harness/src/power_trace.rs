//! E-PT — node power over time, via the black-box sampling daemon: the
//! kind of fine-grained profile the related-work systems the paper surveys
//! (DAVIDE, WattProf, Colmet) produce, here for both solvers on identical
//! workloads. Not a paper figure; an extension enabled by the black-box
//! monitoring mode.

use crate::config::SolverChoice;
use crate::output::{Figure, Series};
use crate::run::{build_machine, solve, Inputs, Rig};
use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::NodeSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::generate;
use greenla_monitor::blackbox::blackbox_run;
use greenla_mpi::SchedulerKind;

/// Sample node-0 power over time for one solver run.
pub fn power_trace(
    solver: SolverChoice,
    n: usize,
    ranks: usize,
    sample_period_s: f64,
    seed: u64,
) -> Vec<(f64, f64)> {
    let node = NodeSpec::test_node(4);
    let rig = Rig::new(
        build_machine(
            &node,
            ranks,
            LoadLayout::FullLoad,
            PowerModel::scaled_for(&node),
            seed,
            SchedulerKind::default(),
        ),
        None,
    );
    let inputs = Inputs::from_system(solver, generate::diag_dominant(n, 3131));
    let out = rig.machine.run(|ctx| {
        blackbox_run(ctx, &rig.rapl, &rig.monitor, sample_period_s, |ctx, app| {
            solve(ctx, app, true, &inputs)
        })
        .unwrap()
        .report
    });
    out.results
        .into_iter()
        .flatten()
        .find(|r| r.node == 0)
        .expect("node 0 daemon report")
        .power_trace()
}

/// Both solvers' traces as one figure.
pub fn figure(n: usize, ranks: usize, sample_period_s: f64, seed: u64) -> Figure {
    let mut fig = Figure::new(
        "power-trace",
        format!("E-PT — node-0 power over time (n={n}, {ranks} ranks, black-box sampling)"),
        "time [s]",
        "node power [W]",
    );
    for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
        let mut s = Series::new(solver.label());
        for (t, w) in power_trace(solver, n, ranks, sample_period_s, seed) {
            s.push(t, w);
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_have_samples_and_plausible_power() {
        let fig = figure(240, 8, 0.5e-3, 1);
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert!(s.x.len() >= 3, "{}: {} samples", s.label, s.x.len());
            for &w in &s.y {
                assert!((0.0..250.0).contains(&w), "{}: power {w}", s.label);
            }
        }
    }

    #[test]
    fn ime_trace_runs_longer_than_scalapack_when_compute_bound() {
        let fig = figure(320, 8, 1e-3, 2);
        let end = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.x.last().copied())
                .unwrap()
        };
        assert!(end("IMe") > end("ScaLAPACK"));
    }
}
