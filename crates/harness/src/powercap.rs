//! E-PC — the paper's stated future work, implemented: "the application of
//! power caps to restrict power consumption during execution, aiming to
//! achieve more efficient computations and investigate the behaviour of
//! IMe and ScaLAPACK under different power configurations" (§6).
//!
//! Sweeps a RAPL package power cap from uncapped down to deep throttling,
//! running both solvers under each cap on the simulated cluster. The cap is
//! the machine's DVFS model ([`PowerModel::with_power_cap`]), fixed when the
//! machine is built because a run's timing cannot be re-derived
//! retroactively: compute slows by `1/f` while dynamic power drops by `f³`
//! — the classic energy/time trade-off surface.

use crate::config::SolverChoice;
use crate::output::Table;
use crate::run::{build_machine, solve, Inputs, Rig};
use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::NodeSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::generate;
use greenla_monitor::protocol::monitored_run;
use greenla_monitor::report::JobSummary;
use greenla_mpi::SchedulerKind;
use serde::{Deserialize, Serialize};

/// One point of the power-cap sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CapPoint {
    pub solver: String,
    /// Cap as a fraction of the uncapped fully-loaded socket power.
    pub cap_fraction: f64,
    /// Effective DVFS frequency scale the cap induces.
    pub freq_scale: f64,
    pub duration_s: f64,
    pub total_energy_j: f64,
    pub mean_power_w: f64,
}

/// Run the sweep: `fractions` of the uncapped loaded-socket power, both
/// solvers, full-load layout.
pub fn sweep(n: usize, ranks: usize, fractions: &[f64], seed: u64) -> Vec<CapPoint> {
    let node = NodeSpec::test_node(4);
    let base = PowerModel::scaled_deterministic(&node);
    let uncapped_w = base.loaded_socket_power_w(&node);
    let mut out = Vec::new();
    for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
        let inputs = Inputs::from_system(solver, generate::diag_dominant(n, 4242));
        for &frac in fractions {
            let cap_w = uncapped_w * frac;
            let power = base.with_power_cap(&node, node.cpu.cores_per_socket, cap_w);
            let rig = Rig::new(
                build_machine(
                    &node,
                    ranks,
                    LoadLayout::FullLoad,
                    power.clone(),
                    seed,
                    SchedulerKind::default(),
                ),
                None,
            );
            let run = rig.machine.run(|ctx| {
                let world = ctx.world();
                monitored_run(ctx, &rig.rapl, &rig.monitor, |ctx, _| {
                    solve(ctx, &world, true, &inputs)
                })
                .unwrap()
                .report
            });
            let reports: Vec<_> = run.results.into_iter().flatten().collect();
            let s = JobSummary::aggregate(&reports);
            out.push(CapPoint {
                solver: solver.label().to_string(),
                cap_fraction: frac,
                freq_scale: power.freq_scale,
                duration_s: s.duration_s,
                total_energy_j: s.total_energy_j,
                mean_power_w: s.mean_power_w,
            });
        }
    }
    out
}

/// Render the sweep as a table.
pub fn table(points: &[CapPoint]) -> Table {
    Table {
        id: "powercap".into(),
        title: "E-PC — solvers under RAPL power caps (paper §6 future work)".into(),
        headers: [
            "solver",
            "cap",
            "freq",
            "time [s]",
            "energy [J]",
            "power [W]",
        ]
        .map(String::from)
        .to_vec(),
        rows: points
            .iter()
            .map(|p| {
                vec![
                    p.solver.clone(),
                    format!("{:.0}%", p.cap_fraction * 100.0),
                    format!("{:.2}", p.freq_scale),
                    format!("{:.6}", p.duration_s),
                    format!("{:.3}", p.total_energy_j),
                    format!("{:.1}", p.mean_power_w),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_trade_time_for_power() {
        // Compute-bound size: for latency-bound runs a cap barely moves the
        // needle (and sub-ms runs drown in counter quantisation).
        let pts = sweep(320, 8, &[1.0, 0.7], 1);
        assert_eq!(pts.len(), 4);
        for solver in ["IMe", "ScaLAPACK"] {
            let full: Vec<&CapPoint> = pts.iter().filter(|p| p.solver == solver).collect();
            let uncapped = full.iter().find(|p| p.cap_fraction == 1.0).unwrap();
            let capped = full.iter().find(|p| p.cap_fraction == 0.7).unwrap();
            assert!(capped.freq_scale < 1.0);
            assert!(
                capped.duration_s > uncapped.duration_s,
                "{solver}: capped run must be slower"
            );
            assert!(
                capped.mean_power_w < uncapped.mean_power_w,
                "{solver}: capped run must draw less power"
            );
        }
    }

    #[test]
    fn uncapped_fraction_keeps_full_frequency() {
        let pts = sweep(96, 8, &[1.0], 2);
        for p in pts {
            assert_eq!(p.freq_scale, 1.0);
        }
    }

    #[test]
    fn table_renders() {
        let pts = sweep(96, 8, &[1.0], 3);
        let t = table(&pts);
        assert_eq!(t.rows.len(), 2);
        assert!(t.to_text().contains("power caps"));
    }
}
