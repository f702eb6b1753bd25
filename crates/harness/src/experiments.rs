//! Per-artefact experiment definitions: one function per paper table or
//! figure.
//!
//! Every figure slices a [`Dataset`]. The functional tier slices the
//! measured one; the model tier is the same slice of [`paper_dataset`], the
//! calibrated analytic model evaluated at the paper's exact configurations.
//! Figure numbering follows the paper (§5.2).

use crate::config::paper;
use crate::output::{Figure, Series, Table};
use crate::run::{DataPoint, Dataset, Measurement};
use greenla_cluster::placement::{table1_rows, LoadLayout, PAPER_RANKS};
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::PowerModel;
use greenla_model::{predict, Scenario, Solver};

/// Table 1: the test configurations (nodes, ranks, sockets).
pub fn table1() -> Table {
    let rows = table1_rows(&NodeSpec::marconi_a3(), &PAPER_RANKS);
    Table {
        id: "table1".into(),
        title: "Table 1 — test configurations for nodes, ranks and sockets".into(),
        headers: [
            "Ranks",
            "Nodes",
            "Ranks/Node",
            "Sockets",
            "Ranks/Socket0",
            "Ranks/Socket1",
        ]
        .map(String::from)
        .to_vec(),
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.ranks.to_string(),
                    r.nodes.to_string(),
                    r.ranks_per_node.to_string(),
                    r.sockets.to_string(),
                    r.ranks_per_socket.0.to_string(),
                    r.ranks_per_socket.1.to_string(),
                ]
            })
            .collect(),
    }
}

const SOLVERS: [&str; 2] = ["IMe", "ScaLAPACK"];

/// The model tier as a dataset: `greenla_model::predict` on Marconi A3 at
/// every paper `(n, ranks, layout)` for IMe-optimized and ScaLAPACK
/// `nb = paper::NB`, in [`Dataset::campaign`] order with one repetition
/// each. Residual and traffic are 0: nothing is solved.
pub fn paper_dataset() -> Dataset {
    let spec = ClusterSpec::marconi_a3(64);
    let power = PowerModel::marconi_a3();
    let mut points = Vec::new();
    for n in paper::PAPER_DIMS {
        for ranks in paper::PAPER_RANKS {
            for layout in LoadLayout::all() {
                for solver in [Solver::ImeOptimized, Solver::ScaLapack { nb: paper::NB }] {
                    let p = predict(solver, Scenario { n, ranks, layout }, &spec, &power);
                    let predicted = Measurement {
                        duration_s: p.time_s,
                        total_energy_j: p.energy.total_j,
                        pkg_energy_j: p.energy.pkg_j,
                        dram_energy_j: p.energy.dram_j,
                        pkg_by_socket_j: p.energy.per_socket_pkg,
                        dram_by_socket_j: p.energy.per_socket_dram,
                        mean_power_w: p.energy.mean_power_w,
                        residual: 0.0,
                        msgs: 0,
                        volume_elems: 0,
                        nodes: ranks / layout.ranks_per_node(&spec.node),
                        violations: Vec::new(),
                        fault_report: None,
                        iterations: None,
                        refreshes: None,
                    };
                    let label = solver.label();
                    points.push(DataPoint::from_runs(label, n, ranks, layout, &[predicted]));
                }
            }
        }
    }
    Dataset { points }
}

/// A functional figure drawn from [`paper_dataset`], relabelled as its
/// model-tier twin.
fn model(mut fig: Figure, title: impl Into<String>) -> Figure {
    fig.id.push_str("-model");
    fig.title = title.into();
    fig
}

/// Figure 3: total energy for full-loaded vs half-loaded processors, per
/// solver, energy vs matrix dimension at a fixed rank count.
pub fn fig3_functional(ds: &Dataset, ranks: usize) -> Figure {
    let mut fig = Figure::new(
        "fig3",
        format!("Fig.3 — full vs half-loaded processors (ranks={ranks})"),
        "matrix dimension",
        "total energy [J]",
    );
    for solver in SOLVERS {
        for layout in LoadLayout::all() {
            let mut s = Series::new(format!("{solver} {layout}"));
            for p in &ds.points {
                if p.solver == solver && p.ranks == ranks && p.layout == layout {
                    s.push(p.n as f64, p.agg.total_energy_j.mean);
                }
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Figure 3 at paper scale: [`fig3_functional`] on [`paper_dataset`].
pub fn fig3_model(ds: &Dataset, ranks: usize) -> Figure {
    model(
        fig3_functional(ds, ranks),
        format!("Fig.3 (paper scale, model) — load levels (ranks={ranks})"),
    )
}

/// Figure 4: energy and time vs matrix dimension at fixed rank counts
/// (full-load deployments). Returns `(energy figure, time figure)`.
pub fn fig4_functional(ds: &Dataset) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig4-energy",
        "Fig.4 — energy vs matrix dimension at fixed ranks (full load)",
        "matrix dimension",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig4-time",
        "Fig.4 — duration vs matrix dimension at fixed ranks (full load)",
        "matrix dimension",
        "duration [s]",
    );
    let ranks_list: Vec<usize> = {
        let mut r: Vec<usize> = ds
            .points
            .iter()
            .filter(|p| p.layout == LoadLayout::FullLoad)
            .map(|p| p.ranks)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    for solver in SOLVERS {
        for &ranks in &ranks_list {
            let mut se = Series::new(format!("{solver} {ranks} ranks"));
            let mut st = Series::new(format!("{solver} {ranks} ranks"));
            for p in &ds.points {
                if p.solver == solver && p.ranks == ranks && p.layout == LoadLayout::FullLoad {
                    se.push(p.n as f64, p.agg.total_energy_j.mean);
                    st.push(p.n as f64, p.agg.duration_s.mean);
                }
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 4 at paper scale: [`fig4_functional`] on [`paper_dataset`].
pub fn fig4_model(ds: &Dataset) -> (Figure, Figure) {
    let (fe, ft) = fig4_functional(ds);
    (
        model(
            fe,
            "Fig.4 (paper scale, model) — energy vs dimension at fixed ranks",
        ),
        model(
            ft,
            "Fig.4 (paper scale, model) — duration vs dimension at fixed ranks",
        ),
    )
}

/// Figure 5: energy and time vs rank count at fixed matrix dimensions
/// (strong scaling; the crossover figure).
pub fn fig5_functional(ds: &Dataset) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig5-energy",
        "Fig.5 — energy vs ranks at fixed matrix size (full load)",
        "ranks",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig5-time",
        "Fig.5 — duration vs ranks at fixed matrix size (full load)",
        "ranks",
        "duration [s]",
    );
    let dims: Vec<usize> = {
        let mut d: Vec<usize> = ds.points.iter().map(|p| p.n).collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    for solver in SOLVERS {
        for &n in &dims {
            let mut se = Series::new(format!("{solver} n={n}"));
            let mut st = Series::new(format!("{solver} n={n}"));
            for p in &ds.points {
                if p.solver == solver && p.n == n && p.layout == LoadLayout::FullLoad {
                    se.push(p.ranks as f64, p.agg.total_energy_j.mean);
                    st.push(p.ranks as f64, p.agg.duration_s.mean);
                }
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 5 at paper scale: [`fig5_functional`] on [`paper_dataset`].
pub fn fig5_model(ds: &Dataset) -> (Figure, Figure) {
    let (fe, ft) = fig5_functional(ds);
    (
        model(
            fe,
            "Fig.5 (paper scale, model) — energy vs ranks at fixed matrix size",
        ),
        model(
            ft,
            "Fig.5 (paper scale, model) — duration vs ranks at fixed matrix size",
        ),
    )
}

/// Figure 6: energy and mean power vs matrix dimension at fixed ranks.
pub fn fig6_functional(ds: &Dataset, ranks: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig6-energy",
        format!("Fig.6 — energy vs dimension (ranks={ranks}, full load)"),
        "matrix dimension",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig6-power",
        format!("Fig.6 — mean power vs dimension (ranks={ranks}, full load)"),
        "matrix dimension",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for p in &ds.points {
            if p.solver == solver && p.ranks == ranks && p.layout == LoadLayout::FullLoad {
                se.push(p.n as f64, p.agg.total_energy_j.mean);
                sp.push(p.n as f64, p.agg.mean_power_w.mean);
            }
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Figure 6 at paper scale: [`fig6_functional`] on [`paper_dataset`].
pub fn fig6_model(ds: &Dataset, ranks: usize) -> (Figure, Figure) {
    let (fe, fp) = fig6_functional(ds, ranks);
    (
        model(
            fe,
            format!("Fig.6 (paper scale, model) — energy vs dimension (ranks={ranks})"),
        ),
        model(
            fp,
            format!("Fig.6 (paper scale, model) — power vs dimension (ranks={ranks})"),
        ),
    )
}

/// Figure 7: energy and mean power vs rank count at a fixed dimension.
pub fn fig7_functional(ds: &Dataset, n: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig7-energy",
        format!("Fig.7 — energy vs ranks (n={n}, full load)"),
        "ranks",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig7-power",
        format!("Fig.7 — mean power vs ranks (n={n}, full load)"),
        "ranks",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for p in &ds.points {
            if p.solver == solver && p.n == n && p.layout == LoadLayout::FullLoad {
                se.push(p.ranks as f64, p.agg.total_energy_j.mean);
                sp.push(p.ranks as f64, p.agg.mean_power_w.mean);
            }
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Figure 7 at paper scale: [`fig7_functional`] on [`paper_dataset`].
pub fn fig7_model(ds: &Dataset, n: usize) -> (Figure, Figure) {
    let (fe, fp) = fig7_functional(ds, n);
    (
        model(
            fe,
            format!("Fig.7 (paper scale, model) — energy vs ranks (n={n})"),
        ),
        model(
            fp,
            format!("Fig.7 (paper scale, model) — power vs ranks (n={n})"),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_rows() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[0], vec!["144", "3", "48", "2", "24", "24"]);
        assert_eq!(t.rows[8], vec!["1296", "54", "24", "2", "12", "12"]);
    }

    #[test]
    fn model_figures_have_expected_series() {
        let (fe, ft) = fig4_model(&paper_dataset());
        assert_eq!(fe.series.len(), 6); // 2 solvers × 3 rank counts
        assert_eq!(ft.series.len(), 6);
        for s in &fe.series {
            assert_eq!(s.x.len(), 4); // 4 matrix dims
                                      // Energy grows with dimension.
            assert!(
                s.y.windows(2).all(|w| w[1] > w[0]),
                "{}: {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig5_model_strong_scaling_time_decreases() {
        let (_, ft) = fig5_model(&paper_dataset());
        for s in &ft.series {
            // Duration decreases as ranks grow, except that the smallest
            // matrix may hit the latency floor at the largest rank count
            // (which is exactly why IMe overtakes ScaLAPACK there, §5.2);
            // tolerate a mild upturn for n=8640.
            let slack = if s.label.contains("8640") { 1.25 } else { 1.0 };
            assert!(
                *s.y.last().unwrap() <= s.y.first().unwrap() * slack,
                "{}: {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig6_model_power_flat_in_dimension() {
        let (_, fp) = fig6_model(&paper_dataset(), 144);
        for s in &fp.series {
            let min = s.y.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = s.y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                max / min < 1.6,
                "power should be near-constant in dimension: {} {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig7_model_power_grows_with_ranks() {
        let (_, fp) = fig7_model(&paper_dataset(), 17280);
        for s in &fp.series {
            assert!(
                s.y.last().unwrap() > s.y.first().unwrap(),
                "power must grow with ranks: {} {:?}",
                s.label,
                s.y
            );
        }
    }
}
