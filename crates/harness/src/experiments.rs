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
use std::collections::BTreeSet;

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

/// A figure axis: its label and the value it reads off a data point.
type Axis = (&'static str, fn(&DataPoint) -> f64);
const DIM: Axis = ("matrix dimension", |p| p.n as f64);
const RANKS: Axis = ("ranks", |p| p.ranks as f64);
const ENERGY: Axis = ("total energy [J]", |p| p.agg.total_energy_j.mean);
const TIME: Axis = ("duration [s]", |p| p.agg.duration_s.mean);
const POWER: Axis = ("mean power [W]", |p| p.agg.mean_power_w.mean);

/// The points one series draws for each solver: those at `layout` and,
/// where given, at `ranks` ranks or dimension `n`. The series is the
/// solver's name followed by `suffix`.
struct Group {
    suffix: String,
    layout: LoadLayout,
    ranks: Option<usize>,
    n: Option<usize>,
}

/// A full-load [`Group`], the only kind Figs. 4–7 draw.
fn full(suffix: String, ranks: Option<usize>, n: Option<usize>) -> Group {
    let layout = LoadLayout::FullLoad;
    Group {
        suffix,
        layout,
        ranks,
        n,
    }
}

/// The one slicing body behind every paper figure: one `(x, y)` series
/// per solver and group, in dataset order.
fn slice(ds: &Dataset, id: &str, title: String, (x, y): (Axis, Axis), groups: &[Group]) -> Figure {
    let mut fig = Figure::new(id, title, x.0, y.0);
    for solver in SOLVERS {
        for g in groups {
            let mut s = Series::new(format!("{solver}{}", g.suffix));
            for p in &ds.points {
                if p.solver == solver
                    && p.layout == g.layout
                    && g.ranks.is_none_or(|r| r == p.ranks)
                    && g.n.is_none_or(|n| n == p.n)
                {
                    s.push(x.1(p), y.1(p));
                }
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Figure 3: total energy for full-loaded vs half-loaded processors, per
/// solver, energy vs matrix dimension at a fixed rank count.
pub fn fig3_functional(ds: &Dataset, ranks: usize) -> Figure {
    let groups = LoadLayout::all().map(|layout| Group {
        suffix: format!(" {layout}"),
        layout,
        ranks: Some(ranks),
        n: None,
    });
    let title = format!("Fig.3 — full vs half-loaded processors (ranks={ranks})");
    slice(ds, "fig3", title, (DIM, ENERGY), &groups)
}

/// Figure 4: energy and time vs matrix dimension at fixed rank counts
/// (full-load deployments). Returns `(energy figure, time figure)`.
pub fn fig4_functional(ds: &Dataset) -> (Figure, Figure) {
    let full_load = ds
        .points
        .iter()
        .filter(|p| p.layout == LoadLayout::FullLoad);
    let ranks: BTreeSet<usize> = full_load.map(|p| p.ranks).collect();
    let groups: Vec<Group> = (ranks.into_iter())
        .map(|r| full(format!(" {r} ranks"), Some(r), None))
        .collect();
    let title = |what| format!("Fig.4 — {what} vs matrix dimension at fixed ranks (full load)");
    (
        slice(ds, "fig4-energy", title("energy"), (DIM, ENERGY), &groups),
        slice(ds, "fig4-time", title("duration"), (DIM, TIME), &groups),
    )
}

/// Figure 5: energy and time vs rank count at fixed matrix dimensions
/// (strong scaling; the crossover figure).
pub fn fig5_functional(ds: &Dataset) -> (Figure, Figure) {
    let dims: BTreeSet<usize> = ds.points.iter().map(|p| p.n).collect();
    let groups: Vec<Group> = (dims.into_iter())
        .map(|n| full(format!(" n={n}"), None, Some(n)))
        .collect();
    let title = |what| format!("Fig.5 — {what} vs ranks at fixed matrix size (full load)");
    (
        slice(ds, "fig5-energy", title("energy"), (RANKS, ENERGY), &groups),
        slice(ds, "fig5-time", title("duration"), (RANKS, TIME), &groups),
    )
}

/// Figure 6: energy and mean power vs matrix dimension at fixed ranks.
pub fn fig6_functional(ds: &Dataset, ranks: usize) -> (Figure, Figure) {
    let groups = [full(String::new(), Some(ranks), None)];
    let title = |what| format!("Fig.6 — {what} vs dimension (ranks={ranks}, full load)");
    (
        slice(ds, "fig6-energy", title("energy"), (DIM, ENERGY), &groups),
        slice(ds, "fig6-power", title("mean power"), (DIM, POWER), &groups),
    )
}

/// Figure 7: energy and mean power vs rank count at a fixed dimension.
pub fn fig7_functional(ds: &Dataset, n: usize) -> (Figure, Figure) {
    let groups = [full(String::new(), None, Some(n))];
    let title = |what| format!("Fig.7 — {what} vs ranks (n={n}, full load)");
    (
        slice(ds, "fig7-energy", title("energy"), (RANKS, ENERGY), &groups),
        slice(
            ds,
            "fig7-power",
            title("mean power"),
            (RANKS, POWER),
            &groups,
        ),
    )
}

/// The nine figures of Figs. 3–7 in the order `repro` writes them, Figs. 3
/// and 6 at `ranks` ranks and Fig. 7 at dimension `n`.
fn figures(ds: &Dataset, ranks: usize, n: usize) -> Vec<Figure> {
    let fig3 = fig3_functional(ds, ranks);
    let ((f4e, f4t), (f5e, f5t)) = (fig4_functional(ds), fig5_functional(ds));
    let ((f6e, f6p), (f7e, f7p)) = (fig6_functional(ds, ranks), fig7_functional(ds, n));
    vec![fig3, f4e, f4t, f5e, f5t, f6e, f6p, f7e, f7p]
}

/// The functional tier's figures of a measured dataset: Figs. 3 and 6 at
/// its smallest rank count, Fig. 7 at its largest dimension.
pub fn functional_figures(ds: &Dataset) -> Vec<Figure> {
    let ranks = ds.points.iter().map(|p| p.ranks).min().unwrap_or_default();
    let n = ds.points.iter().map(|p| p.n).max().unwrap_or_default();
    figures(ds, ranks, n)
}

/// The model tier's titles, in [`figures`] order.
const MODEL_TITLES: [&str; 9] = [
    "Fig.3 (paper scale, model) — load levels (ranks=144)",
    "Fig.4 (paper scale, model) — energy vs dimension at fixed ranks",
    "Fig.4 (paper scale, model) — duration vs dimension at fixed ranks",
    "Fig.5 (paper scale, model) — energy vs ranks at fixed matrix size",
    "Fig.5 (paper scale, model) — duration vs ranks at fixed matrix size",
    "Fig.6 (paper scale, model) — energy vs dimension (ranks=144)",
    "Fig.6 (paper scale, model) — power vs dimension (ranks=144)",
    "Fig.7 (paper scale, model) — energy vs ranks (n=17280)",
    "Fig.7 (paper scale, model) — power vs ranks (n=17280)",
];

/// The model tier's figures of [`paper_dataset`]: the same slices at 144
/// ranks and n = 17 280, each id suffixed `-model` under its own title.
pub fn model_figures(paper: &Dataset) -> Vec<Figure> {
    let figs = figures(paper, 144, 17_280).into_iter().zip(MODEL_TITLES);
    figs.map(|(mut fig, title)| {
        fig.id.push_str("-model");
        fig.title = title.into();
        fig
    })
    .collect()
}

/// The `repro --exp` name that selects a figure: its id up to the first
/// `-`.
pub fn experiment(fig: &Figure) -> &str {
    fig.id.split('-').next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model tier's figure `id`, as `repro` writes it.
    fn model_figure(id: &str) -> Figure {
        let figs = model_figures(&paper_dataset());
        figs.into_iter().find(|f| f.id == id).expect("model figure")
    }

    #[test]
    fn figure_lists_are_figs_3_to_7_in_write_order() {
        let ids = [
            "fig3",
            "fig4-energy",
            "fig4-time",
            "fig5-energy",
            "fig5-time",
            "fig6-energy",
            "fig6-power",
            "fig7-energy",
            "fig7-power",
        ];
        let paper = paper_dataset();
        let functional = functional_figures(&paper);
        let model = model_figures(&paper);
        let id = |f: &Figure| f.id.clone();
        assert_eq!(functional.iter().map(id).collect::<Vec<_>>(), ids);
        let model_ids: Vec<String> = ids.iter().map(|i| format!("{i}-model")).collect();
        assert_eq!(model.iter().map(id).collect::<Vec<_>>(), model_ids);
        for fig in functional.iter().chain(&model) {
            let exp = experiment(fig);
            assert!(
                ["fig3", "fig4", "fig5", "fig6", "fig7"].contains(&exp),
                "{}: {exp}",
                fig.id
            );
        }
    }

    #[test]
    fn table1_reproduces_paper_rows() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[0], vec!["144", "3", "48", "2", "24", "24"]);
        assert_eq!(t.rows[8], vec!["1296", "54", "24", "2", "12", "12"]);
    }

    #[test]
    fn model_figures_have_expected_series() {
        let (fe, ft) = (
            model_figure("fig4-energy-model"),
            model_figure("fig4-time-model"),
        );
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
        let ft = model_figure("fig5-time-model");
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
        let fp = model_figure("fig6-power-model");
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
        let fp = model_figure("fig7-power-model");
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
