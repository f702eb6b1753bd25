//! Smoke test of the full measurement campaign: a tiny grid through the
//! real stack, then every figure extractor and the claim checker over the
//! resulting dataset.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::config::FunctionalGrid;
use greenla_harness::run::{run_once, Dataset, RunConfig};
use greenla_harness::{charts, experiments, summary};
use greenla_linalg::generate::SystemKind;

fn smoke_dataset() -> Dataset {
    let grid = FunctionalGrid {
        reps: 1,
        ..FunctionalGrid::smoke()
    };
    Dataset::campaign(&grid, |_| {})
}

#[test]
fn campaign_produces_full_grid() {
    let ds = smoke_dataset();
    // 2 dims × 1 rank count × 3 layouts × 2 solvers.
    assert_eq!(ds.points.len(), 12);
    for p in &ds.points {
        assert!(p.agg.worst_residual < 1e-11, "{p:?}");
        assert!(p.agg.total_energy_j.mean > 0.0);
        assert!(p.agg.duration_s.mean > 0.0);
        assert!(p.agg.mean_power_w.mean > 0.0);
    }
    assert!(ds.get("IMe", 96, 16, LoadLayout::FullLoad).is_some());
    assert!(ds.get("nope", 96, 16, LoadLayout::FullLoad).is_none());
}

#[test]
fn figures_extract_and_render() {
    let ds = smoke_dataset();
    let f3 = experiments::fig3_functional(&ds, 16);
    assert_eq!(f3.series.len(), 6);
    assert!(f3.series.iter().all(|s| s.x.len() == 2));
    let (f4e, f4t) = experiments::fig4_functional(&ds);
    let (f5e, f5t) = experiments::fig5_functional(&ds);
    let (f6e, f6p) = experiments::fig6_functional(&ds, 16);
    let (f7e, f7p) = experiments::fig7_functional(&ds, 192);
    for f in [&f3, &f4e, &f4t, &f5e, &f5t, &f6e, &f6p, &f7e, &f7p] {
        let csv = f.to_csv();
        assert!(csv.lines().count() >= 2, "{} produced no rows", f.id);
        let chart = charts::ascii(f);
        assert!(!chart.contains("no data"), "{} rendered empty", f.id);
    }
}

#[test]
fn energy_increases_with_dimension_in_dataset() {
    let ds = smoke_dataset();
    for solver in ["IMe", "ScaLAPACK"] {
        let small = ds.get(solver, 96, 16, LoadLayout::FullLoad).unwrap();
        let large = ds.get(solver, 192, 16, LoadLayout::FullLoad).unwrap();
        assert!(
            large.agg.total_energy_j.mean > small.agg.total_energy_j.mean,
            "{solver}: energy must grow with n"
        );
        assert!(large.agg.duration_s.mean > small.agg.duration_s.mean);
    }
}

#[test]
fn claim_checker_runs_on_smoke_data() {
    let ds = smoke_dataset();
    let checks = summary::check_dataset(&ds);
    assert_eq!(checks.len(), 7);
    // Structural claims must hold even on the smoke grid.
    let by_id = |id: &str| checks.iter().find(|c| c.id == id).unwrap();
    assert!(by_id("S3-full-load").pass, "{:?}", by_id("S3-full-load"));
    assert!(
        by_id("S5-idle-socket").pass,
        "{:?}",
        by_id("S5-idle-socket")
    );
    let table = summary::claims_table("t", "claims", &checks);
    assert!(table.to_text().contains("S1-energy-gap"));
}

#[test]
fn run_once_respects_layout_node_count() {
    // n is chosen so the monitored window spans several RAPL counter
    // update periods (~1 ms each): below that, each socket's counter
    // snaps the window to a different quantised instant and the
    // phase-dependent sliver of *static* power can dwarf the active DRAM
    // split the ordering assertion below is about.
    let m = run_once(&RunConfig {
        n: 448,
        ranks: 16,
        layout: LoadLayout::HalfOneSocket,
        solver: greenla_harness::SolverChoice::scalapack(),
        system: SystemKind::DiagDominant,
        cores_per_socket: 4,
        seed: 1,
        check: false,
        faults: None,
        scheduler: Default::default(),
        batch: 1,
        cg_overlap: true,
    });
    assert_eq!(m.nodes, 4, "16 ranks at 4/node half-load = 4 nodes");
    assert!(m.residual < 1e-11);
    // One-socket layout: socket 1 has no DRAM traffic beyond static.
    assert!(m.dram_by_socket_j[0] >= m.dram_by_socket_j[1]);
}

#[test]
fn repro_rejects_zero_reps_before_any_campaign_worker_starts() {
    for exp in ["fig3", "sparse"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--exp", exp, "--smoke", "--reps", "0"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "--exp {exp}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--reps wants a positive count"), "{err}");
    }
}
