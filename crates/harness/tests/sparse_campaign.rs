//! End-to-end smoke of the dense-vs-sparse campaign: one tiny Poisson
//! dimension through all four solvers, asserting the three verdicts the
//! full campaign gates on — every CG point memory-bound, the closed-form
//! wall/energy predictions within the shared ±30% band, and the energy
//! inversion (lowest GFLOP/s, lowest Joules) holding against both dense
//! direct solvers.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::run::{run_once, RunConfig};
use greenla_harness::sparse::{campaign, SparseGrid};
use greenla_harness::SolverChoice;
use greenla_linalg::generate::SystemKind;
use greenla_mpi::SchedulerKind;
use std::sync::Mutex;

#[test]
fn sparse_campaign_smoke_verdicts_hold() {
    // n = 196 is the smallest grid dimension past the dense/sparse energy
    // crossover — below it the dense direct solve is so small that CG's
    // per-iteration latency still wins on Joules.
    let grid = SparseGrid {
        dims: vec![196],
        reps: 1,
        ..SparseGrid::smoke()
    };
    let (data, report) = campaign(&grid, |_| {});

    // Dataset shape: one point per solver × dimension, same schema the
    // dense campaign writes.
    assert_eq!(data.points.len(), 4, "4 solvers × 1 dim");
    assert_eq!(report.points.len(), 4);
    assert_eq!(report.checks.len(), 2, "one model check per CG variant");
    assert_eq!(report.inversions.len(), 1);
    for p in &data.points {
        assert!(p.violations.is_empty(), "{}: {:?}", p.solver, p.violations);
    }

    // Only the CG points carry iteration counts, and a sub-millisecond CG
    // solve must have been batched across many RAPL counter updates.
    for pt in &report.points {
        let is_cg = pt.solver.starts_with("CG");
        assert_eq!(pt.iterations.is_some(), is_cg, "{}", pt.solver);
        assert!(pt.duration_s > 0.0 && pt.energy_j > 0.0, "{pt:?}");
        if is_cg {
            assert!(pt.batch > 1, "CG window must be batched: {pt:?}");
        }
    }

    assert!(
        report.all_memory_bound,
        "CG must sit on the memory ceiling: {:?}",
        report.checks
    );
    assert!(
        report.all_within_band,
        "closed forms out of band: {:?}",
        report.checks
    );
    assert!(
        report.inversion_holds,
        "energy inversion failed: {:?}",
        report.inversions
    );
}

#[test]
fn sparse_campaign_runs_on_the_requested_engine_and_engines_agree() {
    // `repro --exp sparse --scheduler …` lands in `SparseGrid::scheduler`;
    // the campaign must build every run's config from it (the progress
    // line prints the config's engine) and, by the scheduler-invariance
    // contract, produce the same dataset bit for bit whichever it is.
    let mut kinds = vec![SchedulerKind::ThreadPerRank];
    if SchedulerKind::EventDriven.supported() {
        kinds.push(SchedulerKind::EventDriven);
    }
    let run = |scheduler: SchedulerKind| {
        let grid = SparseGrid {
            dims: vec![196],
            reps: 1,
            scheduler,
            ..SparseGrid::smoke()
        };
        let lines = Mutex::new(Vec::new());
        let (data, _) = campaign(&grid, |msg| lines.lock().unwrap().push(msg.to_string()));
        let lines = lines.into_inner().unwrap();
        assert_eq!(lines.len(), 4, "one progress line per solver: {lines:?}");
        for line in &lines {
            assert!(
                line.ends_with(&format!("engine={scheduler}")),
                "requested {scheduler}, campaign ran: {line}"
            );
        }
        data
    };
    let reference = run(kinds[0]);
    for &kind in &kinds[1..] {
        let data = run(kind);
        for (a, b) in reference.points.iter().zip(&data.points) {
            let what = format!("{} n={} on {kind}", a.solver, a.n);
            assert_eq!(
                a.agg.duration_s.mean.to_bits(),
                b.agg.duration_s.mean.to_bits(),
                "{what}: duration_s"
            );
        }
        // The dataset does not carry traffic; one CG point through
        // `run_once` at the campaign's shape does.
        let point = |scheduler| {
            run_once(&RunConfig {
                n: 196,
                ranks: 16,
                layout: LoadLayout::FullLoad,
                solver: SolverChoice::cg(),
                system: SystemKind::Poisson2d,
                cores_per_socket: 8,
                seed: 2023,
                check: false,
                faults: None,
                scheduler,
                batch: 1,
                cg_overlap: true,
            })
        };
        let (a, b) = (point(kinds[0]), point(kind));
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
        assert_eq!((a.msgs, a.volume_elems), (b.msgs, b.volume_elems));
    }
}
