//! Documents written under the v1 schema — before any of today's later
//! fields existed — must keep parsing, each later field taking its
//! documented default. The vendored derive refuses a missing key, so a
//! field added to one of these structs without `#[serde(default…)]`
//! fails here.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::{FunctionalGrid, RunConfig, SolverChoice};
use greenla_linalg::generate::SystemKind;
use greenla_mpi::SchedulerKind;

#[test]
fn v1_documents_parse_with_every_later_field_at_its_default() {
    let cfg: RunConfig = serde_json::from_str(include_str!("fixtures/v1/run_config.json"))
        .expect("v1 RunConfig parses");
    assert_eq!((cfg.n, cfg.ranks, cfg.seed), (96, 8, 42));
    assert_eq!(cfg.layout, LoadLayout::HalfTwoSockets);
    assert_eq!(cfg.solver, SolverChoice::ScaLapack { nb: 16 });
    assert_eq!(cfg.system, SystemKind::DiagDominant);
    assert_eq!(cfg.cores_per_socket, 2);
    assert!(!cfg.check);
    assert_eq!(cfg.faults, None);
    assert_eq!(cfg.scheduler, SchedulerKind::default());
    assert_eq!(cfg.batch, 1);
    assert!(cfg.cg_overlap);

    let grid: FunctionalGrid =
        serde_json::from_str(include_str!("fixtures/v1/functional_grid.json"))
            .expect("v1 FunctionalGrid parses");
    assert_eq!((grid.dims, grid.ranks), (vec![96, 192], vec![8, 16]));
    assert_eq!(grid.layouts, LoadLayout::all());
    assert_eq!(
        (grid.reps, grid.cores_per_socket, grid.base_seed),
        (3, 4, 7)
    );
    assert!(!grid.check);
    assert_eq!(grid.faults, None);
    assert_eq!(grid.scheduler, SchedulerKind::default());
    assert_eq!(grid.batch, 1);
}
