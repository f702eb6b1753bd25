//! How often one CG solve deep-copies a message buffer: never. The dot
//! products travel inline, a halo message has one holder, and the final
//! ring allgather hands every rank the originators' shared blocks, which
//! each rank copies into its own `x` from borrows. Returning owned blocks
//! from the allgather cost 16 × 15 = 240 copies here.
//!
//! This file is its own test binary and holds one test, because the
//! `copy_audit` counter is global to the process.

use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::sparse::laplace2d;
use greenla_mpi::{copy_audit, Machine};

#[test]
fn one_cg_solve_copies_no_buffer_and_every_rank_holds_the_same_bits() {
    let ranks = 16;
    let sys = laplace2d(18);
    assert_eq!(sys.n(), 324);
    let spec = ClusterSpec::test_cluster(2, 8);
    let placement = Placement::packed(&spec.node, ranks).unwrap();
    let machine = Machine::new(spec, placement, PowerModel::deterministic(), 5).unwrap();

    copy_audit::reset();
    let out = machine.run(|ctx| {
        let world = ctx.world();
        pcg(ctx, &world, &sys, &CgConfig::default()).expect("solves")
    });
    assert_eq!(copy_audit::count(), 0, "payload copies in one CG solve");

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let x0 = &out.results[0].x;
    assert_eq!(x0.len(), sys.n());
    for (r, solve) in out.results.iter().enumerate() {
        assert_eq!(bits(&solve.x), bits(x0), "rank {r}");
    }
    assert!(out.results[0].rel_residual <= CgConfig::default().tol);
}
