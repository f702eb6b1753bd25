//! How often one `pdgesv` deep-copies a message buffer. The panel, U12
//! and solved-block broadcasts hand every rank the shared replica, so what
//! the process-global `copy_audit` counter still sees is mostly the
//! unwraps inside the small tree allreduces of the triangular solves.
//!
//! The count is held to a bound, not an exact value: an interior tree
//! rank's unwrap races its children's drops of the same buffer, so it
//! moves by a few from run to run. This file is its own test binary and
//! holds one test, because the counter is global to the process.

use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::generate;
use greenla_mpi::{copy_audit, Machine};
use greenla_scalapack::getrs::gesv;
use greenla_scalapack::pdgesv::pdgesv;

/// Copies one pdgesv at n = 480 on a 4 × 4 grid may make. Owned
/// broadcasts made 870.
const MAX_COPIES: u64 = 150;

#[test]
fn one_pdgesv_copies_few_buffers_and_solves_bit_for_bit() {
    let (n, ranks, nb) = (480, 16, 32);
    let sys = generate::diag_dominant(n, 7);
    let spec = ClusterSpec::test_cluster(4, 4);
    let placement = Placement::packed(&spec.node, ranks).unwrap();
    let machine = Machine::new(spec, placement, PowerModel::deterministic(), 5).unwrap();

    copy_audit::reset();
    let out = machine.run(|ctx| {
        let world = ctx.world();
        pdgesv(ctx, &world, &sys, nb).expect("nonsingular")
    });
    let copies = copy_audit::count();
    assert!(
        copies <= MAX_COPIES,
        "{copies} payload copies, bound {MAX_COPIES}"
    );

    // Distributed sums associate differently from the sequential solve, so
    // the solution matches it to rounding, and every rank holds the same bits.
    let seq = gesv(&sys.a, &sys.b, nb).expect("nonsingular");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (r, x) in out.results.iter().enumerate() {
        assert_eq!(bits(x), bits(&out.results[0]), "rank {r}");
    }
    let err = out.results[0]
        .iter()
        .zip(&seq)
        .map(|(x, s)| (x - s).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-13, "max |x - x_seq| = {err:e}");
}
