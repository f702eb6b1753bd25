//! Oracle property tests for distributed CG: every seeded SPD generator
//! at n = 1..64 must converge to the dense direct (LU) reference at 1e-10,
//! Jacobi preconditioning must never cost iterations, and
//! singular/indefinite inputs must abort with the stable diagnostic —
//! never a hang or a NaN spin.

use greenla_cg::solver::{pcg, CgConfig, CgSolve};
use greenla_cg::CgError;
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::sparse::{laplace2d, laplace3d, random_spd, CsrMatrix, SparseSystem};
use greenla_mpi::Machine;
use greenla_scalapack::getrs::gesv;

const RANKS: usize = 4;

fn machine(ranks: usize) -> Machine {
    // One node, all ranks on socket 0 — works for any rank count.
    let spec = ClusterSpec::test_cluster(1, ranks);
    let placement = Placement::explicit(&spec.node, ranks, &[ranks, 0]).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap()
}

fn solve(sys: &SparseSystem, cfg: &CgConfig, ranks: usize) -> Result<CgSolve, CgError> {
    let out = machine(ranks).run(|ctx| {
        let world = ctx.world();
        pcg(ctx, &world, sys, cfg)
    });
    // The outcome is decided on replicated inputs and allreduced scalars,
    // so every rank must return the same thing.
    let first = out.results[0].clone();
    for r in &out.results {
        match (&first, r) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.iterations, b.iterations);
                assert!(a
                    .x
                    .iter()
                    .zip(&b.x)
                    .all(|(p, q)| p.to_bits() == q.to_bits()));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("ranks disagree on the outcome"),
        }
    }
    first
}

#[test]
fn cg_matches_dense_cholesky_on_every_seeded_spd_oracle() {
    for n in 1..=64usize {
        let sys = random_spd(n, 3, n as u64);
        let dense = sys.to_dense();
        let x_ref = gesv(&dense.a, &dense.b, 32).expect("SPD oracle factors");
        let got = solve(&sys, &CgConfig::default(), RANKS).expect("CG converges");
        let err = got
            .x
            .iter()
            .zip(&x_ref)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err < 1e-10, "n={n}: max err {err:.3e} vs LU");
        assert!(sys.residual(&got.x) < 1e-10, "n={n}");
    }
}

#[test]
fn cg_matches_cholesky_on_stencil_systems() {
    for sys in [laplace2d(7), laplace3d(4)] {
        let dense = sys.to_dense();
        let x_ref = gesv(&dense.a, &dense.b, 32).expect("stencils are nonsingular");
        for jacobi in [false, true] {
            let cfg = CgConfig {
                jacobi,
                ..CgConfig::default()
            };
            let got = solve(&sys, &cfg, RANKS).expect("CG converges");
            let err = got
                .x
                .iter()
                .zip(&x_ref)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(err < 1e-10, "n={} jacobi={jacobi}: {err:.3e}", sys.n());
        }
    }
}

#[test]
fn jacobi_never_needs_more_iterations() {
    for seed in 0..8u64 {
        let sys = random_spd(48, 4, seed);
        let plain = solve(&sys, &CgConfig::default(), RANKS).expect("plain CG");
        let pre = solve(
            &sys,
            &CgConfig {
                jacobi: true,
                ..CgConfig::default()
            },
            RANKS,
        )
        .expect("Jacobi CG");
        assert!(
            pre.iterations <= plain.iterations,
            "seed {seed}: Jacobi {} > plain {}",
            pre.iterations,
            plain.iterations
        );
    }
}

#[test]
fn periodic_refresh_fires_and_still_converges() {
    let sys = laplace2d(8);
    let cfg = CgConfig {
        refresh_every: 5,
        tol: 1e-13,
        ..CgConfig::default()
    };
    let got = solve(&sys, &cfg, RANKS).expect("CG converges");
    assert!(got.refreshes >= 1, "refresh cadence of 5 never fired");
    assert!(sys.residual(&got.x) < 1e-12);
}

#[test]
fn singular_input_aborts_with_the_stable_diagnostic() {
    // Zero diagonal row: structurally singular, caught before any
    // communication.
    let a = CsrMatrix::from_rows(vec![vec![(0, 1.0)], vec![(0, 1.0)]]);
    let sys = SparseSystem {
        b: a.matvec(&[1.0, 1.0]),
        x_ref: vec![1.0, 1.0],
        a,
    };
    let err = solve(&sys, &CgConfig::default(), 2).expect_err("must abort");
    assert!(matches!(err, CgError::NonPositiveDiagonal { row: 1, .. }));
}

#[test]
fn indefinite_input_aborts_not_spins() {
    // Positive diagonal but indefinite (eigenvalues 3 and −1): the
    // curvature test must fire within the first iterations.
    let a = CsrMatrix::from_rows(vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 1.0)]]);
    let sys = SparseSystem {
        b: vec![1.0, -1.0],
        x_ref: vec![0.0, 0.0],
        a,
    };
    let err = solve(&sys, &CgConfig::default(), 2).expect_err("must abort");
    match err {
        CgError::IndefiniteOperator { curvature, .. } => {
            assert!(curvature <= 0.0, "curvature {curvature}")
        }
        other => panic!("wrong abort: {other}"),
    }
}

#[test]
fn iteration_budget_aborts_with_no_convergence() {
    let sys = random_spd(40, 4, 2);
    let err = solve(
        &sys,
        &CgConfig {
            max_iters: 2,
            ..CgConfig::default()
        },
        RANKS,
    )
    .expect_err("2 iterations cannot reach 1e-12");
    match err {
        CgError::NoConvergence {
            iterations,
            rel_residual,
        } => {
            assert_eq!(iterations, 2);
            assert!(rel_residual.is_finite());
        }
        other => panic!("wrong abort: {other}"),
    }
}

#[test]
fn zero_rhs_returns_the_zero_solution_immediately() {
    let mut sys = laplace2d(4);
    sys.b = vec![0.0; sys.n()];
    let got = solve(&sys, &CgConfig::default(), RANKS).expect("trivial solve");
    assert_eq!(got.iterations, 0);
    assert!(got.x.iter().all(|&v| v == 0.0));
}

#[test]
fn more_ranks_than_rows_still_works() {
    // Ranks 3.. own zero rows; they must still participate in every
    // reduction and the final allgather without deadlocking.
    let sys = random_spd(3, 2, 5);
    let got = solve(&sys, &CgConfig::default(), 6).expect("CG converges");
    assert!(sys.residual(&got.x) < 1e-10);
}
