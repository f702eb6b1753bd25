//! Randomised-property tests on the workspace's core invariants: solver
//! exactness over random well-conditioned systems and shapes, block-cyclic
//! index algebra, RAPL counter arithmetic, and placement bookkeeping.
//!
//! Each test draws its cases from a seeded [`ChaCha8Rng`], so failures are
//! reproducible: the case loop is deterministic and every assertion
//! message carries the drawn parameters.

use greenla::cluster::placement::{LoadLayout, Placement};
use greenla::cluster::spec::NodeSpec;
use greenla::ime::solve_seq;
use greenla::linalg::generate;
use greenla::scalapack::desc::{g2l, l2g, numroc, owner};
use greenla::scalapack::getrs::gesv;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sequential IMe solves every diagonally dominant system exactly.
#[test]
fn ime_exact_on_random_dominant_systems() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..60);
        let seed = rng.gen_range(0u64..5000);
        let sys = generate::diag_dominant(n, seed);
        let (x, stats) = solve_seq(&sys).unwrap();
        let residual = sys.residual(&x);
        assert!(residual < 1e-11, "n={n} seed={seed}: residual {residual}");
        assert_eq!(stats.levels, n, "n={n} seed={seed}");
    }
}

/// LU with partial pivoting agrees with IMe on the same system.
#[test]
fn lu_and_ime_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    for _ in 0..48 {
        let n = rng.gen_range(2usize..48);
        let seed = rng.gen_range(0u64..5000);
        let nb = rng.gen_range(1usize..20);
        let sys = generate::diag_dominant(n, seed);
        let (x_ime, _) = solve_seq(&sys).unwrap();
        let x_lu = gesv(&sys.a, &sys.b, nb).unwrap();
        for (a, b) in x_ime.iter().zip(&x_lu) {
            assert!(
                (a - b).abs() < 1e-8,
                "n={n} seed={seed} nb={nb}: {a} vs {b}"
            );
        }
    }
}

/// LU block size never changes the answer.
#[test]
fn lu_block_size_invariance() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for _ in 0..48 {
        let n = rng.gen_range(2usize..40);
        let seed = rng.gen_range(0u64..1000);
        let nb1 = rng.gen_range(1usize..16);
        let nb2 = rng.gen_range(16usize..70);
        let sys = generate::circuit_network(n, seed);
        let x1 = gesv(&sys.a, &sys.b, nb1).unwrap();
        let x2 = gesv(&sys.a, &sys.b, nb2).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!(
                (a - b).abs() < 1e-9,
                "n={n} seed={seed} nb1={nb1} nb2={nb2}: {a} vs {b}"
            );
        }
    }
}

/// Block-cyclic index algebra: numroc partitions exactly, g2l/l2g invert
/// each other, local indices are dense.
#[test]
fn block_cyclic_algebra() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE1F);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..300);
        let nb = rng.gen_range(1usize..32);
        let p = rng.gen_range(1usize..12);
        let total: usize = (0..p).map(|i| numroc(n, nb, i, p)).sum();
        assert_eq!(total, n, "n={n} nb={nb} p={p}");
        for g in (0..n).step_by(7) {
            let o = owner(g, nb, p);
            assert!(o < p, "n={n} nb={nb} p={p} g={g}");
            assert_eq!(l2g(g2l(g, nb, p), nb, o, p), g, "n={n} nb={nb} p={p}");
        }
    }
}

/// Placement invariants for every layout: no core is shared, socket loads
/// match the layout, node count divides exactly.
#[test]
fn placement_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
    for _ in 0..48 {
        let nodes_wanted = rng.gen_range(1usize..10);
        let cps = rng.gen_range(2usize..8);
        let node = NodeSpec::test_node(cps);
        for layout in LoadLayout::all() {
            let rpn = layout.ranks_per_node(&node);
            let ranks = rpn * nodes_wanted;
            let p = Placement::layout(&node, ranks, layout).unwrap();
            assert_eq!(p.nodes_used(), nodes_wanted, "cps={cps} layout={layout}");
            let mut seen = std::collections::HashSet::new();
            for r in 0..ranks {
                assert!(seen.insert(p.core_of(r)), "cps={cps} core shared");
            }
            // Socket population on node 0 matches the layout.
            let (s0, s1) = layout.per_socket(&node);
            let on0 = (0..ranks)
                .filter(|&r| p.node_of(r) == 0 && p.core_of(r).socket == 0)
                .count();
            let on1 = (0..ranks)
                .filter(|&r| p.node_of(r) == 0 && p.core_of(r).socket == 1)
                .count();
            assert_eq!((on0, on1), (s0, s1), "cps={cps} layout={layout}");
        }
    }
}

/// The power model is monotone: more active cores, more power; energy is
/// non-decreasing in time.
#[test]
fn power_model_monotone() {
    use greenla::cluster::ledger::Ledger;
    use greenla::cluster::PowerModel;
    let mut rng = ChaCha8Rng::seed_from_u64(0x90F);
    for _ in 0..48 {
        let active = rng.gen_range(0usize..24);
        let t = rng.gen_range(0.01f64..100.0);
        let pm = PowerModel::deterministic();
        let p1 = pm.pkg_power_w(24, active, 0);
        let p2 = pm.pkg_power_w(24, (active + 1).min(24), 0);
        assert!(p2 >= p1, "active={active}");
        // idle energy scales linearly in t
        let ledger = Ledger::new(NodeSpec::marconi_a3(), 1);
        let e1 = pm.pkg_energy_j(&ledger, 0, 0, t, 0);
        let e2 = pm.pkg_energy_j(&ledger, 0, 0, t * 2.0, 0);
        assert!((e2 / e1 - 2.0).abs() < 1e-9, "t={t}");
    }
}

/// Distributed LU equals sequential LU for random shapes and grids
/// (slower: spins up a simulated machine per case).
#[test]
fn pdgesv_matches_gesv() {
    use greenla::cluster::spec::ClusterSpec;
    use greenla::cluster::PowerModel;
    use greenla::mpi::Machine;
    use greenla::scalapack::pdgesv::pdgesv;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5CA1A);
    for _ in 0..12 {
        let n = rng.gen_range(8usize..40);
        let seed = rng.gen_range(0u64..100);
        let ranks = rng.gen_range(2usize..9);
        let sys = generate::diag_dominant(n, seed);
        let reference = gesv(&sys.a, &sys.b, 8).unwrap();
        let spec = ClusterSpec::test_cluster(4, 4);
        let placement = Placement::packed(&spec.node, ranks).unwrap();
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), seed).unwrap();
        let out = machine.run(|ctx| {
            let world = ctx.world();
            pdgesv(ctx, &world, &sys, 4).unwrap()
        });
        for x in &out.results {
            for (a, b) in x.iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "n={n} seed={seed} ranks={ranks}: {a} vs {b}"
                );
            }
        }
    }
}
