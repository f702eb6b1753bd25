//! Integration tests for the parallel Inhibition Method (IMeP) and its
//! checksum protection on the simulated cluster.

use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_ime::par::{predict_traffic, BCAST_CHUNK};
use greenla_ime::{solve_imep, solve_imep_multi, solve_seq, ImeError, ImepOptions};
use greenla_linalg::generate::{self, LinearSystem};
use greenla_mpi::{ColumnLoss, FaultPlan, FaultReport, FaultSink, Machine, RunOutput};

fn machine(ranks: usize, seed: u64) -> Machine {
    let spec = ClusterSpec::test_cluster(8, 4);
    let placement = Placement::packed(&spec.node, ranks).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), seed).unwrap()
}

/// A machine whose fault plan loses table `column` at `level` and nothing
/// else — the one way a column loss is staged.
fn lossy_machine(ranks: usize, level: usize, column: usize) -> (Machine, FaultSink) {
    let sink = FaultSink::with_plan(FaultPlan {
        column_loss: Some(ColumnLoss { level, column }),
        ..FaultPlan::default()
    });
    (machine(ranks, 9).with_faults(sink.clone()), sink)
}

fn run_imep(m: &Machine, sys: &LinearSystem, opts: ImepOptions) -> RunOutput<Vec<f64>> {
    m.run(|ctx| {
        let world = ctx.world();
        solve_imep(ctx, &world, sys, opts).unwrap()
    })
}

/// `solve_imep` under a planned loss: every rank's solution and the run's
/// fault accounting.
fn solve_with_loss(
    sys: &LinearSystem,
    ranks: usize,
    opts: ImepOptions,
    level: usize,
    column: usize,
) -> (Vec<Vec<f64>>, FaultReport) {
    let (m, sink) = lossy_machine(ranks, level, column);
    (run_imep(&m, sys, opts).results, sink.report())
}

/// One loss went in, was noticed, and came back.
fn assert_one_loss_recovered(rep: &FaultReport, what: &str) {
    let tally = [rep.injected, rep.observed, rep.recovered].map(|c| (c.column_loss, c.total()));
    assert_eq!(tally, [(1, 1); 3], "{what}: {rep:?}");
}

fn assert_close(xs: &[Vec<f64>], x_ref: &[f64], tol: f64, what: &str) {
    for x in xs {
        assert_eq!(x.len(), x_ref.len(), "{what}");
        for (a, b) in x.iter().zip(x_ref) {
            assert!((a - b).abs() < tol, "{what}: {a} vs {b}");
        }
    }
}

/// Every rank's solution has `x_seq`'s bits.
fn assert_bits(xs: &[Vec<f64>], x_seq: &[f64], what: &str) {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for x in xs {
        assert_eq!(bits(x), bits(x_seq), "{what}");
    }
}

#[test]
fn imep_matches_sequential_exactly() {
    // The level loop — per level, or fused over blocks of levels when a
    // rank holds 64+ columns — against the sequential oracle, bit for
    // bit. n = 1 and 2 leave ranks without a column; n = 33 and 130 end
    // on a ragged block. Poisson2d's zeros skip levels (α = 0).
    let centralized = ImepOptions {
        centralized_h: true,
        ..ImepOptions::optimized()
    };
    let dense = [1, 2, 7, 33, 64, 130].map(|n| generate::diag_dominant(n, 4 + n as u64));
    let stencil = [1, 2, 3, 6, 8, 11].map(|k| generate::poisson2d(k, 0));
    for sys in dense.iter().chain(&stencil) {
        let (x_seq, _) = solve_seq(sys).unwrap();
        for ranks in [1, 2, 3, 4, 7] {
            for opts in [ImepOptions::paper(), ImepOptions::optimized(), centralized] {
                let out = run_imep(&machine(ranks, 1), sys, opts);
                let what = format!("n={} ranks={ranks} {opts:?}", sys.n());
                assert_bits(&out.results, &x_seq, &what);
            }
        }
    }
}

/// The release-size case: n = 1100 exceeds `BCAST_CHUNK`, so every level
/// column streams down the pipelined tree in two chunks, each rank
/// assembles its own replica, and the fused sweep forms `h` from it.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-size case; run with --release")]
fn release_size_case_matches_sequential_exactly() {
    let sys = generate::diag_dominant(1100, 11);
    assert!(sys.n() > BCAST_CHUNK);
    let (x_seq, _) = solve_seq(&sys).unwrap();
    let out = run_imep(&machine(3, 1), &sys, ImepOptions::optimized());
    assert_bits(&out.results, &x_seq, "n=1100 ranks=3");
}

#[test]
fn imep_solves_various_systems() {
    for (sys, name) in [
        (generate::circuit_network(24, 2), "circuit"),
        (generate::spd(18, 3), "spd"),
        (generate::poisson2d(5, 0), "poisson"),
    ] {
        let m = machine(6, 2);
        let out = run_imep(&m, &sys, ImepOptions::default());
        let r = sys.residual(&out.results[0]);
        assert!(r < 1e-11, "{name}: residual {r}");
    }
}

#[test]
fn imep_results_replicated_across_ranks() {
    let sys = generate::diag_dominant(20, 5);
    let m = machine(5, 3);
    let out = run_imep(&m, &sys, ImepOptions::default());
    for x in &out.results[1..] {
        assert_eq!(x, &out.results[0]);
    }
}

#[test]
fn imep_traffic_matches_prediction_exactly() {
    let n = 24;
    let sys = generate::diag_dominant(n, 6);
    for opts in [ImepOptions::paper(), ImepOptions::optimized()] {
        for ranks in [2, 3, 6] {
            let m = machine(ranks, 4);
            run_imep(&m, &sys, opts);
            let snap = m.traffic();
            let (msgs, elems) = predict_traffic(n, ranks, opts);
            assert_eq!(snap.msgs, msgs, "message count for N={ranks} {opts:?}");
            assert_eq!(snap.volume_elems(), elems, "volume for N={ranks} {opts:?}");
        }
    }
}

#[test]
fn optimized_imep_same_solution_less_traffic_and_time() {
    let n = 30;
    let sys = generate::diag_dominant(n, 13);
    let run = |opts: ImepOptions| {
        let m = machine(6, 14);
        let out = run_imep(&m, &sys, opts);
        (out.results[0].clone(), m.traffic().msgs, out.makespan)
    };
    let (x_paper, msgs_paper, t_paper) = run(ImepOptions::paper());
    let (x_opt, msgs_opt, t_opt) = run(ImepOptions::optimized());
    // h derived locally is arithmetically identical (same divisions).
    for (a, b) in x_paper.iter().zip(&x_opt) {
        assert!((a - b).abs() < 1e-13, "{a} vs {b}");
    }
    assert!(sys.residual(&x_opt) < 1e-12);
    assert!(msgs_opt < msgs_paper, "{msgs_opt} vs {msgs_paper}");
    assert!(t_opt < t_paper, "{t_opt} vs {t_paper}");
}

#[test]
fn imep_traffic_same_order_as_paper_formulas() {
    // The paper's closed forms count a flat master-to-slaves broadcast as
    // N−1 messages and per-element last-row exchanges; our tree collectives
    // produce the same N−1 edges but batch the row returns, so the counts
    // agree to a modest constant factor and share the V ≈ Θ(N·n²) shape.
    let n = 48;
    for ranks in [4, 8] {
        let (msgs, elems) = predict_traffic(n, ranks, ImepOptions::default());
        let m_paper = greenla_ime::formulas::messages_imep_paper(n, ranks);
        let v_paper = greenla_ime::formulas::volume_imep_paper(n, ranks);
        let m_ratio = msgs as f64 / m_paper as f64;
        let v_ratio = elems as f64 / v_paper as f64;
        assert!((0.05..=20.0).contains(&m_ratio), "message ratio {m_ratio}");
        assert!((0.05..=20.0).contains(&v_ratio), "volume ratio {v_ratio}");
    }
}

/// Ablation A-1 (EXPERIMENTS.md): the paper-faithful protocol against each
/// communication optimisation, in virtual time and message count — both
/// deterministic, so the table is pinned here; `--nocapture` prints it.
#[test]
fn ablation_a1_protocol_variants_trade_messages_for_time() {
    let sys = generate::diag_dominant(192, 77);
    let base = ImepOptions::paper();
    let variants = [
        ("paper", base, 8685),
        (
            "no-last-rows",
            ImepOptions {
                collect_last_rows: false,
                ..base
            },
            5805,
        ),
        (
            "local-h",
            ImepOptions {
                centralized_h: false,
                ..base
            },
            5805,
        ),
        (
            "pipelined-bcast",
            ImepOptions {
                pipelined_bcast: true,
                ..base
            },
            11565,
        ),
        ("optimized", ImepOptions::optimized(), 5805),
    ];
    let runs = variants.map(|(name, opts, _)| {
        let spec = ClusterSpec::test_cluster(4, 4);
        let placement = Placement::packed(&spec.node, 16).unwrap();
        let power = PowerModel::scaled_deterministic(&spec.node);
        let machine = Machine::new(spec, placement, power, 66).unwrap();
        let out = run_imep(&machine, &sys, opts);
        (name, out.results[0].clone(), out.makespan, out.traffic.msgs)
    });
    println!("A-1 IMeP protocol ablation (n=192, 16 ranks):");
    let (t_base, m_base) = (runs[0].2, runs[0].3 as f64);
    for ((name, x, t, msgs), (_, _, expected)) in runs.iter().zip(variants) {
        println!(
            "  {name:<16} {t:>10.6} s ({:+6.1} %)   {msgs:>6} msgs ({:+6.1} %)",
            (t / t_base - 1.0) * 100.0,
            (*msgs as f64 / m_base - 1.0) * 100.0
        );
        assert_eq!(*msgs, expected, "{name}: message count");
        assert_eq!(x, &runs[0].1, "{name}: traffic must not affect the maths");
    }
    let [paper, no_last_rows, local_h, pipelined, optimized] = runs.each_ref().map(|r| r.2);
    assert!(local_h < optimized && optimized < no_last_rows);
    assert!(no_last_rows < paper && paper < pipelined);
}

/// `solve_imep_multi` (optimised protocol) on `m`: one solution per
/// right-hand side, each with a residual under `tol` against its own `b`.
fn solve_multi_checked(m: &Machine, sys: &LinearSystem, bs: &[Vec<f64>], tol: f64) {
    let out = m.run(|ctx| {
        let world = ctx.world();
        solve_imep_multi(ctx, &world, sys, bs, ImepOptions::optimized()).unwrap()
    });
    assert_eq!(out.results[0].len(), bs.len());
    for (b, x) in bs.iter().zip(&out.results[0]) {
        let probe = LinearSystem {
            a: sys.a.clone(),
            b: b.clone(),
            x_ref: None,
        };
        assert!(probe.residual(x) < tol, "residual {}", probe.residual(x));
    }
}

#[test]
fn multi_rhs_reuses_one_reduction() {
    let n = 24;
    let sys = generate::diag_dominant(n, 21);
    // Three right-hand sides, including the system's own.
    let bs: Vec<Vec<f64>> = vec![
        sys.b.clone(),
        (0..n).map(|i| (i as f64).cos()).collect(),
        vec![1.0; n],
    ];
    let m = machine(4, 15);
    solve_multi_checked(&m, &sys, &bs, 1e-11);
    // The extra solves are cheap: traffic grows by O(n) per RHS, not O(n²).
    let single = {
        let m2 = machine(4, 15);
        run_imep(&m2, &sys, ImepOptions::optimized());
        m2.traffic().volume_elems()
    };
    let triple = m.traffic().volume_elems();
    let per_extra_rhs = (triple - single) as f64 / 2.0;
    assert!(
        per_extra_rhs < (4 * n * 3) as f64,
        "extra RHS cost {per_extra_rhs} elems should be O(n)"
    );
}

#[test]
fn zero_diagonal_fails_on_all_ranks() {
    let mut sys = generate::diag_dominant(8, 8);
    sys.a[(3, 3)] = 0.0;
    let m = machine(4, 6);
    let out = m.run(|ctx| {
        let world = ctx.world();
        solve_imep(ctx, &world, &sys, ImepOptions::default())
    });
    for r in out.results {
        assert_eq!(r, Err(ImeError::ZeroDiagonal { row: 3 }));
    }
}

#[test]
fn zero_inhibitor_fails_consistently() {
    use greenla_linalg::Matrix;
    let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
    let sys = generate::LinearSystem {
        a,
        b: vec![1.0, 2.0],
        x_ref: None,
    };
    let m = machine(2, 7);
    let out = m.run(|ctx| {
        let world = ctx.world();
        solve_imep(ctx, &world, &sys, ImepOptions::default())
    });
    for r in out.results {
        assert!(matches!(r, Err(ImeError::ZeroInhibitor { .. })));
    }
}

#[test]
fn imep_charges_more_flops_than_scalapack_model() {
    // The energy story of the paper rests on IMe executing ~3× the flops of
    // Gaussian elimination; verify the ledger shows it.
    let n = 40;
    let sys = generate::diag_dominant(n, 12);
    let m = machine(4, 11);
    run_imep(&m, &sys, ImepOptions::default());
    let flops = m.ledger().total_flops();
    let ge_model = greenla_linalg::flops::ge_paper_model(n);
    assert!(
        flops > 2 * ge_model,
        "IMeP charged {flops} flops, GE model is {ge_model}"
    );
}

#[test]
fn a_plan_without_a_column_loss_leaves_imep_alone() {
    // Protection is armed by a planned loss and by nothing else: a machine
    // with a fault sink whose plan cannot lose a column runs the very
    // program a machine without one runs.
    let sys = generate::diag_dominant(21, 9);
    for opts in [ImepOptions::paper(), ImepOptions::optimized()] {
        let sink = FaultSink::with_plan(FaultPlan::default());
        let [clean, armed] = [machine(3, 8), machine(3, 8).with_faults(sink.clone())]
            .map(|m| run_imep(&m, &sys, opts));
        assert_eq!(clean.results, armed.results);
        assert_eq!(clean.makespan.to_bits(), armed.makespan.to_bits());
        assert_eq!(clean.traffic.msgs, armed.traffic.msgs);
        assert!(sink.report().is_empty());
    }
}

#[test]
fn protection_traffic_is_exact() {
    // The exact-traffic contract, extended to the protected run: on top of
    // the unprotected program's messages, the initial reduce and the
    // survivor reduce (N−1 each) and the hand-back unless the master is
    // the victim — n elements apiece, under either protocol.
    let n = 24;
    let sys = generate::diag_dominant(n, 6);
    for opts in [ImepOptions::paper(), ImepOptions::optimized()] {
        for ranks in [3, 6] {
            // Column n is the master's (n % ranks == 0); n + 1 is rank 1's.
            for (column, hand_back) in [(n, 0), (n + 1, 1)] {
                let (m, sink) = lossy_machine(ranks, n / 2, column);
                run_imep(&m, &sys, opts);
                assert_one_loss_recovered(&sink.report(), "traffic");
                let snap = m.traffic();
                let (msgs, elems) = predict_traffic(n, ranks, opts);
                let extra = 2 * (ranks as u64 - 1) + hand_back;
                let what = format!("N={ranks} column={column} {opts:?}");
                assert_eq!(snap.msgs, msgs + extra, "messages, {what}");
                assert_eq!(snap.volume_elems(), elems + extra * n as u64, "{what}");
            }
        }
    }
}

#[test]
fn ft_recovers_lost_columns() {
    let n = 18;
    let sys = generate::diag_dominant(n, 10);
    let (x_ref, _) = solve_seq(&sys).unwrap();
    // Lose a left column, a right column, early and late, on various
    // owners, under the paper's protocol and the tuned one.
    for opts in [ImepOptions::paper(), ImepOptions::optimized()] {
        for (level, column) in [(n - 1, 3), (n / 2, n + 5), (1, n + 1), (n / 2, 0)] {
            let what = format!("{opts:?}, loss at level {level} col {column}");
            let (xs, rep) = solve_with_loss(&sys, 4, opts, level, column);
            assert_close(&xs, &x_ref, 1e-9, &what);
            assert!(sys.residual(&xs[0]) < 1e-10, "{what}");
            assert_one_loss_recovered(&rep, &what);
        }
    }
}

#[test]
fn ft_recovery_when_master_is_victim() {
    let n = 12;
    let sys = generate::circuit_network(n, 11);
    // Column 0 and column n are owned by rank 0 (the master).
    let (xs, rep) = solve_with_loss(&sys, 3, ImepOptions::paper(), n / 2, 0);
    assert!(sys.residual(&xs[0]) < 1e-10);
    assert_one_loss_recovered(&rep, "master is the victim");
}

#[test]
fn ft_recovers_runtime_planned_column_loss() {
    // Out-of-range level/column prove the clamp makes plans portable
    // across problem sizes.
    let n = 16;
    let sys = generate::diag_dominant(n, 17);
    let (x_ref, _) = solve_seq(&sys).unwrap();
    for (level, column) in [(5, 9), (n + 3, 7 * n)] {
        let what = format!("level={level} col={column}");
        let (xs, rep) = solve_with_loss(&sys, 4, ImepOptions::optimized(), level, column);
        assert_close(&xs, &x_ref, 1e-9, &what);
        assert_one_loss_recovered(&rep, &what);
    }
}

#[test]
fn ft_property_random_column_loss_at_every_level() {
    // Property sweep for the checksum invariant: for every size up to 40,
    // every level and rank counts up to P > 2n (ranks that own no column
    // still sit through arm and recovery), losing one randomly chosen
    // column is recoverable and the recovered solution matches the
    // fault-free sequential one. The protocol alternates with the level.
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0_1055);
    for n in 1..40usize {
        let sys = generate::diag_dominant(n, 100 + n as u64);
        let (x_ref, _) = solve_seq(&sys).unwrap();
        for level in 0..n {
            let column: usize = rng.gen_range(0..2 * n);
            let opts = [ImepOptions::paper(), ImepOptions::optimized()][level % 2];
            for ranks in [1, 2, 4, (2 * n + 1).min(32)] {
                let what = format!("n={n} ranks={ranks} level={level} col={column}");
                let (xs, rep) = solve_with_loss(&sys, ranks, opts, level, column);
                assert_close(&xs, &x_ref, 1e-8, &what);
                assert_one_loss_recovered(&rep, &what);
            }
        }
    }
}

#[test]
fn ft_degenerate_sizes() {
    // n = 0 has no level, so nothing to lose and nothing injected; n = 1
    // loses a column at its only level.
    let empty = LinearSystem {
        a: greenla_linalg::Matrix::zeros(0, 0),
        b: vec![],
        x_ref: None,
    };
    let (xs, rep) = solve_with_loss(&empty, 2, ImepOptions::paper(), 0, 1);
    assert!(xs.iter().all(|x| x.is_empty()));
    assert!(rep.is_empty(), "{rep:?}");

    let one = generate::diag_dominant(1, 14);
    for column in [0, 1] {
        let (xs, rep) = solve_with_loss(&one, 2, ImepOptions::paper(), 0, column);
        let r = one.residual(&xs[0]);
        assert!(r < 1e-12, "n=1 column={column}: residual {r}");
        assert_one_loss_recovered(&rep, "n=1");
    }
}

#[test]
fn multi_rhs_recovers_a_planned_loss() {
    // The reduction is shared, so `solve_imep_multi` is protected too.
    let n = 20;
    let sys = generate::diag_dominant(n, 22);
    let bs = vec![sys.b.clone(), vec![1.0; n]];
    let (m, sink) = lossy_machine(4, n / 2, n + 3);
    solve_multi_checked(&m, &sys, &bs, 1e-10);
    assert_one_loss_recovered(&sink.report(), "multi-RHS");
}
