//! Message-for-message verification of the closed-form CG traffic model
//! against the simulator's ledger: `greenla_model::comm::cg_solve_traffic`
//! must reproduce the run's exact message and element counts, and the
//! closed-form flop/byte charges must reproduce the run's virtual time
//! through the spec-derived roofline.

use greenla_cg::formulas;
use greenla_cg::partition::{HaloPlan, HaloStats, RowBlocks};
use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::sparse::{laplace2d, random_spd};
use greenla_model::comm::cg_solve_traffic;
use greenla_model::roofline::{KernelProfile, Roofline};
use greenla_mpi::Machine;

fn machine(ranks: usize) -> Machine {
    // One node, all ranks on socket 0 — works for any rank count.
    let spec = ClusterSpec::test_cluster(1, ranks);
    let placement = Placement::explicit(&spec.node, ranks, &[ranks, 0]).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 7).unwrap()
}

#[test]
fn traffic_model_matches_the_simulator_message_for_message() {
    for (sys, ranks, cfg) in [
        (laplace2d(6), 4, CgConfig::default()),
        (laplace2d(6), 1, CgConfig::default()),
        (
            random_spd(40, 4, 3),
            5,
            CgConfig {
                jacobi: true,
                refresh_every: 3,
                ..CgConfig::default()
            },
        ),
    ] {
        let n = sys.n();
        let out = machine(ranks).run(|ctx| {
            let world = ctx.world();
            pcg(ctx, &world, &sys, &cfg).expect("solves")
        });
        let solve = &out.results[0];
        let stats = HaloStats::of(&HaloPlan::build_all(&sys.a, RowBlocks::new(n, ranks)));
        let (msgs, elems) = cg_solve_traffic(
            ranks,
            n,
            solve.iterations as u64,
            solve.refreshes as u64,
            stats.msgs,
            stats.elems,
        );
        assert_eq!(
            (out.traffic.msgs, out.traffic.volume_elems()),
            (msgs, elems),
            "ranks={ranks} n={n} iters={} refreshes={}",
            solve.iterations,
            solve.refreshes,
        );
    }
}

#[test]
fn roofline_reproduces_the_iterations_virtual_time() {
    // On the deterministic power model the spec roofline's rates are the
    // simulator's own charging rates, so per-rank compute time must match
    // the closed-form cost exactly (communication adds on top, so the
    // makespan brackets from above).
    let sys = laplace2d(8);
    let ranks = 4;
    let cfg = CgConfig::default();
    let spec = ClusterSpec::test_cluster(1, ranks);
    let out = machine(ranks).run(|ctx| {
        let world = ctx.world();
        pcg(ctx, &world, &sys, &cfg).expect("solves")
    });
    let solve = &out.results[0];

    let blocks = RowBlocks::new(sys.n(), ranks);
    let plans = HaloPlan::build_all(&sys.a, blocks);
    let rf = Roofline::from_spec(&spec);
    let per_rank_time: Vec<f64> = (0..ranks)
        .map(|r| {
            let rows = blocks.rows(r);
            let nnz = sys.a.row_block(blocks.lo(r), blocks.hi(r)).nnz();
            let cost = formulas::cg_solve_cost(
                rows,
                nnz,
                plans[r].recv_elems(),
                cfg.jacobi,
                solve.iterations as u64,
                0,
            );
            rf.predict(&KernelProfile::sparse(cost.flops, cost.bytes))
                .time_s
        })
        .collect();
    let compute_pred: f64 = per_rank_time.iter().fold(0.0f64, |m, &t| m.max(t));
    assert!(
        compute_pred > 0.0 && compute_pred <= out.makespan,
        "closed-form compute {compute_pred} vs makespan {}",
        out.makespan
    );
    // Communication on the test cluster is latency-dominated; compute
    // must still explain a visible share of the makespan.
    assert!(
        compute_pred / out.makespan > 0.01,
        "compute share {:.4}",
        compute_pred / out.makespan
    );
}

#[test]
fn spmv_sits_on_the_memory_ceiling_of_the_spec_roofline() {
    let sys = laplace2d(32);
    let rows = sys.n();
    let nnz = sys.a.nnz();
    let spec = ClusterSpec::test_cluster(1, 2);
    let rf = Roofline::from_spec(&spec);
    let cost = formulas::spmv_block_cost(rows, nnz, 0);
    let pred = rf.predict(&KernelProfile::sparse(cost.flops, cost.bytes));
    assert!(
        !pred.compute_bound,
        "SpMV must be memory-bound (AI {:.3})",
        pred.ai
    );
    // Pinned at the ceiling: attainable GFLOP/s equals AI × bandwidth.
    let ceiling = pred.ai * rf.mem_bw / 1e9;
    assert!(
        (pred.gflops - ceiling).abs() / ceiling < 1e-9,
        "{} vs ceiling {}",
        pred.gflops,
        ceiling
    );
}
