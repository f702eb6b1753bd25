//! Driver: distribute, factor, solve (`pdgesv`) — the routine the paper
//! benchmarks as "Gaussian Elimination by ScaLAPACK".

use crate::desc::BlockDesc;
use crate::distribute::DistMatrix;
use crate::error::LuError;
use crate::grid::ProcessGrid;
use crate::pdgetrf::pdgetrf;
use crate::pdgetrs::pdgetrs;
use greenla_linalg::generate::{ColumnSource, LinearSystem};
use greenla_mpi::{Comm, RankCtx};

/// Default ScaLAPACK block size.
pub const DEFAULT_NB: usize = 64;

/// Solve a replicated linear system over all ranks of `comm` using a 2-D
/// block-cyclic LU with partial pivoting. Returns the solution (replicated
/// on every rank).
///
/// Collective over `comm`; every rank must pass the same system.
pub fn pdgesv(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    nb: usize,
) -> Result<Vec<f64>, LuError> {
    pdgesv_columns(ctx, comm, &sys.a, &sys.b, nb)
}

/// As [`pdgesv`] for any [`ColumnSource`]: each rank reads only its own
/// block-cyclic share of `a`, so a seeded source never builds the matrix.
pub fn pdgesv_columns(
    ctx: &mut RankCtx,
    comm: &Comm,
    a: &(impl ColumnSource + ?Sized),
    b: &[f64],
    nb: usize,
) -> Result<Vec<f64>, LuError> {
    let p = comm.size();
    let (nprow, npcol) = ProcessGrid::square_shape(p);
    let grid = ProcessGrid::new(ctx, comm, nprow, npcol);
    pdgesv_on_grid(ctx, &grid, a, b, nb)
}

/// As [`pdgesv_columns`] but over an existing grid (lets benchmarks
/// control the grid shape).
pub fn pdgesv_on_grid(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    a: &(impl ColumnSource + ?Sized),
    b: &[f64],
    nb: usize,
) -> Result<Vec<f64>, LuError> {
    let n = b.len();
    let nb = nb.max(1).min(n);
    let desc = BlockDesc::square(n, nb, grid.nprow(), grid.npcol());
    let mut a = DistMatrix::from_columns(ctx, grid, desc, a);
    let ipiv = pdgetrf(ctx, grid, &mut a)?;
    let mut x = b.to_vec();
    pdgetrs(ctx, grid, &a, &ipiv, &mut x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_linalg::generate;
    use greenla_mpi::Machine;

    fn machine(ranks: usize) -> Machine {
        let spec = ClusterSpec::test_cluster(8, 4);
        let placement = Placement::packed(&spec.node, ranks).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 5).unwrap()
    }

    fn solve_and_check(ranks: usize, n: usize, nb: usize, seed: u64) {
        let sys = generate::diag_dominant(n, seed);
        let m = machine(ranks);
        let out = m.run(|ctx| {
            let world = ctx.world();
            pdgesv(ctx, &world, &sys, nb).unwrap()
        });
        for x in &out.results {
            let r = sys.residual(x);
            assert!(r < 1e-11, "residual {r} for ranks={ranks} n={n} nb={nb}");
        }
        // Replicated results are identical across ranks.
        for x in &out.results[1..] {
            assert_eq!(x, &out.results[0]);
        }
    }

    #[test]
    fn single_rank_grid() {
        solve_and_check(1, 24, 4, 1);
    }

    #[test]
    fn various_grids_and_blocks() {
        solve_and_check(4, 30, 4, 2); // 2×2
        solve_and_check(8, 33, 5, 3); // 2×4, ragged blocks
        solve_and_check(16, 40, 8, 4); // 4×4
    }

    #[test]
    fn block_bigger_than_matrix() {
        solve_and_check(4, 10, 64, 5);
    }

    #[test]
    fn matches_sequential_pivots_and_factors() {
        let n = 26;
        let sys = generate::circuit_network(n, 8);
        // Sequential reference.
        let mut seq = sys.a.clone();
        let ipiv_seq = crate::getrf::getrf(&mut seq, 4).unwrap();
        let m = machine(4);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 2);
            let desc = BlockDesc::square(n, 4, 2, 2);
            let mut a = DistMatrix::from_global(ctx, &grid, desc, &sys.a);
            let ipiv = pdgetrf(ctx, &grid, &mut a).unwrap();
            let gathered = a.gather_to_root(ctx, &grid);
            (ipiv, gathered)
        });
        let (ipiv, gathered) = &out.results[0];
        assert_eq!(ipiv, &ipiv_seq, "pivot sequences must match LAPACK exactly");
        let g = gathered.as_ref().unwrap();
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (g[(i, j)] - seq[(i, j)]).abs() < 1e-9,
                    "factor mismatch at ({i},{j}): {} vs {}",
                    g[(i, j)],
                    seq[(i, j)]
                );
            }
        }
    }

    #[test]
    fn singular_matrix_detected_on_all_ranks() {
        use greenla_linalg::Matrix;
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        // Rank-deficient: two identical columns.
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 5 + j * 3) % 7) as f64;
            }
        }
        for i in 0..n {
            let v = a[(i, 2)];
            a[(i, 5)] = v;
        }
        let sys = generate::LinearSystem {
            a,
            b: vec![1.0; n],
            x_ref: None,
        };
        let m = machine(4);
        let out = m.run(|ctx| {
            let world = ctx.world();
            pdgesv(ctx, &world, &sys, 2)
        });
        for r in out.results {
            assert!(matches!(r, Err(LuError::Singular { .. })), "got {r:?}");
        }
    }

    #[test]
    fn non_square_grid_shapes() {
        let sys = generate::spd(21, 6);
        let m = machine(6);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 3);
            pdgesv_on_grid(ctx, &grid, &sys.a, &sys.b, 4).unwrap()
        });
        for x in out.results {
            assert!(sys.residual(&x) < 1e-11);
        }
    }

    #[test]
    fn poisson_system_solves() {
        let sys = generate::poisson2d(6, 0); // n = 36
        let m = machine(9);
        let out = m.run(|ctx| {
            let world = ctx.world();
            pdgesv(ctx, &world, &sys, 4).unwrap()
        });
        assert!(sys.residual(&out.results[0]) < 1e-12);
    }

    /// Ablation A-2 (EXPERIMENTS.md): the latency-vs-locality trade-off of
    /// the block size, in virtual time — deterministic, so the shape is
    /// pinned here; `--nocapture` prints the sweep.
    #[test]
    fn ablation_a2_block_size_has_an_interior_optimum() {
        let sys = generate::diag_dominant(256, 77);
        println!("A-2 pdgesv block-size sweep (n=256, 16 ranks), virtual time:");
        let times: Vec<f64> = [2usize, 4, 8, 16, 32, 64]
            .iter()
            .map(|&nb| {
                let spec = ClusterSpec::test_cluster(4, 4);
                let placement = Placement::packed(&spec.node, 16).unwrap();
                let power = PowerModel::scaled_deterministic(&spec.node);
                let machine = Machine::new(spec, placement, power, 88).unwrap();
                let out = machine.run(|ctx| {
                    let world = ctx.world();
                    pdgesv(ctx, &world, &sys, nb).unwrap()
                });
                println!("  nb={nb:<3} {:>10.6} s", out.makespan);
                out.makespan
            })
            .collect();
        // Falls to its minimum at nb = 16, rises again through nb = 64.
        assert!(times[..4].windows(2).all(|w| w[1] < w[0]), "{times:?}");
        assert!(times[3..].windows(2).all(|w| w[1] > w[0]), "{times:?}");
    }
}
