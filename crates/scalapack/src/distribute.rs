//! Block-cyclic local storage and (re)distribution.

use crate::desc::BlockDesc;
use crate::grid::ProcessGrid;
use greenla_linalg::generate::ColumnSource;
use greenla_linalg::Matrix;
use greenla_mpi::RankCtx;
use std::ops::Range;

/// The local part of a block-cyclically distributed matrix on one process.
pub struct DistMatrix {
    pub desc: BlockDesc,
    pub myrow: usize,
    pub mycol: usize,
    /// `local_rows × local_cols` column-major block.
    pub local: Matrix,
}

impl DistMatrix {
    /// Allocate an all-zero local part.
    pub fn zeros(grid: &ProcessGrid, desc: BlockDesc) -> Self {
        let myrow = grid.myrow();
        let mycol = grid.mycol();
        Self {
            desc,
            myrow,
            mycol,
            local: Matrix::zeros(desc.local_rows(myrow), desc.local_cols(mycol)),
        }
    }

    /// Fill the local part from a replicated global matrix (the paper loads
    /// the input system from a file visible to every rank, so distribution
    /// is a local copy): [`from_columns`](Self::from_columns) over `a`.
    pub fn from_global(ctx: &mut RankCtx, grid: &ProcessGrid, desc: BlockDesc, a: &Matrix) -> Self {
        Self::from_columns(ctx, grid, desc, a)
    }

    /// Fill the local part column by column from `src`, asking it for my
    /// rows of each of my global columns — runs of `mb` rows, every
    /// `nprow·mb`-th. A stored matrix copies them; a seeded one draws them
    /// and never exists whole. Charges the allocation-phase memory traffic.
    pub fn from_columns(
        ctx: &mut RankCtx,
        grid: &ProcessGrid,
        desc: BlockDesc,
        src: &(impl ColumnSource + ?Sized),
    ) -> Self {
        assert_eq!(src.shape(), (desc.m, desc.n), "global shape mismatch");
        let (myrow, mycol) = (grid.myrow(), grid.mycol());
        let (rows, cols) = (desc.local_rows(myrow), desc.local_cols(mycol));
        let runs: Vec<Range<usize>> = (0..rows)
            .step_by(desc.mb)
            .map(|l0| {
                let g0 = desc.grow(l0, myrow);
                g0..g0 + desc.mb.min(rows - l0)
            })
            .collect();
        let mut local = Matrix::zeros(rows, cols);
        for lj in 0..cols {
            src.fill_column(desc.gcol(lj, mycol), &runs, local.col_mut(lj));
        }
        // Allocation phase: the local block is written once, the source read
        // once.
        ctx.touch_memory(2 * 8 * (rows * cols) as u64);
        Self {
            desc,
            myrow,
            mycol,
            local,
        }
    }

    /// Number of my local rows whose global index is `< g`.
    pub fn local_rows_below(&self, g: usize) -> usize {
        crate::desc::numroc_below(g, self.desc.mb, self.myrow, self.desc.nprow)
    }

    /// Number of my local columns whose global index is `< g`.
    pub fn local_cols_below(&self, g: usize) -> usize {
        crate::desc::numroc_below(g, self.desc.nb, self.mycol, self.desc.npcol)
    }

    /// Gather the distributed matrix to the grid's rank 0 (communicator
    /// index 0 of `grid.all()`), which returns the assembled global matrix.
    pub fn gather_to_root(&self, ctx: &mut RankCtx, grid: &ProcessGrid) -> Option<Matrix> {
        // The root only reads each chunk while scattering it into the
        // assembled matrix, so it borrows the senders' allocations.
        let chunks = ctx.gather_f64(grid.all(), 0, self.local.as_slice())?;
        let desc = self.desc;
        let mut out = Matrix::zeros(desc.m, desc.n);
        for (idx, chunk) in chunks.iter().enumerate() {
            let (prow, pcol) = grid.coords_of(idx);
            let lr = desc.local_rows(prow);
            let lc = desc.local_cols(pcol);
            assert_eq!(chunk.len(), lr * lc, "chunk shape from grid index {idx}");
            for lj in 0..lc {
                let gj = desc.gcol(lj, pcol);
                for li in 0..lr {
                    let gi = desc.grow(li, prow);
                    out[(gi, gj)] = chunk[li + lj * lr];
                }
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::Machine;

    fn run_on(ranks: usize, f: impl Fn(&mut RankCtx) -> bool + Sync) {
        let spec = ClusterSpec::test_cluster(4, 4);
        let placement = Placement::packed(&spec.node, ranks).unwrap();
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), 3).unwrap();
        let out = machine.run(f);
        assert!(out.results.into_iter().all(|ok| ok));
    }

    #[test]
    fn distribute_then_gather_roundtrips() {
        run_on(8, |ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 4);
            let a = Matrix::from_fn(13, 13, |i, j| (i * 100 + j) as f64);
            let desc = BlockDesc::square(13, 3, 2, 4);
            let dm = DistMatrix::from_global(ctx, &grid, desc, &a);
            match dm.gather_to_root(ctx, &grid) {
                Some(back) => back == a,
                None => true,
            }
        });
    }

    #[test]
    fn local_shapes_partition_global() {
        run_on(4, |ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 2);
            let desc = BlockDesc::square(10, 3, 2, 2);
            let dm = DistMatrix::zeros(&grid, desc);
            let rows_total =
                ctx.allreduce_sum_owned_f64(grid.col_comm(), vec![dm.local.rows() as f64]);
            let cols_total =
                ctx.allreduce_sum_owned_f64(grid.row_comm(), vec![dm.local.cols() as f64]);
            rows_total[0] as usize == 10 && cols_total[0] as usize == 10
        });
    }

    #[test]
    fn local_rows_below_counts_correctly() {
        run_on(4, |ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 2);
            let desc = BlockDesc::square(12, 2, 2, 2);
            let dm = DistMatrix::zeros(&grid, desc);
            // Count by brute force and compare.
            (0..=12).all(|g| {
                let brute = (0..g).filter(|&gi| desc.row_owner(gi) == dm.myrow).count();
                dm.local_rows_below(g) == brute
            })
        });
    }
}
