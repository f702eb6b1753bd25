//! Distributed triangular solves after [`crate::pdgetrf::pdgetrf`]
//! (`pdgetrs`) for one right-hand side.
//!
//! The right-hand side is replicated on every process (it is `O(n)` data
//! against the `O(n²/P)` matrix). Block rows are solved in sequence: the
//! owning grid row forms its partial sums locally, combines them with an
//! allreduce along the process row, the diagonal-block owner finishes the
//! small triangular solve, and the solved block is re-broadcast to every
//! grid row — the same dataflow as the reference `pdtrsm`-based solve.

use crate::distribute::DistMatrix;
use crate::grid::ProcessGrid;
use greenla_linalg::flops;
use greenla_linalg::permutation::apply_ipiv_forward;
use greenla_mpi::RankCtx;

/// Solve `A·x = b` given distributed LU factors and the replicated pivot
/// vector; `b` (replicated) is overwritten with `x` on every process.
pub fn pdgetrs(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    a: &DistMatrix,
    ipiv: &[usize],
    b: &mut [f64],
) {
    let d = a.desc;
    let n = d.n;
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(ipiv.len(), n, "ipiv length mismatch");
    let myrow = grid.myrow();
    let mycol = grid.mycol();
    let nb = d.nb;
    let nblocks = n.div_ceil(nb);

    apply_ipiv_forward(ipiv, b);

    // ----- forward solve: L·y = P·b (unit lower) -----
    for bk in 0..nblocks {
        let r0 = bk * nb;
        let r1 = n.min(r0 + nb);
        let kb = r1 - r0;
        let prow_bk = d.row_owner(r0);
        let pcol_bk = d.col_owner(r0);
        if myrow == prow_bk {
            let lr0 = d.lrow(r0);
            // Partial sums over my columns strictly left of the block.
            let lc_end = a.local_cols_below(r0);
            let mut partial = vec![0.0; kb];
            for lj in 0..lc_end {
                let gj = d.gcol(lj, mycol);
                let yj = b[gj];
                if yj != 0.0 {
                    for (i, p) in partial.iter_mut().enumerate() {
                        *p += a.local[(lr0 + i, lj)] * yj;
                    }
                }
            }
            ctx.compute(flops::dgemv(kb, lc_end), flops::bytes_f64(kb * lc_end));
            let row_comm = grid.row_comm().clone();
            let summed = ctx.allreduce_sum_owned_f64(&row_comm, partial);
            let mut z: Vec<f64> = (0..kb).map(|i| b[r0 + i] - summed[i]).collect();
            if mycol == pcol_bk {
                // Unit-lower solve on the diagonal block.
                let lc0 = d.lcol(r0);
                for jj in 0..kb {
                    let zj = z[jj];
                    if zj != 0.0 {
                        for (ii, zi) in z.iter_mut().enumerate().skip(jj + 1) {
                            *zi -= a.local[(lr0 + ii, lc0 + jj)] * zj;
                        }
                    }
                }
                ctx.compute(flops::dtrsm(kb, 1), 0);
            }
            let z = ctx.bcast_shared_f64(&row_comm, pcol_bk, (mycol == pcol_bk).then_some(z));
            b[r0..r1].copy_from_slice(&z);
        }
        // Propagate the solved block to every grid row.
        let col_comm = grid.col_comm().clone();
        let zz = (myrow == prow_bk).then(|| b[r0..r1].to_vec());
        let zz = ctx.bcast_shared_f64(&col_comm, prow_bk, zz);
        if myrow != prow_bk {
            b[r0..r1].copy_from_slice(&zz);
        }
    }

    // ----- backward solve: U·x = y (non-unit upper) -----
    for bk in (0..nblocks).rev() {
        let r0 = bk * nb;
        let r1 = n.min(r0 + nb);
        let kb = r1 - r0;
        let prow_bk = d.row_owner(r0);
        let pcol_bk = d.col_owner(r0);
        if myrow == prow_bk {
            let lr0 = d.lrow(r0);
            // Partial sums over my columns strictly right of the block.
            let lc_start = a.local_cols_below(r1);
            let ncols = a.local.cols() - lc_start;
            let mut partial = vec![0.0; kb];
            for lj in lc_start..a.local.cols() {
                let gj = d.gcol(lj, mycol);
                let yj = b[gj];
                if yj != 0.0 {
                    for (i, p) in partial.iter_mut().enumerate() {
                        *p += a.local[(lr0 + i, lj)] * yj;
                    }
                }
            }
            ctx.compute(flops::dgemv(kb, ncols), flops::bytes_f64(kb * ncols));
            let row_comm = grid.row_comm().clone();
            let summed = ctx.allreduce_sum_owned_f64(&row_comm, partial);
            let mut z: Vec<f64> = (0..kb).map(|i| b[r0 + i] - summed[i]).collect();
            if mycol == pcol_bk {
                // Non-unit upper solve on the diagonal block.
                let lc0 = d.lcol(r0);
                for jj in (0..kb).rev() {
                    let diag = a.local[(lr0 + jj, lc0 + jj)];
                    assert!(
                        diag != 0.0,
                        "zero diagonal slipped past pdgetrf at {}",
                        r0 + jj
                    );
                    z[jj] /= diag;
                    let zj = z[jj];
                    for (ii, zi) in z.iter_mut().enumerate().take(jj) {
                        *zi -= a.local[(lr0 + ii, lc0 + jj)] * zj;
                    }
                }
                ctx.compute(flops::dtrsm(kb, 1), 0);
            }
            let z = ctx.bcast_shared_f64(&row_comm, pcol_bk, (mycol == pcol_bk).then_some(z));
            b[r0..r1].copy_from_slice(&z);
        }
        let col_comm = grid.col_comm().clone();
        let zz = (myrow == prow_bk).then(|| b[r0..r1].to_vec());
        let zz = ctx.bcast_shared_f64(&col_comm, prow_bk, zz);
        if myrow != prow_bk {
            b[r0..r1].copy_from_slice(&zz);
        }
    }
}
