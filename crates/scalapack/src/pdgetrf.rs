//! Distributed LU factorisation with partial pivoting (`pdgetrf`):
//! right-looking over a 2-D block-cyclic layout.
//!
//! Per panel: MAXLOC pivot reductions down the panel's process column,
//! immediate swaps inside the panel, panel+pivot broadcast along process
//! rows, row interchanges on the rest of the matrix, a local triangular
//! solve for the U block row broadcast down process columns, and a local
//! GEMM trailing update. Pivot choices equal the sequential
//! [`crate::getrf::getrf`] exactly, which the tests exploit.

use crate::desc::BlockDesc;
use crate::distribute::DistMatrix;
use crate::error::LuError;
use crate::grid::ProcessGrid;
use greenla_linalg::blas3::{dgemm, dtrsm_left_lower_unit};
use greenla_linalg::flops;
use greenla_linalg::{BlockMut, BlockRef, Matrix};
use greenla_mpi::RankCtx;
use std::sync::Arc;

/// Tag base for the row-interchange point-to-point exchanges.
const SWAP_TAG: u64 = 1 << 20;

/// Payload size (f64 elements) above which broadcasts switch to the
/// pipelined algorithm, as production MPI does.
const PIPELINE_THRESHOLD: usize = 4096;

/// DRAM-traffic model of the trailing GEMM: with LLC blocking the trailing
/// matrix's panels are substantially cache-resident between the A/B reads
/// and the C update, so only ~1/4 of the naive stream-everything-per-panel
/// traffic reaches DRAM (a conservative figure for Skylake-class LLCs).
pub const GEMM_CACHE_REUSE: u64 = 4;
/// Pipeline chunk: 8 KiB.
const PIPELINE_CHUNK: usize = 1024;

/// Read-only broadcast that picks the binomial or pipelined algorithm by
/// size (consistent across the communicator because every member computes
/// the same `expected_len`). The root passes `Some(data)`; every rank gets
/// the shared replica back, so no rank copies a buffer still in flight.
fn bcast_sized(
    ctx: &mut RankCtx,
    comm: &greenla_mpi::Comm,
    root: usize,
    data: Option<Vec<f64>>,
    expected_len: usize,
) -> Arc<Vec<f64>> {
    if expected_len > PIPELINE_THRESHOLD {
        ctx.bcast_pipelined_shared_f64(comm, root, data, PIPELINE_CHUNK)
    } else {
        ctx.bcast_shared_f64(comm, root, data)
    }
}

/// Swap global rows `j` and `p` across a set of local columns. Both rows'
/// owners exchange their segments over the process-column communicator;
/// other processes are untouched. `cols` yields *local* column indices.
fn swap_rows_local_cols(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    a: &mut DistMatrix,
    j: usize,
    p: usize,
    cols: &[usize],
    tag: u64,
) {
    if j == p || cols.is_empty() {
        return;
    }
    let d = a.desc;
    let o1 = d.row_owner(j);
    let o2 = d.row_owner(p);
    let myrow = grid.myrow();
    if o1 == o2 {
        if myrow == o1 {
            let (l1, l2) = (d.lrow(j), d.lrow(p));
            for &lj in cols {
                let t = a.local[(l1, lj)];
                a.local[(l1, lj)] = a.local[(l2, lj)];
                a.local[(l2, lj)] = t;
            }
        }
        return;
    }
    if myrow == o1 || myrow == o2 {
        let (mine, theirs) = if myrow == o1 { (j, o2) } else { (p, o1) };
        let lr = d.lrow(mine);
        let seg: Vec<f64> = cols.iter().map(|&lj| a.local[(lr, lj)]).collect();
        let col_comm = grid.col_comm().clone();
        ctx.send_f64(&col_comm, theirs, SWAP_TAG + tag, &seg);
        let other = ctx.recv_f64(&col_comm, theirs, SWAP_TAG + tag);
        for (&lj, v) in cols.iter().zip(other) {
            a.local[(lr, lj)] = v;
        }
    }
}

/// Phase A's step for pivot column `j` once the pivot row segment
/// `rowseg = a[j, j..end]` is known: every local multiplier below the pivot
/// (local rows `lbelow..`) becomes `a / rowseg[0]`, and every entry of
/// those rows in global column `j + t` (`t ≥ 1`) becomes `a − m·rowseg[t]`
/// with its row's multiplier `m`.
type PanelStep = fn(&mut Matrix, &BlockDesc, usize, usize, &[f64]);

/// [`PanelStep`] in storage order: scale the multiplier column, then update
/// the panel one contiguous local column at a time. A panel is one block
/// column, so the columns right of `j` are the next local columns.
fn panel_step(local: &mut Matrix, d: &BlockDesc, j: usize, lbelow: usize, rowseg: &[f64]) {
    let (&piv, u) = rowseg
        .split_first()
        .expect("the segment starts at the pivot");
    let (rows, lj) = (local.rows(), d.lcol(j));
    if lbelow == rows {
        return;
    }
    debug_assert_eq!(d.lcol(j + u.len()), lj + u.len(), "panel spans two blocks");
    let (left, right) = local.as_mut_slice().split_at_mut((lj + 1) * rows);
    let m = &mut left[lj * rows + lbelow..];
    for v in m.iter_mut() {
        *v /= piv;
    }
    for (col, &ut) in right.chunks_exact_mut(rows).zip(u) {
        for (a, &mi) in col[lbelow..].iter_mut().zip(&*m) {
            *a -= mi * ut;
        }
    }
}

/// Factor the distributed matrix in place; returns the global pivot vector
/// (replicated on every process).
pub fn pdgetrf(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    a: &mut DistMatrix,
) -> Result<Vec<usize>, LuError> {
    factor(ctx, grid, a, panel_step)
}

/// [`pdgetrf`] with its in-panel step passed in, so the tests can hold
/// [`panel_step`] to a copy of the row walk it replaced.
fn factor(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    a: &mut DistMatrix,
    step: PanelStep,
) -> Result<Vec<usize>, LuError> {
    let d: BlockDesc = a.desc;
    assert_eq!(d.m, d.n, "pdgetrf needs a square matrix");
    assert_eq!(d.mb, d.nb, "pdgetrf needs square blocks");
    let n = d.n;
    let nb = d.nb;
    let myrow = grid.myrow();
    let mycol = grid.mycol();
    let mut ipiv = vec![0usize; n];
    let mut singular: Option<usize> = None;

    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        let pcol_k = d.col_owner(k);
        let prow_k = d.row_owner(k);
        let mut panel_piv = vec![0u64; kb];

        // ----- phase A: panel factorisation (process column pcol_k) -----
        if mycol == pcol_k && singular.is_none() {
            let panel_lcols: Vec<usize> = (k..k + kb).map(|g| d.lcol(g)).collect();
            for (jj, j) in (k..k + kb).enumerate() {
                let lj = d.lcol(j);
                // Local pivot candidate among my rows with global index ≥ j.
                let lstart = a.local_rows_below(j);
                let mut lv = 0.0f64;
                let mut lg = u64::MAX;
                for li in lstart..a.local.rows() {
                    let v = a.local[(li, lj)];
                    if lg == u64::MAX || v.abs() > lv.abs() {
                        lv = v;
                        lg = d.grow(li, myrow) as u64;
                    }
                }
                ctx.compute(flops::ddot(a.local.rows() - lstart) / 2, 0);
                let col_comm = grid.col_comm().clone();
                let (pv, pg) = ctx.allreduce_maxloc_abs(&col_comm, lv, lg);
                if pv == 0.0 {
                    singular = Some(j);
                    break;
                }
                panel_piv[jj] = pg;
                // Swap rows j ↔ pg inside the panel columns only.
                swap_rows_local_cols(ctx, grid, a, j, pg as usize, &panel_lcols, j as u64);
                // Broadcast the (post-swap) pivot row segment a[j, j..k+kb];
                // it is only read below, so every rank works off the one
                // shared replica.
                let ow = d.row_owner(j);
                let seg: Option<Vec<f64>> = (myrow == ow).then(|| {
                    let lr = d.lrow(j);
                    (j..k + kb).map(|g| a.local[(lr, d.lcol(g))]).collect()
                });
                let rowseg = ctx.bcast_shared_f64(&col_comm, ow, seg);
                let lbelow = a.local_rows_below(j + 1);
                let mloc = a.local.rows() - lbelow;
                step(&mut a.local, &d, j, lbelow, &rowseg);
                let width = k + kb - j;
                ctx.compute(
                    (mloc * (1 + 2 * (width - 1))) as u64,
                    flops::bytes_f64(mloc * width),
                );
            }
        }

        // ----- phase B: publish panel outcome along process rows -----
        let meta_own: Option<Vec<u64>> = (mycol == pcol_k).then(|| {
            let mut v = Vec::with_capacity(kb + 2);
            v.push(singular.is_some() as u64);
            v.push(singular.unwrap_or(0) as u64);
            v.extend_from_slice(&panel_piv);
            v
        });
        let row_comm = grid.row_comm().clone();
        let meta = ctx.bcast_shared_u64(&row_comm, pcol_k, meta_own);
        if meta[0] != 0 {
            return Err(LuError::Singular {
                col: meta[1] as usize,
            });
        }
        for (jj, j) in (k..k + kb).enumerate() {
            ipiv[j] = meta[2 + jj] as usize;
        }
        // Panel data: my grid row's local slice of columns k..k+kb.
        let lrows = a.local.rows();
        let panel_own = (mycol == pcol_k).then(|| {
            let mut v = Vec::with_capacity(lrows * kb);
            for g in k..k + kb {
                let lj = d.lcol(g);
                v.extend_from_slice(a.local.col(lj));
            }
            v
        });
        let panel = bcast_sized(ctx, &row_comm, pcol_k, panel_own, lrows * kb);
        assert_eq!(panel.len(), lrows * kb);

        // ----- phase C: row interchanges outside the panel -----
        let other_lcols: Vec<usize> = (0..a.local.cols())
            .filter(|&lj| {
                let gj = d.gcol(lj, mycol);
                !(mycol == pcol_k && (k..k + kb).contains(&gj))
            })
            .collect();
        for (j, &piv) in ipiv.iter().enumerate().skip(k).take(kb) {
            swap_rows_local_cols(ctx, grid, a, j, piv, &other_lcols, (j + n) as u64);
        }

        let rest = k + kb;
        if rest < n {
            // ----- phase D: U block row = L11⁻¹ · A12, on grid row prow_k -----
            let lc_start = a.local_cols_below(rest);
            let n2_loc = a.local.cols() - lc_start;
            let mut u12_own = None;
            if myrow == prow_k {
                // L11 sits in the broadcast panel at my local rows of k..k+kb.
                let lr0 = d.lrow(k);
                let mut l11 = vec![0.0; kb * kb];
                for jj in 0..kb {
                    for ii in 0..kb {
                        l11[ii + jj * kb] = panel[(lr0 + ii) + jj * lrows];
                    }
                }
                // A12: my local rows lr0..lr0+kb × local cols lc_start.. .
                let mut a12 = vec![0.0; kb * n2_loc];
                for (t, lj) in (lc_start..a.local.cols()).enumerate() {
                    for ii in 0..kb {
                        a12[ii + t * kb] = a.local[(lr0 + ii, lj)];
                    }
                }
                dtrsm_left_lower_unit(kb, n2_loc, &l11, kb, &mut a12, kb);
                ctx.compute(flops::dtrsm(kb, n2_loc), flops::bytes_f64(kb * n2_loc));
                for (t, lj) in (lc_start..a.local.cols()).enumerate() {
                    for ii in 0..kb {
                        a.local[(lr0 + ii, lj)] = a12[ii + t * kb];
                    }
                }
                u12_own = Some(a12);
            }
            let col_comm = grid.col_comm().clone();
            let u12 = bcast_sized(ctx, &col_comm, prow_k, u12_own, kb * n2_loc);
            assert_eq!(u12.len(), kb * n2_loc);

            // ----- phase E: local trailing update A22 −= L21 · U12 -----
            let lr_start = a.local_rows_below(rest);
            let m2_loc = a.local.rows() - lr_start;
            if m2_loc > 0 && n2_loc > 0 {
                // L21: broadcast panel rows lr_start.. .
                let mut l21 = vec![0.0; m2_loc * kb];
                for jj in 0..kb {
                    for ii in 0..m2_loc {
                        l21[ii + jj * m2_loc] = panel[(lr_start + ii) + jj * lrows];
                    }
                }
                let ld = a.local.ld();
                let s = a.local.as_mut_slice();
                let sub = &mut s[lr_start + lc_start * ld..];
                dgemm(
                    -1.0,
                    BlockRef::new(&l21, m2_loc, kb, m2_loc),
                    BlockRef::new(&u12, kb, n2_loc, kb),
                    1.0,
                    BlockMut::new(sub, m2_loc, n2_loc, ld),
                );
                ctx.compute(
                    flops::dgemm(m2_loc, n2_loc, kb),
                    flops::bytes_f64(m2_loc * kb + kb * n2_loc + m2_loc * n2_loc)
                        / GEMM_CACHE_REUSE,
                );
            }
        }
        k += kb;
    }
    Ok(ipiv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::Machine;
    use rand::distributions::{Distribution, Uniform};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The in-panel step as it was before [`panel_step`]: row by row over
    /// column-major storage, `lcol` once per element.
    fn row_walk_step(local: &mut Matrix, d: &BlockDesc, j: usize, lbelow: usize, rowseg: &[f64]) {
        let lj = d.lcol(j);
        let piv = rowseg[0];
        for li in lbelow..local.rows() {
            let m = local[(li, lj)] / piv;
            local[(li, lj)] = m;
            for (t, g) in (j + 1..j + rowseg.len()).enumerate() {
                local[(li, d.lcol(g))] -= m * rowseg[t + 1];
            }
        }
    }

    /// A random matrix that makes partial pivoting swap rows.
    fn random(n: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dist = Uniform::new_inclusive(-1.0, 1.0);
        Matrix::from_fn(n, n, |_, _| dist.sample(&mut rng))
    }

    /// Factor `a` on an `nprow × npcol` grid once with each step; asserts
    /// that every rank got the same outcome and the same local factors bit
    /// for bit, and returns that outcome.
    fn factor_both_ways(
        a: &Matrix,
        nb: usize,
        nprow: usize,
        npcol: usize,
    ) -> Result<Vec<usize>, LuError> {
        let spec = ClusterSpec::test_cluster(4, 4);
        let placement = Placement::packed(&spec.node, nprow * npcol).unwrap();
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), 7).unwrap();
        let out = machine.run(|ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, nprow, npcol);
            let desc = BlockDesc::square(a.rows(), nb, nprow, npcol);
            let mut by_cols = DistMatrix::from_global(ctx, &grid, desc, a);
            let mut by_rows = DistMatrix::from_global(ctx, &grid, desc, a);
            let got = factor(ctx, &grid, &mut by_cols, panel_step);
            let want = factor(ctx, &grid, &mut by_rows, row_walk_step);
            let bits = |m: &DistMatrix| -> Vec<u64> {
                m.local.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            (got == want && bits(&by_cols) == bits(&by_rows), got)
        });
        let what = format!("n={} nb={nb} grid {nprow}x{npcol}", a.rows());
        assert!(out.results.iter().all(|(same, _)| *same), "{what}");
        let first = out.results[0].1.clone();
        assert!(out.results.iter().all(|(_, r)| *r == first), "{what}");
        first
    }

    const GRIDS: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (4, 4)];

    #[test]
    fn the_column_walk_factors_exactly_as_the_row_walk_did() {
        for (nprow, npcol) in GRIDS {
            for n in [24, 33, 64, 130] {
                let a = random(n, n as u64);
                for nb in [4, 5, 32] {
                    let ipiv = factor_both_ways(&a, nb, nprow, npcol).expect("non-singular");
                    assert!(
                        ipiv.iter().enumerate().any(|(j, &p)| p != j),
                        "no row swapped"
                    );
                }
            }
        }
    }

    #[test]
    fn a_singular_panel_reports_the_same_column() {
        for (nprow, npcol) in GRIDS {
            let mut a = random(33, 5);
            a.col_mut(17).fill(0.0);
            let err = factor_both_ways(&a, 5, nprow, npcol).unwrap_err();
            assert_eq!(err, LuError::Singular { col: 17 });
        }
    }
}
