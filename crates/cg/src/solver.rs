//! Distributed preconditioned conjugate gradients over the simulated
//! runtime.
//!
//! Every rank holds the replicated system (like the dense solvers), owns
//! a contiguous row block of the matrix and of every vector, and runs the
//! classical PCG recurrence: per iteration one halo exchange + local
//! SpMV, one 8-byte curvature reduction, and one combined 16-byte
//! `[r·z, r·r]` reduction — both always on the size-switching
//! collectives' latency-bound tree path. Convergence and abort decisions
//! are made only on allreduced scalars (or on the replicated input
//! before any communication), so all ranks always agree bit-for-bit and
//! no abort can strand a peer in a half-finished exchange.
//!
//! Local arithmetic is charged through the closed forms in
//! [`crate::formulas`], so the simulator's virtual time and the roofline
//! model see the same flop-for-flop picture by construction.

use crate::error::CgError;
use crate::formulas::{self, IterCost};
use crate::partition::{HaloPlan, RowBlocks, RowSplit};
use greenla_linalg::blas1::ddot;
use greenla_linalg::sparse::{CsrMatrix, SparseSystem};
use greenla_mpi::{Comm, RankCtx};

/// User tags for the halo exchange: one tag per exchange round, so
/// consecutive iterations can never alias even if a fast rank runs ahead.
const HALO_TAG_BASE: u64 = 1 << 20;

/// Solver knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgConfig {
    /// Relative residual target: stop once `‖r‖₂ ≤ tol·‖b‖₂`.
    pub tol: f64,
    /// Iteration budget; `0` means the `10·n + 100` default.
    pub max_iters: usize,
    /// Jacobi (diagonal) preconditioning instead of the identity.
    pub jacobi: bool,
    /// Recompute the true residual `b − A·x` every this many iterations
    /// (an extra halo exchange + SpMV); `0` disables the refresh.
    pub refresh_every: usize,
    /// Overlap the halo exchange with the interior SpMV: post sends,
    /// compute the rows with no remote column while neighbour payloads
    /// are in flight, then drain the receives and finish the boundary
    /// rows. Per-iteration simulated time becomes
    /// `max(halo, interior) + boundary` instead of `halo + spmv`; the
    /// numerics, message counts and tags are bit-identical either way
    /// (the blocking path exists for the invariance tests).
    pub overlap: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            tol: 1e-12,
            max_iters: 0,
            jacobi: false,
            refresh_every: 50,
            overlap: true,
        }
    }
}

/// A converged solve.
#[derive(Clone, Debug)]
pub struct CgSolve {
    /// Solution, replicated on every rank.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// True-residual refreshes performed.
    pub refreshes: usize,
    /// Final relative residual `‖r‖₂/‖b‖₂` (recurrence-based).
    pub rel_residual: f64,
}

/// Solve a replicated sparse SPD system over all ranks of `comm` with
/// 1-D row-block PCG. Collective over `comm`; every rank must pass the
/// same system and config.
pub fn pcg(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &SparseSystem,
    cfg: &CgConfig,
) -> Result<CgSolve, CgError> {
    let n = sys.n();
    let p = comm.size();
    let me = comm.rank();
    let blocks = RowBlocks::new(n, p);

    // SPD pre-check on the replicated diagonal: every rank sees the same
    // matrix, so every rank takes the same abort without any negotiation.
    let diag = sys.a.diagonal();
    if let Some((row, &value)) = diag
        .iter()
        .enumerate()
        .find(|&(_, &d)| d.is_nan() || d <= 0.0)
    {
        return Err(CgError::NonPositiveDiagonal { row, value });
    }

    let (lo, hi) = (blocks.lo(me), blocks.hi(me));
    let rows = hi - lo;
    let a_loc = sys.a.row_block(lo, hi);
    let nnz_l = a_loc.nnz();
    let plan = HaloPlan::build(&sys.a, blocks, me);
    let split = RowSplit::build(&sys.a, blocks, me);
    let halo_in = plan.recv_elems();
    let max_iters = if cfg.max_iters == 0 {
        10 * n + 100
    } else {
        cfg.max_iters
    };

    let inv_diag: Option<Vec<f64>> = cfg
        .jacobi
        .then(|| diag[lo..hi].iter().map(|d| 1.0 / d).collect());
    let apply_precond = |r: &[f64], z: &mut Vec<f64>| match &inv_diag {
        Some(inv) => {
            z.clear();
            z.extend(r.iter().zip(inv).map(|(ri, di)| ri * di));
        }
        None => {
            z.clear();
            z.extend_from_slice(r);
        }
    };

    // Setup: x = 0, r = b, z = M⁻¹·r, p = z, seed reductions.
    let b_l = &sys.b[lo..hi];
    let mut x_l = vec![0.0f64; rows];
    let mut r = b_l.to_vec();
    let mut z = Vec::with_capacity(rows);
    apply_precond(&r, &mut z);
    // The direction lives in a full-length buffer so the local SpMV can
    // index columns globally; only the owned + halo slots are ever valid.
    let mut p_full = vec![0.0f64; n];
    p_full[lo..hi].copy_from_slice(&z);
    let mut q = vec![0.0f64; rows];
    let setup = formulas::cg_setup_cost(rows, cfg.jacobi);
    ctx.compute(setup.flops, setup.bytes);
    let seed = ctx.allreduce_sum_owned_f64(comm, vec![ddot(&r, &z), ddot(&r, &r)]);
    let (mut rz, bb) = (seed[0], seed[1]);
    let bnorm = bb.sqrt();
    let mut exchanges = 0u64;
    let mut refreshes = 0usize;

    if bnorm == 0.0 {
        // b = 0 ⇒ x = 0 exactly; gather the (zero) blocks so the traffic
        // shape matches every other completed solve.
        let x = gather_solution(ctx, comm, &x_l, n);
        return Ok(CgSolve {
            x,
            iterations: 0,
            refreshes: 0,
            rel_residual: 0.0,
        });
    }

    // Per-iteration charges, pre-split around the curvature reduction:
    // the p·q dot happens before it, the rest of the BLAS1 sweep after.
    let dot_cost = IterCost {
        flops: 2 * rows as u64,
        bytes: 16 * rows as u64,
    };
    let blas1 = formulas::blas1_iter_cost(rows, cfg.jacobi);
    let blas1_rest = IterCost {
        flops: blas1.flops - dot_cost.flops,
        bytes: blas1.bytes - dot_cost.bytes,
    };
    let spmv_cost = formulas::spmv_block_cost(rows, nnz_l, halo_in);
    let refresh_cost = formulas::cg_refresh_cost(rows, nnz_l, halo_in);
    // The residual-update tail of a refresh beyond its SpMV (`r = b − A·x`).
    let refresh_extra = IterCost {
        flops: refresh_cost.flops - spmv_cost.flops,
        bytes: refresh_cost.bytes - spmv_cost.bytes,
    };
    let (interior_cost, boundary_cost) = formulas::spmv_split_cost(
        split.interior.len(),
        split.interior_nnz,
        split.boundary.len(),
        split.boundary_nnz,
        halo_in,
    );
    let spmv = SpmvPhase {
        a_loc: &a_loc,
        plan: &plan,
        split: &split,
        whole: spmv_cost,
        interior: interior_cost,
        boundary: boundary_cost,
        overlap: cfg.overlap,
    };

    for k in 1..=max_iters {
        // q = A·p over the owned block, pulling the halo slice of p —
        // overlapped with the interior rows when cfg.overlap is set.
        spmv.apply(
            ctx,
            comm,
            &mut p_full,
            &mut q,
            &mut exchanges,
            IterCost::default(),
        );

        ctx.compute(dot_cost.flops, dot_cost.bytes);
        let pq = ctx.allreduce_sum_owned_f64(comm, vec![ddot(&p_full[lo..hi], &q)])[0];
        if pq.is_nan() || pq <= 0.0 {
            // Indefinite/singular operator (or overflow to NaN): the
            // decision is on an allreduced scalar, so every rank aborts
            // here in the same iteration.
            return Err(CgError::IndefiniteOperator {
                iteration: k,
                curvature: pq,
            });
        }
        let alpha = rz / pq;
        for i in 0..rows {
            x_l[i] += alpha * p_full[lo + i];
            r[i] -= alpha * q[i];
        }

        if cfg.refresh_every > 0 && k % cfg.refresh_every == 0 {
            // True residual: r = b − A·x, killing the recurrence's drift.
            let mut x_full = vec![0.0f64; n];
            x_full[lo..hi].copy_from_slice(&x_l);
            spmv.apply(
                ctx,
                comm,
                &mut x_full,
                &mut q,
                &mut exchanges,
                refresh_extra,
            );
            for i in 0..rows {
                r[i] = b_l[i] - q[i];
            }
            refreshes += 1;
        }

        apply_precond(&r, &mut z);
        ctx.compute(blas1_rest.flops, blas1_rest.bytes);
        let red = ctx.allreduce_sum_owned_f64(comm, vec![ddot(&r, &z), ddot(&r, &r)]);
        let (rz_new, rr) = (red[0], red[1]);
        if !rr.is_finite() {
            return Err(CgError::NoConvergence {
                iterations: k,
                rel_residual: f64::NAN,
            });
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..rows {
            p_full[lo + i] = z[i] + beta * p_full[lo + i];
        }
        if rr.sqrt() <= cfg.tol * bnorm {
            let x = gather_solution(ctx, comm, &x_l, n);
            return Ok(CgSolve {
                x,
                iterations: k,
                refreshes,
                rel_residual: rr.sqrt() / bnorm,
            });
        }
    }
    Err(CgError::NoConvergence {
        iterations: max_iters,
        rel_residual: rz.max(0.0).sqrt() / bnorm,
    })
}

/// One halo exchange + block SpMV, with the per-phase `compute` charges:
/// everything the solver needs to form `q = A·v` from the full-length
/// gathered vector `v`.
///
/// Overlapped (`overlap = true`): post every send, compute the interior
/// rows while the neighbour payloads are in flight, drain the receives,
/// then finish the boundary rows — the per-iteration simulated time
/// becomes `max(halo, interior) + boundary`. Blocking: the classic
/// exchange-then-sweep, `halo + spmv`. Both orders compute every row with
/// the same left-to-right accumulation exactly once and post identical
/// messages under identical tags, so the numerics and the traffic ledger
/// are bit-identical either way; only the virtual clock differs.
struct SpmvPhase<'a> {
    a_loc: &'a CsrMatrix,
    plan: &'a HaloPlan,
    split: &'a RowSplit,
    /// Whole-sweep cost ([`formulas::spmv_block_cost`]), blocking path.
    whole: IterCost,
    /// Interior-phase cost ([`formulas::spmv_split_cost`]), overlap path.
    interior: IterCost,
    /// Boundary-phase cost; `interior + boundary == whole` exactly.
    boundary: IterCost,
    overlap: bool,
}

impl SpmvPhase<'_> {
    /// `q = A·v` over the owned block, pulling the halo slice of `v`.
    /// `extra` is charged with the final compute phase (the refresh path
    /// folds its residual-update tail in here).
    fn apply(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        v: &mut [f64],
        q: &mut [f64],
        exchanges: &mut u64,
        extra: IterCost,
    ) {
        if !self.overlap {
            halo_exchange(ctx, comm, self.plan, v, exchanges);
            self.a_loc.spmv_block(v, q);
            let c = self.whole.plus(extra);
            ctx.compute(c.flops, c.bytes);
            return;
        }
        let tag = HALO_TAG_BASE + *exchanges;
        *exchanges += 1;
        ctx.trace_begin("comm", "halo_post");
        for (peer, idxs) in &self.plan.send {
            let vals: Vec<f64> = idxs.iter().map(|&j| v[j]).collect();
            ctx.send_f64(comm, *peer, tag, &vals);
        }
        ctx.trace_end("comm", "halo_post");
        // Interior rows touch no remote column, so they proceed while the
        // payloads fly; the recv below then pays only the residual wait.
        ctx.trace_begin("compute", "spmv_interior");
        self.a_loc.spmv_rows(&self.split.interior, v, q);
        ctx.compute(self.interior.flops, self.interior.bytes);
        ctx.trace_end("compute", "spmv_interior");
        ctx.trace_begin("comm", "halo_wait");
        for (peer, idxs) in &self.plan.recv {
            let vals = ctx.recv_f64(comm, *peer, tag);
            debug_assert_eq!(vals.len(), idxs.len());
            for (&j, val) in idxs.iter().zip(vals) {
                v[j] = val;
            }
        }
        ctx.trace_end("comm", "halo_wait");
        ctx.trace_begin("compute", "spmv_boundary");
        self.a_loc.spmv_rows(&self.split.boundary, v, q);
        let c = self.boundary.plus(extra);
        ctx.compute(c.flops, c.bytes);
        ctx.trace_end("compute", "spmv_boundary");
    }
}

/// One blocking halo exchange of the full-length vector `v`: post every
/// send (sends are asynchronous on the simulated runtime, so no ordering
/// can deadlock), then drain the receives in peer order. One message per
/// directed neighbour pair, tagged by exchange round.
fn halo_exchange(
    ctx: &mut RankCtx,
    comm: &Comm,
    plan: &HaloPlan,
    v: &mut [f64],
    exchanges: &mut u64,
) {
    let tag = HALO_TAG_BASE + *exchanges;
    *exchanges += 1;
    ctx.trace_begin("comm", "halo_exchange");
    for (peer, idxs) in &plan.send {
        let vals: Vec<f64> = idxs.iter().map(|&j| v[j]).collect();
        ctx.send_f64(comm, *peer, tag, &vals);
    }
    for (peer, idxs) in &plan.recv {
        let vals = ctx.recv_f64(comm, *peer, tag);
        debug_assert_eq!(vals.len(), idxs.len());
        for (&j, val) in idxs.iter().zip(vals) {
            v[j] = val;
        }
    }
    ctx.trace_end("comm", "halo_exchange");
}

/// Ring-allgather the owned blocks into the replicated full solution,
/// copied once from the shared blocks into this rank's own `x`.
fn gather_solution(ctx: &mut RankCtx, comm: &Comm, x_l: &[f64], n: usize) -> Vec<f64> {
    let mut x = Vec::with_capacity(n);
    for block in ctx.allgather_f64(comm, x_l) {
        x.extend_from_slice(&block);
    }
    x
}
