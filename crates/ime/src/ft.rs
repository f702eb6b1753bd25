//! Checksum-based fault tolerance for IMeP.
//!
//! The paper motivates IMe partly by its "good integrated low-cost multiple
//! fault tolerance, which is more efficient than the checkpoint/restart
//! technique usually applied in Gaussian Elimination" (Artioli, Loreti &
//! Ciampolini, SRDS 2019). This module demonstrates the mechanism the
//! column-wise decomposition enables: the per-level fundamental update is a
//! *row operation*, hence linear across columns, so a checksum column
//! `S = Σ_c t_{·,c}` maintained with the **same** update stays equal to the
//! sum of all table columns at every level. When a rank loses a column, the
//! survivors' sum subtracted from `S` reconstructs it exactly — no
//! checkpoint, no restart, one extra column of arithmetic per level.
//!
//! [`solve_imep_ft`] injects an (optional) deterministic single-column loss
//! at a chosen level and recovers it in-band; the returned solution is
//! bit-for-bit the fault-free one whenever recovery arithmetic is exact and
//! matches to rounding otherwise.

use crate::error::ImeError;
use crate::par::owner;
use crate::table::init_column;
use greenla_linalg::blas1::{daxpy, ddot};
use greenla_linalg::flops;
use greenla_linalg::generate::LinearSystem;
use greenla_mpi::{Comm, FaultNote, RankCtx, RankEvent};

/// A deterministic fault to inject: when the level loop reaches `level`
/// (counting down), the owner of table `column` loses that column's data
/// before the level is processed.
#[derive(Clone, Copy, Debug)]
pub struct FailureSpec {
    pub level: usize,
    pub column: usize,
}

const MASTER: usize = 0;
const RECOVER_TAG: u64 = 77;

/// IMeP with checksum protection and optional fault injection. Returns the
/// replicated solution.
///
/// When `failure` is `None` and the rank context carries an enabled
/// [fault plan](greenla_mpi::FaultPlan) with a column loss, the loss is
/// taken from the plan instead (clamped into range, so one plan is
/// portable across problem sizes) — the solver then recovers from a
/// *runtime* fault it did not stage itself, and the victim rank accounts
/// the injection and the recovery in its `FaultReport`.
///
/// # Checksum invariant
///
/// At every level boundary the master's checksum column satisfies
/// `S = Σ_{c=0}^{2n-1} t_{·,c}` exactly (in exact arithmetic; to rounding
/// in floating point). It holds because `apply_level` is a row
/// operation — linear across columns — so applying it to `S` equals
/// applying it to every column and summing, with one correction for the
/// level column `n+l` that is snapped to `e_l` rather than updated. Any
/// single lost column is therefore `S − Σ_{c≠lost} t_{·,c}` at the instant
/// of loss, which is what the recovery below computes.
pub fn solve_imep_ft(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    failure: Option<FailureSpec>,
) -> Result<Vec<f64>, ImeError> {
    let n = sys.n();
    let nranks = comm.size();
    let me = comm.rank();
    // A runtime-planned loss (from the machine's fault plan) fills in for a
    // caller-staged one. Every rank reads the same plan, so the control flow
    // below stays collective.
    let mut planned = false;
    let failure = failure.or_else(|| {
        if n == 0 || !ctx.faults_enabled() {
            return None;
        }
        ctx.faults_mut().app_column_loss().map(|(l, c)| {
            planned = true;
            FailureSpec {
                level: l % n,
                column: c % (2 * n),
            }
        })
    });
    if let Some(f) = failure {
        assert!(f.level < n && f.column < 2 * n, "failure spec out of range");
    }
    for i in 0..n {
        if sys.a[(i, i)] == 0.0 {
            return Err(ImeError::ZeroDiagonal { row: i });
        }
    }

    let mut my_cols: Vec<(usize, Vec<f64>)> = (0..2 * n)
        .filter(|&c| owner(c, nranks) == me)
        .map(|c| (c, init_column(&sys.a, c).expect("diagonal checked above")))
        .collect();
    ctx.compute(
        (n * my_cols.len()) as u64 / 2,
        flops::bytes_f64(n * my_cols.len()),
    );

    let mut b = if me == MASTER {
        sys.b.clone()
    } else {
        Vec::new()
    };
    ctx.bcast_f64(comm, MASTER, &mut b);

    // ----- checksum initialisation: S = Σ_c t_{·,c}, kept by the master -----
    let local_sum = sum_columns(&my_cols, n, None);
    ctx.compute(flops::daxpy(n) * my_cols.len() as u64 / 2, 0);
    let mut checksum = ctx
        .reduce_sum_owned_f64(comm, MASTER, local_sum)
        .unwrap_or_default();

    for l in (0..n).rev() {
        // ----- fault injection + recovery -----
        if let Some(f) = failure {
            if f.level == l {
                let victim = owner(f.column, nranks);
                if me == victim {
                    // The column's data is gone.
                    let slot = my_cols
                        .iter_mut()
                        .find(|(c, _)| *c == f.column)
                        .expect("victim owns the failed column");
                    slot.1 = vec![f64::NAN; n];
                    if planned {
                        ctx.emit(RankEvent::Fault(FaultNote::ColumnLossInjected));
                    }
                }
                // Survivor sum excludes the lost column.
                let surv = sum_columns(&my_cols, n, Some(f.column));
                let total = ctx.reduce_sum_owned_f64(comm, MASTER, surv);
                if me == MASTER {
                    let total = total.expect("master receives the reduction");
                    let rec: Vec<f64> = checksum.iter().zip(&total).map(|(s, t)| s - t).collect();
                    ctx.compute(flops::daxpy(n), 0);
                    if victim == MASTER {
                        restore(&mut my_cols, f.column, rec);
                        if planned {
                            ctx.emit(RankEvent::Fault(FaultNote::ColumnLossRecovered));
                        }
                    } else {
                        ctx.send_f64(comm, victim, RECOVER_TAG, &rec);
                    }
                } else if me == victim {
                    let rec = ctx.recv_f64(comm, MASTER, RECOVER_TAG);
                    restore(&mut my_cols, f.column, rec);
                    if planned {
                        ctx.emit(RankEvent::Fault(FaultNote::ColumnLossRecovered));
                    }
                }
            }
        }

        // ----- ordinary IMeP level with checksum maintenance -----
        let last_col_owner = owner(n + l, nranks);
        let mut c_lvl: Vec<f64> = if me == last_col_owner {
            my_cols.iter().find(|(c, _)| *c == n + l).unwrap().1.clone()
        } else {
            Vec::new()
        };
        ctx.bcast_f64(comm, last_col_owner, &mut c_lvl);

        let mut h = if me == MASTER {
            let piv = c_lvl[l];
            if piv == 0.0 {
                vec![f64::NAN]
            } else {
                let mut h = Vec::with_capacity(n + 1);
                h.push(1.0 / piv);
                h.extend(c_lvl.iter().map(|&v| v / piv));
                h
            }
        } else {
            Vec::new()
        };
        ctx.bcast_f64(comm, MASTER, &mut h);
        if h.len() == 1 {
            return Err(ImeError::ZeroInhibitor { level: l });
        }
        let hl = h[0];
        let h = &h[1..];

        let mut touched = 0usize;
        for (c, col) in my_cols.iter_mut() {
            let active = if *c < n { *c >= l } else { *c - n <= l };
            if !active {
                continue;
            }
            if *c == n + l {
                for (i, v) in col.iter_mut().enumerate() {
                    *v = if i == l { 1.0 } else { 0.0 };
                }
                continue;
            }
            apply_level(col, l, h, hl);
            touched += 1;
        }
        ctx.compute(
            2 * (n * touched) as u64,
            flops::bytes_f64(2 * n * touched) / crate::par::LEVEL_FUSE,
        );

        if me == MASTER {
            // The same row operation keeps S the sum of all columns — with
            // one correction: column n+l was snapped to e_l instead of
            // being updated, so S must absorb the difference.
            let mut cl = c_lvl.clone();
            apply_level(&mut cl, l, h, hl);
            apply_level(&mut checksum, l, h, hl);
            for i in 0..n {
                let canon = if i == l { 1.0 } else { 0.0 };
                checksum[i] += canon - cl[i];
            }
            ctx.compute(3 * flops::daxpy(n), 0);
        }
    }

    let my_x: Vec<f64> = my_cols
        .iter()
        .filter(|(c, _)| *c < n)
        .map(|(_, col)| ddot(col, &b))
        .collect();
    ctx.compute(
        flops::dgemv(my_x.len(), n),
        flops::bytes_f64(n * my_x.len()),
    );
    let gathered = ctx.gather_f64(comm, MASTER, &my_x);
    let mut x = vec![0.0; n];
    if let Some(chunks) = gathered {
        for (r, chunk) in chunks.into_iter().enumerate() {
            for (t, v) in chunk.into_iter().enumerate() {
                x[r + t * nranks] = v;
            }
        }
    }
    ctx.bcast_f64(comm, MASTER, &mut x);
    Ok(x)
}

fn sum_columns(cols: &[(usize, Vec<f64>)], n: usize, exclude: Option<usize>) -> Vec<f64> {
    let mut s = vec![0.0; n];
    for (c, col) in cols {
        if Some(*c) == exclude {
            continue;
        }
        for i in 0..n {
            s[i] += col[i];
        }
    }
    s
}

fn restore(cols: &mut [(usize, Vec<f64>)], column: usize, data: Vec<f64>) {
    let slot = cols
        .iter_mut()
        .find(|(c, _)| *c == column)
        .expect("restored column must be owned");
    slot.1 = data;
}

/// One column's fundamental update, branch-free: the rows above and below
/// `l` are two contiguous daxpy runs (no per-element `i != l` test), shared
/// by the sequential, parallel and fault-tolerant paths.
pub(crate) fn apply_level(col: &mut [f64], l: usize, h: &[f64], hl: f64) {
    let tl = col[l];
    let (above, rest) = col.split_at_mut(l);
    daxpy(-tl, &h[..l], above);
    daxpy(-tl, &h[l + 1..], &mut rest[1..]);
    rest[0] = hl * tl;
}
