//! Checksum protection for the IMeP level loop.
//!
//! The paper motivates IMe partly by its "good integrated low-cost multiple
//! fault tolerance, which is more efficient than the checkpoint/restart
//! technique usually applied in Gaussian Elimination" (Artioli, Loreti &
//! Ciampolini, SRDS 2019). The column-wise decomposition enables it: the
//! per-level fundamental update is a *row operation*, hence linear across
//! columns, so a checksum column `S = Σ_c t_{·,c}` maintained with the
//! **same** update stays the sum of all table columns at every level, and a
//! lost column is `S` minus the survivors' sum — no checkpoint, no restart,
//! one extra column of arithmetic per level.
//!
//! `par::reduce_table` arms the [`Checksum`] guard when the machine's fault
//! plan schedules a column loss, and only then: a run that cannot lose a
//! column is the unprotected program, clock for clock.

use crate::par::{apply_level, owner, Pending, MASTER};
use greenla_linalg::flops;
use greenla_mpi::{Comm, FaultNote, RankCtx, RankEvent};

const RECOVER_TAG: u64 = 77;

type Columns = [(usize, Vec<f64>)];

/// The planned loss and the master's running checksum column.
///
/// # Invariant
///
/// At every level boundary `sum = Σ_{c=0}^{2n-1} t_{·,c}` on the master
/// (exactly in exact arithmetic; to rounding in floating point): applying
/// `apply_level` to `S` equals applying it to every column and summing,
/// with one correction for the level column `n+l`, which is snapped to
/// `e_l` rather than updated. Any single lost column is therefore
/// `S − Σ_{c≠lost} t_{·,c}` at the instant of loss.
pub(crate) struct Checksum {
    n: usize,
    level: usize,
    column: usize,
    /// `S`; empty off the master.
    sum: Vec<f64>,
}

impl Checksum {
    /// Arm protection if the plan schedules a loss (reduced into range, so
    /// one plan is portable across problem sizes): `S` starts as the
    /// reduction of every rank's fresh columns. Every rank reads the same
    /// plan, so the guard's control flow stays collective.
    pub(crate) fn arm(ctx: &mut RankCtx, comm: &Comm, cols: &Columns, n: usize) -> Option<Self> {
        if n == 0 {
            return None;
        }
        let (level, column) = ctx.faults().app_column_loss()?;
        let local = sum_columns(cols, n, None);
        ctx.compute(flops::daxpy(n) * cols.len() as u64 / 2, 0);
        let sum = ctx.reduce_sum_f64(comm, MASTER, local);
        Some(Self {
            n,
            level: level % n,
            column: column % (2 * n),
            sum: sum.unwrap_or_default(),
        })
    }

    /// At the planned level: the owner's column is wiped, the survivors'
    /// sum is reduced to the master, and `S − survivors` goes back to the
    /// victim before the level touches the table.
    pub(crate) fn before_level(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        cols: &mut Columns,
        l: usize,
    ) {
        if l != self.level {
            return;
        }
        let (me, victim) = (comm.rank(), owner(self.column, comm.size()));
        let lost = cols.iter().position(|(c, _)| *c == self.column);
        assert_eq!(lost.is_some(), me == victim, "the victim owns the column");
        if let Some(i) = lost {
            cols[i].1 = vec![f64::NAN; self.n];
            ctx.emit(RankEvent::Fault(FaultNote::ColumnLossInjected));
        }
        let survivors = sum_columns(cols, self.n, Some(self.column));
        let total = ctx.reduce_sum_f64(comm, MASTER, survivors);
        let rec: Option<Vec<f64>> = total.map(|total| {
            ctx.compute(flops::daxpy(self.n), 0);
            self.sum.iter().zip(&total).map(|(s, t)| s - t).collect()
        });
        let rec = match rec {
            Some(rec) if victim != MASTER => {
                ctx.send_f64(comm, victim, RECOVER_TAG, &rec);
                None
            }
            None if me == victim => Some(ctx.recv_f64(comm, MASTER, RECOVER_TAG)),
            kept => kept,
        };
        if let (Some(i), Some(rec)) = (lost, rec) {
            cols[i].1 = rec;
            ctx.emit(RankEvent::Fault(FaultNote::ColumnLossRecovered));
        }
    }

    /// The master keeps `S` the sum of all columns by applying the level's
    /// row operation to it — with one correction: column `n+l` (`c_lvl`
    /// before the level) was snapped to `e_l` instead of being updated, so
    /// `S` absorbs the difference.
    pub(crate) fn after_level(&mut self, ctx: &mut RankCtx, c_lvl: &[f64], level: &Pending) {
        if self.sum.is_empty() {
            return; // not the master
        }
        let (l, hl) = (level.l, level.hl);
        let mut scratch = vec![0.0; self.n];
        let h = level.h(0..self.n, &mut scratch);
        let mut cl = c_lvl.to_vec();
        apply_level(&mut cl, l, h, hl);
        apply_level(&mut self.sum, l, h, hl);
        for (i, (s, updated)) in self.sum.iter_mut().zip(&cl).enumerate() {
            let canon = if i == l { 1.0 } else { 0.0 };
            *s += canon - updated;
        }
        ctx.compute(3 * flops::daxpy(self.n), 0);
    }
}

fn sum_columns(cols: &Columns, n: usize, exclude: Option<usize>) -> Vec<f64> {
    let mut s = vec![0.0; n];
    for (_, col) in cols.iter().filter(|(c, _)| Some(*c) != exclude) {
        for (si, v) in s.iter_mut().zip(col) {
            *si += v;
        }
    }
    s
}
