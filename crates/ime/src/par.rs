//! IMeP — the column-wise parallel Inhibition Method.
//!
//! Columns of the `n × 2n` inhibition table are dealt cyclically to the `N`
//! ranks of the communicator (rank 0 is the master). Every level `l`
//! follows the paper's §2.1 protocol:
//!
//! 1. the node computing the level's last column `t_{·,n+l}` **broadcasts
//!    it to all the other nodes**;
//! 2. the **master computes the auxiliary quantities `h^(l)`** from it and
//!    broadcasts them to all slaves;
//! 3. every node applies the fundamental update to the columns it owns;
//! 4. the slaves **send the modified last-row (row `l`) entries of their
//!    columns to the master**, which archives the reduced rows (for
//!    post-hoc verification; nothing downstream consumes them).
//!
//! Initialisation adds a master→slaves broadcast of `b`; termination adds a
//! gather of the per-column solution components and a broadcast of the
//! assembled `x`, so every rank returns the replicated solution (same
//! convention as `pdgesv`).
//!
//! This is the only IMeP level loop. When the machine's fault plan
//! schedules a column loss, [`reduce_table`] arms the checksum guard of
//! `ft.rs` around it; a run that cannot lose a column runs the loop bare.

use crate::error::ImeError;
use crate::ft::Checksum;
use crate::table::init_column;
use greenla_linalg::blas1::{daxpy, ddot};
use greenla_linalg::flops;
use greenla_linalg::generate::LinearSystem;
use greenla_linalg::simd::{self, DaxpyChainKernel, DAXPY_CHAIN_CHUNK};
use greenla_mpi::{Comm, RankCtx};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Chunk size (f64 elements) of the pipelined column broadcast: 8 KiB —
/// small enough that the per-hop depth penalty stays near the latency
/// floor while the stream amortises the volume.
pub const BCAST_CHUNK: usize = 1024;

/// DRAM-traffic model of the *virtual* machine: the per-level table update
/// is a rank-1-style sweep (arithmetic intensity ~1/8 flop/byte), which a
/// naive implementation would re-stream from DRAM every level. Production
/// IMe kernels fuse a block of consecutive levels per sweep (the level
/// column and `h` are small and cache-resident), so the byte count charged
/// to the simulated node lets each table element travel to DRAM once per
/// `LEVEL_FUSE` levels. 64 keeps the kernel just at the machine's
/// flops/byte balance point — the paper's observed IMe durations are
/// compute-bound, not 50× memory-bound.
///
/// The *host* fuses too, less deeply: [`reduce_table`] defers each level's
/// update and applies blocks of `B = 8` consecutive levels in one sweep
/// of the rank's columns (the dispatched [`simd::DaxpyChainKernel`]). A
/// deferred level holds one `Arc` clone of what its broadcast delivered —
/// the level column and its pivot, or under the paper protocol the
/// master's `h` — so every rank fuses to full depth whatever its column
/// count, and no rank materialises `h`: the sweep forms each row chunk of
/// `h = c / piv` in a per-thread scratch as it goes (see `apply_pending`).
/// A run that reads the table between levels — an armed checksum guard, or
/// `collect_last_rows` — keeps `B = 1`. Nothing virtual depends on `B`:
/// every level still charges its flops and `1/LEVEL_FUSE` of its bytes
/// where it did, and the fused sweep gives every table entry the same bits
/// as the per-level loop (the division is the same IEEE operation, only
/// done later).
pub const LEVEL_FUSE: u64 = 64;

/// The host's level block depth.
const MAX_FUSE: usize = 8;

/// The IMeP protocol variants: the paper's, the tuned one the figures run,
/// and the single-switch steps between them that ablation A-1 prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImepOptions {
    /// Send the last-row entries to the master every level (the paper's
    /// protocol). Switching this off is part of the `A-1` ablation: the
    /// update maths does not need the master copy, so this isolates the
    /// cost of the bookkeeping traffic.
    pub collect_last_rows: bool,
    /// Compute the auxiliary quantities `h` at the master and broadcast
    /// them (the paper's protocol). When off, every rank derives `h` from
    /// the already-broadcast level column locally — same arithmetic, no
    /// extra communication round.
    pub centralized_h: bool,
    /// Stream the per-level column broadcast through the pipelined binary
    /// tree (`O(α·log N + β·n)`) instead of the binomial tree
    /// (`O((α + β·n)·log N)`).
    pub pipelined_bcast: bool,
}

impl ImepOptions {
    /// The paper's protocol, verbatim.
    pub fn paper() -> Self {
        Self {
            collect_last_rows: true,
            centralized_h: true,
            pipelined_bcast: false,
        }
    }

    /// The tuned variant a production IMeP would run (and the one the
    /// harness uses for figure generation): no bookkeeping returns,
    /// locally derived `h`, pipelined broadcasts.
    pub fn optimized() -> Self {
        Self {
            collect_last_rows: false,
            centralized_h: false,
            pipelined_bcast: true,
        }
    }
}

impl Default for ImepOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// Cyclic column distribution: owner of global table column `c`.
pub(crate) fn owner(c: usize, nranks: usize) -> usize {
    c % nranks
}

pub(crate) const MASTER: usize = 0;

/// The fully reduced inhibition table held by one rank: its share of the
/// left block, which after the reduction equals the corresponding columns
/// of `A⁻ᵀ`. Because the reduction is independent of the right-hand side,
/// one [`reduce_table`] pays for any number of [`ReducedTable::solve`]
/// calls — each solve is one broadcast of `b`, local dot products, a gather
/// and a broadcast of `x` (`O(n²/N)` work, `O(n)` traffic).
pub struct ReducedTable {
    n: usize,
    nranks: usize,
    /// `(global left-column index, column data)` for my columns.
    my_left: Vec<(usize, Vec<f64>)>,
    /// Master-side archive of the per-level reduced rows (the paper's
    /// last-row returns); empty unless `collect_last_rows` was on.
    pub archived_rows: Vec<Vec<f64>>,
}

impl ReducedTable {
    /// Solve for one right-hand side (held by the master; other ranks may
    /// pass anything). Returns the replicated solution. Collective.
    pub fn solve(&self, ctx: &mut RankCtx, comm: &Comm, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let me = comm.rank();
        let b_own = if me == MASTER {
            assert_eq!(b.len(), n, "rhs length mismatch");
            Some(b.to_vec())
        } else {
            None
        };
        // Read-only everywhere: every rank dots against the one shared
        // replica instead of unwrapping a private copy.
        let b_rep = ctx.bcast_shared_f64(comm, MASTER, b_own);
        let my_x: Vec<f64> = self
            .my_left
            .iter()
            .map(|(_, col)| ddot(col, &b_rep))
            .collect();
        ctx.compute(
            flops::dgemv(my_x.len(), n),
            flops::bytes_f64(n * my_x.len()),
        );
        // Only the master assembles `x`; every rank then takes its own copy
        // of the broadcast replica.
        let x = ctx.gather_f64(comm, MASTER, &my_x).map(|chunks| {
            let mut x = vec![0.0; n];
            for (r, chunk) in chunks.iter().enumerate() {
                // Rank r owns left columns r, r+N, r+2N, … in that order.
                for (t, &v) in chunk.iter().enumerate() {
                    let j = r + t * self.nranks;
                    debug_assert!(j < n);
                    x[j] = v;
                }
            }
            x
        });
        Arc::unwrap_or_clone(ctx.bcast_shared_f64(comm, MASTER, x))
    }
}

/// Run the IMeP reduction (INITIME + all levels) without consuming a
/// right-hand side. Collective over `comm`.
///
/// A [`FaultPlan`](greenla_mpi::FaultPlan) with a `column_loss` on the
/// machine makes this the protected run: the planned column is lost at the
/// planned level and comes back from the master's checksum in-band, the
/// victim accounting both in its `FaultReport`.
pub fn reduce_table(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    opts: ImepOptions,
) -> Result<ReducedTable, ImeError> {
    reduce_table_with(ctx, comm, sys, opts, MAX_FUSE)
}

/// [`reduce_table`] with the host's level-block depth `depth` (at most
/// [`MAX_FUSE`]) instead of [`MAX_FUSE`].
fn reduce_table_with(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    opts: ImepOptions,
    depth: usize,
) -> Result<ReducedTable, ImeError> {
    assert!((1..=MAX_FUSE).contains(&depth), "level block depth {depth}");
    let n = sys.n();
    let nranks = comm.size();
    let me = comm.rank();

    // Diagonal check is local and identical on every rank (replicated
    // input), so all ranks agree before any communication.
    for i in 0..n {
        if sys.a[(i, i)] == 0.0 {
            return Err(ImeError::ZeroDiagonal { row: i });
        }
    }

    // ----- INITIME: build my columns of T(n) -----
    // Left column j is e_j/a_jj (kept dense for uniform updates); right
    // column n+j holds a_{j,i}/a_{i,i}.
    let mut my_cols: Vec<(usize, Vec<f64>)> = (0..2 * n)
        .filter(|&c| owner(c, nranks) == me)
        .map(|c| (c, init_column(&sys.a, c).expect("diagonal checked above")))
        .collect();
    ctx.compute(
        (n * my_cols.len()) as u64 / 2,
        flops::bytes_f64(n * my_cols.len()),
    );

    // Master's archive of reduced rows (row l at each level).
    let mut archived_rows: Vec<Vec<f64>> = Vec::new();

    // Armed only where the fault plan can lose a column.
    let mut guard = Checksum::arm(ctx, comm, &my_cols, n);

    // Host level fusion (see `LEVEL_FUSE`): levels whose update is still
    // owed to my columns, and each column's `α` per owed level.
    let fuse = if guard.is_some() || opts.collect_last_rows {
        1
    } else {
        depth
    };
    let mut pending: Vec<Pending> = Vec::with_capacity(fuse);
    let mut alphas = vec![[0.0; MAX_FUSE]; my_cols.len()];
    let chain = simd::active().daxpy_chain;

    // ----- levels -----
    for l in (0..n).rev() {
        if let Some(guard) = &guard {
            guard.before_level(ctx, comm, &mut my_cols, l);
        }

        // 1. Owner of column n+l broadcasts it, first bringing it up to
        //    date if levels are pending. The column is about to be
        //    eliminated, so it moves into the broadcast; every use
        //    downstream is a read, so either tree hands every rank one
        //    shared replica.
        let last_col_owner = owner(n + l, nranks);
        let data = (me == last_col_owner).then(|| {
            let i = my_cols
                .iter()
                .position(|(c, _)| *c == n + l)
                .expect("owner must hold the level column");
            if !pending.is_empty() {
                apply_pending(&mut my_cols[i..=i], n, &pending, &mut alphas, chain);
            }
            std::mem::take(&mut my_cols[i].1)
        });
        let c_lvl: Arc<Vec<f64>> = if opts.pipelined_bcast {
            ctx.bcast_pipelined_shared_f64(comm, last_col_owner, data, BCAST_CHUNK)
        } else {
            ctx.bcast_shared_f64(comm, last_col_owner, data)
        };

        // 2. Auxiliary quantities h^(l): computed at the master and
        //    broadcast (paper protocol), or left for every rank's sweep to
        //    derive from the column it just received (optimised variant). A
        //    failed level is signalled in-band / detected identically
        //    everywhere. Under the paper protocol, h_l travels as the first
        //    element and `h` is read in place after it.
        let level = if opts.centralized_h {
            let h = if me == MASTER {
                let piv = c_lvl[l];
                Some(if piv == 0.0 {
                    vec![f64::NAN] // failure sentinel
                } else {
                    let mut h = Vec::with_capacity(n + 1);
                    h.push(1.0 / piv); // h_l as first element
                    h.extend(c_lvl.iter().map(|&v| v / piv));
                    h
                })
            } else {
                None
            };
            if me == MASTER {
                ctx.compute((n + 1) as u64, flops::bytes_f64(n));
            }
            let h = ctx.bcast_shared_f64(comm, MASTER, h);
            if h.len() == 1 {
                return Err(ImeError::ZeroInhibitor { level: l });
            }
            Pending {
                l,
                hl: h[0],
                h: LevelH::Broadcast(h),
            }
        } else {
            let piv = c_lvl[l];
            if piv == 0.0 {
                return Err(ImeError::ZeroInhibitor { level: l });
            }
            ctx.compute((n + 1) as u64, flops::bytes_f64(n));
            Pending {
                l,
                hl: 1.0 / piv,
                h: LevelH::Column(Arc::clone(&c_lvl), piv),
            }
        };

        // 3. Fundamental update on my active columns (left `l..n`, right
        //    `< l`); column n+l itself is eliminated to a basis vector. The
        //    update is owed until the block's sweep.
        let mut touched = 0usize;
        for (c, col) in my_cols.iter_mut() {
            if !active(*c, n, l) {
                continue;
            }
            if *c == n + l {
                *col = vec![0.0; n];
                col[l] = 1.0;
                continue;
            }
            touched += 1;
        }
        ctx.compute(
            2 * (n * touched) as u64,
            flops::bytes_f64(2 * n * touched) / LEVEL_FUSE,
        );
        if let Some(guard) = &mut guard {
            guard.after_level(ctx, &c_lvl, &level);
        }
        pending.push(level);
        if pending.len() == fuse || l == 0 {
            apply_pending(&mut my_cols, n, &pending, &mut alphas, chain);
            pending.clear();
        }

        // 4. Slaves send their modified row-l entries to the master.
        if opts.collect_last_rows {
            let row_l: Vec<f64> = my_cols
                .iter()
                .filter(|(c, _)| active(*c, n, l))
                .map(|(_, col)| col[l])
                .collect();
            if let Some(chunks) = ctx.gather_f64(comm, MASTER, &row_l) {
                archived_rows.push(chunks.iter().flat_map(|c| c.iter().copied()).collect());
            }
        }
    }

    let my_left: Vec<(usize, Vec<f64>)> = my_cols.into_iter().filter(|(c, _)| *c < n).collect();
    Ok(ReducedTable {
        n,
        nranks,
        my_left,
        archived_rows,
    })
}

/// One column's fundamental update, branch-free: the rows above and below
/// `l` are two contiguous daxpy runs (no per-element `i != l` test). The
/// kernel the sequential reference, this loop and the checksum share.
pub(crate) fn apply_level(col: &mut [f64], l: usize, h: &[f64], hl: f64) {
    let tl = col[l];
    let (above, rest) = col.split_at_mut(l);
    daxpy(-tl, &h[..l], above);
    daxpy(-tl, &h[l + 1..], &mut rest[1..]);
    rest[0] = hl * tl;
}

/// Does level `l` update table column `c` (left `l..n`, right `0..=l`)?
fn active(c: usize, n: usize, l: usize) -> bool {
    if c < n {
        c >= l
    } else {
        c - n <= l
    }
}

/// A level whose update is still owed to the rank's columns: its row, its
/// `h_l`, and one `Arc` clone of what its broadcast delivered.
pub(crate) struct Pending {
    pub(crate) l: usize,
    pub(crate) hl: f64,
    h: LevelH,
}

/// Where a pending level's `h` comes from.
enum LevelH {
    /// The master's broadcast `[h_l, h…]`: `h` is read in place after `h_l`.
    Broadcast(Arc<Vec<f64>>),
    /// The level column `c` and its pivot: `h = c / piv`, formed where it
    /// is used.
    Column(Arc<Vec<f64>>, f64),
}

impl Pending {
    /// `h[rows]`: borrowed from a broadcast `h`, or formed into `scratch`
    /// from the level column — the division the master performs under the
    /// paper protocol, so the same bits.
    pub(crate) fn h<'a>(&'a self, rows: Range<usize>, scratch: &'a mut [f64]) -> &'a [f64] {
        match &self.h {
            LevelH::Broadcast(h) => &h[1 + rows.start..1 + rows.end],
            LevelH::Column(c, piv) => {
                let out = &mut scratch[..rows.len()];
                for (o, &v) in out.iter_mut().zip(&c[rows]) {
                    *o = v / piv;
                }
                out
            }
        }
    }
}

thread_local! {
    /// Per-thread `h` scratch of the fused sweep: one [`DAXPY_CHAIN_CHUNK`]
    /// of rows for each of up to [`MAX_FUSE`] levels, reused across calls
    /// so a sweep allocates nothing. On the fiber carrier every rank homed
    /// on a worker thread shares that worker's buffer. That is sound
    /// because the sweep never blocks or yields while the `RefCell` is
    /// borrowed, so it is finished before another rank can run on the
    /// thread; a sweep that broke this would panic on the second borrow,
    /// not corrupt a chunk. (A buffer per rank — on its fiber stack or its
    /// heap — would hold the same bytes once per rank.)
    static H_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Apply the `pending` levels (consecutive, descending) to every column
/// of `cols` that still owes them: left column `c` the levels `≤ c`, a
/// right column below the block all of them. A right column inside the
/// block was the level column — brought up to date before its broadcast
/// and snapped to a basis vector — and is skipped.
///
/// Per column the pivot rows `lmin..=lmax` are replayed level by level
/// with `apply_level`, which yields each level's `α = −t_l`; the levels'
/// `h` on those rows is formed once, into a small array. Every other row
/// then takes the whole block in one `daxpy_chain`. Rows go in
/// [`DAXPY_CHAIN_CHUNK`]s, the outer loop: each level's `h` chunk is formed
/// in the thread's [`H_SCRATCH`] (or borrowed from a broadcast `h`) and
/// stays in L1 across all columns. Each entry sees exactly the per-level
/// loop's operations in the same order, so the result is bit-identical to
/// it.
fn apply_pending(
    cols: &mut [(usize, Vec<f64>)],
    n: usize,
    pending: &[Pending],
    alphas: &mut [[f64; MAX_FUSE]],
    chain: DaxpyChainKernel,
) {
    let depth = pending.len();
    let (lmax, lmin) = (pending[0].l, pending[depth - 1].l);
    // Column `c` owes the levels `pending[first(c)..]`.
    let first = |c: usize| {
        if c < n {
            lmax.saturating_sub(c).min(depth)
        } else if c - n < lmin {
            0
        } else {
            depth
        }
    };
    let pivots = lmin..lmax + 1;
    let mut pivot_rows = [[0.0; MAX_FUSE]; MAX_FUSE];
    let mut hp: [&[f64]; MAX_FUSE] = [&[]; MAX_FUSE];
    for ((h, p), s) in hp.iter_mut().zip(pending).zip(&mut pivot_rows) {
        *h = p.h(pivots.clone(), s);
    }
    for ((c, col), a) in cols.iter_mut().zip(alphas.iter_mut()) {
        for (k, p) in pending.iter().enumerate().skip(first(*c)) {
            a[k] = -col[p.l];
            apply_level(&mut col[pivots.clone()], p.l - lmin, hp[k], p.hl);
        }
    }
    let chunks = |rows: Range<usize>| {
        rows.clone()
            .step_by(DAXPY_CHAIN_CHUNK)
            .map(move |r| r..(r + DAXPY_CHAIN_CHUNK).min(rows.end))
    };
    H_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize(MAX_FUSE * DAXPY_CHAIN_CHUNK, 0.0);
        for rows in chunks(0..lmin).chain(chunks(lmax + 1..n)) {
            let mut xs: [&[f64]; MAX_FUSE] = [&[]; MAX_FUSE];
            let parts = scratch.chunks_exact_mut(DAXPY_CHAIN_CHUNK);
            for ((x, p), s) in xs.iter_mut().zip(pending).zip(parts) {
                *x = p.h(rows.clone(), s);
            }
            for ((c, col), a) in cols.iter_mut().zip(alphas.iter()) {
                let k = first(*c);
                if k < depth {
                    chain(&a[k..depth], &xs[k..depth], &mut col[rows.clone()]);
                }
            }
        }
    });
}

/// Solve a replicated system with IMeP over all ranks of `comm`. Returns
/// the solution, replicated on every rank.
pub fn solve_imep(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    opts: ImepOptions,
) -> Result<Vec<f64>, ImeError> {
    let table = reduce_table(ctx, comm, sys, opts)?;
    Ok(table.solve(ctx, comm, &sys.b))
}

/// Solve the same system for several right-hand sides with a single
/// reduction (the decomposition is RHS-independent — one of IMe's selling
/// points for repeated solves such as transient circuit analysis).
pub fn solve_imep_multi(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LinearSystem,
    bs: &[Vec<f64>],
    opts: ImepOptions,
) -> Result<Vec<Vec<f64>>, ImeError> {
    let table = reduce_table(ctx, comm, sys, opts)?;
    Ok(bs.iter().map(|b| table.solve(ctx, comm, b)).collect())
}

/// Per-level traffic of this implementation, counted the same way the
/// simulator counts (tree broadcast/gather = `N−1` point-to-point
/// messages). Used by tests to pin the simulated counters exactly, and by
/// the analytic model.
pub fn predict_traffic(n: usize, nranks: usize, opts: ImepOptions) -> (u64, u64) {
    let nn = n as u64;
    let edges = (nranks as u64).saturating_sub(1);
    if edges == 0 {
        return (0, 0);
    }
    let mut msgs = 0u64;
    let mut elems = 0u64;
    // init: b broadcast.
    msgs += edges;
    elems += edges * nn;
    for l in 0..n {
        // Column broadcast (size n).
        if opts.pipelined_bcast {
            // Binary-tree pipeline: header + chunks per edge.
            let nchunks = n.div_ceil(BCAST_CHUNK).max(1) as u64;
            msgs += edges * (nchunks + 1);
            elems += edges * (nn + 1); // chunks total n elems + 1-word header
        } else {
            msgs += edges;
            elems += edges * nn;
        }
        // h broadcast (size n+1) under the paper protocol.
        if opts.centralized_h {
            msgs += edges;
            elems += edges * (nn + 1);
        }
        if opts.collect_last_rows {
            // linear gather: each slave sends its active-column row entries.
            msgs += edges;
            // Active columns (left l..n plus right 0..=l) less the
            // master's share.
            let cols = (n - l) + (l + 1);
            let master_share = (0..2 * n)
                .filter(|&c| active(c, n, l) && owner(c, nranks) == 0)
                .count();
            elems += (cols - master_share) as u64;
        }
    }
    // termination: gather x components + broadcast x.
    msgs += 2 * edges;
    let master_left = (0..n).filter(|&c| owner(c, nranks) == 0).count() as u64;
    elems += (nn - master_left) + edges * nn;
    (msgs, elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_linalg::generate;
    use greenla_mpi::Machine;

    #[test]
    fn every_block_depth_gives_the_sequential_bits() {
        // Every depth from per-level (1) to the default, including blocks
        // deeper than a rank's column count and ragged last blocks, under
        // the shared `h` the master broadcasts (read at offset 1) and the
        // `h` each sweep forms from the level column. n = 300 crosses a
        // `DAXPY_CHAIN_CHUNK` and ends on a partial one.
        let centralized = ImepOptions {
            centralized_h: true,
            ..ImepOptions::optimized()
        };
        let small = [generate::diag_dominant(37, 3), generate::poisson2d(6, 0)];
        let big = generate::diag_dominant(300, 7);
        let cases = small
            .iter()
            .map(|sys| (sys, &[1, 2, 3, 5][..], &[1, 2, 3, 5, MAX_FUSE][..]))
            .chain([(&big, &[3][..], &[1, 5, MAX_FUSE][..])]);
        for (sys, ranks, depths) in cases {
            let (x_seq, _) = crate::solve_seq(sys).unwrap();
            let want: Vec<u64> = x_seq.iter().map(|v| v.to_bits()).collect();
            for &ranks in ranks {
                for &depth in depths {
                    for opts in [ImepOptions::optimized(), centralized, ImepOptions::paper()] {
                        let spec = ClusterSpec::test_cluster(2, 4);
                        let placement = Placement::packed(&spec.node, ranks).unwrap();
                        let power = PowerModel::deterministic();
                        let m = Machine::new(spec, placement, power, 1).unwrap();
                        let out = m.run(|ctx| {
                            let world = ctx.world();
                            let t = reduce_table_with(ctx, &world, sys, opts, depth).unwrap();
                            t.solve(ctx, &world, &sys.b)
                        });
                        for x in &out.results {
                            let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                got,
                                want,
                                "n={} ranks={ranks} depth {depth} {opts:?}",
                                sys.n()
                            );
                        }
                    }
                }
            }
        }
    }
}
