//! Multithreaded dgemm: column-partitioned parallelism over the packed
//! [`crate::blas3`] loop nest.
//!
//! The matrix product is embarrassingly parallel along `C`'s columns: each
//! worker gets a contiguous, `NR`-aligned column chunk of `C` (and the
//! matching columns of `B`) and runs the ordinary packed loop nest on it
//! with the process-wide [`crate::tune::Blocking`]. Chunks are carved with
//! `split_at_mut` at column boundaries, so workers share `A` read-only and
//! own disjoint `C` slices — no locks, no false sharing beyond cache-line
//! spill at chunk edges, and the scoped-thread idiom (`std::thread::scope`,
//! the same shape as `harness::run::parallel_map`) keeps lifetimes borrowed.
//!
//! **Determinism:** the partition is *bitwise* harmless. Each `C[i,j]` is
//! accumulated in `pc`-block order with `p` ascending inside each block,
//! and that order depends only on `k` and the `kc` blocking — never on how
//! columns were split across `jc` slabs or workers. So the parallel result
//! is bit-identical to the sequential result for the same kernel path, for
//! any worker count, on every run (asserted by `tests/kernel_dispatch.rs`).
//!
//! Worker count comes from the caller or [`default_workers`]
//! (`GREENLA_DGEMM_THREADS` override, else the host's available
//! parallelism).

use crate::blas3::dgemm_with;
use crate::block::{BlockMut, BlockRef};
use crate::simd::{self, KernelPath, KernelSet};
use crate::tune::{Blocking, NR};
use std::sync::OnceLock;

/// `C ← α·A·B + β·C` computed by [`default_workers`] threads with the
/// default [`Blocking`] and the dispatched kernel path.
pub fn dgemm_parallel(alpha: f64, a: BlockRef, b: BlockRef, beta: f64, c: BlockMut) {
    dgemm_parallel_blocked(
        alpha,
        a,
        b,
        beta,
        c,
        &Blocking::default_blocking(),
        default_workers(),
    );
}

/// [`dgemm_parallel`] with explicit blocking and worker count, on the
/// dispatched kernel path.
pub fn dgemm_parallel_blocked(
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    c: BlockMut,
    tune: &Blocking,
    workers: usize,
) {
    dgemm_parallel_with(
        simd::active_kernel_set(),
        alpha,
        a,
        b,
        beta,
        c,
        tune,
        workers,
    );
}

/// [`dgemm_parallel_blocked`] pinned to an explicit [`KernelPath`] (panics
/// when the CPU cannot execute it) — the cross-path property tests compare
/// parallel results against the sequential oracle per path through here.
#[allow(
    clippy::too_many_arguments,
    reason = "the BLAS dgemm signature plus the path and worker count"
)]
pub fn dgemm_parallel_path(
    path: KernelPath,
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    c: BlockMut,
    tune: &Blocking,
    workers: usize,
) {
    dgemm_parallel_with(simd::kernel_set(path), alpha, a, b, beta, c, tune, workers);
}

/// Worker count used by [`dgemm_parallel`]: the `GREENLA_DGEMM_THREADS`
/// environment variable when set (must parse to ≥ 1), otherwise the host's
/// available parallelism. Resolved once and cached.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| env_workers("GREENLA_DGEMM_THREADS"))
}

/// A kernel's worker count: environment variable `name` when set (must
/// parse to ≥ 1), otherwise the host's available parallelism.
pub(crate) fn env_workers(name: &str) -> usize {
    match std::env::var(name) {
        Ok(v) => {
            let w: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be a positive integer, got `{v}`"));
            assert!(w >= 1, "{name} must be >= 1");
            w
        }
        Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Column chunks below this width run sequentially: thread spawn overhead
/// (~10 µs) dwarfs a couple of micro-panel columns of work.
const MIN_PANELS_PER_WORKER: usize = 2;

#[allow(
    clippy::too_many_arguments,
    reason = "the BLAS dgemm signature plus the kernel set and worker count"
)]
fn dgemm_parallel_with(
    set: KernelSet,
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    mut c: BlockMut,
    tune: &Blocking,
    workers: usize,
) {
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    assert!(
        a.rows() == m && b.rows() == k && b.cols() == n,
        "dgemm_parallel shape mismatch: ({}×{k}) · ({}×{}) → ({m}×{n})",
        a.rows(),
        b.rows(),
        b.cols(),
    );
    let n_panels = n.div_ceil(NR);
    let chunks = workers.min(n_panels / MIN_PANELS_PER_WORKER.max(1)).max(1);
    if chunks <= 1 {
        dgemm_with(set, alpha, a, b, beta, c, tune);
        return;
    }

    let (ldb, ldc) = (b.ld(), c.ld());
    let bdata = b.data();
    let cdata = c.data_mut();

    // Carve C into `chunks` contiguous NR-aligned column ranges and pair
    // each with the matching B columns. The ranges tile [0, n) exactly.
    let mut jobs: Vec<(&mut [f64], &[f64], usize)> = Vec::with_capacity(chunks);
    let mut rest = cdata;
    for i in 0..chunks {
        let j0 = (i * n_panels / chunks) * NR;
        let j1 = if i + 1 == chunks {
            n
        } else {
            ((i + 1) * n_panels / chunks) * NR
        };
        debug_assert!(j1 > j0);
        let cols = j1 - j0;
        let take = if i + 1 == chunks {
            rest.len()
        } else {
            cols * ldc
        };
        let (chunk, tail) = rest.split_at_mut(take);
        rest = tail;
        jobs.push((chunk, &bdata[j0 * ldb..], cols));
    }

    let run = |(cchunk, bchunk, cols): (&mut [f64], &[f64], usize)| {
        dgemm_with(
            set,
            alpha,
            a,
            BlockRef::new(bchunk, k, cols, ldb),
            beta,
            BlockMut::new(cchunk, m, cols, ldc),
            tune,
        );
    };

    std::thread::scope(|s| {
        let mut it = jobs.into_iter();
        // The first chunk runs on the calling thread; only the rest spawn.
        let head = it.next();
        let handles: Vec<_> = it.map(|job| s.spawn(move || run(job))).collect();
        if let Some(job) = head {
            run(job);
        }
        for h in handles {
            h.join().expect("dgemm worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::dgemm_blocked_path;
    use crate::matrix::Matrix;

    fn mat(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 7 + j * 13 + salt) % 23) as f64 * 0.125 - 1.375
        })
    }

    #[test]
    fn parallel_is_bitwise_equal_to_sequential_for_any_worker_count() {
        let (m, n, k) = (61, 83, 45);
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        let tune = Blocking::default_blocking();
        let mut want = mat(m, n, 3);
        dgemm_blocked_path(
            KernelPath::Scalar,
            0.5,
            a.block(),
            b.block(),
            -0.25,
            want.block_mut(),
            &tune,
        );
        for workers in [1, 2, 3, 4, 7] {
            let mut got = mat(m, n, 3);
            dgemm_parallel_path(
                KernelPath::Scalar,
                0.5,
                a.block(),
                b.block(),
                -0.25,
                got.block_mut(),
                &tune,
                workers,
            );
            assert_eq!(got.as_slice(), want.as_slice(), "workers={workers}");
        }
    }

    #[test]
    fn narrow_matrices_fall_back_to_sequential() {
        // n < 2·NR panels: the partitioner must not spawn for one panel.
        let (m, n, k) = (32, 9, 16);
        let a = mat(m, k, 4);
        let b = mat(k, n, 5);
        let mut want = Matrix::zeros(m, n);
        let mut got = Matrix::zeros(m, n);
        let tune = Blocking::default_blocking();
        dgemm_blocked_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            want.block_mut(),
            &tune,
        );
        dgemm_parallel_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            got.block_mut(),
            &tune,
            8,
        );
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn oversubscribed_workers_clamp_to_available_panels() {
        let (m, n, k) = (24, 40, 24); // 5 panels, 64 workers requested
        let a = mat(m, k, 6);
        let b = mat(k, n, 7);
        let mut want = Matrix::zeros(m, n);
        let mut got = Matrix::zeros(m, n);
        let tune = Blocking::default_blocking();
        dgemm_blocked_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            want.block_mut(),
            &tune,
        );
        dgemm_parallel_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            got.block_mut(),
            &tune,
            64,
        );
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn default_workers_is_cached_and_positive() {
        let w = default_workers();
        assert!(w >= 1);
        assert_eq!(default_workers(), w);
    }
}
