//! Machine-readable benchmark suites and the regression-gate data model.
//!
//! Two pinned suites feed the repo's bench trajectory:
//!
//! - **kernels** — wall-clock microbenchmarks of the packed Level-3 kernels
//!   (plus the scalar reference, so the packed-vs-scalar speedup stays
//!   visible in every artifact);
//! - **campaign** — wall-clock of fixed smoke-grid solver runs, covering
//!   the whole simulated-MPI stack including the wakeup scheduler.
//!
//! `repro --bench-out`/`--bench-campaign` serialise a [`BenchReport`] per
//! suite; the `bench_gate` binary diffs current reports against the
//! checked-in `BENCH_baseline.json` with a tolerance band and fails CI on
//! regression. Entries are matched by `(suite, id)`, so renaming an entry
//! counts as losing coverage until the baseline is regenerated (see
//! EXPERIMENTS.md).

use crate::config::SolverChoice;
use crate::run::{run_once, RunConfig};
use greenla_cg::partition::{RowBlocks, RowSplit};
use greenla_cluster::placement::LoadLayout;
use greenla_linalg::blas3::{
    dgemm_blocked, dgemm_blocked_path, dgemm_reference, dtrsm_left_lower_unit, dtrsm_left_upper,
};
use greenla_linalg::generate::SystemKind;
use greenla_linalg::par::dgemm_parallel_blocked;
use greenla_linalg::simd::{self, KernelPath};
use greenla_linalg::tune::Blocking;
use greenla_linalg::{flops, Matrix};
use serde::{Deserialize, Serialize};

pub mod retry;
pub use retry::median_wall;

/// One benchmark's aggregated result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable identifier; the gate matches baseline and current by it.
    pub id: String,
    /// Number of timed repetitions behind the median.
    pub reps: usize,
    /// Median wall-clock seconds per repetition.
    pub median_wall_s: f64,
    /// Achieved GFLOP/s (flop-count / median wall), where a closed-form
    /// flop count exists; `null` otherwise.
    #[serde(default = "no_rate")]
    pub gflops: Option<f64>,
    /// Achieved DRAM GB/s against the kernel's closed-form byte count —
    /// the headline rate for memory-bound entries (SpMV, the CG
    /// iteration), where GFLOP/s understates what the kernel achieves.
    /// `null` for the compute-bound entries (pre-`gbps` baselines parse
    /// the same way).
    #[serde(default = "no_rate")]
    pub gbps: Option<f64>,
    /// Virtual-time seconds of the simulated run (the suites that run a
    /// simulated machine; deterministic, so any drift here is a
    /// *correctness* signal — [`gate`] compares it bit for bit).
    #[serde(default = "no_rate")]
    pub virtual_s: Option<f64>,
}

fn no_rate() -> Option<f64> {
    None
}

fn no_path() -> Option<String> {
    None
}

/// A named collection of benchmark results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchSuite {
    pub suite: String,
    pub entries: Vec<BenchEntry>,
}

/// Top-level artifact format of `BENCH_*.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format version for forward compatibility.
    pub schema: u32,
    /// The microkernel path ([`greenla_linalg::simd::resolved`]) the report
    /// was produced under. Kernel wall-clocks are only comparable within
    /// one path — `bench_gate` refuses a cross-path diff rather than
    /// reporting a spurious ISA "regression"/"improvement". `None` in
    /// pre-dispatch artifacts (the serde default keeps them parsing).
    #[serde(default = "no_path")]
    pub kernel_path: Option<String>,
    pub suites: Vec<BenchSuite>,
}

pub const SCHEMA: u32 = 1;

impl BenchReport {
    pub fn new(suites: Vec<BenchSuite>) -> Self {
        BenchReport {
            schema: SCHEMA,
            kernel_path: Some(simd::resolved().label().to_string()),
            suites,
        }
    }

    /// Look up an entry by suite and id.
    pub fn get(&self, suite: &str, id: &str) -> Option<&BenchEntry> {
        self.suites
            .iter()
            .find(|s| s.suite == suite)
            .and_then(|s| s.entries.iter().find(|e| e.id == id))
    }

    /// Speedup of `fast` over `slow` within `suite` (by median wall-clock).
    pub fn speedup(&self, suite: &str, fast: &str, slow: &str) -> Option<f64> {
        let f = self.get(suite, fast)?.median_wall_s;
        let s = self.get(suite, slow)?.median_wall_s;
        (f > 0.0).then(|| s / f)
    }
}

pub(crate) fn test_matrix(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| ((i * (7 + salt) + j * 13) % 17) as f64 - 8.0)
}

/// The pinned kernel suite. `quick` trims repetitions (CI), not problem
/// sizes — the 512³ entries are what the acceptance gate tracks. Even the
/// quick mode keeps enough repetitions that the median shrugs off several
/// noisy samples on a shared runner (the whole suite stays ~1 s).
pub fn kernel_suite(quick: bool) -> BenchSuite {
    let reps = if quick { 9 } else { 15 };
    let tune = Blocking::default_blocking();
    let mut entries = Vec::new();

    // Small sizes batch several calls per timed repetition so every
    // repetition measures milliseconds, not timer granularity; the
    // recorded median is per call.
    for (n, iters) in [(128usize, 16), (256, 4), (512, 1)] {
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let wall = median_wall(reps, || {
            for _ in 0..iters {
                dgemm_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune);
            }
        }) / iters as f64;
        entries.push(BenchEntry {
            id: format!("dgemm_packed_{n}"),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dgemm(n, n, n) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
    }

    // The pre-packing scalar loop nest at the acceptance size, so every
    // artifact carries the packed-vs-scalar ratio.
    {
        let n = 512;
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let wall = median_wall(reps, || {
            dgemm_reference(1.0, a.block(), b.block(), 0.0, c.block_mut());
        });
        entries.push(BenchEntry {
            id: "dgemm_scalar_512".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dgemm(n, n, n) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
    }

    // The packed loop nest pinned to the scalar microkernel at the
    // acceptance size: together with `dgemm_packed_512` (dispatched path)
    // this keeps the SIMD-dispatch win visible in every artifact, the same
    // way `dgemm_scalar_512` keeps the packing win visible.
    {
        let n = 512;
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let wall = median_wall(reps, || {
            dgemm_blocked_path(
                KernelPath::Scalar,
                1.0,
                a.block(),
                b.block(),
                0.0,
                c.block_mut(),
                &tune,
            );
        });
        entries.push(BenchEntry {
            id: "dgemm_packed_scalar_512".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dgemm(n, n, n) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
    }

    // Sequential-vs-parallel pair at n = 1024 on the dispatched path: the
    // scaling acceptance criterion (≥ 3× on 4 workers on a ≥ 4-core host)
    // is their wall-clock ratio, and both entries ride the gate.
    {
        let n = 1024;
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let wall = median_wall(reps, || {
            dgemm_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune);
        });
        entries.push(BenchEntry {
            id: "dgemm_seq_1024".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dgemm(n, n, n) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
        let wall = median_wall(reps, || {
            dgemm_parallel_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune, 4);
        });
        entries.push(BenchEntry {
            id: "dgemm_par_1024_w4".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dgemm(n, n, n) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
    }

    // Blocked triangular solves (the LU hot path besides the trailing
    // update): one well-conditioned system per shape, re-solved from a
    // pristine right-hand side every repetition.
    {
        let m = 512;
        let nrhs = 256;
        let mut l = test_matrix(m, 4);
        let mut u = test_matrix(m, 6);
        for j in 0..m {
            for i in 0..=j {
                l[(i, j)] = if i == j { 1.0 } else { 0.0 };
            }
            for i in j + 1..m {
                l[(i, j)] *= 0.001;
                u[(i, j)] = 0.0;
            }
            u[(j, j)] = 4.0;
        }
        let b0: Vec<f64> = (0..m * nrhs).map(|i| ((i % 23) as f64) - 11.0).collect();
        let mut x = b0.clone();
        let wall = median_wall(reps, || {
            x.copy_from_slice(&b0);
            dtrsm_left_lower_unit(m, nrhs, l.as_slice(), m, &mut x, m);
        });
        entries.push(BenchEntry {
            id: "dtrsm_lower_512x256".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dtrsm(m, nrhs) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
        let wall = median_wall(reps, || {
            x.copy_from_slice(&b0);
            dtrsm_left_upper(m, nrhs, u.as_slice(), m, &mut x, m);
        });
        entries.push(BenchEntry {
            id: "dtrsm_upper_512x256".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(flops::dtrsm(m, nrhs) as f64 / wall / 1e9),
            gbps: None,
            virtual_s: None,
        });
    }

    // The sparse pair: CSR SpMV on the million-row 5-point Laplacian (the
    // CSR image streams DRAM well past any cache) and one unpreconditioned
    // CG iteration's local arithmetic — the SpMV plus the exact BLAS1
    // sweep `greenla_cg::formulas::blas1_iter_cost` counts. Both are
    // memory-bound, so GB/s against the closed-form byte model is the
    // headline rate and GFLOP/s rides along for the roofline acceptance.
    {
        let (k, reps) = (LAPLACE_BENCH_K, if quick { 5 } else { 9 });
        let s = greenla_linalg::sparse::laplace2d(k);
        let (n, nnz) = (s.a.n(), s.a.nnz());
        assert_eq!((n, nnz), laplace2d_shape(k), "closed-form shape drifted");
        let spmv_flops = flops::spmv(nnz) as f64;
        let spmv_bytes = flops::spmv_csr_bytes(n, nnz) as f64;
        let ones = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        let wall = median_wall(reps, || {
            s.a.spmv(&ones, &mut y);
            std::hint::black_box(&mut y);
        });
        entries.push(BenchEntry {
            id: "spmv_2d_6m".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(spmv_flops / wall / 1e9),
            gbps: Some(spmv_bytes / wall / 1e9),
            virtual_s: None,
        });

        let iter = greenla_cg::formulas::cg_iter_cost(n, nnz, 0, false);
        let mut xv = vec![0.0f64; n];
        let mut r = s.b.clone();
        let mut z = r.clone();
        let mut p = z.clone();
        let mut q = vec![0.0f64; n];
        let wall = median_wall(reps, || {
            // One CG iteration, operation for operation what
            // `blas1_iter_cost` charges: SpMV, three dots, two axpys, the
            // identity-preconditioner copy and the direction update.
            s.a.spmv(&p, &mut q);
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let alpha = if pq != 0.0 { rz / pq } else { 0.0 };
            for (xi, pi) in xv.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            let rr: f64 = r.iter().map(|v| v * v).sum();
            z.copy_from_slice(&r);
            let beta = if rz != 0.0 { rr / rz } else { 0.0 };
            for (pi, zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
            std::hint::black_box(&mut p);
        });
        entries.push(BenchEntry {
            id: "cg_iter_2d_6m".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(iter.flops as f64 / wall / 1e9),
            gbps: Some(iter.bytes as f64 / wall / 1e9),
            virtual_s: None,
        });

        // The multithreaded row-block SpMV on the same matrix and byte
        // model. Worker count comes from `GREENLA_SPMV_THREADS` (the CI
        // kernel-dispatch matrix sweeps it), defaulting to the host's
        // cores; the roofline acceptance requires this entry's GB/s to sit
        // on the memory ceiling and beat the serial `spmv_2d_6m` ≥ 2.5× on
        // a multi-core runner.
        let wall = median_wall(reps, || {
            s.a.spmv_parallel(&ones, &mut y);
            std::hint::black_box(&mut y);
        });
        entries.push(BenchEntry {
            id: "spmv_par_2d_6m".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(spmv_flops / wall / 1e9),
            gbps: Some(spmv_bytes / wall / 1e9),
            virtual_s: None,
        });

        // One CG iteration the way the overlapped solver sweeps it: the
        // SpMV runs in partition order — every 16-way row block's interior
        // rows first, then its boundary rows via `spmv_rows` — followed by
        // the same BLAS1 sweep as `cg_iter_2d_6m`. Same closed-form
        // flop/byte model (the split is an exact repartition), so the GB/s
        // gap between the two entries is the price of the indexed sweep.
        let blocks = RowBlocks::new(n, 16);
        let (mut interior, mut boundary) = (Vec::new(), Vec::new());
        for r in 0..16 {
            let split = RowSplit::build(&s.a, blocks, r);
            let lo = blocks.lo(r);
            interior.extend(split.interior.iter().map(|i| lo + i));
            boundary.extend(split.boundary.iter().map(|i| lo + i));
        }
        let mut xv = vec![0.0f64; n];
        let mut r = s.b.clone();
        let mut z = r.clone();
        let mut p = z.clone();
        let wall = median_wall(reps, || {
            s.a.spmv_rows(&interior, &p, &mut q);
            s.a.spmv_rows(&boundary, &p, &mut q);
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let alpha = if pq != 0.0 { rz / pq } else { 0.0 };
            for (xi, pi) in xv.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            let rr: f64 = r.iter().map(|v| v * v).sum();
            z.copy_from_slice(&r);
            let beta = if rz != 0.0 { rr / rz } else { 0.0 };
            for (pi, zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
            std::hint::black_box(&mut p);
        });
        entries.push(BenchEntry {
            id: "cg_overlap_iter".into(),
            reps,
            median_wall_s: wall,
            gflops: Some(iter.flops as f64 / wall / 1e9),
            gbps: Some(iter.bytes as f64 / wall / 1e9),
            virtual_s: None,
        });
    }

    BenchSuite {
        suite: "kernels".into(),
        entries,
    }
}

/// Grid edge of the pinned sparse bench entries (`spmv_2d_*`,
/// `cg_iter_2d_*`): 6.25 million rows, 50 MB per vector. The CG iteration
/// re-touches five vectors back to back, so the working set must dwarf the
/// last-level cache (105 MB on the reference runner) or the measured rate
/// floats above the DRAM roofline ceiling the entries are validated against.
pub const LAPLACE_BENCH_K: usize = 2500;

/// Closed-form shape of [`greenla_linalg::sparse::laplace2d`]: `k²` rows,
/// five entries per row minus one per boundary side (`4k` total) — what
/// `entry_profile` rebuilds the sparse profiles from without materialising
/// the matrix.
pub fn laplace2d_shape(k: usize) -> (usize, usize) {
    (k * k, 5 * k * k - 4 * k)
}

/// The pinned campaign suite: fixed smoke-scale monitored solves through
/// the full stack (packed kernels, wakeup scheduler, monitoring protocol).
/// Wall-clock is the banded metric; the virtual duration rides along as
/// the determinism canary [`gate`] holds bit-identical to the baseline.
pub fn campaign_suite(quick: bool) -> BenchSuite {
    let reps = if quick { 5 } else { 9 };
    // CG runs the Poisson stencil (its n must be a perfect square and the
    // system SPD); the dense solvers keep the diagonally dominant system
    // every pre-existing baseline was produced under.
    let configs = [
        (
            "ime_n192_p16",
            SolverChoice::ime_optimized(),
            SystemKind::DiagDominant,
            192,
            16,
        ),
        (
            "scalapack_n192_p16",
            SolverChoice::scalapack(),
            SystemKind::DiagDominant,
            192,
            16,
        ),
        (
            "cg_n196_p16",
            SolverChoice::cg(),
            SystemKind::Poisson2d,
            196,
            16,
        ),
    ];
    let entries = configs
        .iter()
        .map(|&(id, solver, system, n, ranks)| {
            let cfg = RunConfig {
                n,
                ranks,
                layout: LoadLayout::FullLoad,
                solver,
                system,
                cores_per_socket: 8,
                seed: 42,
                check: false,
                faults: None,
                scheduler: Default::default(),
                batch: 1,
                cg_overlap: true,
            };
            let mut virtual_s = 0.0;
            let wall = median_wall(reps, || {
                virtual_s = run_once(&cfg).duration_s;
            });
            BenchEntry {
                id: id.into(),
                reps,
                median_wall_s: wall,
                gflops: None,
                gbps: None,
                virtual_s: Some(virtual_s),
            }
        })
        .collect();
    BenchSuite {
        suite: "campaign".into(),
        entries,
    }
}

/// The pinned collectives suite: wall-clock of the simulated collectives
/// themselves — broadcast fan-out, the size-switched allreduce and the
/// ring allgather — at 1 KiB / 256 KiB / 8 MiB across 16 and 64 ranks.
/// The allgather sizes are the *combined* payload (what the solvers see).
/// Virtual seconds ride along as the determinism canary.
pub fn coll_suite(quick: bool) -> BenchSuite {
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::Machine;

    let reps = if quick { 5 } else { 9 };
    let machine = |ranks: usize| {
        let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 13).unwrap()
    };
    // Element counts for 1 KiB / 256 KiB / 8 MiB of f64s.
    let sizes = [
        (128usize, "1kib"),
        (32 * 1024, "256kib"),
        (1024 * 1024, "8mib"),
    ];
    let mut entries = Vec::new();
    // The per-run activity ledger demands monotonic clocks, so every
    // repetition builds a fresh machine — the same shape `run_once` gives
    // the campaign suite, and the constant cost cancels in the gate's diff.
    let mut push = |id: String, p: usize, body: &(dyn Fn(&mut greenla_mpi::RankCtx) + Sync)| {
        let mut virtual_s = 0.0;
        let wall = median_wall(reps, || {
            virtual_s = machine(p).run(body).makespan;
        });
        entries.push(BenchEntry {
            id,
            reps,
            median_wall_s: wall,
            gflops: None,
            gbps: None,
            virtual_s: Some(virtual_s),
        });
    };
    for p in [16usize, 64] {
        for (elems, tag) in sizes {
            push(format!("bcast_{tag}_p{p}"), p, &move |ctx| {
                let world = ctx.world();
                let data = (ctx.rank() == 0).then(|| vec![1.0; elems]);
                ctx.bcast_shared_f64(&world, 0, data);
            });
            push(format!("allreduce_{tag}_p{p}"), p, &move |ctx| {
                let world = ctx.world();
                ctx.allreduce_sum_owned_f64(&world, vec![1.0; elems]);
            });
            let per = elems / p;
            push(format!("allgather_{tag}_p{p}"), p, &move |ctx| {
                let world = ctx.world();
                ctx.allgather_f64(&world, &vec![ctx.rank() as f64; per]);
            });
        }
    }
    BenchSuite {
        suite: "collectives".into(),
        entries,
    }
}

/// The pinned scheduler suite: wall-clock of the rank engines themselves,
/// with no solver in the way. `spinup` measures launching P ranks that do
/// nothing but one barrier and exiting; `barrier_storm` drives 20
/// back-to-back barriers, the wake-heaviest pattern the registry supports
/// (every barrier blocks and wakes all P ranks). Fibers are gated at 1k
/// and 10k ranks; an OS-thread entry at 1k keeps the carrier ratio visible
/// in every artifact — 10k OS threads is the configuration fibers exist
/// to avoid, so it has no entry. The fiber worker count is pinned (not
/// `available_parallelism`) so runner shape can't move the numbers.
/// Virtual seconds ride along as the determinism canary, exactly like the
/// campaign suite.
pub fn sched_suite(quick: bool) -> BenchSuite {
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::{Machine, SchedulerKind};

    let reps = if quick { 3 } else { 5 };
    let machine = |ranks: usize, kind: SchedulerKind| {
        let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 17)
            .unwrap()
            .with_scheduler(kind)
            .with_sched_workers(2)
    };
    let mut entries = Vec::new();
    let mut push = |id: String,
                    p: usize,
                    kind: SchedulerKind,
                    body: &(dyn Fn(&mut greenla_mpi::RankCtx) + Sync)| {
        let mut virtual_s = 0.0;
        let wall = median_wall(reps, || {
            virtual_s = machine(p, kind).run(body).makespan;
        });
        entries.push(BenchEntry {
            id,
            reps,
            median_wall_s: wall,
            gflops: None,
            gbps: None,
            virtual_s: Some(virtual_s),
        });
    };
    let spinup = |ctx: &mut greenla_mpi::RankCtx| {
        let world = ctx.world();
        ctx.barrier(&world);
    };
    let storm = |ctx: &mut greenla_mpi::RankCtx| {
        let world = ctx.world();
        for _ in 0..20 {
            ctx.barrier(&world);
        }
    };
    let mut cases: Vec<(usize, SchedulerKind, &str)> = vec![
        (1_000, SchedulerKind::ThreadPerRank, "thread"),
        (1_000, SchedulerKind::EventDriven, "event"),
        (10_000, SchedulerKind::EventDriven, "event"),
    ];
    // Where the platform has no fibers only the thread entries run (the
    // gate reports the event entries as Missing, which is accurate).
    if !SchedulerKind::EventDriven.supported() {
        cases.retain(|&(_, kind, _)| kind == SchedulerKind::ThreadPerRank);
    }
    for &(p, kind, tag) in &cases {
        let pk = p / 1_000;
        push(format!("spinup_{tag}_p{pk}k"), p, kind, &spinup);
        push(format!("barrier_storm_{tag}_p{pk}k"), p, kind, &storm);
    }
    BenchSuite {
        suite: "sched".into(),
        entries,
    }
}

/// Outcome of one baseline-vs-current comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Warn,
    Fail,
    /// Entry exists in the baseline but not in any current report.
    Missing,
    /// Entry is new (no baseline yet) — informational.
    New,
}

/// One line of the gate's diff.
#[derive(Clone, Debug)]
pub struct GateLine {
    pub suite: String,
    pub id: String,
    pub baseline_s: Option<f64>,
    pub current_s: Option<f64>,
    pub delta_pct: Option<f64>,
    /// Achieved-GB/s regression percent (positive = current is slower),
    /// present only when both sides report a rate — the memory-bound
    /// entries.
    pub gbps_delta_pct: Option<f64>,
    /// `(baseline, current)` virtual seconds when both sides report them
    /// and they differ in any bit; always a [`Verdict::Fail`].
    pub virtual_drift: Option<(f64, f64)>,
    pub verdict: Verdict,
}

/// Diff `current` suites against `baseline`, flagging any entry whose
/// median wall-clock regressed more than `warn_pct`/`fail_pct` percent.
/// Memory-bound entries (those carrying a `gbps` rate on both sides) gate
/// their achieved GB/s with the same bands: wall and rate only move
/// together while the closed-form byte model stands still, so a kernel
/// change that inflates the model cannot hide a bandwidth regression.
/// Faster-than-baseline entries always pass (improvements are ratcheted in
/// by regenerating the baseline, not blocked). An entry whose virtual
/// seconds differ from the baseline's in any bit fails whatever its
/// wall-clock did: the simulated clock is deterministic — the campaign,
/// collectives and sched suites all read the same bits under
/// `GREENLA_KERNEL=scalar|avx2|avx512` — so a change of algorithm must
/// regenerate the entry and say so.
pub fn gate(
    baseline: &BenchReport,
    current: &[BenchReport],
    warn_pct: f64,
    fail_pct: f64,
) -> Vec<GateLine> {
    let mut lines = Vec::new();
    let find = |suite: &str, id: &str| -> Option<&BenchEntry> {
        current.iter().find_map(|r| r.get(suite, id))
    };
    for suite in &baseline.suites {
        for e in &suite.entries {
            let line = match find(&suite.suite, &e.id) {
                Some(cur) => {
                    let delta = (cur.median_wall_s - e.median_wall_s) / e.median_wall_s * 100.0;
                    let gbps_delta = match (e.gbps, cur.gbps) {
                        (Some(b), Some(c)) if b > 0.0 => Some((b - c) / b * 100.0),
                        _ => None,
                    };
                    let worst = gbps_delta.map_or(delta, |g| delta.max(g));
                    let virtual_drift = match (e.virtual_s, cur.virtual_s) {
                        (Some(b), Some(c)) if b.to_bits() != c.to_bits() => Some((b, c)),
                        _ => None,
                    };
                    let verdict = if worst > fail_pct || virtual_drift.is_some() {
                        Verdict::Fail
                    } else if worst > warn_pct {
                        Verdict::Warn
                    } else {
                        Verdict::Ok
                    };
                    GateLine {
                        suite: suite.suite.clone(),
                        id: e.id.clone(),
                        baseline_s: Some(e.median_wall_s),
                        current_s: Some(cur.median_wall_s),
                        delta_pct: Some(delta),
                        gbps_delta_pct: gbps_delta,
                        virtual_drift,
                        verdict,
                    }
                }
                None => GateLine {
                    suite: suite.suite.clone(),
                    id: e.id.clone(),
                    baseline_s: Some(e.median_wall_s),
                    current_s: None,
                    delta_pct: None,
                    gbps_delta_pct: None,
                    virtual_drift: None,
                    verdict: Verdict::Missing,
                },
            };
            lines.push(line);
        }
    }
    // Entries the baseline doesn't know about yet.
    for rep in current {
        for suite in &rep.suites {
            for e in &suite.entries {
                if baseline.get(&suite.suite, &e.id).is_none() {
                    lines.push(GateLine {
                        suite: suite.suite.clone(),
                        id: e.id.clone(),
                        baseline_s: None,
                        current_s: Some(e.median_wall_s),
                        delta_pct: None,
                        gbps_delta_pct: None,
                        virtual_drift: None,
                        verdict: Verdict::New,
                    });
                }
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(suite: &str, pairs: &[(&str, f64)]) -> BenchReport {
        BenchReport::new(vec![BenchSuite {
            suite: suite.into(),
            entries: pairs
                .iter()
                .map(|&(id, t)| BenchEntry {
                    id: id.into(),
                    reps: 3,
                    median_wall_s: t,
                    gflops: None,
                    gbps: None,
                    virtual_s: None,
                })
                .collect(),
        }])
    }

    #[test]
    fn gate_classifies_regressions() {
        let base = report(
            "kernels",
            &[("a", 1.0), ("b", 1.0), ("c", 1.0), ("gone", 1.0)],
        );
        let cur = report(
            "kernels",
            &[("a", 1.04), ("b", 1.10), ("c", 1.30), ("fresh", 0.5)],
        );
        let lines = gate(&base, &[cur], 5.0, 15.0);
        let verdict = |id: &str| lines.iter().find(|l| l.id == id).unwrap().verdict;
        assert_eq!(verdict("a"), Verdict::Ok);
        assert_eq!(verdict("b"), Verdict::Warn);
        assert_eq!(verdict("c"), Verdict::Fail);
        assert_eq!(verdict("gone"), Verdict::Missing);
        assert_eq!(verdict("fresh"), Verdict::New);
    }

    #[test]
    fn improvements_pass() {
        let base = report("kernels", &[("a", 1.0)]);
        let cur = report("kernels", &[("a", 0.2)]);
        assert_eq!(gate(&base, &[cur], 5.0, 15.0)[0].verdict, Verdict::Ok);
    }

    #[test]
    fn gbps_regression_fails_even_when_wall_improves() {
        // A byte-model inflation can shrink the rate while the wall-clock
        // gets faster — the gate must still flag it on memory-bound
        // entries, and must ignore gbps when either side lacks it.
        let with_rate = |wall: f64, gbps: Option<f64>| {
            BenchReport::new(vec![BenchSuite {
                suite: "kernels".into(),
                entries: vec![BenchEntry {
                    id: "spmv".into(),
                    reps: 3,
                    median_wall_s: wall,
                    gflops: None,
                    gbps,
                    virtual_s: None,
                }],
            }])
        };
        let base = with_rate(1.0, Some(10.0));
        let lines = gate(&base, &[with_rate(0.9, Some(7.0))], 5.0, 15.0);
        assert_eq!(lines[0].verdict, Verdict::Fail);
        assert!((lines[0].gbps_delta_pct.unwrap() - 30.0).abs() < 1e-12);
        let lines = gate(&base, &[with_rate(0.9, Some(9.5))], 5.0, 15.0);
        assert_eq!(lines[0].verdict, Verdict::Ok, "within band");
        // Pre-gbps baselines (rate absent) fall back to wall-only gating.
        let lines = gate(
            &with_rate(1.0, None),
            &[with_rate(0.9, Some(1.0))],
            5.0,
            15.0,
        );
        assert_eq!(lines[0].verdict, Verdict::Ok);
        assert!(lines[0].gbps_delta_pct.is_none());
    }

    #[test]
    fn speedup_reads_across_entries() {
        let r = report("kernels", &[("fast", 0.5), ("slow", 2.0)]);
        assert_eq!(r.speedup("kernels", "fast", "slow"), Some(4.0));
        assert_eq!(r.speedup("kernels", "fast", "nope"), None);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report("campaign", &[("x", 1.25)]);
        let text = serde_json::to_string(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.get("campaign", "x").unwrap().median_wall_s, 1.25);
    }

    fn with_virtual(virtual_s: Option<f64>) -> BenchReport {
        let mut r = report("collectives", &[("x", 1.0)]);
        r.suites[0].entries[0].virtual_s = virtual_s;
        r
    }

    #[test]
    fn virtual_seconds_roundtrip_bit_for_bit_through_json() {
        // The gate compares virtual seconds by bit pattern across a
        // write → commit → parse cycle, so the JSON layer must not round:
        // a sum of α + β·size terms, a subnormal and the extremes.
        let sum: f64 = (1..=6).map(|k| 2.2e-6 + 8.0e-11 * (1 << k) as f64).sum();
        for x in [
            sum,
            0.1 + 0.2,
            0.004499602,
            1.0e-7,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            3.0,
        ] {
            let r = with_virtual(Some(x));
            for text in [
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string_pretty(&r).unwrap(),
            ] {
                let back: BenchReport = serde_json::from_str(&text).unwrap();
                let got = back.get("collectives", "x").unwrap().virtual_s.unwrap();
                assert_eq!(got.to_bits(), x.to_bits(), "{x:e} came back as {got:e}");
            }
        }
    }

    #[test]
    fn virtual_drift_fails_whatever_the_wall_clock_did() {
        let x = 0.004499602_f64;
        let next = f64::from_bits(x.to_bits() + 1);
        let base = with_virtual(Some(x));
        let same = gate(&base, &[with_virtual(Some(x))], 5.0, 15.0);
        assert_eq!(same[0].verdict, Verdict::Ok);
        assert!(same[0].virtual_drift.is_none());
        // One ulp is drift.
        let moved = gate(&base, &[with_virtual(Some(next))], 5.0, 15.0);
        assert_eq!(moved[0].verdict, Verdict::Fail);
        assert_eq!(moved[0].virtual_drift, Some((x, next)));
        // Nothing to compare when either side lacks the field.
        for (b, c) in [(Some(x), None), (None, Some(x))] {
            let lines = gate(&with_virtual(b), &[with_virtual(c)], 5.0, 15.0);
            assert_eq!(lines[0].verdict, Verdict::Ok);
        }
    }

    #[test]
    fn laplace2d_shape_matches_the_generator() {
        for k in [1, 2, 7, 10] {
            let s = greenla_linalg::sparse::laplace2d(k);
            assert_eq!(laplace2d_shape(k), (s.a.n(), s.a.nnz()), "k={k}");
        }
    }

    #[test]
    fn kernel_suite_runs_quickly_at_tiny_scale() {
        // Not the pinned suite (too slow for unit tests) — just the median
        // helper and entry plumbing on a tiny matrix.
        let n = 16;
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 2);
        let mut c = Matrix::zeros(n, n);
        let wall = median_wall(3, || {
            dgemm_blocked(
                1.0,
                a.block(),
                b.block(),
                0.0,
                c.block_mut(),
                &Blocking::default_blocking(),
            );
        });
        assert!(wall >= 0.0 && wall.is_finite());
    }
}
