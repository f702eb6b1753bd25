//! The four workloads, as a user of the repo would run them: untraced,
//! through `Dataset::campaign`, `run_once` and `Machine::run`.
//!
//! Each pins a different host bottleneck of the simulator (see README.md
//! for the reasoning and the seed numbers behind each choice). Operation
//! counts are fixed by the workload — never derived from virtual time — so
//! `ops_per_s` cannot drift with the simulated clock.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_harness::experiments as exp;
use greenla_harness::output::{write_artifact, write_json, Figure};
use greenla_harness::run::Dataset;
use greenla_harness::{run_once, summary, FunctionalGrid, Measurement, RunConfig, SolverChoice};
use greenla_linalg::generate::SystemKind;
use greenla_mpi::{Machine, RankCtx, SchedulerKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// A solve whose residual exceeds this counts as a failed operation.
pub const RESIDUAL_TOL: f64 = 1e-8;

fn residual_fails(residual: f64) -> bool {
    residual.is_nan() || residual > RESIDUAL_TOL
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DenseCampaign,
    SparseBatched,
    LargeN,
    ScaleCollectives,
}

/// Full sizes for measurement; tiny ones for `--quick`, which only proves
/// every path runs end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DenseCampaign,
        Workload::SparseBatched,
        Workload::LargeN,
        Workload::ScaleCollectives,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseCampaign => "dense_campaign",
            Workload::SparseBatched => "sparse_batched",
            Workload::LargeN => "large_n",
            Workload::ScaleCollectives => "scale_collectives",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one pass did on the virtual clock, and how much of it was wrong.
/// Everything here is deterministic per seed: it doubles as the fingerprint
/// a simulator-only speed-up must leave untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PassOutcome {
    /// Operations attempted: solves inside monitored windows, or
    /// collective rounds on `scale_collectives`.
    pub attempted: u64,
    pub failed: u64,
    /// Σ monitored-window virtual seconds (makespans on
    /// `scale_collectives`).
    pub virtual_s: f64,
    /// Σ simulated RAPL Joules; 0 on `scale_collectives` (no monitor).
    pub energy_j: f64,
    /// `summary::check_dataset` verdicts that passed (`dense_campaign`).
    pub claims_passed: u64,
    /// Bytes of figure/dataset artefacts written (`dense_campaign`).
    pub output_bytes: u64,
}

impl PassOutcome {
    /// A pass that died: every operation it owed counts as failed.
    pub fn all_failed(attempted: u64) -> PassOutcome {
        PassOutcome {
            attempted,
            failed: attempted,
            ..PassOutcome::default()
        }
    }

    fn add_solves(&mut self, cfg: &RunConfig, m: &Measurement) {
        let ops = cfg.batch.max(1) as u64;
        self.attempted += ops;
        if residual_fails(m.residual) {
            self.failed += ops;
        }
        self.virtual_s += m.duration_s;
        self.energy_j += m.total_energy_j;
    }
}

// ---------------------------------------------------------------------------
// dense_campaign
// ---------------------------------------------------------------------------

/// The Table-1 campaign grid on the default engine: whatever
/// `FunctionalGrid::default()` resolves the scheduler to, so a later PR
/// that flips the default is measured as users would feel it.
pub fn dense_grid(seed: u64, scale: Scale) -> FunctionalGrid {
    let (dims, ranks) = match scale {
        Scale::Full => (vec![240, 480], vec![16, 64]),
        Scale::Quick => (vec![48, 96], vec![8, 16]),
    };
    FunctionalGrid {
        dims,
        ranks,
        layouts: LoadLayout::all().to_vec(),
        reps: 1,
        base_seed: seed,
        ..FunctionalGrid::default()
    }
}

/// The grid's datapoints in `Dataset::campaign` order, as the `RunConfig`s
/// the campaign builds internally.
pub fn dense_configs(grid: &FunctionalGrid) -> Vec<RunConfig> {
    let mut out = Vec::new();
    for &n in &grid.dims {
        for &ranks in &grid.ranks {
            for &layout in &grid.layouts {
                for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
                    out.push(RunConfig {
                        n,
                        ranks,
                        layout,
                        solver,
                        system: SystemKind::DiagDominant,
                        cores_per_socket: grid.cores_per_socket,
                        seed: grid.base_seed,
                        check: grid.check,
                        faults: grid.faults.clone(),
                        scheduler: grid.scheduler,
                        batch: grid.batch,
                        cg_overlap: true,
                    });
                }
            }
        }
    }
    out
}

/// Every functional-tier figure of the paper, sliced from the dataset the
/// way `repro --exp all` does.
pub fn dense_figures(ds: &Dataset) -> Vec<Figure> {
    let min_ranks = ds.points.iter().map(|p| p.ranks).min().unwrap_or(16);
    let max_n = ds.points.iter().map(|p| p.n).max().unwrap_or(0);
    let mut figs = vec![exp::fig3_functional(ds, min_ranks)];
    for (a, b) in [
        exp::fig4_functional(ds),
        exp::fig5_functional(ds),
        exp::fig6_functional(ds, min_ranks),
        exp::fig7_functional(ds, max_n),
    ] {
        figs.push(a);
        figs.push(b);
    }
    figs
}

/// Write the dataset, figures (CSV + JSON) and claim verdicts; returns the
/// bytes written.
pub fn dense_output(
    dir: &Path,
    ds: &Dataset,
    figs: &[Figure],
    checks: &[summary::ClaimCheck],
) -> std::io::Result<u64> {
    let mut paths = vec![
        write_json(dir, "dataset.json", ds)?,
        write_json(dir, "summary_functional.json", &checks)?,
    ];
    for fig in figs {
        paths.push(write_artifact(
            dir,
            &format!("{}.csv", fig.id),
            &fig.to_csv(),
        )?);
        paths.push(write_json(dir, &format!("{}.json", fig.id), fig)?);
    }
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum()
}

/// Fold a finished campaign into the pass outcome.
pub fn dense_outcome(ds: &Dataset, claims_passed: u64, output_bytes: u64) -> PassOutcome {
    let mut out = PassOutcome {
        claims_passed,
        output_bytes,
        ..PassOutcome::default()
    };
    for p in &ds.points {
        out.attempted += 1;
        if residual_fails(p.agg.worst_residual) {
            out.failed += 1;
        }
        out.virtual_s += p.agg.duration_s.mean;
        out.energy_j += p.agg.total_energy_j.mean;
    }
    out
}

fn dense_pass(seed: u64, scale: Scale, out_dir: &Path) -> PassOutcome {
    let grid = dense_grid(seed, scale);
    let ds = Dataset::campaign(&grid, |_| {});
    let figs = dense_figures(&ds);
    let checks = summary::check_dataset(&ds);
    let bytes = dense_output(out_dir, &ds, &figs, &checks).expect("write campaign artefacts");
    let passed = checks.iter().filter(|c| c.pass).count() as u64;
    dense_outcome(&ds, passed, bytes)
}

// ---------------------------------------------------------------------------
// sparse_batched and large_n
// ---------------------------------------------------------------------------

/// A monitored solve on one full-load node of `ranks` cores, default
/// engine, nothing attached.
pub fn one_node_config(
    n: usize,
    ranks: usize,
    solver: SolverChoice,
    system: SystemKind,
    batch: usize,
    seed: u64,
) -> RunConfig {
    RunConfig {
        n,
        ranks,
        layout: LoadLayout::FullLoad,
        solver,
        system,
        cores_per_socket: ranks / 2,
        seed,
        check: false,
        faults: None,
        scheduler: SchedulerKind::default(),
        batch,
        cg_overlap: true,
    }
}

/// Poisson2d on 16 ranks, four solvers, a **fixed** number of back-to-back
/// solves per monitored window.
pub fn sparse_configs(seed: u64, scale: Scale) -> Vec<RunConfig> {
    let (n, cg_batch, dense_batch) = match scale {
        Scale::Full => (324, 20, 4),
        Scale::Quick => (64, 2, 1),
    };
    [
        (SolverChoice::cg(), cg_batch),
        (SolverChoice::cg_jacobi(), cg_batch),
        (SolverChoice::ime_optimized(), dense_batch),
        (SolverChoice::scalapack(), dense_batch),
    ]
    .into_iter()
    .map(|(solver, batch)| one_node_config(n, 16, solver, SystemKind::Poisson2d, batch, seed))
    .collect()
}

/// Four ranks, big local blocks: the kernels and the input path do the work.
pub fn large_configs(seed: u64, scale: Scale) -> Vec<RunConfig> {
    let (lu_n, ime_n, cg_n) = match scale {
        Scale::Full => (2048, 1024, 6400),
        Scale::Quick => (192, 128, 256),
    };
    [
        (lu_n, SolverChoice::scalapack(), SystemKind::DiagDominant),
        (
            ime_n,
            SolverChoice::ime_optimized(),
            SystemKind::DiagDominant,
        ),
        (cg_n, SolverChoice::cg(), SystemKind::Poisson2d),
    ]
    .into_iter()
    .map(|(n, solver, system)| one_node_config(n, 4, solver, system, 1, seed))
    .collect()
}

/// Outcome of a list of monitored runs. On `sparse_batched` the energy
/// inversion the sparse family exists to show must hold per solve: the
/// cheaper CG variant below the cheaper dense solver.
pub fn solves_outcome(w: Workload, runs: &[(RunConfig, Option<Measurement>)]) -> PassOutcome {
    let mut out = PassOutcome::default();
    for (cfg, m) in runs {
        match m {
            Some(m) => out.add_solves(cfg, m),
            None => {
                let ops = cfg.batch.max(1) as u64;
                out.attempted += ops;
                out.failed += ops;
            }
        }
    }
    if w == Workload::SparseBatched {
        let per_solve = |cg: bool| {
            runs.iter()
                .filter(|(c, _)| matches!(c.solver, SolverChoice::Cg { .. }) == cg)
                .filter_map(|(c, m)| Some(m.as_ref()?.total_energy_j / c.batch.max(1) as f64))
                .fold(f64::INFINITY, f64::min)
        };
        let inversion_holds = per_solve(true) < per_solve(false);
        out.failed += u64::from(!inversion_holds);
    }
    out.failed = out.failed.min(out.attempted);
    out
}

// ---------------------------------------------------------------------------
// scale_collectives
// ---------------------------------------------------------------------------

/// One part of `scale_collectives`: `rounds` collective rounds on `ranks`
/// event-engine ranks with `elems`-element payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollPart {
    pub ranks: usize,
    pub rounds: usize,
    pub elems: usize,
    /// Part (b) adds the ring allgather; part (a) must not — the ring is
    /// O(P²) messages (67 M at P=4096).
    pub allgather: bool,
}

/// Part (a): fiber spin-up and per-switch cost at P=4096 on 1 KiB payloads.
/// Part (b): the large-message arms at P=64 — four rounds at 2 MiB rather
/// than one at 8 MiB: the same bytes through the same arms, but the single
/// 8 MiB round (1 GiB peak RSS) read anywhere from 1.1 to 3.6 s on the
/// 2-core VM while four 2 MiB rounds stay within 0.85–1.05 s.
pub fn coll_parts(scale: Scale) -> [CollPart; 2] {
    match scale {
        Scale::Full => [
            CollPart {
                ranks: 4096,
                rounds: 8,
                elems: 128,
                allgather: false,
            },
            CollPart {
                ranks: 64,
                rounds: 4,
                elems: 1 << 18,
                allgather: true,
            },
        ],
        Scale::Quick => [
            CollPart {
                ranks: 256,
                rounds: 2,
                elems: 128,
                allgather: false,
            },
            CollPart {
                ranks: 16,
                rounds: 1,
                elems: 1 << 12,
                allgather: true,
            },
        ],
    }
}

/// A machine of 8-core full-load nodes, as the collectives suites build it.
pub fn coll_machine(ranks: usize, seed: u64, kind: SchedulerKind) -> Machine {
    let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
    let placement =
        Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).expect("ranks divide by 8");
    let power = PowerModel::scaled_for(&spec.node);
    Machine::new(spec, placement, power, seed)
        .expect("valid machine")
        .with_scheduler(kind)
}

/// The rank body of one part. Returns the number of rounds whose values
/// this rank saw wrong.
pub fn coll_body(part: CollPart, ctx: &mut RankCtx) -> u64 {
    let world = ctx.world();
    let p = ctx.size();
    let mut wrong = 0;
    for round in 0..part.rounds {
        let stamp = (round + 1) as f64;
        ctx.barrier(&world);
        let root = (ctx.rank() == 0).then(|| vec![stamp; part.elems]);
        let got = ctx.bcast_shared_f64(&world, 0, root);
        let sum = ctx.allreduce_sum_owned_f64(&world, vec![stamp; part.elems]);
        let mut ok = got.len() == part.elems
            && got.iter().all(|&v| v == stamp)
            && sum.len() == part.elems
            && sum.iter().all(|&v| v == stamp * p as f64);
        if part.allgather {
            let per = part.elems / p;
            let all = ctx.allgather_f64(&world, &vec![ctx.rank() as f64; per]);
            ok &= all.len() == p
                && all
                    .iter()
                    .enumerate()
                    .all(|(r, chunk)| chunk.len() == per && chunk.iter().all(|&v| v == r as f64));
        }
        wrong += u64::from(!ok);
    }
    wrong
}

/// Run one part; returns `(makespan, rounds any rank saw wrong)`.
pub fn coll_run(part: CollPart, seed: u64) -> (f64, u64) {
    let out =
        coll_machine(part.ranks, seed, SchedulerKind::EventDriven).run(|ctx| coll_body(part, ctx));
    (out.makespan, out.results.into_iter().max().unwrap_or(0))
}

fn coll_pass(seed: u64, scale: Scale) -> PassOutcome {
    let mut out = PassOutcome::default();
    for part in coll_parts(scale) {
        let (makespan, wrong) = coll_run(part, seed);
        out.attempted += part.rounds as u64;
        out.failed += wrong;
        out.virtual_s += makespan;
    }
    out
}

// ---------------------------------------------------------------------------

/// Operations one pass owes (what a dead pass is charged with).
pub fn ops_per_pass(w: Workload, scale: Scale) -> u64 {
    match w {
        Workload::ScaleCollectives => coll_parts(scale).iter().map(|p| p.rounds as u64).sum(),
        _ => solve_configs(w, 0, scale)
            .iter()
            .map(|c| c.batch.max(1) as u64)
            .sum(),
    }
}

/// `run_once`, with a panic inside (an aborted run, a failed solve) caught:
/// the benchmark charges it as failed operations and carries on.
pub fn run_once_caught(cfg: &RunConfig) -> Option<Measurement> {
    catch_unwind(AssertUnwindSafe(|| run_once(cfg))).ok()
}

/// The `RunConfig`s of a workload made of monitored solves.
pub fn solve_configs(w: Workload, seed: u64, scale: Scale) -> Vec<RunConfig> {
    match w {
        Workload::DenseCampaign => dense_configs(&dense_grid(seed, scale)),
        Workload::SparseBatched => sparse_configs(seed, scale),
        Workload::LargeN => large_configs(seed, scale),
        Workload::ScaleCollectives => Vec::new(),
    }
}

/// One untraced pass. A panic anywhere inside is caught and charged as
/// failed operations, never aborts the benchmark.
pub fn plain_pass(w: Workload, seed: u64, scale: Scale, out_dir: &Path) -> PassOutcome {
    let dead = || PassOutcome::all_failed(ops_per_pass(w, scale));
    match w {
        Workload::DenseCampaign => {
            catch_unwind(AssertUnwindSafe(|| dense_pass(seed, scale, out_dir)))
                .unwrap_or_else(|_| dead())
        }
        Workload::SparseBatched | Workload::LargeN => {
            let runs: Vec<_> = solve_configs(w, seed, scale)
                .into_iter()
                .map(|cfg| {
                    let m = run_once_caught(&cfg);
                    (cfg, m)
                })
                .collect();
            solves_outcome(w, &runs)
        }
        Workload::ScaleCollectives => {
            catch_unwind(AssertUnwindSafe(|| coll_pass(seed, scale))).unwrap_or_else(|_| dead())
        }
    }
}
