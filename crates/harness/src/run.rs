//! The measurement runner: one fully monitored solver execution per call,
//! repeated and aggregated the way the paper runs its jobs (ten
//! repetitions per configuration; we default to fewer but keep the knob).
//!
//! The paper's white-box procedure is solver-agnostic, and so is this
//! module. A monitored run is four public steps, [`run_once`] composes
//! them, and everything in the harness that simulates a solve is built
//! from them:
//!
//! 1. [`Inputs`] — the input system with its solver's parameters: dense
//!    for IMe and `pdgesv`, CSR for CG; prepared once per configuration;
//! 2. [`Rig::build`] — the instrumented machine: [`build_machine`] (node →
//!    placement → cluster → `Machine`), the trace, check and fault sinks,
//!    and the RAPL device on the machine's ledger ([`Rig::new`]);
//! 3. [`rank_body`] — one rank's Figure-2 window, run inside
//!    `Machine::try_run`: monitor begin, the allocation phase, `batch`
//!    calls of [`solve`], the execution phase, finish. It reports each
//!    [`Step`] boundary to a hook, a no-op in the program;
//! 4. [`aggregate`] — the node reports → [`Measurement`], given the
//!    residual [`Inputs::residual`] takes of rank 0's solution.
//!
//! [`run_prepared`] is nothing but steps 2–4, with the residual between 3
//! and 4 and a no-op hook. `run_once`, both campaigns (through one campaign
//! loop that fans the points out and folds each point's repetitions with
//! `DataPoint::from_runs`) and the Chrome-trace export all go through it,
//! so a trace is a trace of the run the campaign measures. The power-cap
//! sweep and the black-box power trace are different procedures on purpose
//! (a capped power model, a sampling daemon): they build their own machine,
//! take its RAPL device from [`Rig::new`] and call [`solve`] in their own
//! choreography.

use crate::config::{default_false, default_true, one_batch, FunctionalGrid, SolverChoice};
use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::{Interconnect, PowerModel};
use greenla_ime::par::ImepOptions;
use greenla_ime::solve_imep;
use greenla_linalg::flops;
use greenla_linalg::generate::{DenseSystem, LinearSystem, SystemKind};
use greenla_linalg::sparse::{laplace2d, CsrMatrix, SparseSystem};
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::{MonitorHandle, MonitorOutput};
use greenla_monitor::report::{JobSummary, NodeReport};
use greenla_mpi::{
    Abort, AbortKind, CheckSink, Comm, FaultPlan, FaultReport, FaultSink, Machine, RankCtx,
    RunOutput, SchedulerKind, TraceSink, Violation,
};
use greenla_rapl::RaplSim;
use greenla_scalapack::pdgesv::pdgesv_columns;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::sync::Arc;

/// One run's configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    pub n: usize,
    pub ranks: usize,
    pub layout: LoadLayout,
    pub solver: SolverChoice,
    pub system: SystemKind,
    pub cores_per_socket: usize,
    pub seed: u64,
    /// Attach the runtime's correctness checker to the run.
    #[serde(default = "default_false")]
    pub check: bool,
    /// Deterministic fault plan injected into the run; `None` (the default
    /// for every pre-existing dataset) leaves all fault hooks disabled.
    #[serde(default = "Default::default")]
    pub faults: Option<FaultPlan>,
    /// Which rank-scheduling engine executes the run. The engine never
    /// changes measured (virtual-time) results — see the
    /// scheduler-invariance contract in `greenla_mpi::sched` — so older
    /// datasets deserialize to the platform's default carrier (fibers
    /// where the build has them) losslessly.
    #[serde(default = "Default::default")]
    pub scheduler: SchedulerKind,
    /// Back-to-back solves inside the measured region. The simulated RAPL
    /// refreshes its counters once per millisecond like the real thing, so
    /// a sub-millisecond solve cannot be measured on its own; batching
    /// stretches the monitored window across many counter updates and the
    /// caller divides the measured figures by `batch` (the campaign loop
    /// does). `1` — the default every pre-existing dataset deserializes
    /// to — measures a single solve.
    #[serde(default = "one_batch")]
    pub batch: usize,
    /// Overlap the CG halo exchange with the interior SpMV (the solver's
    /// default; see `greenla_cg::solver::CgConfig::overlap`). `false`
    /// forces the blocking exchange — numerics are bit-identical either
    /// way, only the virtual clock moves. Ignored by the direct solvers.
    #[serde(default = "default_true")]
    pub cg_overlap: bool,
}

impl RunConfig {
    /// For callers that have nothing to do with a failed run: panic with
    /// the datapoint and the cause.
    pub(crate) fn aborted(&self, abort: Abort) -> ! {
        let Abort { rank, kind, .. } = abort;
        panic!("{self:?} aborted on rank {rank} ({kind:?}): {abort}")
    }
}

/// Serde default for the violations carried by older datasets.
fn no_violations() -> Vec<Violation> {
    Vec::new()
}

/// What one monitored run measured (the union of the figures' axes).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    pub duration_s: f64,
    pub total_energy_j: f64,
    pub pkg_energy_j: f64,
    pub dram_energy_j: f64,
    pub pkg_by_socket_j: [f64; 2],
    pub dram_by_socket_j: [f64; 2],
    pub mean_power_w: f64,
    pub residual: f64,
    pub msgs: u64,
    pub volume_elems: u64,
    pub nodes: usize,
    /// Checker diagnostics (empty unless the run was checked — and for a
    /// correct solver, empty even then).
    #[serde(default = "no_violations")]
    pub violations: Vec<Violation>,
    /// Injected / observed / recovered fault accounting — `None` unless the
    /// run carried a fault plan.
    #[serde(default = "Default::default")]
    pub fault_report: Option<FaultReport>,
    /// CG iteration count (`None` for the direct solvers) — what the
    /// sparse campaign's per-iteration model predictions divide by.
    #[serde(default = "Default::default")]
    pub iterations: Option<u64>,
    /// CG true-residual refresh count (`None` for the direct solvers).
    #[serde(default = "Default::default")]
    pub refreshes: Option<u64>,
}

/// The simulated cluster of one run, step 2's machine: `ranks` ranks laid
/// out over as many `node`s as `layout` needs, on the Omni-Path
/// interconnect. The power model is the caller's because the experiments
/// genuinely differ in it (jittered for measurements, deterministic and
/// capped for the cap sweep). Built on a thread of the campaign fan-out,
/// the machine pins that thread's share of the host's fiber workers;
/// anywhere else it keeps the engine's default pool.
pub fn build_machine(
    node: &NodeSpec,
    ranks: usize,
    layout: LoadLayout,
    power: PowerModel,
    seed: u64,
    scheduler: SchedulerKind,
) -> Machine {
    let placement = Placement::layout(node, ranks, layout).expect("grid guarantees divisibility");
    let spec = ClusterSpec {
        node: node.clone(),
        nodes: placement.nodes_used(),
        net: Interconnect::omni_path(),
    };
    let machine = Machine::new(spec, placement, power, seed)
        .expect("valid machine")
        .with_scheduler(scheduler);
    match FANOUT_WORKERS.get() {
        Some(workers) => machine.with_sched_workers(workers),
        None => machine,
    }
}

/// Step 1 — the input system of a run, in the one format its solver reads,
/// with that solver's parameters. Prepared outside the measured region (the
/// paper's jobs load their input from a file the same way) and shared by
/// every repetition of a configuration.
pub enum Inputs {
    /// IMeP with its protocol options, on the replicated dense system.
    Ime(LinearSystem, ImepOptions),
    /// `pdgesv` with block size `nb`. Each rank reads only its own blocks,
    /// so a seeded system (`DiagDominant` from [`Inputs::prepare`]) is
    /// never built whole.
    ScaLapack(DenseSystem, usize),
    /// CG (`true`: Jacobi-preconditioned) on the system in CSR — never a
    /// dense matrix when the configuration names a stencil.
    Cg(SparseSystem, bool),
}

impl Inputs {
    /// Wrap a system the caller generated; CG runs sparsify it here, once.
    pub fn from_system(solver: SolverChoice, dense: LinearSystem) -> Inputs {
        match solver {
            SolverChoice::Ime { .. } => {
                Inputs::Ime(dense, solver.imep_options().expect("IMe has options"))
            }
            SolverChoice::ScaLapack { nb } => Inputs::ScaLapack(DenseSystem::Stored(dense), nb),
            SolverChoice::Cg { jacobi } => Inputs::Cg(
                SparseSystem {
                    a: CsrMatrix::from_dense(&dense.a),
                    b: dense.b,
                    x_ref: dense.x_ref.unwrap_or_default(),
                },
                jacobi,
            ),
        }
    }

    /// The system a configuration names. Its seed derives from `(n, ranks)`
    /// only — the same system for every repetition, as the paper's
    /// file-based inputs guarantee. CG on `Poisson2d` is built in CSR
    /// directly: `laplace2d(√n)` is `poisson2d` entry for entry and bit for
    /// bit (a non-square `n` panics).
    /// `pdgesv` gets its system as [`DenseSystem::generate`] makes it:
    /// seeded for `DiagDominant` (O(n) held, the ranks draw their blocks),
    /// stored otherwise.
    pub fn prepare(cfg: &RunConfig) -> Inputs {
        let system_seed = (cfg.n as u64) << 32 | cfg.ranks as u64;
        match (cfg.solver, cfg.system) {
            (SolverChoice::Cg { jacobi }, SystemKind::Poisson2d) => {
                let k = (cfg.n as f64).sqrt().round() as usize;
                assert_eq!(
                    k * k,
                    cfg.n,
                    "Poisson2d needs a perfect square n, got {}",
                    cfg.n
                );
                Inputs::Cg(laplace2d(k), jacobi)
            }
            (SolverChoice::ScaLapack { nb }, kind) => {
                Inputs::ScaLapack(DenseSystem::generate(kind, cfg.n, system_seed), nb)
            }
            _ => Inputs::from_system(cfg.solver, cfg.system.generate(cfg.n, system_seed)),
        }
    }

    /// Bytes the allocation phase materialises across the job: the CSR
    /// image for a sparse run, the dense square otherwise.
    pub fn alloc_bytes(&self) -> u64 {
        match self {
            Inputs::Ime(d, _) => 8 * (d.n() * d.n()) as u64,
            Inputs::ScaLapack(d, _) => 8 * (d.n() * d.n()) as u64,
            Inputs::Cg(s, _) => flops::spmv_csr_bytes(s.n(), s.a.nnz()),
        }
    }

    /// Scaled residual of a solution, computed in the input's own format.
    pub fn residual(&self, x: &[f64]) -> f64 {
        match self {
            Inputs::Ime(d, _) => d.residual(x),
            Inputs::ScaLapack(d, _) => d.residual(x),
            Inputs::Cg(s, _) => s.residual(x),
        }
    }
}

/// One solve of `inputs` over `comm` on a running rank, the work inside
/// step 3's window: the solution and, for CG, the `(iterations, refreshes)`
/// counts. Every run of a solver is the same program: IMe protects itself
/// with a checksum exactly when the machine's fault plan schedules a
/// `column_loss` (`reduce_table` reads the plan; nothing is chosen here). A
/// solver error aborts the run as [`AbortKind::Solver`].
pub fn solve(
    ctx: &mut RankCtx,
    comm: &Comm,
    cg_overlap: bool,
    inputs: &Inputs,
) -> (Vec<f64>, Option<(u64, u64)>) {
    let x = match inputs {
        Inputs::Ime(sys, opts) => solve_imep(ctx, comm, sys, *opts)
            .unwrap_or_else(|e| ctx.abort(AbortKind::Solver, format!("IMe solve: {e}"))),
        Inputs::ScaLapack(sys, nb) => pdgesv_columns(ctx, comm, sys, sys.b(), *nb)
            .unwrap_or_else(|e| ctx.abort(AbortKind::Solver, format!("pdgesv solve: {e}"))),
        Inputs::Cg(sys, jacobi) => {
            let cg_cfg = CgConfig {
                jacobi: *jacobi,
                overlap: cg_overlap,
                ..CgConfig::default()
            };
            // Every `CgError` already reads "cg aborted: …".
            let s = pcg(ctx, comm, sys, &cg_cfg)
                .unwrap_or_else(|e| ctx.abort(AbortKind::Solver, e.to_string()));
            return (s.x, Some((s.iterations as u64, s.refreshes as u64)));
        }
    };
    (x, None)
}

/// Step 2 — the instrumented machine of one run: the [`Machine`] with its
/// observer and fault sinks, and the RAPL device that reads its activity
/// ledger.
pub struct Rig {
    pub machine: Machine,
    /// The run's RAPL device: the machine's ledger, power model and seed.
    pub rapl: Arc<RaplSim>,
    /// What [`rank_body`] monitors with. A faulted run monitors in degraded
    /// mode: a dead monitoring rank costs its node's report, not the job.
    pub monitor: MonitorConfig,
    /// The one sink the machine (message and crash faults) and the RAPL
    /// device (counter faults) share; `None` keeps the zero-overhead
    /// disabled path.
    faults: Option<FaultSink>,
}

impl Rig {
    /// Instrument a built machine. A non-empty fault plan arms one sink on
    /// both the machine and the RAPL device; an absent or empty one arms
    /// none. The power-cap sweep and the power trace build their machines
    /// themselves and take the device from here.
    pub fn new(mut machine: Machine, faults: Option<&FaultPlan>) -> Rig {
        let faults = faults
            .filter(|p| !p.is_empty())
            .map(|p| FaultSink::with_plan(p.clone()));
        let mut rapl = RaplSim::new(machine.ledger(), machine.power().clone(), machine.seed());
        if let Some(sink) = &faults {
            machine = machine.with_faults(sink.clone());
            rapl = rapl.with_faults(sink.clone());
        }
        Rig {
            machine,
            rapl: Arc::new(rapl),
            monitor: MonitorConfig {
                degrade_on_fault: faults.is_some(),
                ..MonitorConfig::default()
            },
            faults,
        }
    }

    /// The rig `cfg` runs on: [`build_machine`] on a test node with the
    /// jittered measurement power model, `trace` attached (pass
    /// [`TraceSink::disabled`] to measure only; it never moves a clock), the
    /// checker when `cfg.check`, and `cfg.faults`.
    pub fn build(cfg: &RunConfig, trace: TraceSink) -> Rig {
        let node = NodeSpec::test_node(cfg.cores_per_socket);
        let power = PowerModel::scaled_for(&node);
        let mut machine =
            build_machine(&node, cfg.ranks, cfg.layout, power, cfg.seed, cfg.scheduler)
                .with_trace(trace);
        if cfg.check {
            machine = machine.with_check(CheckSink::enabled());
        }
        Rig::new(machine, cfg.faults.as_ref())
    }
}

/// A boundary of [`rank_body`], in the order a rank reaches it. Between
/// two consecutive boundaries lies one region of the monitored window:
/// monitor bring-up, the allocation phase, the batch of solves, the
/// execution mark, monitor teardown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Before `MonitorHandle::begin`.
    Start,
    /// Monitoring has begun; the allocation touch is next.
    Begun,
    /// The allocation phase is marked; the first solve is next.
    Allocated,
    /// The batch's last solve has returned; the execution mark is next.
    Solved,
    /// The execution phase is marked; `MonitorHandle::finish` is next.
    Executed,
    /// Monitoring has finished; the rank's body returns.
    Finished,
}

/// What [`rank_body`] returns on one rank: [`solve`]'s last result, and on
/// a monitoring rank its node's report.
pub type RankOutput = MonitorOutput<(Vec<f64>, Option<(u64, u64)>)>;

/// Step 3 — one rank's monitored window (Figure 2): monitor begin, the
/// allocation phase (this rank's share of the input image, then the
/// `allocation` mark), `cfg.batch` back-to-back [`solve`]s (one at
/// `batch = 0`), the `execution` mark and finish. Returns the last solution
/// (every solve is deterministic; [`RunConfig::batch`] says why short
/// solves are batched) and, on a monitoring rank, its node's report. A
/// monitor error aborts the run as [`AbortKind::Monitor`].
///
/// `on_step` hears each [`Step`] once, in order, and moves no clock. The
/// caller calls this inside its own `Machine::try_run` closure, so a
/// per-rank hook needs no `Sync`; the program passes a no-op, and no host
/// clock enters it.
pub fn rank_body(
    ctx: &mut RankCtx,
    cfg: &RunConfig,
    inputs: &Inputs,
    rapl: &Arc<RaplSim>,
    monitor: &MonitorConfig,
    mut on_step: impl FnMut(Step),
) -> RankOutput {
    debug_assert!(
        matches!(
            (cfg.solver, inputs),
            (SolverChoice::Ime { .. }, Inputs::Ime(..))
                | (SolverChoice::ScaLapack { .. }, Inputs::ScaLapack(..))
                | (SolverChoice::Cg { .. }, Inputs::Cg(..))
        ),
        "inputs prepared for another solver than cfg.solver"
    );
    let mark = |ctx: &mut RankCtx, handle: &mut MonitorHandle, label| {
        handle
            .phase(ctx, label)
            .unwrap_or_else(|e| ctx.abort(AbortKind::Monitor, format!("phase mark: {e}")))
    };
    let world = ctx.world();
    on_step(Step::Start);
    let mut handle = MonitorHandle::begin(ctx, rapl, monitor)
        .unwrap_or_else(|e| ctx.abort(AbortKind::Monitor, format!("monitoring protocol: {e}")));
    on_step(Step::Begun);
    // The paper's jobs load the input system from a file into each rank.
    ctx.touch_memory(inputs.alloc_bytes() / ctx.size() as u64);
    mark(ctx, &mut handle, "allocation");
    on_step(Step::Allocated);
    let mut last = None;
    for _ in 0..cfg.batch.max(1) {
        last = Some(solve(ctx, &world, cfg.cg_overlap, inputs));
    }
    on_step(Step::Solved);
    mark(ctx, &mut handle, "execution");
    on_step(Step::Executed);
    let report = handle
        .finish(ctx, monitor)
        .unwrap_or_else(|e| ctx.abort(AbortKind::Monitor, format!("monitoring protocol: {e}")));
    on_step(Step::Finished);
    MonitorOutput {
        result: last.expect("batch >= 1"),
        report,
    }
}

/// A finished [`run_prepared`]: the measurement, the per-node reports it
/// aggregates, and what the Chrome-trace exporter samples after the fact.
pub struct MonitoredRun {
    pub measurement: Measurement,
    /// One report per measured node, in rank order of the monitoring ranks
    /// (a degraded node has none).
    pub reports: Vec<NodeReport>,
    /// Virtual makespan of the whole run, monitoring protocol included
    /// (`measurement.duration_s` is the monitored window inside it).
    pub makespan_s: f64,
    /// The run's RAPL device, still attached to the run's activity ledger.
    pub rapl: Arc<RaplSim>,
}

/// Step 4 — fold the ranks' outputs of a finished run on `rig` into its
/// [`MonitoredRun`]: node reports → [`JobSummary`] → [`Measurement`], with
/// the run's traffic, checker diagnostics, fault report and rank 0's CG
/// counts. `residual` is [`Inputs::residual`] of rank 0's solution, taken
/// by the caller so that each can be timed on its own.
pub fn aggregate(rig: &Rig, out: RunOutput<RankOutput>, residual: f64) -> MonitoredRun {
    let nodes = rig.machine.placement().nodes_used();
    let cg_counts = out.results[0].result.1;
    let reports: Vec<NodeReport> = out.results.into_iter().filter_map(|r| r.report).collect();
    let fault_report = rig.faults.as_ref().map(|s| s.report());
    let degraded = fault_report.as_ref().map_or(0, |r| r.degraded_nodes.len());
    assert_eq!(
        reports.len() + degraded,
        nodes,
        "one report per non-degraded node"
    );
    let summary = if reports.is_empty() {
        // Every node degraded to unmeasured: energy figures are zero, the
        // run's virtual makespan stands in for the monitored duration.
        JobSummary {
            nodes: 0,
            duration_s: out.makespan,
            total_energy_j: 0.0,
            pkg_energy_j: 0.0,
            dram_energy_j: 0.0,
            pkg_by_socket_j: [0.0; 2],
            dram_by_socket_j: [0.0; 2],
            mean_power_w: 0.0,
        }
    } else {
        JobSummary::aggregate(&reports)
    };
    let measurement = Measurement {
        duration_s: summary.duration_s,
        total_energy_j: summary.total_energy_j,
        pkg_energy_j: summary.pkg_energy_j,
        dram_energy_j: summary.dram_energy_j,
        pkg_by_socket_j: summary.pkg_by_socket_j,
        dram_by_socket_j: summary.dram_by_socket_j,
        mean_power_w: summary.mean_power_w,
        residual,
        msgs: out.traffic.msgs,
        volume_elems: out.traffic.volume_elems(),
        nodes,
        violations: rig.machine.check().violations(),
        fault_report,
        iterations: cg_counts.map(|(i, _)| i),
        refreshes: cg_counts.map(|(_, r)| r),
    };
    MonitoredRun {
        measurement,
        reports,
        makespan_s: out.makespan,
        rapl: Arc::clone(&rig.rapl),
    }
}

/// Run `cfg` on prepared inputs under the white-box monitoring framework,
/// or say why the run died (a planned fault, a solver or monitor error, a
/// deadlock — see [`AbortKind`]): steps 2–4 with a no-op hook. `trace`
/// observes the run (pass [`TraceSink::disabled`] to measure only); it
/// never moves a clock.
pub fn run_prepared(
    cfg: &RunConfig,
    inputs: &Inputs,
    trace: TraceSink,
) -> Result<MonitoredRun, Abort> {
    let rig = Rig::build(cfg, trace);
    let out = rig
        .machine
        .try_run(|ctx| rank_body(ctx, cfg, inputs, &rig.rapl, &rig.monitor, |_| {}))?;
    let residual = inputs.residual(&out.results[0].result.0);
    Ok(aggregate(&rig, out, residual))
}

/// Execute one configuration end to end: prepare its inputs, run them
/// monitored and untraced, return the measurement. Panics if the run
/// aborts; [`run_prepared`] returns the [`Abort`] instead.
pub fn run_once(cfg: &RunConfig) -> Measurement {
    run_prepared(cfg, &Inputs::prepare(cfg), TraceSink::disabled())
        .unwrap_or_else(|abort| cfg.aborted(abort))
        .measurement
}

/// Normalise a batched measurement to a single solve. Energies and the
/// window divide exactly (every solve in the batch is identical); traffic
/// divides approximately — the monitoring protocol's own messages ride
/// along once per window, not once per solve. Identity at `batch = 1`, and
/// at `batch = 0`, which [`run_prepared`] runs as one solve.
pub fn per_solve(mut m: Measurement, batch: usize) -> Measurement {
    let batch = batch.max(1);
    let b = batch as f64;
    m.duration_s /= b;
    m.total_energy_j /= b;
    m.pkg_energy_j /= b;
    m.dram_energy_j /= b;
    for v in &mut m.pkg_by_socket_j {
        *v /= b;
    }
    for v in &mut m.dram_by_socket_j {
        *v /= b;
    }
    m.msgs /= batch as u64;
    m.volume_elems /= batch as u64;
    m
}

/// Minimum monitored window under [`BatchRule::Window`]: it must span many
/// ~1 ms RAPL counter updates for the ±1-update read error to amortise to
/// a few percent.
pub(crate) const TARGET_WINDOW_S: f64 = 0.05;

/// Cap on a window-sized batch, so a mis-probed duration cannot stall a run.
pub(crate) const MAX_BATCH: usize = 1024;

/// How a campaign sizes each point's monitored window.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BatchRule {
    /// `cfg.batch` as configured (the dense grid's `FunctionalGrid::batch`).
    Fixed,
    /// A batch-1 probe sizes the window to [`TARGET_WINDOW_S`], at most
    /// [`MAX_BATCH`] solves; a probe that fills it is kept as rep 0.
    Window,
}

impl BatchRule {
    /// The batch of one point and its `reps` runs, where `run(batch, rep)`
    /// measures repetition `rep` at `batch` solves per window.
    fn runs(
        self,
        fixed: usize,
        reps: usize,
        run: impl Fn(usize, usize) -> Measurement,
    ) -> (usize, Vec<Measurement>) {
        let (batch, mut runs) = match self {
            BatchRule::Fixed => (fixed, Vec::new()),
            BatchRule::Window => {
                let probe = run(1, 0);
                // 1 for a probe that already fills the window.
                let batch =
                    ((TARGET_WINDOW_S / probe.duration_s).ceil() as usize).clamp(1, MAX_BATCH);
                (batch, if batch == 1 { vec![probe] } else { Vec::new() })
            }
        };
        runs.extend((runs.len()..reps).map(|rep| run(batch, rep)));
        (batch, runs)
    }
}

/// The campaign loop: every configuration, `reps` repetitions each, fanned
/// out over [`parallel_map`], largest points first ([`largest_first`]). A
/// point prepares its inputs once, runs them untraced (machine seed
/// `cfg.seed + rep`) at the batch `rule` gives, normalises each run to one
/// solve and drops its inputs when it finishes. Returns, per point in
/// `configs` order, its [`DataPoint`], its batch and its first
/// measurement. Panics if a run aborts.
pub(crate) fn campaign(
    configs: &[RunConfig],
    reps: usize,
    rule: BatchRule,
    progress: impl Fn(&str) + Sync,
) -> Vec<(DataPoint, usize, Measurement)> {
    parallel_map(configs, &largest_first(configs), |cfg| {
        progress(&format!(
            "n={} ranks={} layout={} solver={} engine={}",
            cfg.n,
            cfg.ranks,
            cfg.layout,
            cfg.solver.label(),
            cfg.scheduler
        ));
        let inputs = Inputs::prepare(cfg);
        let (batch, runs) = rule.runs(cfg.batch, reps, |batch, rep| {
            let cfg = RunConfig {
                seed: cfg.seed + rep as u64,
                batch,
                ..cfg.clone()
            };
            let run = run_prepared(&cfg, &inputs, TraceSink::disabled())
                .unwrap_or_else(|abort| cfg.aborted(abort));
            per_solve(run.measurement, batch)
        });
        let point = DataPoint::from_runs(cfg.solver.label(), cfg.n, cfg.ranks, cfg.layout, &runs);
        (point, batch, runs.into_iter().next().expect("reps >= 1"))
    })
}

/// Simple per-metric statistics over repetitions.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Stats {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    pub fn from(values: &[f64]) -> Stats {
        assert!(!values.is_empty());
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Stats {
            mean,
            std: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Repetition-aggregated measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Aggregated {
    pub duration_s: Stats,
    pub total_energy_j: Stats,
    pub pkg_energy_j: Stats,
    pub dram_energy_j: Stats,
    pub mean_power_w: Stats,
    pub pkg0_j: Stats,
    pub pkg1_j: Stats,
    pub dram0_j: Stats,
    pub dram1_j: Stats,
    pub worst_residual: f64,
    pub reps: usize,
}

impl Aggregated {
    pub fn from_runs(runs: &[Measurement]) -> Aggregated {
        let pick =
            |f: &dyn Fn(&Measurement) -> f64| Stats::from(&runs.iter().map(f).collect::<Vec<_>>());
        Aggregated {
            duration_s: pick(&|m| m.duration_s),
            total_energy_j: pick(&|m| m.total_energy_j),
            pkg_energy_j: pick(&|m| m.pkg_energy_j),
            dram_energy_j: pick(&|m| m.dram_energy_j),
            mean_power_w: pick(&|m| m.mean_power_w),
            pkg0_j: pick(&|m| m.pkg_by_socket_j[0]),
            pkg1_j: pick(&|m| m.pkg_by_socket_j[1]),
            dram0_j: pick(&|m| m.dram_by_socket_j[0]),
            dram1_j: pick(&|m| m.dram_by_socket_j[1]),
            // `f64::max` would pass a NaN residual over; it is the worst.
            worst_residual: runs.iter().map(|m| m.residual).fold(0.0, |w, r| {
                if w.is_nan() || r.is_nan() {
                    f64::NAN
                } else {
                    w.max(r)
                }
            }),
            reps: runs.len(),
        }
    }
}

/// One aggregated grid point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataPoint {
    pub solver: String,
    pub n: usize,
    pub ranks: usize,
    pub layout: LoadLayout,
    pub agg: Aggregated,
    /// Checker diagnostics across all repetitions of this point.
    #[serde(default = "no_violations")]
    pub violations: Vec<Violation>,
    /// Per-repetition fault accounting (empty unless the campaign ran
    /// under a fault plan).
    #[serde(default = "Default::default")]
    pub fault_reports: Vec<FaultReport>,
}

impl DataPoint {
    /// Aggregate the repetitions of one grid point, with every diagnostic
    /// and fault report they carry.
    pub(crate) fn from_runs(
        solver: &str,
        n: usize,
        ranks: usize,
        layout: LoadLayout,
        runs: &[Measurement],
    ) -> DataPoint {
        DataPoint {
            solver: solver.to_string(),
            n,
            ranks,
            layout,
            agg: Aggregated::from_runs(runs),
            violations: runs.iter().flat_map(|m| m.violations.clone()).collect(),
            fault_reports: runs.iter().filter_map(|m| m.fault_report.clone()).collect(),
        }
    }
}

/// A grid of aggregated points, as every figure slices it: the measured
/// functional tier, the sparse campaign, or the model tier at paper scale
/// (`experiments::paper_dataset`).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dataset {
    pub points: Vec<DataPoint>,
}

impl Dataset {
    /// Run the whole measurement campaign for a grid (both solvers, every
    /// dim × ranks × layout, `reps` repetitions of `grid.batch` solves
    /// each). Independent configurations run in parallel on a scoped
    /// thread pool; each simulation is deterministic, so the dataset is
    /// identical regardless of scheduling.
    pub fn campaign(grid: &FunctionalGrid, progress: impl Fn(&str) + Sync) -> Dataset {
        let mut configs = Vec::new();
        for &n in &grid.dims {
            for &ranks in &grid.ranks {
                for &layout in &grid.layouts {
                    for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
                        configs.push(RunConfig {
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
        let points = campaign(&configs, grid.reps, BatchRule::Fixed, progress)
            .into_iter()
            .map(|(point, ..)| point)
            .collect();
        Dataset { points }
    }

    /// Look up one point.
    pub fn get(
        &self,
        solver: &str,
        n: usize,
        ranks: usize,
        layout: LoadLayout,
    ) -> Option<&DataPoint> {
        self.points
            .iter()
            .find(|p| p.solver == solver && p.n == n && p.ranks == ranks && p.layout == layout)
    }

    /// Every checker diagnostic in the dataset, paired with the grid point
    /// that produced it.
    pub fn violations(&self) -> impl Iterator<Item = (&DataPoint, &Violation)> {
        self.points
            .iter()
            .flat_map(|p| p.violations.iter().map(move |v| (p, v)))
    }

    /// Every per-repetition fault report in the dataset, paired with the
    /// grid point that produced it.
    pub fn fault_reports(&self) -> impl Iterator<Item = (&DataPoint, &FaultReport)> {
        self.points
            .iter()
            .flat_map(|p| p.fault_reports.iter().map(move |r| (p, r)))
    }
}

thread_local! {
    /// The fiber workers [`build_machine`] pins on this thread: a
    /// [`parallel_map`] thread's share of the host's cores, `None` on every
    /// other thread.
    static FANOUT_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Fiber workers each of `threads` fan-out threads gets on a host of
/// `cores` cores: the cores divided among the threads, never none.
fn worker_share(cores: usize, threads: usize) -> usize {
    (cores / threads.max(1)).max(1)
}

/// The order a campaign starts its points in: descending `(n, ranks)`,
/// grid order among equals. The last point to start is then the cheapest,
/// so the serial tail of the fan-out is as short as it can be.
fn largest_first(configs: &[RunConfig]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..configs.len()).collect();
    order.sort_by_key(|&i| Reverse((configs[i].n, configs[i].ranks)));
    order
}

/// Order-preserving parallel map over a slice on scoped threads, one per
/// core (at most one per item). The threads pull positions of `order` (a
/// permutation of the item indices) from a shared atomic counter, so a
/// long item never holds a fixed chunk back, and the results come back in
/// item order. The threads divide the cores rather than multiply them:
/// each pins [`worker_share`] fiber workers on every machine
/// [`build_machine`] makes on it (the OS-thread carrier ignores the pin).
/// Virtual-time results never depend on the pool size, so neither the
/// order nor the share moves a bit of the output.
fn parallel_map<T: Sync, U: Send>(
    items: &[T],
    order: &[usize],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    debug_assert_eq!(order.len(), items.len(), "order must permute the items");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = cores.min(items.len());
    let share = worker_share(cores, threads);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    FANOUT_WORKERS.set(Some(share));
                    std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
                        .map_while(|k| order.get(k))
                        .map(|&i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(solver: SolverChoice) -> RunConfig {
        RunConfig {
            n: 36,
            ranks: 4,
            layout: LoadLayout::FullLoad,
            solver,
            system: SystemKind::Poisson2d,
            cores_per_socket: 2,
            seed: 1,
            check: false,
            faults: None,
            scheduler: SchedulerKind::default(),
            batch: 0,
            cg_overlap: true,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sparse(inputs: Inputs) -> SparseSystem {
        match inputs {
            Inputs::Cg(s, _) => s,
            _ => panic!("CG inputs are CSR"),
        }
    }

    #[test]
    fn each_solver_gets_its_inputs_in_the_format_it_reads() {
        for system in [SystemKind::Poisson2d, SystemKind::DiagDominant] {
            let of = |solver| {
                Inputs::prepare(&RunConfig {
                    system,
                    ..cfg(solver)
                })
            };
            assert!(matches!(of(SolverChoice::cg_jacobi()), Inputs::Cg(s, true) if s.n() == 36));
            assert!(matches!(
                of(SolverChoice::ime_optimized()),
                Inputs::Ime(d, o) if d.n() == 36 && o == ImepOptions::optimized()
            ));
            // pdgesv never holds a seeded system whole.
            let seeded = system == SystemKind::DiagDominant;
            assert!(matches!(
                of(SolverChoice::scalapack()),
                Inputs::ScaLapack(d, 32)
                    if d.n() == 36 && matches!(d, DenseSystem::Seeded(_)) == seeded
            ));
        }
        // A caller's dense system is sparsified for CG, kept for the rest.
        let sys = SystemKind::Spd.generate(20, 3);
        let cg = sparse(Inputs::from_system(SolverChoice::cg(), sys.clone()));
        assert_eq!(cg.a, CsrMatrix::from_dense(&sys.a));
        let direct = Inputs::from_system(SolverChoice::scalapack(), sys.clone());
        assert!(matches!(direct, Inputs::ScaLapack(DenseSystem::Stored(d), 32) if d.a == sys.a));
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn cg_poisson_rejects_a_non_square_n() {
        let _ = Inputs::prepare(&RunConfig {
            n: 10,
            ..cfg(SolverChoice::cg())
        });
    }

    /// The switch from the dense detour to `laplace2d` moves no bit: at every
    /// size (k = 80 is `large_n`'s CG point) the CSR input equals the
    /// sparsified `poisson2d`, and the sparse residual equals the dense one
    /// for the reference solution, a converged CG solution and seeded
    /// random vectors.
    #[test]
    fn cg_poisson_inputs_are_the_dense_detour_bit_for_bit() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = move || {
            // splitmix64 → a finite value in [-2, 2).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            4.0 * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 2.0
        };
        for k in [1, 2, 17, 24, 80] {
            let cfg = RunConfig {
                n: k * k,
                ..cfg(SolverChoice::cg())
            };
            let inputs = Inputs::prepare(&cfg);
            let node = NodeSpec::test_node(cfg.cores_per_socket);
            let machine = build_machine(
                &node,
                cfg.ranks,
                cfg.layout,
                PowerModel::scaled_for(&node),
                cfg.seed,
                cfg.scheduler,
            );
            let solved = machine
                .run(|ctx| {
                    let world = ctx.world();
                    solve(ctx, &world, true, &inputs).0
                })
                .results
                .swap_remove(0);
            let got = sparse(inputs);
            let dense = greenla_linalg::generate::poisson2d(k, 0);
            assert_eq!(CsrMatrix::from_dense(&dense.a), got.a, "k={k}");
            assert_eq!(bits(&dense.b), bits(&got.b), "k={k}");
            assert_eq!(
                bits(dense.x_ref.as_ref().unwrap()),
                bits(&got.x_ref),
                "k={k}"
            );
            let random: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..k * k).map(|_| uniform()).collect())
                .collect();
            for x in [&got.x_ref, &solved].into_iter().chain(&random) {
                let (d, s) = (dense.residual(x), got.residual(x));
                assert!(d.is_finite(), "k={k}");
                assert_eq!(d.to_bits(), s.to_bits(), "k={k}: dense {d:e}, sparse {s:e}");
            }
        }
    }

    /// A million-row CG input costs O(nnz): the dense matrix would be 8 TB.
    #[test]
    fn a_million_row_poisson_input_never_forms_the_dense_matrix() {
        let k = 1000;
        let inputs = Inputs::prepare(&RunConfig {
            n: k * k,
            ..cfg(SolverChoice::cg())
        });
        assert_eq!(
            inputs.alloc_bytes(),
            flops::spmv_csr_bytes(k * k, 5 * k * k - 4 * k)
        );
        let sys = sparse(inputs);
        assert_eq!(sys.residual(&sys.x_ref), 0.0);
    }

    /// The hook hears rank 0's six boundaries once each, in order, on both
    /// carriers at batch 1 and 3, and a recording hook moves no bit of what
    /// `run_prepared` measures with its no-op one.
    #[test]
    fn rank_body_hears_each_step_once_and_moves_nothing() {
        use Step::*;
        for scheduler in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
            if !scheduler.supported() {
                continue;
            }
            for batch in [1, 3] {
                let cfg = RunConfig {
                    scheduler,
                    batch,
                    ..cfg(SolverChoice::cg_jacobi())
                };
                let inputs = Inputs::prepare(&cfg);
                let rig = Rig::build(&cfg, TraceSink::disabled());
                let heard = std::sync::Mutex::new(Vec::new());
                let out = rig
                    .machine
                    .try_run(|ctx| {
                        let rank0 = ctx.rank() == 0;
                        rank_body(ctx, &cfg, &inputs, &rig.rapl, &rig.monitor, |step| {
                            if rank0 {
                                heard.lock().expect("no hook panicked").push(step);
                            }
                        })
                    })
                    .expect("clean run");
                let residual = inputs.residual(&out.results[0].result.0);
                let hooked = aggregate(&rig, out, residual);
                let what = format!("{scheduler}, batch {batch}");
                assert_eq!(
                    heard.into_inner().expect("no hook panicked"),
                    [Start, Begun, Allocated, Solved, Executed, Finished],
                    "{what}"
                );
                let plain = run_prepared(&cfg, &inputs, TraceSink::disabled()).expect("clean run");
                let key = |r: &MonitoredRun| {
                    let m = &r.measurement;
                    let bits = [m.duration_s, m.total_energy_j, r.makespan_s].map(f64::to_bits);
                    (bits, m.msgs)
                };
                assert_eq!(key(&hooked), key(&plain), "{what}");
            }
        }
    }

    /// A window of `duration_s` that measured nothing else.
    fn lasting(duration_s: f64) -> Measurement {
        Measurement {
            duration_s,
            total_energy_j: 0.0,
            pkg_energy_j: 0.0,
            dram_energy_j: 0.0,
            pkg_by_socket_j: [0.0; 2],
            dram_by_socket_j: [0.0; 2],
            mean_power_w: 0.0,
            residual: 0.0,
            msgs: 0,
            volume_elems: 0,
            nodes: 1,
            violations: Vec::new(),
            fault_report: None,
            iterations: None,
            refreshes: None,
        }
    }

    #[test]
    fn batch_rules_size_the_window_and_a_full_probe_is_rep_0() {
        // A 3-rep point whose every window lasts `window_s`: its batch and
        // the `(batch, rep)` runs the rule made, in order.
        let point = |rule: BatchRule, fixed: usize, window_s: f64| {
            let made = std::cell::RefCell::new(Vec::new());
            let (batch, runs) = rule.runs(fixed, 3, |batch, rep| {
                made.borrow_mut().push((batch, rep));
                lasting(window_s)
            });
            assert_eq!(runs.len(), 3, "{rule:?} at {window_s} s");
            (batch, made.into_inner())
        };
        // A probe that fills the window is rep 0: three runs, not four.
        for window_s in [TARGET_WINDOW_S, 1.0] {
            let ran = vec![(1, 0), (1, 1), (1, 2)];
            assert_eq!(point(BatchRule::Window, 7, window_s), (1, ran));
        }
        // A short probe sizes the batch to ceil(0.05 / 0.004) = 13.
        let ran = vec![(1, 0), (13, 0), (13, 1), (13, 2)];
        assert_eq!(point(BatchRule::Window, 7, 0.004), (13, ran));
        // A 0 s probe asks for an infinite batch and gets the cap.
        assert_eq!(point(BatchRule::Window, 7, 0.0).0, MAX_BATCH);
        // A fixed batch probes nothing and passes `cfg.batch` through.
        for fixed in [0, 1, 7] {
            let ran = vec![(fixed, 0), (fixed, 1), (fixed, 2)];
            assert_eq!(point(BatchRule::Fixed, fixed, 0.0), (fixed, ran));
        }
    }

    #[test]
    fn worker_share_divides_the_cores_among_the_fanout_threads() {
        for ((cores, threads), share) in [((2, 2), 1), ((8, 3), 2), ((1, 1), 1), ((2, 1), 2)] {
            assert_eq!(
                worker_share(cores, threads),
                share,
                "{cores} cores, {threads} threads"
            );
        }
        // Every fan-out thread carries the share; no other thread does.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let items = [(); 3];
        let seen = parallel_map(&items, &[0, 1, 2], |_| FANOUT_WORKERS.get());
        let share = worker_share(cores, cores.min(items.len()));
        assert_eq!(seen, [Some(share); 3]);
        assert_eq!(FANOUT_WORKERS.get(), None);
    }

    #[test]
    fn points_start_largest_first_and_come_back_in_grid_order() {
        let at = |n, ranks| RunConfig {
            n,
            ranks,
            ..cfg(SolverChoice::cg())
        };
        let configs = [
            at(16, 4),
            at(36, 4),
            at(16, 8),
            at(36, 4),
            at(16, 4),
            at(64, 2),
        ];
        assert_eq!(largest_first(&configs), [5, 1, 3, 2, 0, 4]);
        let order = largest_first(&configs);
        let got = parallel_map(&configs, &order, |c| (c.n, c.ranks));
        let want: Vec<_> = configs.iter().map(|c| (c.n, c.ranks)).collect();
        assert_eq!(got, want);
    }

    /// A campaign over 2 dims × 2 solvers, on both carriers, gives exactly
    /// the points of the same configurations run one at a time through
    /// `run_prepared` on a machine with the engine's default pool: neither
    /// the start order nor the pinned worker share moves a bit.
    #[test]
    fn campaign_points_equal_the_same_points_run_one_at_a_time() {
        for scheduler in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
            if !scheduler.supported() {
                continue;
            }
            let configs: Vec<RunConfig> = [24, 48]
                .into_iter()
                .flat_map(|n| {
                    [SolverChoice::ime_optimized(), SolverChoice::scalapack()].map(|solver| {
                        RunConfig {
                            n,
                            system: SystemKind::DiagDominant,
                            scheduler,
                            batch: 2,
                            ..cfg(solver)
                        }
                    })
                })
                .collect();
            let reps = 2;
            let fanned = campaign(&configs, reps, BatchRule::Fixed, |_| {});
            for (cfg, (point, batch, first)) in configs.iter().zip(&fanned) {
                let inputs = Inputs::prepare(cfg);
                let runs: Vec<Measurement> = (0..reps)
                    .map(|rep| {
                        let cfg = RunConfig {
                            seed: cfg.seed + rep as u64,
                            ..cfg.clone()
                        };
                        let run =
                            run_prepared(&cfg, &inputs, TraceSink::disabled()).expect("clean run");
                        per_solve(run.measurement, cfg.batch)
                    })
                    .collect();
                let alone =
                    DataPoint::from_runs(cfg.solver.label(), cfg.n, cfg.ranks, cfg.layout, &runs);
                // `{:?}` prints every f64 in its shortest round-trip form, so
                // equal text is equal bits.
                let what = format!("{scheduler}, n={} {}", cfg.n, cfg.solver.label());
                assert_eq!(format!("{point:?}"), format!("{alone:?}"), "{what}");
                assert_eq!(format!("{first:?}"), format!("{:?}", runs[0]), "{what}");
                assert_eq!(*batch, cfg.batch, "{what}");
            }
        }
    }

    #[test]
    fn a_nan_residual_is_the_worst_of_its_datapoint() {
        let m = run_once(&cfg(SolverChoice::scalapack()));
        assert!(m.residual < 1e-12);
        let nan = Measurement {
            residual: f64::NAN,
            ..m.clone()
        };
        for runs in [[m.clone(), nan.clone()], [nan, m]] {
            assert!(Aggregated::from_runs(&runs).worst_residual.is_nan());
        }
    }

    #[test]
    fn per_solve_reads_batch_zero_as_the_one_solve_it_ran() {
        let m = run_once(&cfg(SolverChoice::scalapack()));
        let one = per_solve(m.clone(), 0);
        assert_eq!((one.msgs, one.volume_elems), (m.msgs, m.volume_elems));
        assert_eq!(one.duration_s.to_bits(), m.duration_s.to_bits());
        assert_eq!(one.total_energy_j.to_bits(), m.total_energy_j.to_bits());
    }
}
