//! The traced pass: every workload replayed through an **exploded**
//! `run_once`, rebuilt here from the same public calls the harness makes,
//! with a span around each so the end-to-end wall decomposes by layer.
//!
//! Nothing inside the program is instrumented. Each exploded run is paired
//! with a plain `run_once` of the same configuration: the pair must agree
//! bit for bit on `duration_s` and `msgs` (`harness.mirror_ok`) and within
//! a tenth on wall (`harness.ledger_coverage`), so the ledger is known to
//! describe the path users run and not a look-alike.

use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{
    coll_body, coll_machine, coll_parts, coll_run, dense_figures, dense_grid, dense_outcome,
    dense_output, run_once_caught, solve_configs, solves_outcome, PassOutcome, Scale, Workload,
};
use greenla_cg::formulas::{cg_solve_cost, IterCost};
use greenla_cg::partition::{HaloPlan, HaloStats, RowBlocks};
use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::{Interconnect, PowerModel};
use greenla_harness::run::{per_solve, Aggregated, DataPoint, Dataset};
use greenla_harness::{summary, Measurement, RunConfig, SolverChoice};
use greenla_ime::{solve_imep, solve_seq};
use greenla_linalg::flops;
use greenla_linalg::generate::LinearSystem;
use greenla_linalg::sparse::{CsrMatrix, SparseSystem};
use greenla_model::solvers::{ge_bytes, ime_bytes};
use greenla_monitor::{JobSummary, MonitorConfig, MonitorHandle, NodeReport};
use greenla_mpi::{copy_audit, Machine, SchedulerKind};
use greenla_rapl::RaplSim;
use greenla_scalapack::getrf::getrf;
use greenla_scalapack::pdgesv::pdgesv;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The layer a solver's spans and metrics are filed under.
pub fn solver_layer(solver: SolverChoice) -> &'static str {
    match solver {
        SolverChoice::Ime { .. } => "ime",
        SolverChoice::ScaLapack { .. } => "scalapack",
        SolverChoice::Cg { .. } => "cg",
    }
}

/// `harness::run::system_seed` (crate-private there): system contents
/// derive from (n, ranks) only, so `--seed` never changes the matrices.
fn system_seed(cfg: &RunConfig) -> u64 {
    (cfg.n as u64) << 32 | cfg.ranks as u64
}

/// The machine `run_once` builds for a configuration.
pub fn build_machine(cfg: &RunConfig) -> Machine {
    let node = NodeSpec::test_node(cfg.cores_per_socket);
    let placement = Placement::layout(&node, cfg.ranks, cfg.layout).expect("ranks fit the layout");
    let spec = ClusterSpec {
        nodes: placement.nodes_used(),
        node: node.clone(),
        net: Interconnect::omni_path(),
    };
    let mut machine = Machine::new(spec, placement, PowerModel::scaled_for(&node), cfg.seed)
        .expect("valid machine");
    machine.set_scheduler(cfg.scheduler);
    machine
}

/// The input systems of a configuration: the dense one every solver's
/// residual is checked against, and its CSR image for CG.
pub struct Inputs {
    pub dense: LinearSystem,
    pub sparse: Option<SparseSystem>,
}

/// What an exploded run reproduces of `run_once`'s `Measurement`, and the
/// inputs it built (the floors reuse them).
pub struct Exploded {
    pub measurement: Measurement,
    pub inputs: Inputs,
}

/// One solve on an already running rank — the `match` at the heart of
/// `run_once`'s monitored closure, without the fault arms no workload uses.
pub fn solve(
    ctx: &mut greenla_mpi::RankCtx,
    cfg: &RunConfig,
    inputs: &Inputs,
) -> (Vec<f64>, Option<(u64, u64)>) {
    let world = ctx.world();
    match cfg.solver {
        SolverChoice::Ime { .. } => {
            let opts = cfg.solver.imep_options().expect("IMe options");
            (
                solve_imep(ctx, &world, &inputs.dense, opts).expect("IMe solve"),
                None,
            )
        }
        SolverChoice::ScaLapack { nb } => (
            pdgesv(ctx, &world, &inputs.dense, nb).expect("pdgesv solve"),
            None,
        ),
        SolverChoice::Cg { jacobi } => {
            let cg_cfg = CgConfig {
                jacobi,
                overlap: cfg.cg_overlap,
                ..CgConfig::default()
            };
            let sys = inputs.sparse.as_ref().expect("CG input is sparsified");
            let s = pcg(ctx, &world, sys, &cg_cfg).unwrap_or_else(|e| panic!("{e}"));
            (s.x, Some((s.iterations as u64, s.refreshes as u64)))
        }
    }
}

/// Closed-form `(flops, DRAM bytes)` of one solve — computed from the
/// solvers' formulas, not measured.
fn closed_form(cfg: &RunConfig, inputs: &Inputs, m: &Measurement) -> (f64, f64) {
    match cfg.solver {
        SolverChoice::Ime { .. } => (
            greenla_ime::formulas::flops_ime_ours(cfg.n) as f64,
            ime_bytes(cfg.n),
        ),
        SolverChoice::ScaLapack { nb } => (
            (flops::getrf(cfg.n) + flops::getrs(cfg.n)) as f64,
            ge_bytes(cfg.n, nb),
        ),
        SolverChoice::Cg { jacobi } => {
            let a = &inputs.sparse.as_ref().expect("CG input is sparsified").a;
            let blocks = RowBlocks::new(cfg.n, cfg.ranks);
            let plans = HaloPlan::build_all(a, blocks);
            let iters = m.iterations.expect("CG run records iterations");
            let refreshes = m.refreshes.expect("CG run records refreshes");
            let total = (0..cfg.ranks)
                .map(|r| {
                    let nnz = a.row_block(blocks.lo(r), blocks.hi(r)).nnz();
                    let halo = plans[r].recv_elems();
                    cg_solve_cost(blocks.rows(r), nnz, halo, jacobi, iters, refreshes)
                })
                .fold(IterCost::default(), IterCost::plus);
            (total.flops as f64, total.bytes as f64)
        }
    }
}

/// `run_once`, exploded: the same public calls in the same order of
/// effect, one span around each, all under one `harness.exploded_run`
/// root. Rank 0 stamps the monitor and solver calls inside the closure;
/// they become children of `mpi.run` once the run has returned.
pub fn exploded_run(cfg: &RunConfig, rec: &mut Recorder) -> Exploded {
    rec.span("harness.exploded_run", None, |rec, root| {
        let root = Some(root);
        let dense = rec.span("linalg.generate", root, |_, _| {
            cfg.system.generate(cfg.n, system_seed(cfg))
        });
        let sparse = matches!(cfg.solver, SolverChoice::Cg { .. }).then(|| {
            rec.span("linalg.from_dense", root, |_, _| SparseSystem {
                a: CsrMatrix::from_dense(&dense.a),
                b: dense.b.clone(),
                x_ref: dense.x_ref.clone().unwrap_or_default(),
            })
        });
        let inputs = Inputs { dense, sparse };
        let (machine, rapl) = rec.span("mpi.machine_new", root, |_, _| {
            let machine = build_machine(cfg);
            let rapl = Arc::new(RaplSim::new(
                machine.ledger(),
                machine.power().clone(),
                cfg.seed,
            ));
            (machine, rapl)
        });
        let mon_cfg = MonitorConfig::default();
        let layer = solver_layer(cfg.solver);
        let out = rec.span("mpi.run", root, |rec, run| {
            let out = machine.run(|ctx| {
                let t0 = Instant::now();
                let mut handle =
                    MonitorHandle::begin(ctx, &rapl, &mon_cfg).expect("monitoring protocol");
                let t1 = Instant::now();
                let local_share = match &inputs.sparse {
                    Some(s) => flops::spmv_csr_bytes(s.n(), s.a.nnz()) / ctx.size() as u64,
                    None => 8 * (cfg.n * cfg.n) as u64 / ctx.size() as u64,
                };
                ctx.touch_memory(local_share);
                handle.phase(ctx, "allocation").expect("phase mark");
                let t2 = Instant::now();
                let mut last = None;
                for _ in 0..cfg.batch.max(1) {
                    last = Some(solve(ctx, cfg, &inputs));
                }
                let t3 = Instant::now();
                handle.phase(ctx, "execution").expect("phase mark");
                let t4 = Instant::now();
                let report = handle.finish(ctx, &mon_cfg).expect("monitoring protocol");
                let t5 = Instant::now();
                let stamps = (ctx.rank() == 0).then_some([t0, t1, t2, t3, t4, t5]);
                (last.expect("batch >= 1"), report, stamps)
            });
            let s = out.results[0].2.expect("rank 0 stamps its calls");
            let run = Some(run);
            rec.push("monitor.begin", s[0], s[1], run);
            rec.push("monitor.phase", s[1], s[2], run);
            rec.push(&format!("{layer}.solve"), s[2], s[3], run);
            rec.push("monitor.phase", s[3], s[4], run);
            rec.push("monitor.finish", s[4], s[5], run);
            out
        });
        let summary = rec.span("harness.aggregate", root, |_, _| {
            let reports: Vec<NodeReport> = out.results.iter().filter_map(|r| r.1.clone()).collect();
            JobSummary::aggregate(&reports)
        });
        let (x, cg_counts) = &out.results[0].0;
        let residual = rec.span("linalg.residual", root, |_, _| inputs.dense.residual(x));
        Exploded {
            measurement: Measurement {
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
                nodes: machine.placement().nodes_used(),
                violations: Vec::new(),
                fault_report: None,
                iterations: cg_counts.map(|(i, _)| i),
                refreshes: cg_counts.map(|(_, r)| r),
            },
            inputs,
        }
    })
}

/// Per-layer numbers of one traced pass; `metrics` holds them by their
/// published names.
pub struct Traced {
    pub outcome: PassOutcome,
    pub metrics: BTreeMap<String, f64>,
}

/// What the traced passes accumulate while they run.
#[derive(Default)]
struct Tally {
    metrics: BTreeMap<String, f64>,
    /// Exploded wall ÷ plain wall of every mirrored pair.
    coverage: Vec<f64>,
    mirror_ok: bool,
    drift_points: u64,
}

impl Tally {
    fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }
}

/// The traced pass of a workload made of monitored solves. For every
/// configuration: a plain `run_once` (timed), the exploded run (spanned),
/// then the sequential kernel floor of its solver.
fn traced_solves(
    w: Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> PassOutcome {
    let mut runs = Vec::new();
    // Sequential floors depend on (solver, n) only: time each once.
    let mut floors: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
    for cfg in solve_configs(w, seed, scale) {
        let t = Instant::now();
        let plain = run_once_caught(&cfg);
        let plain_wall = t.elapsed().as_secs_f64();
        let root = rec.spans.len();
        // A panic in the exploded run is charged like one in `run_once`.
        let Ok(ex) = catch_unwind(AssertUnwindSafe(|| exploded_run(&cfg, rec))) else {
            tally.mirror_ok = false;
            runs.push((cfg, None));
            continue;
        };
        let m = &ex.measurement;
        tally
            .coverage
            .push(rec.spans[root].duration_s() / plain_wall);
        match &plain {
            Some(p) => {
                tally.mirror_ok &=
                    p.duration_s.to_bits() == m.duration_s.to_bits() && p.msgs == m.msgs;
                tally.drift_points +=
                    u64::from(p.total_energy_j.to_bits() != m.total_energy_j.to_bits());
            }
            None => tally.mirror_ok = false,
        }
        let layer = solver_layer(cfg.solver);
        let batch = cfg.batch.max(1) as f64;
        tally.add("mpi.msgs", m.msgs as f64);
        tally.add("mpi.volume_elems", m.volume_elems as f64);
        let (flops, bytes) = closed_form(&cfg, &ex.inputs, m);
        tally.add("linalg.flops", flops * batch);
        tally.add("linalg.bytes_computed", bytes * batch);
        tally.add(&format!("{layer}.flops"), flops * batch);
        if let Some(iters) = m.iterations {
            tally.add("cg.iterations", iters as f64);
            tally.add("cg.iterations_run", iters as f64 * batch);
        }
        // Sequential kernel floor of the solver: what the solve would cost
        // with no `mpi` layer at all.
        let floor = match cfg.solver {
            SolverChoice::Ime { .. } => Some(("floor.ime_seq_solve", "ime.seq_solve_s")),
            SolverChoice::ScaLapack { .. } => Some(("floor.scalapack_getrf", "scalapack.getrf_s")),
            SolverChoice::Cg { .. } => None,
        };
        if let Some((span, metric)) = floor {
            let one = *floors.entry((layer, cfg.n)).or_insert_with(|| {
                let dense = &ex.inputs.dense;
                let (t0, t1) = match cfg.solver {
                    SolverChoice::ScaLapack { nb } => {
                        let mut lu = dense.a.clone();
                        let t0 = Instant::now();
                        getrf(&mut lu, nb).expect("getrf floor");
                        (t0, Instant::now())
                    }
                    _ => {
                        let t0 = Instant::now();
                        solve_seq(dense).expect("IMe sequential floor");
                        (t0, Instant::now())
                    }
                };
                rec.push(span, t0, t1, None);
                (t1 - t0).as_secs_f64()
            });
            tally.add(metric, one * batch);
        }
        runs.push((cfg, Some(ex.measurement)));
    }
    if w != Workload::DenseCampaign {
        return solves_outcome(w, &runs);
    }
    // The campaign's tail, on the dataset the exploded runs produced.
    let grid = dense_grid(seed, scale);
    let points = runs
        .iter()
        .filter_map(|(cfg, m)| {
            let m = per_solve(m.clone()?, grid.batch.max(1));
            Some(DataPoint {
                solver: cfg.solver.label().to_string(),
                n: cfg.n,
                ranks: cfg.ranks,
                layout: cfg.layout,
                agg: Aggregated::from_runs(&[m]),
                violations: Vec::new(),
                fault_reports: Vec::new(),
            })
        })
        .collect();
    let ds = Dataset { points };
    let (figs, checks) = rec.span("harness.figures", None, |_, _| {
        (dense_figures(&ds), summary::check_dataset(&ds))
    });
    let bytes = rec.span("harness.output", None, |_, _| {
        dense_output(out_dir, &ds, &figs, &checks).expect("write campaign artefacts")
    });
    let passed = checks.iter().filter(|c| c.pass).count() as u64;
    dense_outcome(&ds, passed, bytes)
}

/// The traced pass of `scale_collectives`: each part once plain (timed),
/// once with machine construction and the run under their own spans.
fn traced_collectives(
    seed: u64,
    scale: Scale,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    for part in coll_parts(scale) {
        let t = Instant::now();
        let (plain_makespan, _) = coll_run(part, seed);
        let plain_wall = t.elapsed().as_secs_f64();
        let root = rec.spans.len();
        let out = rec.span("harness.exploded_run", None, |rec, root| {
            let machine = rec.span("mpi.machine_new", Some(root), |_, _| {
                coll_machine(part.ranks, seed, SchedulerKind::EventDriven)
            });
            rec.span("mpi.run", Some(root), |_, _| {
                machine.run(|ctx| coll_body(part, ctx))
            })
        });
        tally
            .coverage
            .push(rec.spans[root].duration_s() / plain_wall);
        tally.mirror_ok &= out.makespan.to_bits() == plain_makespan.to_bits();
        outcome.attempted += part.rounds as u64;
        outcome.failed += out.results.into_iter().max().unwrap_or(0);
        outcome.virtual_s += out.makespan;
        tally.add("mpi.msgs", out.traffic.msgs as f64);
        tally.add("mpi.volume_elems", out.traffic.volume_elems() as f64);
    }
    outcome
}

/// Run the traced pass of `w` and derive the per-layer metrics its spans
/// carry. `plain_wall_s` is the median wall of the workload's untraced
/// passes (what `harness.fanout_speedup` divides by).
pub fn traced_pass(
    w: Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
    plain_wall_s: f64,
    rec: &mut Recorder,
) -> Traced {
    let mut tally = Tally {
        mirror_ok: true,
        ..Tally::default()
    };
    copy_audit::reset();
    let outcome = match w {
        Workload::ScaleCollectives => traced_collectives(seed, scale, rec, &mut tally),
        _ => traced_solves(w, seed, scale, out_dir, rec, &mut tally),
    };
    let mut m = tally.metrics;
    m.insert("mpi.payload_copies".into(), copy_audit::count() as f64);
    m.insert(
        "harness.mirror_ok".into(),
        f64::from(u8::from(tally.mirror_ok)),
    );
    m.insert("rapl.energy_drift_points".into(), tally.drift_points as f64);
    // The median over the mirrored pairs, not Σ ÷ Σ: a host burst that hits
    // one run of one pair then moves the ledger's coverage little.
    m.insert("harness.ledger_coverage".into(), median(&tally.coverage));
    let serial_sum = rec.total("harness.exploded_run");
    m.insert("harness.serial_sum_s".into(), serial_sum);
    m.insert("harness.fanout_speedup".into(), serial_sum / plain_wall_s);
    m.insert("harness.claims_passed".into(), outcome.claims_passed as f64);
    m.insert("harness.output_bytes".into(), outcome.output_bytes as f64);
    for (metric, span) in [
        ("harness.figures_s", "harness.figures"),
        ("harness.output_s", "harness.output"),
        ("harness.aggregate_s", "harness.aggregate"),
        ("linalg.generate_s", "linalg.generate"),
        ("linalg.from_dense_s", "linalg.from_dense"),
        ("linalg.residual_s", "linalg.residual"),
        ("ime.solve_s", "ime.solve"),
        ("scalapack.solve_s", "scalapack.solve"),
        ("cg.solve_s", "cg.solve"),
    ] {
        m.insert(metric.into(), rec.total(span));
    }
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for layer in ["ime", "scalapack", "cg"] {
        let flops = m.remove(&format!("{layer}.flops")).unwrap_or(0.0);
        let gflops = per(flops, m[&format!("{layer}.solve_s")]) / 1e9;
        m.insert(format!("{layer}.host_gflops"), gflops);
    }
    let iters_run = m.remove("cg.iterations_run").unwrap_or(0.0);
    m.insert(
        "cg.us_per_iter".into(),
        per(m["cg.solve_s"], iters_run) * 1e6,
    );
    // Counts a workload has no use for read zero, not missing.
    for name in [
        "linalg.flops",
        "linalg.bytes_computed",
        "cg.iterations",
        "ime.seq_solve_s",
        "scalapack.getrf_s",
    ] {
        m.entry(name.into()).or_insert(0.0);
    }
    Traced {
        outcome,
        metrics: m,
    }
}

/// Traffic of one CG solve as the closed forms predict it, for
/// `model.traffic_mismatches`.
pub fn cg_predicted_traffic(
    cfg: &RunConfig,
    a: &CsrMatrix,
    iters: u64,
    refreshes: u64,
) -> (u64, u64) {
    let stats = HaloStats::of(&HaloPlan::build_all(a, RowBlocks::new(cfg.n, cfg.ranks)));
    greenla_model::comm::cg_solve_traffic(
        cfg.ranks,
        cfg.n,
        iters,
        refreshes,
        stats.msgs,
        stats.elems,
    )
}
