#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--exp all|table1|fig3|fig4|fig5|fig6|fig7|summary|overhead|powercap|trace|scale|sparse|none]
//!       [--reps N]                       (default: 3)
//!       [--smoke]                        (tiny grid for CI)
//!       [--out DIR]                      (default: results)
//!       [--trace-out PATH]               (Chrome Trace JSON of one traced solve)
//!       [--check]                        (run the campaign under the MPI
//!                                         correctness checker; nonzero exit
//!                                         on any diagnostic)
//!       [--faults PLAN.json]             (inject the deterministic fault
//!                                         plan into every campaign run and
//!                                         report injected vs. observed vs.
//!                                         recovered faults)
//!       [--scheduler thread|event]       (what carries the ranks of every
//!                                         simulated run; virtual results
//!                                         are engine-invariant. Default
//!                                         `event`, fibers, where the build
//!                                         has them (x86_64 Linux), else
//!                                         `thread`, one OS thread per
//!                                         rank)
//!       [--ranks P1,P2,...]              (override the campaign's rank
//!                                         counts; on fibers, counts way
//!                                         past the ~1296 practical ceiling
//!                                         of OS threads are fine)
//! ```
//!
//! `--exp none` runs no experiment (with `--trace-out`, only the trace
//! export); any other unknown name exits 2, as does an unknown
//! `--scheduler` value, a `--reps` that is not a positive count, a
//! `--ranks` count that does not fill whole nodes under every layout, a
//! `--ranks` given to a run that has no rank grid (neither the functional
//! campaign — `fig3`…`fig7`, `summary`, `all`, `--check`, `--faults` —
//! nor `scale`), or a fault plan that cannot be read or parsed, has a key
//! `FaultPlan` does not, or injects nothing.
//!
//! `--exp scale` is the large-P smoke: it skips the solver campaign and
//! drives one barrier + broadcast + allreduce workout at the largest
//! `--ranks` value (default 10000) on fibers, writing a
//! `scale_smoke.json` artifact with wall/virtual timings.
//!
//! Every figure `--exp figN` selects is written twice: the functional tier
//! from real monitored solves on the scaled simulated cluster, then the
//! model tier, the same slice of the calibrated analytic model evaluated
//! at the paper's exact configurations (8640…34560 × 144/576/1296).

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_harness::charts;
use greenla_harness::config::FunctionalGrid;
use greenla_harness::experiments as exp;
use greenla_harness::output::{write_artifact, write_json, Figure};
use greenla_harness::run::Dataset;
use greenla_harness::summary;
use greenla_mpi::FaultPlan;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every `--exp` value `repro` knows.
const EXPERIMENTS: [&str; 14] = [
    "all", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "summary", "overhead", "powercap",
    "trace", "scale", "sparse", "none",
];

struct Args {
    exp: String,
    reps: usize,
    smoke: bool,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    check: bool,
    faults: Option<FaultPlan>,
    scheduler: Option<greenla_mpi::SchedulerKind>,
    ranks: Option<Vec<usize>>,
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: "all".into(),
        reps: 3,
        smoke: false,
        out: PathBuf::from("results"),
        trace_out: None,
        check: false,
        faults: None,
        scheduler: None,
        ranks: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => {
                let v = it.next().expect("--exp needs a value");
                if !EXPERIMENTS.contains(&v.as_str()) {
                    eprintln!("--exp wants one of {}, got {v:?}", EXPERIMENTS.join("|"));
                    std::process::exit(2);
                }
                args.exp = v;
            }
            "--reps" => {
                let v = it.next().expect("--reps needs a value");
                args.reps = v.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| {
                    eprintln!("--reps wants a positive count, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--faults" => {
                let path = PathBuf::from(it.next().expect("--faults needs a value"));
                args.faults = Some(read_fault_plan(&path).unwrap_or_else(|e| {
                    eprintln!("--faults {path:?}: {e}");
                    std::process::exit(2);
                }));
            }
            "--scheduler" => {
                let v = it.next().expect("--scheduler needs a value");
                args.scheduler = Some(greenla_mpi::SchedulerKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("--scheduler wants thread|event, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--ranks" => {
                let v = it.next().expect("--ranks needs a value");
                let node = FunctionalGrid::default().node();
                let places = |r| {
                    LoadLayout::all()
                        .iter()
                        .all(|&l| Placement::layout(&node, r, l).is_ok())
                };
                let parsed = v
                    .split(',')
                    .map(|s| s.trim().parse().ok().filter(|&r| places(r)));
                args.ranks = Some(parsed.collect::<Option<_>>().unwrap_or_else(|| {
                    let cores = node.cores();
                    eprintln!("--ranks wants counts that fill whole {cores}-core nodes, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a value")))
            }
            "--help" | "-h" => {
                println!("usage: repro [--exp all|table1|fig3..fig7|summary|overhead|powercap|trace|scale|sparse|none] [--reps N] [--smoke] [--out DIR] [--trace-out PATH] [--check] [--faults PLAN.json] [--scheduler thread|event] [--ranks P1,P2,...]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The fault plan at `path`, refused if it cannot be read or parsed, has a
/// top-level key `FaultPlan` does not (which would drop its faults
/// silently), or injects nothing.
fn read_fault_plan(path: &Path) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read it: {e}"))?;
    let value: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let known = serde_json::to_value(&FaultPlan::default()).map_err(|e| e.to_string())?;
    let known = known.as_object().unwrap_or_default();
    for (key, _) in value.as_object().unwrap_or_default() {
        if !known.iter().any(|(k, _)| k == key) {
            return Err(format!("unknown key {key:?}"));
        }
    }
    let plan: FaultPlan = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if plan.is_empty() {
        return Err("the plan injects no fault".into());
    }
    Ok(plan)
}

fn emit(out: &Path, fig: &Figure) {
    let name = format!("{}.csv", fig.id);
    write_artifact(out, &name, &fig.to_csv()).expect("write csv");
    write_json(out, &format!("{}.json", fig.id), fig).expect("write json");
    println!("{}", charts::ascii(fig));
}

fn main() {
    let args = parse_args();
    let wants = |e: &str| args.exp == "all" || args.exp == e;
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall time of the invocation, for the progress lines on stderr"
    )]
    let t0 = Instant::now();

    // The large-P smoke: no solver, no campaign — prove the fiber carrier
    // spins up, synchronises and tears down five-digit rank counts inside
    // a CI step timeout, and leave a machine-readable artifact behind.
    if args.exp == "scale" {
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_mpi::Machine;

        let ranks = args
            .ranks
            .as_ref()
            .and_then(|r| r.iter().copied().max())
            .unwrap_or(10_000);
        let scheduler = args.scheduler.unwrap_or_default();
        eprintln!("scale smoke: {ranks} ranks on the {scheduler} engine");
        let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad)
            .expect("placement for scale smoke");
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), 42)
            .expect("machine for scale smoke")
            .with_scheduler(scheduler);
        #[expect(
            clippy::disallowed_methods,
            reason = "the scale smoke reports how long the host took to carry the ranks"
        )]
        let wall = Instant::now();
        let out = machine.run(|ctx| {
            let world = ctx.world();
            ctx.barrier(&world);
            let data = (ctx.rank() == 0).then(|| vec![1.0f64; 256]);
            ctx.bcast_shared_f64(&world, 0, data);
            let sum = ctx.allreduce_sum_f64(&world, &[1.0])[0];
            ctx.barrier(&world);
            sum
        });
        let wall_s = wall.elapsed().as_secs_f64();
        for (rank, &sum) in out.results.iter().enumerate() {
            assert_eq!(sum, ranks as f64, "rank {rank} disagreed on the allreduce");
        }
        #[derive(serde::Serialize)]
        struct ScaleSmoke {
            ranks: usize,
            scheduler: String,
            wall_s: f64,
            virtual_makespan_s: f64,
            msgs: u64,
            volume_elems: u64,
        }
        let artifact = ScaleSmoke {
            ranks,
            scheduler: scheduler.to_string(),
            wall_s,
            virtual_makespan_s: out.makespan,
            msgs: out.traffic.msgs,
            volume_elems: out.traffic.volume_elems(),
        };
        write_json(&args.out, "scale_smoke.json", &artifact).expect("write scale smoke");
        eprintln!(
            "scale smoke ok: {ranks} ranks, wall {wall_s:.2} s, virtual {:.6} s",
            out.makespan
        );
        return;
    }

    // Experiments that need the measurement campaign (--check or --faults
    // alone also run it: the campaign is what gets checked/faulted).
    let needs_data = args.check
        || args.faults.is_some()
        || ["fig3", "fig4", "fig5", "fig6", "fig7", "summary"]
            .iter()
            .any(|e| wants(e));
    // Only the campaign and `scale` (handled above) have a rank grid.
    if args.ranks.is_some() && !needs_data {
        eprintln!(
            "--ranks sets the functional campaign's rank counts, which --exp {:?} does not run",
            args.exp
        );
        std::process::exit(2);
    }
    let dataset: Option<Dataset> = needs_data.then(|| {
        let mut grid = if args.smoke {
            FunctionalGrid::smoke()
        } else {
            FunctionalGrid::default()
        };
        grid.reps = args.reps;
        grid.check = args.check;
        grid.faults = args.faults.clone();
        if let Some(kind) = args.scheduler {
            grid.scheduler = kind;
        }
        if let Some(ranks) = &args.ranks {
            grid.ranks = ranks.clone();
        }
        eprintln!(
            "running functional campaign: dims {:?} × ranks {:?} × 3 layouts × 2 solvers × {} reps{} [{} engine]",
            grid.dims,
            grid.ranks,
            grid.reps,
            match (grid.check, grid.faults.is_some()) {
                (true, true) => " [checked, faulted]",
                (true, false) => " [checked]",
                (false, true) => " [faulted]",
                (false, false) => "",
            },
            grid.scheduler
        );
        let ds = Dataset::campaign(&grid, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f64())
        });
        write_json(&args.out, "dataset.json", &ds).expect("write dataset");
        ds
    });

    if args.check {
        let ds = dataset.as_ref().expect("--check implies a campaign");
        let diags: Vec<String> = ds
            .violations()
            .map(|(p, v)| {
                format!(
                    "{} n={} ranks={} layout={}: {v}",
                    p.solver, p.n, p.ranks, p.layout
                )
            })
            .collect();
        for d in &diags {
            eprintln!("VIOLATION {d}");
        }
        eprintln!(
            "checker: {} violation(s) across {} grid point(s)",
            diags.len(),
            ds.points.len()
        );
        if !diags.is_empty() {
            std::process::exit(1);
        }
    }

    if args.faults.is_some() {
        use greenla_mpi::FaultReport;
        let ds = dataset.as_ref().expect("--faults implies a campaign");
        let mut agg = FaultReport::default();
        let mut runs = 0usize;
        for (_, r) in ds.fault_reports() {
            agg.merge(r);
            runs += 1;
        }
        write_json(&args.out, "fault_reports.json", &agg).expect("write fault reports");
        eprintln!(
            "faults over {runs} run(s): injected {} observed {} recovered {}{}",
            agg.injected.total(),
            agg.observed.total(),
            agg.recovered.total(),
            if agg.degraded_nodes.is_empty() {
                String::new()
            } else {
                format!(" (degraded nodes: {:?})", agg.degraded_nodes)
            }
        );
    }

    // The model tier is one dataset too: every paper-scale figure and claim
    // slices it.
    let paper = exp::paper_dataset();

    if wants("table1") {
        let t = exp::table1();
        write_artifact(&args.out, "table1.csv", &t.to_csv()).expect("write");
        println!("{}", t.to_text());
    }

    // Each selected figure, grouped by `--exp` name; the sort is stable, so
    // a functional figure stays ahead of its model twin.
    let functional = dataset.as_ref().map(exp::functional_figures);
    let mut figures = functional.unwrap_or_default();
    figures.extend(exp::model_figures(&paper));
    figures.retain(|fig| wants(exp::experiment(fig)));
    figures.sort_by(|a, b| exp::experiment(a).cmp(exp::experiment(b)));
    for fig in &figures {
        emit(&args.out, fig);
    }

    if wants("summary") {
        if let Some(ds) = &dataset {
            let checks = summary::check_dataset(ds);
            let t = summary::claims_table(
                "summary-functional",
                "Paper claims vs functional tier",
                &checks,
            );
            write_artifact(&args.out, "summary_functional.csv", &t.to_csv()).expect("write");
            write_json(&args.out, "summary_functional.json", &checks).expect("write");
            println!("{}", t.to_text());
        }
        let checks = summary::check_model(&paper);
        let t = summary::claims_table(
            "summary-model",
            "Paper claims vs model tier (paper scale)",
            &checks,
        );
        write_artifact(&args.out, "summary_model.csv", &t.to_csv()).expect("write");
        write_json(&args.out, "summary_model.json", &checks).expect("write");
        println!("{}", t.to_text());
    }

    if wants("sparse") {
        use greenla_harness::sparse::{self, SparseGrid};
        let mut grid = if args.smoke {
            SparseGrid::smoke()
        } else {
            SparseGrid::default()
        };
        grid.reps = args.reps;
        if let Some(kind) = args.scheduler {
            grid.scheduler = kind;
        }
        eprintln!(
            "running sparse campaign: dims {:?} × {} ranks × 4 solvers × {} reps [{} engine]",
            grid.dims, grid.ranks, grid.reps, grid.scheduler
        );
        let (ds, report) = sparse::campaign(&grid, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f64())
        });
        write_json(&args.out, "sparse_dataset.json", &ds).expect("write sparse dataset");
        write_json(&args.out, "sparse_campaign.json", &report).expect("write sparse report");
        let t = sparse::table(&report);
        write_artifact(&args.out, "sparse.csv", &t.to_csv()).expect("write");
        println!("{}", t.to_text());
        for c in &report.checks {
            println!(
                "  {} n={}: wall ratio {:.3}, energy ratio {:.3}, {} iters, {:.2} GB/s{}",
                c.solver,
                c.n,
                c.wall_ratio,
                c.energy_ratio,
                c.iterations,
                c.gbps,
                if c.within_band { "" } else { "  [OUT OF BAND]" }
            );
        }
        if !(report.all_within_band && report.all_memory_bound && report.inversion_holds) {
            eprintln!(
                "sparse campaign FAILED: within_band={} memory_bound={} inversion={}",
                report.all_within_band, report.all_memory_bound, report.inversion_holds
            );
            std::process::exit(1);
        }
        eprintln!("sparse campaign ok: CG memory-bound, model within ±30%, energy inversion holds");
    }

    if wants("powercap") {
        let (n, ranks) = if args.smoke { (96, 8) } else { (360, 16) };
        let pts = greenla_harness::powercap::sweep(n, ranks, &[1.0, 0.85, 0.7, 0.55, 0.4], 7);
        let t = greenla_harness::powercap::table(&pts);
        write_artifact(&args.out, "powercap.csv", &t.to_csv()).expect("write");
        write_json(&args.out, "powercap.json", &pts).expect("write");
        println!("{}", t.to_text());
    }

    if wants("trace") {
        let (n, ranks) = if args.smoke { (128, 8) } else { (480, 16) };
        let fig = greenla_harness::power_trace::figure(n, ranks, 1e-3, 7);
        emit(&args.out, &fig);
    }

    if let Some(path) = &args.trace_out {
        use greenla_harness::chrome_trace::traced_solve;
        use greenla_harness::config::SolverChoice;
        use greenla_harness::run::RunConfig;
        let (n, ranks) = if args.smoke { (96, 8) } else { (240, 16) };
        // A small node (4 cores over 2 sockets) so the ranks fill whole
        // nodes and the export shows the multi-node track layout.
        let run = traced_solve(&RunConfig {
            n,
            ranks,
            layout: LoadLayout::FullLoad,
            solver: SolverChoice::ime_optimized(),
            system: greenla_linalg::generate::SystemKind::DiagDominant,
            cores_per_socket: 2,
            seed: 7,
            check: false,
            faults: None,
            scheduler: args.scheduler.unwrap_or_default(),
            batch: 1,
            cg_overlap: true,
        });
        let text = serde_json::to_string_pretty(&run.trace).expect("serialise trace");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create trace dir");
            }
        }
        std::fs::write(path, text).expect("write trace");
        eprintln!(
            "wrote {} ({} events, virtual makespan {:.6} s) — open in https://ui.perfetto.dev",
            path.display(),
            run.event_count,
            run.makespan_s
        );
    }

    if wants("overhead") {
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_harness::config::SolverChoice;
        use greenla_harness::run::{solve, Inputs};
        use greenla_linalg::generate;
        use greenla_monitor::overhead::measure_overhead;
        use greenla_mpi::Machine;

        let solver = SolverChoice::ime_optimized();
        let sys = generate::diag_dominant(if args.smoke { 96 } else { 360 }, 1);
        let inputs = Inputs::from_system(solver, sys);
        let build = || {
            let spec = ClusterSpec::test_cluster(4, 4);
            let placement = Placement::packed(&spec.node, 16).unwrap();
            let power = PowerModel::scaled_deterministic(&spec.node);
            Machine::new(spec, placement, power, 99).unwrap()
        };
        let report = measure_overhead(build, |ctx| {
            let world = ctx.world();
            solve(ctx, &world, true, &inputs);
        });
        let text = format!(
            "monitored makespan: {:.6} s\nraw makespan:       {:.6} s\noverhead:           {:.2} %\n",
            report.monitored_s,
            report.raw_s,
            report.overhead_fraction() * 100.0
        );
        write_artifact(&args.out, "overhead.txt", &text).expect("write");
        println!("== E-O1 monitoring overhead ==\n{text}");
    }

    eprintln!(
        "done in {:.1}s — artefacts in {}",
        t0.elapsed().as_secs_f64(),
        args.out.display()
    );
}
