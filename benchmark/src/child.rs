//! One child process: a fresh address space that warms up, then measures
//! untraced passes for the time it was given (and, when tracing, runs the
//! traced pass and the probes). The parent spawns several per run so that
//! set-up time and peak RSS are sampled more than once and every sample
//! starts from clean OS counters.

use crate::exploded::traced_pass;
use crate::host::{HostCost, Meter};
use crate::metrics::ENERGY_TOL;
use crate::probes::run_probes;
use crate::span::{self, Recorder};
use crate::stats::median;
use crate::workloads::{plain_pass, PassOutcome, Scale, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Steal-flagged passes are re-run at most this often per child; after
/// that the host is simply noisy and passes are accepted as they come.
pub const MAX_DISCARDS: u64 = 5;

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
    /// Also run the differential probes. They do not depend on the
    /// workload, so a run over several workloads asks one child only.
    pub probes: bool,
    /// Directory the campaign artefacts (and nothing else) are written to.
    pub scratch: PathBuf,
    /// Wall-clock time at which the parent spawned this process.
    pub spawned_unix_s: f64,
}

pub fn unix_now_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// What a child hands back: sample vectors by end-to-end metric name,
/// operation totals, and — from a tracing child — the per-layer metrics
/// and the span document.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub layer: BTreeMap<String, f64>,
    pub trace: Option<Value>,
}

impl ChildReport {
    fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn to_json(&self) -> Value {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Array(v.iter().map(|&x| Value::F64(x)).collect()),
                )
            })
            .collect();
        let layer = self
            .layer
            .iter()
            .map(|(k, &v)| (k.clone(), Value::F64(v)))
            .collect();
        Value::Object(vec![
            ("samples".into(), Value::Object(samples)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("layer".into(), Value::Object(layer)),
            ("trace".into(), self.trace.clone().unwrap_or(Value::Null)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<ChildReport> {
        let mut r = ChildReport {
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            trace: v
                .get("trace")
                .filter(|t| !matches!(t, Value::Null))
                .cloned(),
            ..ChildReport::default()
        };
        for (k, xs) in v.get("samples")?.as_object()? {
            let xs = xs
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<Vec<f64>>>()?;
            r.samples.insert(k.clone(), xs);
        }
        for (k, x) in v.get("layer")?.as_object()? {
            r.layer.insert(k.clone(), x.as_f64()?);
        }
        Some(r)
    }

    /// Fold another untraced child of the same run into this one.
    pub fn merge(&mut self, other: ChildReport) {
        for (k, mut xs) in other.samples {
            self.samples.entry(k).or_default().append(&mut xs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// A pass whose virtual clock disagrees with the first pass of the process
/// broke the determinism every other number rests on: all its operations
/// count as failed. Energy gets the tolerance its known drift needs.
fn charge_drift(first: &PassOutcome, o: &mut PassOutcome) {
    let same_clock = o.virtual_s.to_bits() == first.virtual_s.to_bits();
    if !same_clock || rel_diff(o.energy_j, first.energy_j) > ENERGY_TOL {
        o.failed = o.attempted;
    }
}

pub fn run_child(args: &ChildArgs) -> ChildReport {
    let (w, seed, scale) = (args.workload, args.seed, args.scale);
    let mut report = ChildReport::default();

    // Untimed warm-up pass: cold kernel dispatch, stack-pool mmap,
    // first-touch faults. Its end marks the end of set-up.
    let meter = Meter::start();
    let first = plain_pass(w, seed, scale, &args.scratch);
    let warm = meter.stop();
    report.sample("setup_s", unix_now_s() - args.spawned_unix_s);
    // Read here and not later: RSS creeps up pass after pass, and the pass
    // count varies with discards, so only the first pass is repeatable.
    report.sample("peak_rss_mib", warm.peak_rss_mib);
    report.attempted += first.attempted;
    report.failed += first.failed;

    // A tracing child spends most of its time on the traced pass and the
    // probes; a quarter goes to the untraced passes behind `host.*`.
    let budget_s = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let mut accepted: Vec<HostCost> = Vec::new();
    let mut discarded = 0;
    let mut last = warm;
    // A pass that would end past the budget is not started, so a run's
    // length does not depend on where its last pass happened to fall.
    while accepted.is_empty() || t0.elapsed().as_secs_f64() + last.wall_s <= budget_s {
        let meter = Meter::start();
        let mut o = plain_pass(w, seed, scale, &args.scratch);
        let cost = meter.stop();
        charge_drift(&first, &mut o);
        report.attempted += o.attempted;
        report.failed += o.failed;
        last = cost;
        if cost.steal_flagged() && discarded < MAX_DISCARDS {
            discarded += 1;
            continue;
        }
        report.sample("wall_s", cost.wall_s);
        report.sample("cpu_s", cost.cpu_s());
        report.sample("ops_per_s", o.attempted as f64 / cost.wall_s);
        report.sample("virtual_s", o.virtual_s);
        report.sample("energy_j", o.energy_j);
        accepted.push(cost);
    }
    if !args.trace {
        return report;
    }

    let med = |f: fn(&HostCost) -> f64| median(&accepted.iter().map(f).collect::<Vec<_>>());
    let (user_s, sys_s) = (med(|c| c.user_s), med(|c| c.sys_s));
    let wall_s = med(|c| c.wall_s);
    let passes_after_first = accepted.len() as u64 + discarded;
    let layer = &mut report.layer;
    layer.insert("sim.virtual_s".into(), first.virtual_s);
    layer.insert("sim.energy_j".into(), first.energy_j);
    layer.insert("host.user_s".into(), user_s);
    layer.insert("host.sys_s".into(), sys_s);
    layer.insert("host.sys_frac".into(), sys_s / (user_s + sys_s));
    layer.insert("host.minor_faults".into(), med(|c| c.minor_faults as f64));
    layer.insert(
        "host.vol_ctx_switches".into(),
        med(|c| c.vol_ctx_switches as f64),
    );
    layer.insert(
        "host.rss_growth_mib_per_pass".into(),
        (last.peak_rss_mib - warm.peak_rss_mib) / passes_after_first as f64,
    );
    layer.insert("host.steal_frac".into(), med(|c| c.steal_frac));
    layer.insert("host.passes_discarded".into(), discarded as f64);

    let mut rec = Recorder::new();
    let traced = traced_pass(w, seed, scale, &args.scratch, wall_s, &mut rec);
    let mut o = traced.outcome;
    charge_drift(&first, &mut o);
    report.attempted += o.attempted;
    report.failed += o.failed;
    // Floors and probes are filed under pseudo-layers of their own, so
    // these are the self times of the exploded runs only.
    let selfs = span::self_time_by_layer(&rec.spans);
    layer.extend(traced.metrics);
    for l in [
        "harness",
        "linalg",
        "mpi",
        "monitor",
        "ime",
        "scalapack",
        "cg",
    ] {
        layer.insert(format!("{l}.self_s"), selfs.get(l).copied().unwrap_or(0.0));
    }
    layer.insert(
        "host.trace_overhead_frac".into(),
        layer["harness.ledger_coverage"] - 1.0,
    );
    let floor_input: f64 = [
        "ime.seq_solve_s",
        "scalapack.getrf_s",
        "linalg.generate_s",
        "linalg.from_dense_s",
        "linalg.residual_s",
    ]
    .iter()
    .map(|k| layer[*k])
    .sum();
    layer.insert(
        "host.floor_input_share".into(),
        floor_input / (user_s + sys_s),
    );
    if args.probes {
        layer.extend(run_probes(seed, scale, &mut rec));
    }
    report.trace = Some(span::to_json(w.name(), &rec.spans));
    report
}
