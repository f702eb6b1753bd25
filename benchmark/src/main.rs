//! The repo's benchmark driver. See README.md next to this package.
//!
//! ```text
//! greenla-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--quick] [--out DIR]
//! greenla-benchmark compare A.json B.json
//! ```
//!
//! `run` spawns this same executable as child processes (`child …`), one
//! fresh process per set-up sample, and folds what they print.

mod child;
mod compare;
mod exploded;
mod host;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use child::{ChildArgs, ChildReport};
use compare::Verdict;
use greenla_harness::output::write_json;
use metrics::{Bound, EndToEnd, END_TO_END, PER_LAYER};
use serde_json::Value;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Scale, Workload};

/// Fresh processes per untraced run: three set-up and peak-RSS samples,
/// each child measuring a third of the run's seconds.
const CHILDREN: usize = 3;

/// What `BENCHMARK.json` gives as `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: the traced run
    /// and per-layer metrics only; `None`: both, one after the other.
    trace: Option<bool>,
    scale: Scale,
    out: PathBuf,
}

fn usage() -> String {
    "usage: greenla-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
     [--quick] [--out DIR]\n       greenla-benchmark compare A.json B.json"
        .into()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 2023,
        seconds: DEFAULT_SECONDS,
        trace: None,
        scale: Scale::Full,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                r.workloads = vec![w];
            }
            "--seed" => {
                r.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                r.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds >= 0.0 && r.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--out" => r.out = PathBuf::from(value("a directory")?),
            "--quick" => r.scale = Scale::Quick,
            "--trace" => {
                r.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if r.scale == Scale::Quick {
        // One pass per child is all `--quick` is for.
        r.seconds = 0.0;
    }
    Ok(r)
}

fn parse_child(args: &[String]) -> Result<ChildArgs, String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("child: {flag} missing"))
    };
    Ok(ChildArgs {
        workload: Workload::parse(get("--workload")?).ok_or("child: unknown workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("child --seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("child --seconds: {e}"))?,
        scale: if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        },
        trace: args.iter().any(|a| a == "--trace"),
        probes: args.iter().any(|a| a == "--probes"),
        scratch: PathBuf::from(get("--scratch")?),
        spawned_unix_s: get("--spawned")?
            .parse()
            .map_err(|e| format!("child --spawned: {e}"))?,
    })
}

/// Spawn one child and parse the report it prints as its last line.
fn spawn_child(
    r: &RunArgs,
    w: Workload,
    seconds: f64,
    mode: &[&str],
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = r.out.join("scratch").join(w.name());
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name()])
        .args(["--seed", &r.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--scratch")
        .arg(&scratch)
        .args(["--spawned", &child::unix_now_s().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if r.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    cmd.args(mode);
    // `output` waits for the child to end, so no process outlives the run.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {} ended with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    let doc: Value = serde_json::from_str(last).map_err(|e| format!("child report: {e}"))?;
    ChildReport::from_json(&doc).ok_or_else(|| "child report: malformed".to_string())
}

/// Summaries of the eight end-to-end metrics from the merged children.
fn end_to_end_summaries(rep: &ChildReport) -> Vec<(&'static EndToEnd, Summary)> {
    END_TO_END
        .iter()
        .map(|m| {
            let frac = [rep.failed as f64 / rep.attempted.max(1) as f64];
            let samples = match m.name {
                "fail_frac" => &frac[..],
                name => rep.samples.get(name).map_or(&[][..], Vec::as_slice),
            };
            (m, Summary::of(samples))
        })
        .collect()
}

/// The virtual clock must read the same in every pass of every child, and
/// the simulated energy within its drift tolerance: each fingerprint, held
/// against itself, must not breach its own bound.
fn fingerprints_agree(e2e: &[(&'static EndToEnd, Summary)]) -> bool {
    e2e.iter()
        .all(|(m, s)| compare::judge(m.bound, m.better, s, s) != Verdict::Breach)
}

/// The one-line result the driver contract reads: the last line of stdout.
fn contract_line(correct: bool, rep: &ChildReport, metrics: Vec<(String, Value)>) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(rep.attempted)),
        ("failed".into(), Value::U64(rep.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("serialise result")
}

fn value_unit(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// Run one workload; returns its entry for `results.json`, its span
/// document if it traced, and its contract line. `probes` carries the
/// probe metrics from the first traced workload of the run to the rest.
fn run_workload(
    r: &RunArgs,
    w: Workload,
    probes: &mut Option<BTreeMap<String, f64>>,
) -> Result<(Value, Option<Value>, String), String> {
    let mut entry = Vec::new();
    let mut line = String::new();
    let mut trace_doc = None;
    println!("== {} (seed {}) ==", w.name(), r.seed);
    if r.trace != Some(true) {
        let children = if r.scale == Scale::Quick { 1 } else { CHILDREN };
        let mut rep = ChildReport::default();
        for _ in 0..children {
            rep.merge(spawn_child(r, w, r.seconds / children as f64, &[])?);
        }
        let e2e = end_to_end_summaries(&rep);
        let correct = rep.failed == 0 && fingerprints_agree(&e2e);
        for (m, s) in &e2e {
            println!(
                "{:<14} {:>14.6} {:<6} n={:<3} min {:.6} q1 {:.6} q3 {:.6} max {:.6}",
                m.name, s.median, m.unit, s.n, s.min, s.q1, s.q3, s.max
            );
        }
        // The driver's contract lists the host-clock metrics only.
        let listed = e2e
            .iter()
            .filter(|(m, _)| matches!(m.bound, Bound::Worse(_)))
            .map(|(m, s)| (m.name.to_string(), value_unit(s.median, m.unit)))
            .collect();
        line = contract_line(correct, &rep, listed);
        entry.push(("attempted".into(), Value::U64(rep.attempted)));
        entry.push(("failed".into(), Value::U64(rep.failed)));
        entry.push(("correct".into(), Value::Bool(correct)));
        let e2e = e2e
            .into_iter()
            .map(|(m, s)| (m.name.to_string(), s.to_json(m.unit)))
            .collect();
        entry.push(("end_to_end".into(), Value::Object(e2e)));
    }
    if r.trace != Some(false) {
        // Probes do not depend on the workload: the first traced child of
        // the run measures them, the rest inherit its numbers.
        let mode: &[&str] = if probes.is_some() {
            &["--trace"]
        } else {
            &["--trace", "--probes"]
        };
        let mut rep = spawn_child(r, w, r.seconds, mode)?;
        for (name, &v) in probes.get_or_insert_with(|| rep.layer.clone()).iter() {
            rep.layer.entry(name.clone()).or_insert(v);
        }
        let mut layer = Vec::new();
        for (name, unit, _) in PER_LAYER {
            let v = *rep
                .layer
                .get(name)
                .ok_or(format!("traced run did not report {name}"))?;
            println!("{name:<38} {v:>18.6} {unit}");
            layer.push((name.to_string(), value_unit(v, unit)));
        }
        // Only what is deterministic decides `correct`; the ledger's
        // coverage is a timing and is reported, not asserted.
        let correct = rep.failed == 0 && rep.layer.get("harness.mirror_ok") == Some(&1.0);
        line = contract_line(correct, &rep, layer.clone());
        entry.push(("traced_correct".into(), Value::Bool(correct)));
        entry.push(("per_layer".into(), Value::Object(layer)));
        trace_doc = rep.trace;
    }
    Ok((Value::Object(entry), trace_doc, line))
}

/// The revision of the checkout, read from `.git` files directly (no
/// subprocess, nothing outside the checkout); "unknown" in an export.
fn git_revision(repo: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(repo.join(".git/HEAD"));
    match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(repo.join(".git").join(reference)),
        None => head,
    }
    .unwrap_or_else(|| "unknown".into())
}

fn manifest(r: &RunArgs) -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Value::Object(vec![
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        (
            "kernel_path".into(),
            Value::Str(greenla_linalg::simd::resolved().label().into()),
        ),
        (
            "default_engine".into(),
            Value::Str(greenla_mpi::SchedulerKind::default().to_string()),
        ),
        ("rustc".into(), Value::Str(rustc)),
        ("git_revision".into(), Value::Str(git_revision(&repo))),
        ("seed".into(), Value::U64(r.seed)),
        ("seconds".into(), Value::F64(r.seconds)),
        ("quick".into(), Value::Bool(r.scale == Scale::Quick)),
    ])
}

fn run(r: &RunArgs) -> Result<(), String> {
    let mut results = Vec::new();
    let mut traces = Vec::new();
    let mut last_line = String::new();
    let mut probes = None;
    for &w in &r.workloads {
        let (entry, trace, line) = run_workload(r, w, &mut probes)?;
        results.push((w.name().to_string(), entry));
        traces.extend(trace);
        last_line = line;
    }
    let doc = Value::Object(vec![
        ("schema".into(), Value::U64(1)),
        ("manifest".into(), manifest(r)),
        ("workloads".into(), Value::Object(results)),
    ]);
    let write = |name: &str, doc: &Value| {
        write_json(&r.out, name, doc)
            .map_err(|e| format!("write {name} in {}: {e}", r.out.display()))
    };
    write("results.json", &doc)?;
    if !traces.is_empty() {
        write("trace.json", &Value::Array(traces))?;
    }
    println!("results in {}", r.out.display());
    // The contract reads the last line of stdout.
    println!("{last_line}");
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let lines = compare::compare(&load(a)?, &load(b)?)?;
    let mut breached = false;
    for l in &lines {
        let verdict = match l.verdict {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Breach => "BREACH",
        };
        breached |= l.verdict == Verdict::Breach;
        println!(
            "{:<18} {:<13} {:>16.9} -> {:>16.9}  {verdict}",
            l.workload, l.metric, l.base, l.new
        );
    }
    Ok(!breached)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(knob) = host::refused_env_set() {
        eprintln!("refusing to run with {knob} set: the benchmark measures the defaults");
        return ExitCode::from(2);
    }
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| run(&r)).map(|()| true),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("child") => parse_child(&args[1..]).map(|c| {
            println!(
                "{}",
                serde_json::to_string(&child::run_child(&c).to_json()).expect("serialise report")
            );
            true
        }),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
