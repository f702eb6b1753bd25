#![forbid(unsafe_code)]
//! `bench_gate` — compare current `BENCH_*.json` reports against the
//! checked-in baseline and fail on regression.
//!
//! ```text
//! bench_gate --baseline BENCH_baseline.json
//!            --current BENCH_kernels.json [--current BENCH_campaign.json ...]
//!            [--fail-pct 15] [--warn-pct 5]
//! ```
//!
//! Exit status: 0 when every baseline entry is present and within the
//! tolerance band, 1 when any entry regressed past `--fail-pct`, vanished
//! from the current reports, or reports virtual seconds that differ from
//! the baseline's in any bit.
//! Improvements always pass — they are ratcheted in by regenerating the
//! baseline (see EXPERIMENTS.md), never blocked.

use greenla_harness::bench::{gate, BenchReport, Verdict};
use std::path::PathBuf;

struct Args {
    baseline: PathBuf,
    current: Vec<PathBuf>,
    warn_pct: f64,
    fail_pct: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: PathBuf::new(),
        current: Vec::new(),
        warn_pct: 5.0,
        fail_pct: 15.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => args.baseline = PathBuf::from(it.next().expect("--baseline path")),
            "--current" => args
                .current
                .push(PathBuf::from(it.next().expect("--current path"))),
            "--warn-pct" => {
                args.warn_pct = it
                    .next()
                    .expect("--warn-pct value")
                    .parse()
                    .expect("warn pct")
            }
            "--fail-pct" => {
                args.fail_pct = it
                    .next()
                    .expect("--fail-pct value")
                    .parse()
                    .expect("fail pct")
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_gate --baseline PATH --current PATH [--current PATH ...] [--warn-pct 5] [--fail-pct 15]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if args.baseline.as_os_str().is_empty() || args.current.is_empty() {
        eprintln!("bench_gate needs --baseline and at least one --current; try --help");
        std::process::exit(2);
    }
    args
}

fn load(path: &PathBuf) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn main() {
    let args = parse_args();
    let baseline = load(&args.baseline);
    let current: Vec<BenchReport> = args.current.iter().map(load).collect();

    // Kernel wall-clocks are only comparable within one dispatched
    // microkernel path: diffing a scalar-path report against an avx512
    // baseline would read as a ~2× "regression" (or a spurious 2×
    // "improvement" the other way). Refuse the comparison outright;
    // reports predating the `kernel_path` field are exempt.
    if let Some(bpath) = baseline.kernel_path.as_deref() {
        for (path, rep) in args.current.iter().zip(&current) {
            if let Some(cpath) = rep.kernel_path.as_deref() {
                if cpath != bpath {
                    eprintln!(
                        "bench gate REFUSED: baseline {} was measured on kernel path `{bpath}` \
                         but {} on `{cpath}`; rerun on a matching CPU/GREENLA_KERNEL or \
                         regenerate the baseline on this path (see EXPERIMENTS.md)",
                        args.baseline.display(),
                        path.display(),
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    eprintln!(
        "kernel path: baseline `{}`, current `{}`",
        baseline.kernel_path.as_deref().unwrap_or("unrecorded"),
        current
            .iter()
            .filter_map(|r| r.kernel_path.as_deref())
            .next()
            .unwrap_or("unrecorded"),
    );

    let lines = gate(&baseline, &current, args.warn_pct, args.fail_pct);

    println!(
        "{:<10} {:<22} {:>12} {:>12} {:>8} {:>8}  verdict",
        "suite", "id", "baseline(s)", "current(s)", "Δ%", "GB/sΔ%"
    );
    let mut failed = false;
    for l in &lines {
        let fmt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.4}"));
        let verdict = match l.verdict {
            Verdict::Ok => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => {
                failed = true;
                "FAIL"
            }
            Verdict::Missing => {
                failed = true;
                "MISSING"
            }
            Verdict::New => "new",
        };
        println!(
            "{:<10} {:<22} {:>12} {:>12} {:>8} {:>8}  {verdict}",
            l.suite,
            l.id,
            fmt(l.baseline_s),
            fmt(l.current_s),
            l.delta_pct.map_or("-".into(), |d| format!("{d:+.1}")),
            l.gbps_delta_pct.map_or("-".into(), |d| format!("{d:+.1}")),
        );
        if let Some((base, cur)) = l.virtual_drift {
            println!(
                "FAIL {}/{}: virtual_s drifted from {base:e} to {cur:e} — the simulated clock \
                 is deterministic; regenerate the entry if the algorithm changed on purpose",
                l.suite, l.id
            );
        }
    }
    let n_warn = lines.iter().filter(|l| l.verdict == Verdict::Warn).count();
    if failed {
        eprintln!(
            "bench gate FAILED (>{:.0}% median wall-clock or delivered-GB/s regression, virtual_s drift, or lost coverage)",
            args.fail_pct
        );
        std::process::exit(1);
    }
    eprintln!(
        "bench gate passed: {} entr{} compared, {n_warn} warning(s)",
        lines.len(),
        if lines.len() == 1 { "y" } else { "ies" },
    );
}
