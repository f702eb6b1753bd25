#![forbid(unsafe_code)]
//! `greenla-lint` — run the workspace static-analysis pass.
//!
//! ```text
//! greenla-lint [--root DIR] [--json] [--json-out FILE] [--quiet]
//! greenla-lint --file F.rs [--as crates/mpi/src/f.rs]
//! ```
//!
//! The second form lints one file as if it lived at the `--as` path
//! (crate-scoped rules key off the path) — that is how the violation
//! fixtures are driven.
//!
//! Exit codes: `0` no unsuppressed findings, `1` at least one
//! unsuppressed finding, `2` usage or I/O error. CI runs this as the
//! blocking `analyze` job and uploads the `--json-out` artifact; see
//! ARCHITECTURE.md §11 for the rules and the suppression syntax.

use greenla_analyze::{analyze_workspace, find_workspace_root, render_human};
use greenla_analyze::{file::FileCtx, rules::check_file};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_stdout = false;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut file: Option<PathBuf> = None;
    let mut as_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--file" => match args.next() {
                Some(v) => file = Some(PathBuf::from(v)),
                None => return usage("--file needs a path"),
            },
            "--as" => match args.next() {
                Some(v) => as_path = Some(v),
                None => return usage("--as needs a workspace-relative path"),
            },
            "--json" => json_stdout = true,
            "--json-out" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json-out needs a file path"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "greenla-lint [--root DIR] [--json] [--json-out FILE] [--quiet]\n\
                     greenla-lint --file F.rs [--as REL]\n\
                     Workspace lints GL001-GL003, GL005, GL006; see ARCHITECTURE.md §11."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(path) = file {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("greenla-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = as_path.unwrap_or_else(|| path.to_string_lossy().into_owned());
        let ctx = FileCtx::new(&rel, &src);
        let findings = check_file(&ctx);
        return finish(&findings, json_stdout, json_out, quiet);
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage("no workspace root found; pass --root"),
    };
    let findings = match analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("greenla-lint: failed to analyze {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    finish(&findings, json_stdout, json_out, quiet)
}

fn finish(
    findings: &[greenla_analyze::rules::Finding],
    json_stdout: bool,
    json_out: Option<PathBuf>,
    quiet: bool,
) -> ExitCode {
    if let Some(path) = &json_out {
        let json = serde_json::to_string_pretty(&findings).expect("findings serialize");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("greenla-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json_stdout {
        println!(
            "{}",
            serde_json::to_string_pretty(&findings).expect("findings serialize")
        );
    } else if !quiet {
        print!("{}", render_human(findings));
    }
    if findings.iter().any(|f| !f.suppressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("greenla-lint: {msg} (try --help)");
    ExitCode::from(2)
}
