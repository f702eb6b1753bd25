#![forbid(unsafe_code)]
//! # greenla-analyze
//!
//! Workspace-aware static analysis for the greenla reproduction: the
//! `greenla-lint` binary walks every crate's sources with a hand-rolled
//! lexer (no external parser — the vendored offline build stays
//! dependency-free) and enforces the repo-specific contracts that dynamic
//! tests can only sample:
//!
//! * **GL001** — every `unsafe` block/fn/impl carries a `// SAFETY:`
//!   justification (functions may use a `# Safety` rustdoc section).
//! * **GL002** — no lock guard is live across a fiber yield / poison
//!   point in `crates/mpi` (the M:N engine's signature deadlock class).
//! * **GL003** — simulation crates never read wall clocks, OS sleeps, or
//!   OS randomness: virtual-time purity is what makes runs bit-identical
//!   across schedulers.
//! * **GL005** — persisted config/schema structs only grow with
//!   `#[serde(default)]`-compatible fields, so old datasets keep parsing.
//!
//! Findings are `file:line`-addressed; `// greenla-allow: GLxxx <reason>`
//! on (or directly above) the offending line suppresses one finding and
//! records the reason. See `ARCHITECTURE.md` §11 for the full rule
//! rationale.
//!
//! ```
//! use greenla_analyze::{file::FileCtx, rules::check_file};
//! let src = "fn f() { let x = unsafe { *p }; }\n";
//! let ctx = FileCtx::new("crates/mpi/src/demo.rs", src);
//! let findings = check_file(&ctx);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "GL001");
//! ```

pub mod file;
pub mod lexer;
pub mod rules;

use file::FileCtx;
use lexer::TokKind;
use rules::{Finding, SERDE_BASELINES};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never analyzed: external stand-ins, build output, and the
/// lint fixtures (which contain violations *on purpose*).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Analyze every Rust source under `root` (a workspace checkout) and
/// return all findings, suppressed ones included, sorted by
/// `(file, line, rule)`.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    // Pass 1: lex everything once.
    let mut ctxs = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        ctxs.push(FileCtx::new(
            &rel.to_string_lossy().replace('\\', "/"),
            &src,
        ));
    }

    // Pass 2: file-scoped rules.
    let mut findings = Vec::new();
    for ctx in &ctxs {
        findings.extend(rules::check_file(ctx));
    }

    // Pass 3: the workspace-scoped half of GL005.
    findings.extend(gl005_missing_structs(&ctxs));

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    findings.dedup();
    Ok(findings)
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// GL005 (workspace half): every struct in the baseline table must still
/// exist somewhere — a rename would otherwise silently disable its check.
fn gl005_missing_structs(ctxs: &[FileCtx]) -> Vec<Finding> {
    let mut seen: BTreeMap<&str, bool> = SERDE_BASELINES.iter().map(|(n, _)| (*n, false)).collect();
    for ctx in ctxs {
        let toks = &ctx.toks;
        for k in 0..toks.len().saturating_sub(1) {
            if toks[k].kind == TokKind::Ident && toks[k].text == "struct" {
                // Next significant token is the name.
                if let Some(n) = ctx.next_sig(k + 1) {
                    if let Some(v) = seen.get_mut(toks[n].text.as_str()) {
                        *v = true;
                    }
                }
            }
        }
    }
    seen.iter()
        .filter(|(_, &found)| !found)
        .map(|(name, _)| Finding {
            rule: "GL005".into(),
            file: "crates/analyze/src/rules.rs".into(),
            line: 0,
            message: format!(
                "baseline struct `{name}` no longer exists in the workspace; update \
                 SERDE_BASELINES so schema-compat checking follows the rename"
            ),
            suppressed: false,
            reason: None,
        })
        .collect()
}

/// Render findings for humans: unsuppressed first, `file:line: RULE msg`,
/// then a one-line summary.
pub fn render_human(findings: &[Finding]) -> String {
    let mut s = String::new();
    let unsuppressed: Vec<&Finding> = findings.iter().filter(|f| !f.suppressed).collect();
    for f in &unsuppressed {
        s.push_str(&format!(
            "{}:{}: {} {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    let suppressed = findings.len() - unsuppressed.len();
    s.push_str(&format!(
        "greenla-lint: {} finding(s), {} suppressed\n",
        unsuppressed.len(),
        suppressed
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_discovery_walks_upward() {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/analyze").is_dir());
    }
}
