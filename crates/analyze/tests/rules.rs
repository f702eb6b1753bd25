//! Rule-level coverage: each fixture under `tests/fixtures/` carries a
//! known set of violations (plus clean and suppressed cases), and the
//! combined findings are pinned by a golden JSON file. Fixtures are
//! analyzed under virtual workspace paths so crate-scoped rules engage;
//! the `fixtures` directory itself is excluded from the workspace walk.
//!
//! Regenerate the golden after an intentional rule change with
//! `GREENLA_UPDATE_GOLDEN=1 cargo test -p greenla-analyze --test rules`.

use greenla_analyze::file::FileCtx;
use greenla_analyze::rules::{check_file, Finding};
use std::path::{Path, PathBuf};

/// Every fixture with its virtual path.
const FIXTURES: &[(&str, &str)] = &[
    ("gl000_suppress.rs", "crates/linalg/src/gl000_suppress.rs"),
    ("gl001_unsafe.rs", "crates/linalg/src/gl001_unsafe.rs"),
    ("gl002_guard.rs", "crates/mpi/src/gl002_guard.rs"),
    ("gl003_purity.rs", "crates/rapl/src/gl003_purity.rs"),
    ("gl005_serde.rs", "crates/harness/src/gl005_serde.rs"),
    // The GL006 fixture runs twice: inside the dispatch module (placement
    // legal, the unsafe/visibility/note obligations still bind) and
    // outside it (every kernel additionally violates placement).
    ("gl006_target_feature.rs", "crates/linalg/src/simd.rs"),
    (
        "gl006_target_feature.rs",
        "crates/harness/src/gl006_target_feature.rs",
    ),
    ("clean.rs", "crates/mpi/src/clean.rs"),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn analyze_fixture(file: &str, as_path: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(fixture_dir().join(file))
        .unwrap_or_else(|e| panic!("read fixture {file}: {e}"));
    check_file(&FileCtx::new(as_path, &src))
}

/// `(rule, line, suppressed)` triples, the shape assertions care about.
fn shape(findings: &[Finding]) -> Vec<(String, u32, bool)> {
    findings
        .iter()
        .map(|f| (f.rule.clone(), f.line, f.suppressed))
        .collect()
}

#[test]
fn gl000_flags_malformed_suppressions() {
    let f = analyze_fixture("gl000_suppress.rs", "crates/linalg/src/gl000_suppress.rs");
    assert_eq!(
        shape(&f),
        vec![("GL000".into(), 3, false), ("GL000".into(), 6, false)]
    );
    assert!(f[0].message.contains("GL999"), "{}", f[0].message);
    assert!(f[1].message.contains("no reason"), "{}", f[1].message);
}

#[test]
fn gl001_flags_undocumented_unsafe_and_honors_safety_comments() {
    let f = analyze_fixture("gl001_unsafe.rs", "crates/linalg/src/gl001_unsafe.rs");
    assert_eq!(
        shape(&f),
        vec![
            ("GL001".into(), 5, false),  // unsafe block, no SAFETY
            ("GL001".into(), 8, false),  // unsafe fn, no # Safety section
            ("GL001".into(), 13, false), // unsafe impl
            ("GL001".into(), 31, true),  // suppressed block
        ]
    );
    assert_eq!(
        f[3].reason.as_deref(),
        Some("fixture exercises the suppression path")
    );
}

#[test]
fn gl002_flags_guards_live_across_yields() {
    let f = analyze_fixture("gl002_guard.rs", "crates/mpi/src/gl002_guard.rs");
    assert_eq!(
        shape(&f),
        vec![
            ("GL002".into(), 7, false),  // held across block_current
            ("GL002".into(), 24, false), // revived guard across pump_mailbox
            ("GL002".into(), 38, true),  // suppressed abort-under-guard
        ]
    );
    assert!(f[0].message.contains("`st`"), "{}", f[0].message);
    // `good_drop` and `good_scope` (drop before yield, scope exit) stay clean.
    assert!(!f.iter().any(|x| (8..=18).contains(&x.line)));
    assert!(!f.iter().any(|x| (27..=33).contains(&x.line)));
}

#[test]
fn gl003_flags_wall_clock_reads_outside_tests() {
    let f = analyze_fixture("gl003_purity.rs", "crates/rapl/src/gl003_purity.rs");
    assert_eq!(
        shape(&f),
        vec![
            ("GL003".into(), 7, false),  // Instant::now
            ("GL003".into(), 11, false), // thread::sleep
            ("GL003".into(), 15, false), // thread_rng
            ("GL003".into(), 19, false), // SystemTime in a signature
            ("GL003".into(), 20, false), // SystemTime::now
            ("GL003".into(), 25, true),  // suppressed Instant::now
        ]
    );
    // The #[cfg(test)] module's wall-clock read (line 32) is exempt.
    assert!(!f.iter().any(|x| x.line > 27));
}

#[test]
fn gl005_flags_baseline_growth_without_serde_default() {
    let f = analyze_fixture("gl005_serde.rs", "crates/harness/src/gl005_serde.rs");
    assert_eq!(
        shape(&f),
        vec![
            ("GL005".into(), 13, false), // RunConfig.check, no default
            ("GL005".into(), 32, true),  // suppressed BenchSuite.schema_rev
        ]
    );
    assert!(f[0].message.contains("`check`"), "{}", f[0].message);
    // faults (field serde(default)), BenchEntry.spread (container-level
    // default), NotPersisted, and the unit FaultPlan all stay clean.
}

#[test]
fn gl006_enforces_the_dispatch_contract() {
    // Inside the dispatch module: placement is legal, so only the
    // unsafe / visibility / safety-note obligations fire.
    let f = analyze_fixture("gl006_target_feature.rs", "crates/linalg/src/simd.rs");
    assert_eq!(
        shape(&f),
        vec![
            ("GL001".into(), 19, false), // unsafe fn without SAFETY (GL001 overlaps)
            ("GL006".into(), 10, false), // safe #[target_feature] fn
            ("GL006".into(), 10, false), // …and it has no safety note
            ("GL006".into(), 15, false), // pub kernel
            ("GL006".into(), 19, false), // no SAFETY/dispatch note
            ("GL006".into(), 31, true),  // suppressed safe kernel
        ]
    );
    assert!(f[1].message.contains("not `unsafe`"), "{}", f[1].message);
    assert!(f[3].message.contains("`pub`"), "{}", f[3].message);
    // `good_kernel` (line 26) is clean inside the dispatch module.
    assert!(!f.iter().any(|x| x.line == 26));

    // Outside the dispatch module: every kernel also violates placement —
    // including the otherwise-compliant one.
    let f = analyze_fixture(
        "gl006_target_feature.rs",
        "crates/harness/src/gl006_target_feature.rs",
    );
    assert!(f
        .iter()
        .any(|x| x.rule == "GL006" && x.line == 26 && x.message.contains("outside")));
    assert_eq!(
        f.iter().filter(|x| x.message.contains("outside")).count(),
        5
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let f = analyze_fixture("clean.rs", "crates/mpi/src/clean.rs");
    assert!(f.is_empty(), "clean fixture produced {f:?}");
}

/// The combined findings of every fixture, pinned by a committed golden
/// file so any rule-behavior drift shows up as a reviewable diff.
#[test]
fn fixture_findings_match_the_golden_json() {
    let mut all = Vec::new();
    for (file, as_path) in FIXTURES {
        all.extend(analyze_fixture(file, as_path));
    }
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/findings.json");
    if std::env::var_os("GREENLA_UPDATE_GOLDEN").is_some() {
        let text = serde_json::to_string_pretty(&all).expect("serialize findings");
        std::fs::write(&golden_path, text + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; run with GREENLA_UPDATE_GOLDEN=1 to create it");
    let golden: Vec<Finding> = serde_json::from_str(&text).expect("parse golden");
    assert_eq!(
        all, golden,
        "fixture findings drifted from tests/golden/findings.json; if the \
         rule change is intentional, regenerate with GREENLA_UPDATE_GOLDEN=1"
    );
}

/// Acceptance criterion: the `greenla-lint` binary itself exits nonzero
/// on each violation fixture and zero on the clean one.
#[test]
fn lint_binary_exit_codes_track_fixture_verdicts() {
    let bin = env!("CARGO_BIN_EXE_greenla-lint");
    for (file, as_path) in FIXTURES {
        let status = std::process::Command::new(bin)
            .arg("--file")
            .arg(fixture_dir().join(file))
            .arg("--as")
            .arg(as_path)
            .arg("--quiet")
            .status()
            .expect("run greenla-lint");
        let expect_clean = *file == "clean.rs";
        assert_eq!(
            status.code(),
            Some(if expect_clean { 0 } else { 1 }),
            "unexpected exit for fixture {file}"
        );
    }
}

/// `--json` emits the same findings the library reports.
#[test]
fn lint_binary_json_output_round_trips() {
    let bin = env!("CARGO_BIN_EXE_greenla-lint");
    let out = std::process::Command::new(bin)
        .arg("--file")
        .arg(fixture_dir().join("gl001_unsafe.rs"))
        .arg("--as")
        .arg("crates/linalg/src/gl001_unsafe.rs")
        .arg("--json")
        .output()
        .expect("run greenla-lint --json");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 --json output");
    let parsed: Vec<Finding> = serde_json::from_str(&stdout).expect("parse --json output");
    assert_eq!(
        parsed,
        analyze_fixture("gl001_unsafe.rs", "crates/linalg/src/gl001_unsafe.rs")
    );
}
