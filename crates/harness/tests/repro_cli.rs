//! `repro` refuses values it does not know: a misspelt `--exp` or
//! `--scheduler`, a `--reps` that is not a positive count, a `--ranks`
//! count that does not fill whole nodes under every layout, a `--ranks`
//! for an experiment without a rank grid, or a `--faults` plan that cannot
//! be read, names a key `FaultPlan` does not have, or injects nothing,
//! exits 2 naming the value instead of silently doing nothing or panicking
//! mid-campaign; `--exp none` runs nothing and succeeds.

use std::process::Command;

/// `(flag and value, expected exit code)`. Every row that names no
/// `--exp` runs with `--exp none` appended, so a value that slips through
/// finishes at once with exit 0 instead of starting a campaign. Plan paths
/// are relative to the directory [`PLANS`] are written to.
const CASES: [(&[&str], i32); 12] = [
    (&["--exp", "fig8"], 2),
    (&["--scheduler", "fifo"], 2),
    (&["--reps", "0"], 2),
    (&["--ranks", "6"], 2),
    (&["--ranks", "0"], 2),
    (&["--exp", "sparse", "--ranks", "32"], 2),
    (&["--exp", "table1", "--ranks", "32"], 2),
    (&["--faults", "missing.json"], 2),
    (&["--faults", "bad-entry.json"], 2),
    (&["--faults", "unknown-key.json"], 2),
    (&["--faults", "empty.json"], 2),
    (&[], 0),
];

/// The plan files the `--faults` rows read: a misspelt key inside an
/// entry, a misspelt top-level key that would drop the message faults,
/// and a plan with no fault at all.
const PLANS: [(&str, &str); 3] = [
    (
        "bad-entry.json",
        r#"{"messages":[{"src":1,"nth_sendd":2,"kind":"Duplicate"}]}"#,
    ),
    (
        "unknown-key.json",
        r#"{"message":[{"src":1,"nth_send":2,"kind":"Duplicate"}],"monitor_deaths":[1]}"#,
    ),
    ("empty.json", "{}"),
];

#[test]
fn unknown_values_exit_2_and_exp_none_succeeds() {
    let dir = std::env::temp_dir().join("greenla-repro-cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (name, text) in PLANS {
        std::fs::write(dir.join(name), text).expect("write plan");
    }
    for (args, code) in CASES {
        let exp: &[&str] = if args.contains(&"--exp") {
            &[]
        } else {
            &["--exp", "none"]
        };
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(args)
            .args(exp)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        // The refusal names every flag of the row and the first value.
        let stderr = String::from_utf8_lossy(&out.stderr);
        for flag in args.iter().step_by(2) {
            assert!(stderr.contains(flag), "{args:?}: {stderr}");
        }
        if let Some(value) = args.get(1) {
            assert!(stderr.contains(&format!("{value:?}")), "{args:?}: {stderr}");
        }
    }
}
