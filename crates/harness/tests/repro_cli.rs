//! `repro` refuses values it does not know: a misspelt `--exp`, `--tier`
//! or `--scheduler`, a `--reps` that is not a positive count, a `--ranks`
//! count that does not fill whole nodes under every layout, or `--check`
//! or `--faults` with `--tier model` (which runs no campaign to check or
//! fault), exits 2 naming the value instead of silently doing nothing or
//! panicking mid-campaign; `--exp none` runs nothing and succeeds.

use std::process::Command;

/// `(flag and value, expected exit code)`. Every row runs with
/// `--exp none` appended, so a value that slips through finishes at once
/// with exit 0 instead of starting a campaign.
const CASES: [(&[&str], i32); 9] = [
    (&["--exp", "fig8"], 2),
    (&["--tier", "bogus"], 2),
    (&["--scheduler", "fifo"], 2),
    (&["--reps", "0"], 2),
    (&["--ranks", "6"], 2),
    (&["--ranks", "0"], 2),
    (&["--tier", "model", "--check"], 2),
    (&["--tier", "model", "--faults", "plan.json"], 2),
    (&[], 0),
];

#[test]
fn unknown_values_exit_2_and_exp_none_succeeds() {
    for (args, code) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .args(["--exp", "none", "--out"])
            .arg(std::env::temp_dir().join("greenla-repro-cli"))
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        if let Some(value) = args.get(1) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("{value:?}")), "{args:?}: {stderr}");
        }
    }
}
