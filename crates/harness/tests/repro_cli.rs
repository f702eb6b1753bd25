//! `repro --exp` accepts exactly the experiments it knows: `none` runs
//! nothing and succeeds, a misspelt name exits 2 instead of silently doing
//! nothing.

use std::process::Command;

fn repro_exp(name: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", name, "--out"])
        .arg(std::env::temp_dir().join("greenla-repro-cli"))
        .output()
        .expect("spawn repro")
}

#[test]
fn exp_rejects_unknown_names_and_accepts_none() {
    let bad = repro_exp("fig8");
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("\"fig8\""), "{stderr}");

    let none = repro_exp("none");
    assert!(none.status.success(), "{none:?}");
}
