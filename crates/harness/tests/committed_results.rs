//! The committed `results/` pinned byte for byte.
//!
//! Every figure and claim table in `results/` is a slice of a dataset: the
//! functional ones of the committed `results/dataset.json`, the model ones of
//! `experiments::paper_dataset()`. This test takes the figures from the two
//! lists `repro` writes (`experiments::{functional_figures, model_figures}`)
//! and renders each artefact the way `repro` writes it — `to_csv` and
//! pretty JSON — so a change to any slice, claim or model evaluation shows
//! up as a diff against the committed file. `dataset.json` itself is only
//! read: it predates fields that now have serde defaults, so it does not
//! round-trip.

use greenla_harness::experiments as exp;
use greenla_harness::output::Figure;
use greenla_harness::run::Dataset;
use greenla_harness::summary::{self, ClaimCheck};
use std::path::PathBuf;

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed(name: &str) -> String {
    let path = results().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `name` as `repro` would write `text`, against the committed file.
fn pin(artefacts: &mut Vec<String>, name: String, text: String) {
    assert!(text == committed(&name), "results/{name} drifted");
    artefacts.push(name);
}

fn figure(artefacts: &mut Vec<String>, fig: Figure) {
    let json = serde_json::to_string_pretty(&fig).expect("serialise figure");
    pin(artefacts, format!("{}.csv", fig.id), fig.to_csv());
    pin(artefacts, format!("{}.json", fig.id), json);
}

fn claims(artefacts: &mut Vec<String>, tier: &str, title: &str, checks: &[ClaimCheck]) {
    let table = summary::claims_table(&format!("summary-{tier}"), title, checks);
    let json = serde_json::to_string_pretty(checks).expect("serialise claims");
    pin(artefacts, format!("summary_{tier}.csv"), table.to_csv());
    pin(artefacts, format!("summary_{tier}.json"), json);
}

#[test]
fn committed_results_are_what_repro_renders_from_their_datasets() {
    let mut artefacts = Vec::new();

    let ds: Dataset =
        serde_json::from_str(&committed("dataset.json")).expect("parse results/dataset.json");
    for fig in exp::functional_figures(&ds) {
        figure(&mut artefacts, fig);
    }
    let checks = summary::check_dataset(&ds);
    claims(
        &mut artefacts,
        "functional",
        "Paper claims vs functional tier",
        &checks,
    );

    let paper = exp::paper_dataset();
    for fig in exp::model_figures(&paper) {
        figure(&mut artefacts, fig);
    }
    let checks = summary::check_model(&paper);
    claims(
        &mut artefacts,
        "model",
        "Paper claims vs model tier (paper scale)",
        &checks,
    );
    pin(&mut artefacts, "table1.csv".into(), exp::table1().to_csv());

    artefacts.sort();
    artefacts.dedup();
    assert_eq!(artefacts.len(), 41, "{artefacts:?}");
}
