//! `file_management()` — per-processor result files.
//!
//! The paper's framework "creates one file for each processor … in each
//! file are saved the values of PAPI event counters for the processor in
//! which the node has run", in a human-readable format for later review.
//! This module writes and parses that format:
//!
//! ```text
//! # greenla monitor report v1
//! node 0
//! monitor_rank 47
//! start_usec 12
//! end_usec 20510
//! event powercap:::ENERGY_UJ:ZONE0 1234567
//! event powercap:::ENERGY_UJ:ZONE1 1200001
//! phase allocation 0.002100 12 11
//! phase execution 0.018398 1234555 1199990
//! ```

use crate::report::{NodeReport, PhaseReport};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &str = "# greenla monitor report v1";

/// Render a node report in the file format.
pub fn render(report: &NodeReport) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    let _ = writeln!(out, "node {}", report.node);
    let _ = writeln!(out, "monitor_rank {}", report.monitor_rank);
    let _ = writeln!(out, "start_usec {}", report.start_usec);
    let _ = writeln!(out, "end_usec {}", report.end_usec);
    for (name, val) in report.events.iter().zip(&report.totals_uj) {
        let _ = writeln!(out, "event {name} {val}");
    }
    for p in &report.phases {
        let _ = write!(
            out,
            "phase {} {:.17e}",
            p.label.replace(' ', "_"),
            p.duration_s
        );
        for v in &p.values_uj {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    out
}

/// File name for a node's report.
pub fn file_name(node: usize) -> String {
    format!("greenla_monitor_node{node:04}.txt")
}

/// Write the report into `dir` (created if needed); returns the path.
pub fn write_node_report(dir: &Path, report: &NodeReport) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(report.node));
    std::fs::write(&path, render(report))?;
    Ok(path)
}

/// Fill a header record's slot from its value; a second record of the same
/// key is an error.
fn set_once<T: std::str::FromStr>(
    slot: &mut Option<T>,
    key: &str,
    value: Option<&str>,
) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("repeated {key} record"));
    }
    *slot = value.and_then(|v| v.parse().ok());
    Ok(())
}

/// Parse a rendered report back. Rejects a file whose header records
/// repeat or whose phase rows do not carry one value per event.
pub fn parse(text: &str) -> Result<NodeReport, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err("bad magic line".into());
    }
    let mut node = None;
    let mut monitor_rank = None;
    let mut start_usec = None;
    let mut end_usec = None;
    let mut events = Vec::new();
    let mut totals = Vec::new();
    let mut phases = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("node") => set_once(&mut node, "node", it.next())?,
            Some("monitor_rank") => set_once(&mut monitor_rank, "monitor_rank", it.next())?,
            Some("start_usec") => set_once(&mut start_usec, "start_usec", it.next())?,
            Some("end_usec") => set_once(&mut end_usec, "end_usec", it.next())?,
            Some("event") => {
                let name = it.next().ok_or("event without name")?;
                let val: i64 = it
                    .next()
                    .ok_or("event without value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                events.push(name.to_string());
                totals.push(val);
            }
            Some("phase") => {
                let label = it.next().ok_or("phase without label")?.to_string();
                let duration_s: f64 = it
                    .next()
                    .ok_or("phase without duration")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let values: Result<Vec<i64>, _> = it.map(str::parse).collect();
                phases.push(PhaseReport {
                    label,
                    duration_s,
                    values_uj: values.map_err(|e| format!("{e}"))?,
                });
            }
            Some(other) => return Err(format!("unknown record {other:?}")),
            None => {}
        }
    }
    if let Some(p) = phases.iter().find(|p| p.values_uj.len() != events.len()) {
        return Err(format!(
            "phase {} has {} values for {} events",
            p.label,
            p.values_uj.len(),
            events.len()
        ));
    }
    Ok(NodeReport {
        node: node.ok_or("missing node")?,
        monitor_rank: monitor_rank.ok_or("missing monitor_rank")?,
        events,
        start_usec: start_usec.ok_or("missing start_usec")?,
        end_usec: end_usec.ok_or("missing end_usec")?,
        totals_uj: totals,
        phases,
    })
}

/// Load every report file found in `dir`, ordered by node.
pub fn load_all(dir: &Path) -> io::Result<Vec<NodeReport>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("greenla_monitor_node") && name.ends_with(".txt") {
            let text = std::fs::read_to_string(entry.path())?;
            out.push(parse(&text).map_err(io::Error::other)?);
        }
    }
    out.sort_by_key(|r| r.node);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> NodeReport {
        NodeReport {
            node: 3,
            monitor_rank: 191,
            events: vec![
                "powercap:::ENERGY_UJ:ZONE0".into(),
                "powercap:::ENERGY_UJ:ZONE1_SUBZONE1".into(),
            ],
            start_usec: 42,
            end_usec: 99_042,
            totals_uj: vec![5_000_000, 120_000],
            phases: vec![
                PhaseReport {
                    label: "allocation".into(),
                    duration_s: 0.01,
                    values_uj: vec![1_000_000, 20_000],
                },
                PhaseReport {
                    label: "execution".into(),
                    duration_s: 0.089,
                    values_uj: vec![4_000_000, 100_000],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let r = report();
        let text = render(&r);
        let back = parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn human_readable_header() {
        let text = render(&report());
        assert!(text.contains("node 3"));
        assert!(text.contains("event powercap:::ENERGY_UJ:ZONE0 5000000"));
        assert!(text.contains("phase allocation"));
    }

    #[test]
    fn write_and_load_all() {
        let dir = std::env::temp_dir().join(format!("greenla_mon_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r0 = report();
        r0.node = 0;
        let r1 = report();
        write_node_report(&dir, &r1).unwrap();
        write_node_report(&dir, &r0).unwrap();
        let all = load_all(&dir).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].node, 0);
        assert_eq!(all[1].node, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("nonsense").is_err());
        assert!(parse("# greenla monitor report v1\nwhat 1\n").is_err());
    }

    #[test]
    fn rejects_inconsistent_files() {
        let good = render(&report());
        assert!(parse(&good).is_ok());
        let mut short = report();
        short.phases[0].values_uj.pop();
        let mut long = report();
        long.phases[1].values_uj.push(7);
        // A second header record, slipped in before the first event row.
        let repeat = |line: &str| good.replacen("\nevent ", &format!("\n{line}\nevent "), 1);
        for (case, text) in [
            ("phase row with a value too few", render(&short)),
            ("phase row with a value too many", render(&long)),
            ("repeated node", repeat("node 4")),
            ("repeated monitor_rank", repeat("monitor_rank 191")),
            ("repeated start_usec", repeat("start_usec 1")),
            ("repeated end_usec", repeat("end_usec 99042")),
        ] {
            assert!(parse(&text).is_err(), "{case} accepted:\n{text}");
        }
    }
}
