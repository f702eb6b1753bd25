//! Structured diagnostics: rule identifiers and the violations they emit.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The checker's rule set. Each variant is one lint with a stable
/// identifier (printed in diagnostics, matched by tests and CI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rule {
    /// DL001 — every live rank is blocked and no progress is possible.
    Deadlock,
    /// MSG001 — a message was sent but never received (mailbox residue at
    /// finalize).
    MessageLeak,
    /// COLL001 — ranks of one communicator issued different collectives
    /// (kind, root, or element count) at the same sequence position.
    CollectiveMismatch,
    /// MON001 — `start_monitoring` ran on a rank that is not the highest
    /// rank of its node.
    MonitorDesignation,
    /// MON002 — `end_monitoring` ran on a node that never started
    /// monitoring.
    MonitorMissingStart,
    /// MON003 — `end_monitoring` was not immediately preceded by a barrier
    /// on the node communicator (the Figure-2 correctness rule).
    MonitorBarrierBeforeEnd,
    /// MON004 — a rank's work interval straddles its node's measurement
    /// end: the monitoring window missed part of the node's work (read
    /// from the activity ledger after the run).
    MonitorWindowStraddle,
}

impl Rule {
    /// Stable diagnostic identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::Deadlock => "DL001",
            Rule::MessageLeak => "MSG001",
            Rule::CollectiveMismatch => "COLL001",
            Rule::MonitorDesignation => "MON001",
            Rule::MonitorMissingStart => "MON002",
            Rule::MonitorBarrierBeforeEnd => "MON003",
            Rule::MonitorWindowStraddle => "MON004",
        }
    }

    /// One-line suggested fix, printed with every diagnostic.
    pub fn suggestion(&self) -> &'static str {
        match self {
            Rule::Deadlock => {
                "order matching sends/receives consistently and make every \
                 member of a communicator reach each collective"
            }
            Rule::MessageLeak => {
                "match every send with a receive on the same (source, \
                 communicator, tag) before the rank returns"
            }
            Rule::CollectiveMismatch => {
                "issue the same collective with the same root and element \
                 count on every member of the communicator, in the same order"
            }
            Rule::MonitorDesignation => {
                "call start_monitoring only on the highest rank of the node \
                 communicator (Comm::is_highest)"
            }
            Rule::MonitorMissingStart => {
                "call start_monitoring before the measured region; use \
                 monitored_run to get the full Figure-2 choreography"
            }
            Rule::MonitorBarrierBeforeEnd => {
                "barrier on the node communicator immediately before \
                 end_monitoring so the window covers all of the node's work"
            }
            Rule::MonitorWindowStraddle => {
                "stop monitoring only after every rank of the node finished \
                 its share (node barrier before end_monitoring)"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: which rule fired, on which ranks, when (virtual time),
/// and a human-readable account of what happened.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Global ranks involved (sorted, deduplicated).
    pub ranks: Vec<usize>,
    /// Virtual time of the violation in seconds (the latest involved
    /// clock when the rule fired).
    pub t_s: f64,
    /// What happened, naming ranks, tags, and communicators.
    pub message: String,
    /// Suggested fix (from [`Rule::suggestion`]).
    pub suggestion: String,
}

impl Violation {
    pub fn new(rule: Rule, mut ranks: Vec<usize>, t_s: f64, message: String) -> Self {
        ranks.sort_unstable();
        ranks.dedup();
        let suggestion = rule.suggestion().to_string();
        Self {
            rule,
            ranks,
            t_s,
            message,
            suggestion,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] t={:.6e}s ranks={:?}: {} (fix: {})",
            self.rule.id(),
            self.t_s,
            self.ranks,
            self.message,
            self.suggestion
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        let rules = [
            Rule::Deadlock,
            Rule::MessageLeak,
            Rule::CollectiveMismatch,
            Rule::MonitorDesignation,
            Rule::MonitorMissingStart,
            Rule::MonitorBarrierBeforeEnd,
            Rule::MonitorWindowStraddle,
        ];
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate rule ids: {ids:?}");
        assert!(ids.contains(&"DL001") && ids.contains(&"MON003"));
    }

    #[test]
    fn display_names_rule_ranks_and_fix() {
        let v = Violation::new(
            Rule::MessageLeak,
            vec![3, 1, 3],
            0.5,
            "rank 1 left a message for rank 3".into(),
        );
        assert_eq!(v.ranks, vec![1, 3], "sorted and deduplicated");
        let s = v.to_string();
        assert!(s.contains("[MSG001]"), "{s}");
        assert!(s.contains("rank 1 left a message"), "{s}");
        assert!(s.contains("fix:"), "{s}");
    }

    #[test]
    fn violations_round_trip_through_serde() {
        let v = Violation::new(
            Rule::Deadlock,
            vec![0, 1],
            1.25,
            "cycle: 0 -> 1 -> 0".into(),
        );
        let json = serde_json::to_string(&v).unwrap();
        let back: Violation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
