//! Per-run accounting of what was injected, what the runtime saw, and
//! what it recovered from.

use serde::{Deserialize, Serialize};

use crate::sink::FaultNote;

/// Counts of faults by kind. Used three ways in a [`FaultReport`]:
/// injected (the plan fired), observed (the runtime noticed), recovered
/// (the runtime absorbed it without failing the run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    pub msg_drop: u64,
    pub msg_dup: u64,
    pub msg_delay: u64,
    pub rank_crash: u64,
    pub counter: u64,
    pub monitor: u64,
    pub column_loss: u64,
}

impl FaultCounts {
    /// Total across all kinds.
    pub fn total(&self) -> u64 {
        self.msg_drop
            + self.msg_dup
            + self.msg_delay
            + self.rank_crash
            + self.counter
            + self.monitor
            + self.column_loss
    }

    fn merge(&mut self, other: &FaultCounts) {
        self.msg_drop += other.msg_drop;
        self.msg_dup += other.msg_dup;
        self.msg_delay += other.msg_delay;
        self.rank_crash += other.rank_crash;
        self.counter += other.counter;
        self.monitor += other.monitor;
        self.column_loss += other.column_loss;
    }
}

/// What one faulted run did with its plan. `injected` counts plan entries
/// that actually fired; `observed` counts faults the runtime noticed
/// (a duplicate discarded, a delayed envelope matched, a degraded node);
/// `recovered` counts faults absorbed without aborting the run.
/// `degraded_nodes` lists nodes the monitor protocol downgraded to
/// "unmeasured".
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    pub injected: FaultCounts,
    pub observed: FaultCounts,
    pub recovered: FaultCounts,
    #[serde(default = "Default::default")]
    pub degraded_nodes: Vec<usize>,
}

impl FaultReport {
    /// Did anything fire at all?
    pub fn is_empty(&self) -> bool {
        self.injected.total() == 0
            && self.observed.total() == 0
            && self.recovered.total() == 0
            && self.degraded_nodes.is_empty()
    }

    /// Account for one thing that happened to a planned fault on a rank
    /// of node `node`: the one mapping from [`FaultNote`]s to tallies.
    pub fn note(&mut self, note: FaultNote, node: usize) {
        let FaultReport {
            injected,
            observed,
            recovered,
            degraded_nodes,
        } = self;
        match note {
            FaultNote::DropInjected(count) => {
                injected.msg_drop += count;
                observed.msg_drop += count;
            }
            FaultNote::DropRecovered(count) => recovered.msg_drop += count,
            FaultNote::DupInjected => injected.msg_dup += 1,
            FaultNote::DupDiscarded => {
                observed.msg_dup += 1;
                recovered.msg_dup += 1;
            }
            FaultNote::DelayInjected => injected.msg_delay += 1,
            FaultNote::DelayObserved => {
                observed.msg_delay += 1;
                recovered.msg_delay += 1;
            }
            FaultNote::RankCrashed => {
                injected.rank_crash += 1;
                observed.rank_crash += 1;
            }
            FaultNote::MonitorDied => injected.monitor += 1,
            FaultNote::Degraded => {
                observed.monitor += 1;
                recovered.monitor += 1;
                degraded_nodes.push(node);
            }
            FaultNote::ColumnLossInjected => {
                injected.column_loss += 1;
                observed.column_loss += 1;
            }
            FaultNote::ColumnLossRecovered => recovered.column_loss += 1,
        }
    }

    /// Fold another rank's (or node's) local report into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected.merge(&other.injected);
        self.observed.merge(&other.observed);
        self.recovered.merge(&other.recovered);
        self.degraded_nodes
            .extend(other.degraded_nodes.iter().copied());
        self.degraded_nodes.sort_unstable();
        self.degraded_nodes.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_dedups_nodes() {
        let mut a = FaultReport {
            injected: FaultCounts {
                msg_drop: 2,
                ..Default::default()
            },
            degraded_nodes: vec![1],
            ..Default::default()
        };
        let b = FaultReport {
            injected: FaultCounts {
                msg_drop: 1,
                monitor: 1,
                ..Default::default()
            },
            degraded_nodes: vec![1, 0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected.msg_drop, 3);
        assert_eq!(a.injected.monitor, 1);
        assert_eq!(a.degraded_nodes, vec![0, 1]);
        assert_eq!(a.injected.total(), 4);
    }

    #[test]
    fn empty_report_round_trips() {
        let r = FaultReport::default();
        assert!(r.is_empty());
        let text = serde_json::to_string(&r).expect("serialise");
        let back: FaultReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(r, back);
    }
}
