//! Message-count and volume accounting.
//!
//! The paper characterises IMeP by its total number of messages `M` and
//! volume `V` (in floating-point elements); these counters let tests compare
//! a real simulated run against those closed forms. Every point-to-point
//! send is counted — collectives are trees of sends, so a broadcast over
//! `P` ranks counts `P − 1` messages, matching the paper's accounting.
//! Each rank tallies its own sends in a plain [`TrafficSnapshot`] and adds
//! it to the machine's [`Traffic`] once, when its body ends.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cluster-wide traffic counters. Ranks add their tallies when their
/// bodies end, so the counters are complete — and only meant to be read —
/// once the run joins (relaxed ordering suffices: the join orders them).
#[derive(Default)]
pub struct Traffic {
    msgs: AtomicU64,
    bytes: AtomicU64,
    intra_node_msgs: AtomicU64,
    intra_node_bytes: AtomicU64,
}

/// A point-in-time copy of the counters, or one rank's running tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Total point-to-point messages.
    pub msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Messages that stayed within a node.
    pub intra_node_msgs: u64,
    /// Bytes that stayed within a node.
    pub intra_node_bytes: u64,
}

impl TrafficSnapshot {
    /// Volume in f64 elements, the unit the paper uses.
    pub fn volume_elems(&self) -> u64 {
        self.bytes / 8
    }

    /// Count one message of `bytes` payload bytes.
    pub fn record(&mut self, bytes: u64, intra_node: bool) {
        self.msgs += 1;
        self.bytes += bytes;
        if intra_node {
            self.intra_node_msgs += 1;
            self.intra_node_bytes += bytes;
        }
    }

    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            intra_node_msgs: self.intra_node_msgs - earlier.intra_node_msgs,
            intra_node_bytes: self.intra_node_bytes - earlier.intra_node_bytes,
        }
    }
}

impl Traffic {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one rank's tally.
    pub fn add(&self, tally: &TrafficSnapshot) {
        self.msgs.fetch_add(tally.msgs, Ordering::Relaxed);
        self.bytes.fetch_add(tally.bytes, Ordering::Relaxed);
        self.intra_node_msgs
            .fetch_add(tally.intra_node_msgs, Ordering::Relaxed);
        self.intra_node_bytes
            .fetch_add(tally.intra_node_bytes, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            msgs: self.msgs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            intra_node_msgs: self.intra_node_msgs.load(Ordering::Relaxed),
            intra_node_bytes: self.intra_node_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The machine's counters after one rank that sent one message of
    /// each of `sizes` (`(bytes, intra_node)`).
    fn one_rank(sizes: &[(u64, bool)]) -> Traffic {
        let mut tally = TrafficSnapshot::default();
        for &(bytes, intra) in sizes {
            tally.record(bytes, intra);
        }
        let t = Traffic::new();
        t.add(&tally);
        t
    }

    #[test]
    fn records_and_splits_by_locality() {
        let s = one_rank(&[(100, true), (50, false)]).snapshot();
        assert_eq!(s.msgs, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.intra_node_msgs, 1);
        assert_eq!(s.intra_node_bytes, 100);
    }

    #[test]
    fn volume_in_elements() {
        assert_eq!(one_rank(&[(80, false)]).snapshot().volume_elems(), 10);
    }

    #[test]
    fn since_subtracts() {
        let t = one_rank(&[(8, false)]);
        let early = t.snapshot();
        t.add(&one_rank(&[(16, true)]).snapshot());
        let diff = t.snapshot().since(&early);
        assert_eq!(diff.msgs, 1);
        assert_eq!(diff.bytes, 16);
    }
}
