//! Message-count and volume accounting.
//!
//! The paper characterises IMeP by its total number of messages `M` and
//! volume `V` (in floating-point elements); these counters let tests compare
//! a real simulated run against those closed forms. Every point-to-point
//! send is counted — collectives are trees of sends, so a broadcast over
//! `P` ranks counts `P − 1` messages, matching the paper's accounting.
//! Each rank tallies its own sends in a plain [`TrafficSnapshot`]; the
//! machine banks it when the rank's body ends and sums the ranks' tallies
//! once the run stops.

/// Message and byte counts: one rank's running tally, or a machine's
/// total over its runs.
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

    /// Add another tally to this one.
    pub fn add(&mut self, other: &TrafficSnapshot) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.intra_node_msgs += other.intra_node_msgs;
        self.intra_node_bytes += other.intra_node_bytes;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The tally of one rank that sent one message of each of `sizes`
    /// (`(bytes, intra_node)`).
    fn one_rank(sizes: &[(u64, bool)]) -> TrafficSnapshot {
        let mut tally = TrafficSnapshot::default();
        for &(bytes, intra) in sizes {
            tally.record(bytes, intra);
        }
        tally
    }

    #[test]
    fn records_and_splits_by_locality() {
        let s = one_rank(&[(100, true), (50, false)]);
        assert_eq!(s.msgs, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.intra_node_msgs, 1);
        assert_eq!(s.intra_node_bytes, 100);
    }

    #[test]
    fn volume_in_elements() {
        assert_eq!(one_rank(&[(80, false)]).volume_elems(), 10);
    }

    #[test]
    fn since_subtracts() {
        let mut t = one_rank(&[(8, false)]);
        let early = t;
        t.add(&one_rank(&[(16, true)]));
        let diff = t.since(&early);
        assert_eq!(diff.msgs, 1);
        assert_eq!(diff.bytes, 16);
        assert_eq!(diff.intra_node_bytes, 16);
    }
}
