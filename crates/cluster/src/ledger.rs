//! Per-core activity ledger.
//!
//! The simulated MPI runtime records, for every core, the virtual-time
//! intervals during which the core was busy computing or communicating, and
//! per-socket DRAM traffic events. The RAPL layer later integrates the power
//! model over these records to answer "energy consumed up to time *t*" —
//! which is exactly what the hardware's energy-status MSRs report.
//!
//! Each core is driven by exactly one rank thread, so per-core interval
//! vectors are `Mutex`-protected but effectively uncontended; the mutex only
//! arbitrates against concurrent *readers* (RAPL queries from monitoring
//! ranks on the same node).

use crate::spec::NodeSpec;
use crate::topology::CoreId;
use parking_lot::Mutex;

/// What a core was doing during a busy interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityKind {
    /// Floating-point work (charged via `compute`).
    Compute,
    /// Message progression, copies, or synchronisation spinning.
    Comm,
}

/// One busy interval of a core.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
    pub kind: ActivityKind,
    /// Flops executed during the interval (zero for `Comm`).
    pub flops: u64,
}

/// One DRAM traffic event: `bytes` moved at virtual time `t` on a socket's
/// memory controller.
#[derive(Clone, Copy, Debug)]
pub struct DramEvent {
    pub t: f64,
    pub bytes: u64,
}

/// The cluster-wide activity record for one run.
pub struct Ledger {
    node_spec: NodeSpec,
    nodes: usize,
    /// `cores[node * cores_per_node + flat_core]`
    cores: Vec<Mutex<Vec<Interval>>>,
    /// `dram[node * sockets + socket]`
    dram: Vec<Mutex<Vec<DramEvent>>>,
}

impl Ledger {
    pub fn new(node_spec: NodeSpec, nodes: usize) -> Self {
        let cores = (0..nodes * node_spec.cores())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let dram = (0..nodes * node_spec.sockets)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Self {
            node_spec,
            nodes,
            cores,
            dram,
        }
    }

    pub fn node_spec(&self) -> &NodeSpec {
        &self.node_spec
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn core_slot(&self, core: CoreId) -> &Mutex<Vec<Interval>> {
        let idx = core.node * self.node_spec.cores() + core.flat_in_node(&self.node_spec);
        &self.cores[idx]
    }

    fn dram_slot(&self, node: usize, socket: usize) -> &Mutex<Vec<DramEvent>> {
        &self.dram[node * self.node_spec.sockets + socket]
    }

    /// Record a busy interval on a core. Intervals of one core must be
    /// appended in non-decreasing start order (each rank owns one core and
    /// its clock only moves forward).
    pub fn record(&self, core: CoreId, interval: Interval) {
        assert!(
            interval.end >= interval.start,
            "interval ends before it starts: {interval:?}"
        );
        let mut v = self.core_slot(core).lock();
        if let Some(last) = v.last() {
            assert!(
                interval.start >= last.start - 1e-12,
                "non-monotonic interval on {core:?}: {interval:?} after {last:?}"
            );
        }
        v.push(interval);
    }

    /// Record DRAM traffic on a node's socket.
    pub fn record_dram(&self, node: usize, socket: usize, t: f64, bytes: u64) {
        self.dram_slot(node, socket)
            .lock()
            .push(DramEvent { t, bytes });
    }

    /// Seconds core `core` spent in activity `kind` up to virtual time `t`.
    pub fn core_busy_until(&self, core: CoreId, kind: ActivityKind, t: f64) -> f64 {
        self.core_slot(core)
            .lock()
            .iter()
            .filter(|iv| iv.kind == kind && iv.start < t)
            .map(|iv| iv.end.min(t) - iv.start)
            .sum()
    }

    /// Total busy seconds in `kind`, summed over every core of `(node,
    /// socket)`, up to time `t`.
    pub fn socket_busy_until(&self, node: usize, socket: usize, kind: ActivityKind, t: f64) -> f64 {
        (0..self.node_spec.cpu.cores_per_socket)
            .map(|c| self.core_busy_until(CoreId::new(node, socket, c), kind, t))
            .sum()
    }

    /// DRAM bytes moved on `(node, socket)` up to time `t`.
    pub fn dram_bytes_until(&self, node: usize, socket: usize, t: f64) -> u64 {
        self.dram_slot(node, socket)
            .lock()
            .iter()
            .filter(|e| e.t <= t)
            .map(|e| e.bytes)
            .sum()
    }

    /// Total flops across the whole run.
    pub fn total_flops(&self) -> u64 {
        self.cores
            .iter()
            .map(|m| m.lock().iter().map(|iv| iv.flops).sum::<u64>())
            .sum()
    }

    /// Latest interval end across the cluster (the run's virtual makespan so
    /// far).
    pub fn max_time(&self) -> f64 {
        self.cores
            .iter()
            .map(|m| m.lock().last().map_or(0.0, |iv| iv.end))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    fn ledger() -> Ledger {
        Ledger::new(NodeSpec::test_node(4), 2)
    }

    fn iv(start: f64, end: f64, kind: ActivityKind, flops: u64) -> Interval {
        Interval {
            start,
            end,
            kind,
            flops,
        }
    }

    #[test]
    fn busy_time_accumulates_and_clips() {
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        l.record(c, iv(0.0, 1.0, ActivityKind::Compute, 100));
        l.record(c, iv(2.0, 4.0, ActivityKind::Compute, 200));
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 10.0), 3.0);
        // Clip at t = 3.0: first interval full, second half.
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 3.0), 2.0);
        // Before anything started.
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 0.0), 0.0);
    }

    #[test]
    fn kinds_are_separated() {
        let l = ledger();
        let c = CoreId::new(0, 1, 2);
        l.record(c, iv(0.0, 1.0, ActivityKind::Comm, 0));
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 2.0), 0.0);
        assert_eq!(l.core_busy_until(c, ActivityKind::Comm, 2.0), 1.0);
    }

    #[test]
    fn socket_aggregation() {
        let l = ledger();
        l.record(
            CoreId::new(1, 0, 0),
            iv(0.0, 1.0, ActivityKind::Compute, 10),
        );
        l.record(
            CoreId::new(1, 0, 3),
            iv(0.0, 2.0, ActivityKind::Compute, 20),
        );
        l.record(
            CoreId::new(1, 1, 0),
            iv(0.0, 5.0, ActivityKind::Compute, 40),
        );
        assert_eq!(l.socket_busy_until(1, 0, ActivityKind::Compute, 10.0), 3.0);
        assert_eq!(l.total_flops(), 70);
    }

    #[test]
    fn dram_accounting() {
        let l = ledger();
        l.record_dram(0, 0, 0.5, 1000);
        l.record_dram(0, 0, 1.5, 500);
        l.record_dram(0, 1, 0.1, 42);
        assert_eq!(l.dram_bytes_until(0, 0, 1.0), 1000);
        assert_eq!(l.dram_bytes_until(0, 0, 2.0), 1500);
        assert_eq!(l.dram_bytes_until(0, 1, 2.0), 42);
    }

    #[test]
    fn max_time_tracks_latest_end() {
        let l = ledger();
        assert_eq!(l.max_time(), 0.0);
        l.record(CoreId::new(0, 0, 1), iv(0.0, 3.5, ActivityKind::Compute, 1));
        l.record(CoreId::new(1, 1, 0), iv(0.0, 7.25, ActivityKind::Comm, 0));
        assert_eq!(l.max_time(), 7.25);
    }

    #[test]
    fn socket_touched_detects_idle_socket() {
        let l = ledger();
        l.record(CoreId::new(0, 0, 0), iv(0.0, 1.0, ActivityKind::Compute, 1));
        assert_eq!(l.socket_busy_until(0, 0, ActivityKind::Compute, 2.0), 1.0);
        assert_eq!(l.socket_busy_until(0, 1, ActivityKind::Compute, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn rejects_backwards_interval() {
        let l = ledger();
        l.record(CoreId::new(0, 0, 0), iv(1.0, 0.5, ActivityKind::Compute, 0));
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn rejects_out_of_order_intervals() {
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        l.record(c, iv(5.0, 6.0, ActivityKind::Compute, 0));
        l.record(c, iv(1.0, 2.0, ActivityKind::Compute, 0));
    }
}
