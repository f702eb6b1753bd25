//! Machine parameters extracted from the cluster spec — one struct so the
//! model and the simulator provably share constants.

use greenla_cluster::spec::ClusterSpec;

/// Flat parameter set for the analytic model.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Sustained flop/s per core.
    pub rate: f64,
    /// DRAM bytes/s available to one core.
    pub bw_per_core: f64,
    /// Per-message CPU overhead (s).
    pub o: f64,
    /// Inter-node latency (s).
    pub alpha: f64,
    /// Inter-node seconds per byte.
    pub beta: f64,
    /// Intra-node latency (s).
    pub alpha_intra: f64,
    /// Intra-node seconds per byte.
    pub beta_intra: f64,
}

impl MachineParams {
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        Self {
            rate: spec.node.cpu.sustained_flops_per_core,
            bw_per_core: spec.node.dram_bw_bytes_per_s / spec.node.cpu.cores_per_socket as f64,
            o: spec.net.per_message_overhead_s,
            alpha: spec.net.latency_s,
            beta: 1.0 / spec.net.bandwidth_bytes_per_s,
            alpha_intra: spec.net.intra_latency_s,
            beta_intra: 1.0 / spec.net.intra_bandwidth_bytes_per_s,
        }
    }

    /// The same machine with every message at intra-node distance: what
    /// the closed forms charge a job that fits on one node.
    pub fn intra_node(self) -> Self {
        Self {
            alpha: self.alpha_intra,
            beta: self.beta_intra,
            ..self
        }
    }

    /// Time a point-to-point message of `bytes` adds to the critical path
    /// (sender overhead + transport + receiver overhead), assuming
    /// inter-node distance — the common case once jobs span nodes.
    pub fn p2p(&self, bytes: f64) -> f64 {
        2.0 * self.o + self.alpha + bytes * self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_matches_spec() {
        let spec = ClusterSpec::marconi_a3(4);
        let p = MachineParams::from_spec(&spec);
        assert_eq!(p.rate, spec.node.cpu.sustained_flops_per_core);
        assert_eq!(p.alpha, 1.8e-6);
        assert!((p.beta - 8.0e-11).abs() < 1e-15);
        assert!(p.bw_per_core > 5.0e9 && p.bw_per_core < 6.0e9);
    }

    #[test]
    fn p2p_monotone() {
        let p = MachineParams::from_spec(&ClusterSpec::marconi_a3(1));
        assert!(p.p2p(8.0) < p.p2p(1e6));
    }
}
