//! Hardware specifications for the simulated cluster.

use serde::{Deserialize, Serialize};

/// A CPU model (one socket's worth of cores).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"Intel Xeon Platinum 8160"`.
    pub name: String,
    /// CPUID display family (6 for all modern Intel).
    pub family: u32,
    /// CPUID display model (0x55 for Skylake-SP); whether the CPU has RAPL
    /// counters at all keys off this, exactly as real RAPL readers must.
    pub model: u32,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Nominal frequency in GHz.
    pub freq_ghz: f64,
    /// Sustained double-precision rate per core in flop/s that the virtual
    /// clock charges against (peak × a realistic dgemm efficiency).
    pub sustained_flops_per_core: f64,
    /// Thermal design power per socket in watts (sanity bound for the power
    /// model).
    pub tdp_w: f64,
}

impl CpuSpec {
    /// Intel Xeon Platinum 8160 (Skylake-SP), the Marconi A3 partition CPU:
    /// 24 cores, 2.10 GHz. Peak DP per core with AVX-512 + 2 FMA ports is
    /// 2.1e9 × 32 = 67.2 Gflop/s; we charge a sustained 70 % of that.
    pub fn xeon_8160() -> Self {
        Self {
            name: "Intel Xeon Platinum 8160".into(),
            family: 6,
            model: 0x55,
            cores_per_socket: 24,
            freq_ghz: 2.10,
            sustained_flops_per_core: 0.70 * 2.1e9 * 32.0,
            tdp_w: 150.0,
        }
    }

    /// A small generic CPU used by tests and scaled-down functional runs;
    /// same family/model so the RAPL path is identical. The sustained rate
    /// is deliberately low (2 Gflop/s per core) so scaled-down matrix sizes
    /// reach the compute-bound regime at the same n/ranks ratios where the
    /// paper's full-size runs do — otherwise every functional-tier
    /// configuration would sit at the network-latency floor.
    pub fn test_cpu(cores_per_socket: usize) -> Self {
        Self {
            name: "greenla test CPU".into(),
            family: 6,
            model: 0x55,
            cores_per_socket,
            freq_ghz: 2.0,
            sustained_flops_per_core: 2.0e9,
            tdp_w: 30.0 + 5.0 * cores_per_socket as f64,
        }
    }
}

/// One compute node: `sockets` CPUs plus DRAM.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    pub cpu: CpuSpec,
    /// Sockets (packages) per node; Marconi A3 has 2.
    pub sockets: usize,
    /// DRAM capacity in GiB (192 on Marconi A3).
    pub dram_gib: usize,
    /// Per-socket DRAM bandwidth in bytes/s (6 DDR4-2666 channels ≈ 128 GB/s).
    pub dram_bw_bytes_per_s: f64,
}

impl NodeSpec {
    /// Marconi A3 node: 2 × Xeon 8160, 192 GiB DDR4.
    pub fn marconi_a3() -> Self {
        Self {
            cpu: CpuSpec::xeon_8160(),
            sockets: 2,
            dram_gib: 192,
            dram_bw_bytes_per_s: 128.0e9,
        }
    }

    /// Small node for tests: 2 sockets × `cores_per_socket` cores.
    pub fn test_node(cores_per_socket: usize) -> Self {
        Self {
            cpu: CpuSpec::test_cpu(cores_per_socket),
            sockets: 2,
            dram_gib: 16,
            dram_bw_bytes_per_s: 32.0e9,
        }
    }

    /// Total cores on the node.
    pub fn cores(&self) -> usize {
        self.sockets * self.cpu.cores_per_socket
    }
}

/// Point-to-point communication cost parameters (LogGP-style α/β model),
/// distinguishing intra-node (shared-memory transport) from inter-node
/// (network) messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    pub name: String,
    /// One-way network latency in seconds (α, inter-node).
    pub latency_s: f64,
    /// Network bandwidth in bytes/s (1/β, inter-node).
    pub bandwidth_bytes_per_s: f64,
    /// Latency of an intra-node (shared-memory) message.
    pub intra_latency_s: f64,
    /// Bandwidth of intra-node messaging in bytes/s.
    pub intra_bandwidth_bytes_per_s: f64,
    /// CPU overhead charged to sender and receiver per message (o in LogP).
    pub per_message_overhead_s: f64,
}

impl Interconnect {
    /// Intel Omni-Path 100 Gb/s, the Marconi interconnect: ~1 µs wire
    /// latency plus MPI software stack ≈ 1.8 µs end-to-end small-message
    /// latency, ~12.5 GB/s payload bandwidth.
    pub fn omni_path() -> Self {
        Self {
            name: "Intel Omni-Path 100".into(),
            latency_s: 1.8e-6,
            bandwidth_bytes_per_s: 12.5e9,
            intra_latency_s: 0.3e-6,
            intra_bandwidth_bytes_per_s: 40.0e9,
            per_message_overhead_s: 0.2e-6,
        }
    }

    /// Time for one message of `bytes` bytes between two ranks; `same_node`
    /// selects the shared-memory parameters.
    pub fn message_time(&self, bytes: u64, same_node: bool) -> f64 {
        let (alpha, bw) = if same_node {
            (self.intra_latency_s, self.intra_bandwidth_bytes_per_s)
        } else {
            (self.latency_s, self.bandwidth_bytes_per_s)
        };
        alpha + bytes as f64 / bw
    }
}

/// The whole simulated machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    pub node: NodeSpec,
    /// Number of nodes available.
    pub nodes: usize,
    pub net: Interconnect,
}

impl ClusterSpec {
    /// The paper's testbed: Marconi A3 (we size the partition per job; the
    /// real machine has 3188 nodes).
    pub fn marconi_a3(nodes: usize) -> Self {
        Self {
            node: NodeSpec::marconi_a3(),
            nodes,
            net: Interconnect::omni_path(),
        }
    }

    /// Small test cluster.
    pub fn test_cluster(nodes: usize, cores_per_socket: usize) -> Self {
        Self {
            node: NodeSpec::test_node(cores_per_socket),
            nodes,
            net: Interconnect::omni_path(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marconi_node_shape() {
        let n = NodeSpec::marconi_a3();
        assert_eq!(n.cores(), 48);
        assert_eq!(n.sockets, 2);
        assert_eq!(n.cpu.cores_per_socket, 24);
        assert_eq!(n.dram_gib, 192);
    }

    #[test]
    fn marconi_node_peak_near_paper_value() {
        // The paper quotes 3.2 TFlop/s peak per node; our sustained rate
        // must be below peak but the same order of magnitude.
        let n = NodeSpec::marconi_a3();
        let sustained = n.cores() as f64 * n.cpu.sustained_flops_per_core;
        assert!(
            sustained > 1.5e12 && sustained < 3.2e12,
            "sustained {sustained:.3e}"
        );
    }

    #[test]
    fn skylake_cpuid() {
        let c = CpuSpec::xeon_8160();
        assert_eq!((c.family, c.model), (6, 0x55));
    }

    #[test]
    fn message_time_monotone_in_size() {
        let net = Interconnect::omni_path();
        assert!(net.message_time(8, false) < net.message_time(8 << 20, false));
        // Intra-node messaging is cheaper.
        assert!(net.message_time(4096, true) < net.message_time(4096, false));
    }

    #[test]
    fn cluster_totals() {
        // Table 1: 27 full-load Marconi nodes hold the paper's 1296 ranks.
        let c = ClusterSpec::marconi_a3(27);
        let p = crate::placement::Placement::layout(
            &c.node,
            1296,
            crate::placement::LoadLayout::FullLoad,
        )
        .unwrap();
        assert_eq!(p.nodes_used(), c.nodes);
    }
}
