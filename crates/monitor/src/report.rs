//! Per-node reports and cross-node aggregation.

use crate::events;
use greenla_rapl::Domain;
use serde::{Deserialize, Serialize};

/// Counter deltas over one phase of the monitored region.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    pub label: String,
    /// Virtual seconds spent in the phase.
    pub duration_s: f64,
    /// Per-event energy increments in µJ (same order as the report's
    /// `events`).
    pub values_uj: Vec<i64>,
}

/// What one monitoring rank measured for its node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node index within the job.
    pub node: usize,
    /// World rank of the monitoring rank.
    pub monitor_rank: usize,
    /// Monitored event names.
    pub events: Vec<String>,
    /// Virtual time at `start_monitoring` (µs, as `PAPI_get_real_usec`
    /// reports).
    pub start_usec: u64,
    /// Virtual time at `end_monitoring` (µs).
    pub end_usec: u64,
    /// Total per-event counts over the monitored region (µJ).
    pub totals_uj: Vec<i64>,
    /// Phase-by-phase breakdown (covers the region in order).
    pub phases: Vec<PhaseReport>,
}

impl NodeReport {
    /// Duration of the monitored region in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_usec.saturating_sub(self.start_usec)) as f64 / 1e6
    }

    /// Total energy in joules for one RAPL domain, summed over sockets.
    pub fn energy_j(&self, domain: Domain) -> f64 {
        self.events
            .iter()
            .zip(&self.totals_uj)
            .filter_map(|(name, &uj)| {
                let code = events::parse(name)?;
                (code.domain == domain).then_some(uj as f64 / 1e6)
            })
            .sum()
    }

    /// Energy in joules for one `(domain, socket)` pair, if monitored.
    pub fn energy_j_socket(&self, domain: Domain, socket: usize) -> Option<f64> {
        self.events
            .iter()
            .zip(&self.totals_uj)
            .find_map(|(name, &uj)| {
                let code = events::parse(name)?;
                (code.domain == domain && code.socket == socket).then_some(uj as f64 / 1e6)
            })
    }

    /// Whole-node energy (all monitored events) in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.totals_uj.iter().map(|&uj| uj as f64 / 1e6).sum()
    }

    /// Mean node power over the region in watts.
    pub fn mean_power_w(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.total_energy_j() / d
        } else {
            0.0
        }
    }
}

/// Job-level aggregation across every node's report — what the paper's
/// charts plot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    pub nodes: usize,
    /// Longest monitored duration across nodes (the job's wall time).
    pub duration_s: f64,
    /// Sum of all monitored energies (J).
    pub total_energy_j: f64,
    /// Package energy, all sockets all nodes (J).
    pub pkg_energy_j: f64,
    /// DRAM energy, all sockets all nodes (J).
    pub dram_energy_j: f64,
    /// Package energy split by socket index `[socket0, socket1]` (J).
    pub pkg_by_socket_j: [f64; 2],
    /// DRAM energy split by socket index (J).
    pub dram_by_socket_j: [f64; 2],
    /// Mean job power = total energy / duration (W).
    pub mean_power_w: f64,
}

impl JobSummary {
    /// Aggregate node reports (panics on an empty slice).
    pub fn aggregate(reports: &[NodeReport]) -> JobSummary {
        assert!(!reports.is_empty(), "no node reports to aggregate");
        let nodes = reports.len();
        let duration_s = reports
            .iter()
            .map(NodeReport::duration_s)
            .fold(0.0, f64::max);
        let mut pkg = 0.0;
        let mut dram = 0.0;
        let mut pkg_s = [0.0; 2];
        let mut dram_s = [0.0; 2];
        for r in reports {
            pkg += r.energy_j(Domain::Package);
            dram += r.energy_j(Domain::Dram);
            for s in 0..2 {
                pkg_s[s] += r.energy_j_socket(Domain::Package, s).unwrap_or(0.0);
                dram_s[s] += r.energy_j_socket(Domain::Dram, s).unwrap_or(0.0);
            }
        }
        let total = pkg + dram;
        JobSummary {
            nodes,
            duration_s,
            total_energy_j: total,
            pkg_energy_j: pkg,
            dram_energy_j: dram,
            pkg_by_socket_j: pkg_s,
            dram_by_socket_j: dram_s,
            mean_power_w: if duration_s > 0.0 {
                total / duration_s
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> NodeReport {
        NodeReport {
            node: 0,
            monitor_rank: 7,
            events: vec![
                "powercap:::ENERGY_UJ:ZONE0".into(),
                "powercap:::ENERGY_UJ:ZONE1".into(),
                "powercap:::ENERGY_UJ:ZONE0_SUBZONE1".into(),
                "powercap:::ENERGY_UJ:ZONE1_SUBZONE1".into(),
            ],
            start_usec: 1_000_000,
            end_usec: 3_000_000,
            totals_uj: vec![200_000_000, 100_000_000, 20_000_000, 10_000_000],
            phases: vec![],
        }
    }

    #[test]
    fn domain_sums() {
        let r = report();
        assert!((r.energy_j(Domain::Package) - 300.0).abs() < 1e-9);
        assert!((r.energy_j(Domain::Dram) - 30.0).abs() < 1e-9);
        assert_eq!(r.energy_j_socket(Domain::Package, 1), Some(100.0));
        assert_eq!(r.energy_j_socket(Domain::Pp0, 0), None);
    }

    #[test]
    fn duration_and_power() {
        let r = report();
        assert!((r.duration_s() - 2.0).abs() < 1e-12);
        assert!((r.mean_power_w() - 165.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_across_nodes() {
        let mut r2 = report();
        r2.node = 1;
        r2.end_usec = 4_000_000; // slower node
        let s = JobSummary::aggregate(&[report(), r2]);
        assert_eq!(s.nodes, 2);
        assert!((s.duration_s - 3.0).abs() < 1e-12);
        assert!((s.pkg_energy_j - 600.0).abs() < 1e-9);
        assert!((s.dram_energy_j - 60.0).abs() < 1e-9);
        assert!((s.pkg_by_socket_j[0] - 400.0).abs() < 1e-9);
        assert!((s.pkg_by_socket_j[1] - 200.0).abs() < 1e-9);
        assert!((s.mean_power_w - 660.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no node reports")]
    fn aggregate_empty_panics() {
        let _ = JobSummary::aggregate(&[]);
    }
}
