//! The metric tables: every published name with its unit, its direction
//! and — for end-to-end metrics — the bound `compare` holds it to.
//! `BENCHMARK.json` repeats the names for the driver; a unit test keeps the
//! two in step.

use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may move before `compare` calls a breach.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Host-clock metric: may worsen by this share of the base median.
    Worse(f64),
    /// Virtual-clock fingerprint: must be bit-identical, in both directions.
    Exact,
    /// Virtual-clock fingerprint with a known drift: relative difference at
    /// most this, in both directions.
    Within(f64),
    /// Must not increase at all.
    NoIncrease,
}

/// Relative tolerance on simulated Joules between identical-seed runs. The
/// simulated RAPL drifts by a few µJ per monitored window today
/// (`rapl.energy_drift_points`): 4.840238 … 4.840242 J over passes of
/// `sparse_batched`, 8e-7 of the total, so 1e-6 trips on an unlucky pair.
/// Any change to the energy model moves far more than this.
pub const ENERGY_TOL: f64 = 1e-5;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

/// The eight end-to-end metrics, reported per workload. The five
/// `Bound::Worse` rows are host-clock measurements and are the ones
/// `BENCHMARK.json` lists (its contract wants metrics that vary run to run
/// and are never zero); the other three are deterministic and reach the
/// driver as `sim.*` per-layer metrics and as `attempted`/`failed`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Worse(0.25),
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Worse(0.25),
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Worse(0.25),
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Worse(0.15),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Worse(0.25),
    },
    EndToEnd {
        name: "virtual_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "energy_j",
        unit: "J",
        better: Better::Lower,
        bound: Bound::Within(ENERGY_TOL),
    },
    EndToEnd {
        name: "fail_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::NoIncrease,
    },
];

/// Per-layer metrics, `<module>.<metric>`. No bounds: they say where an
/// end-to-end change came from, not whether it is acceptable. README.md
/// maps each to the end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str, Better); 76] = [
    // The virtual clock: deterministic per seed, must not move under a
    // simulator-only change.
    ("sim.virtual_s", "sim_s", Lower),
    ("sim.energy_j", "J", Lower),
    // The OS's view of the untraced passes.
    ("host.user_s", "s", Lower),
    ("host.sys_s", "s", Lower),
    ("host.sys_frac", "ratio", Lower),
    ("host.minor_faults", "count", Lower),
    ("host.vol_ctx_switches", "count", Lower),
    ("host.rss_growth_mib_per_pass", "MiB", Lower),
    ("host.steal_frac", "ratio", Lower),
    ("host.passes_discarded", "count", Lower),
    ("host.trace_overhead_frac", "ratio", Lower),
    ("harness.serial_sum_s", "s", Lower),
    ("harness.fanout_speedup", "ratio", Higher),
    ("harness.figures_s", "s", Lower),
    ("harness.output_s", "s", Lower),
    ("harness.output_bytes", "count", Lower),
    ("harness.aggregate_s", "s", Lower),
    ("harness.ledger_coverage", "ratio", Higher),
    ("harness.mirror_ok", "count", Higher),
    ("harness.claims_passed", "count", Higher),
    ("linalg.generate_s", "s", Lower),
    ("linalg.from_dense_s", "s", Lower),
    ("linalg.residual_s", "s", Lower),
    ("linalg.dgemm_thin_gflops", "GF/s", Higher),
    ("linalg.dgemm_square_gflops", "GF/s", Higher),
    ("linalg.dtrsm_gflops", "GF/s", Higher),
    ("linalg.spmv_block_ns_per_nnz", "ns", Lower),
    ("linalg.spmv_tiny_ns_per_nnz", "ns", Lower),
    ("linalg.flops", "count", Lower),
    ("linalg.bytes_computed", "count", Lower),
    ("ime.solve_s", "s", Lower),
    ("ime.seq_solve_s", "s", Lower),
    ("ime.host_gflops", "GF/s", Higher),
    ("scalapack.solve_s", "s", Lower),
    ("scalapack.getrf_s", "s", Lower),
    ("scalapack.host_gflops", "GF/s", Higher),
    ("cg.solve_s", "s", Lower),
    ("cg.host_gflops", "GF/s", Higher),
    ("cg.iterations", "count", Lower),
    ("cg.us_per_iter", "us", Lower),
    ("mpi.msgs", "count", Lower),
    ("mpi.volume_elems", "count", Lower),
    ("mpi.payload_copies", "count", Lower),
    ("mpi.p2p_ns_per_msg", "ns", Lower),
    ("mpi.p2p_ns_per_msg.event", "ns", Lower),
    ("mpi.allreduce_scalar_us", "us", Lower),
    ("mpi.spinup_us_per_rank", "us", Lower),
    ("mpi.spinup_us_per_rank.p4096", "us", Lower),
    ("mpi.barrier_ns_per_rank.p4096", "ns", Lower),
    ("mpi.bcast_1kib_ns_per_rank.p4096", "ns", Lower),
    ("mpi.allreduce_1kib_ns_per_rank.p4096", "ns", Lower),
    ("mpi.bcast_8mib_p64_s", "s", Lower),
    ("mpi.allreduce_8mib_p64_s", "s", Lower),
    ("mpi.allgather_8mib_p64_s", "s", Lower),
    ("mpi.run_teardown_s", "s", Lower),
    ("mpi.engine_ratio", "ratio", Lower),
    ("monitor.protocol_s.p16", "s", Lower),
    ("monitor.protocol_s.p64", "s", Lower),
    ("monitor.overhead_frac_virtual", "ratio", Lower),
    ("rapl.read_ns", "ns", Lower),
    ("rapl.energy_drift_points", "count", Lower),
    ("cluster.ledger_record_ns", "ns", Lower),
    ("model.max_band_dev", "ratio", Lower),
    ("model.traffic_mismatches", "count", Lower),
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.events", "count", Lower),
    ("check.overhead_frac", "ratio", Lower),
    ("faults.overhead_frac", "ratio", Lower),
    // Self time per layer of the traced pass (span − children): the rows
    // of the ledger itself. Floors and probes are not in them.
    ("harness.self_s", "s", Lower),
    ("linalg.self_s", "s", Lower),
    ("mpi.self_s", "s", Lower),
    ("monitor.self_s", "s", Lower),
    ("ime.self_s", "s", Lower),
    ("scalapack.self_s", "s", Lower),
    ("cg.self_s", "s", Lower),
    // (sequential kernel floors + input preparation) ÷ cpu_s: which corner
    // of the kernel-bound ↔ message-bound axis the workload sits in.
    ("host.floor_input_share", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde_json::Value;

    /// The driver's copy of the tables.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn text<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        let host: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| matches!(m.bound, Bound::Worse(_)))
            .collect();
        let listed = rows(&doc, "end_to_end");
        assert_eq!(listed.len(), host.len());
        for (row, m) in listed.iter().zip(host) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better.label());
            assert_eq!(
                Bound::Worse(row.get("bound").and_then(Value::as_f64).unwrap()),
                m.bound
            );
        }

        let listed = rows(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit);
            assert_eq!(text(row, "better"), better.label());
        }
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
    }
}
