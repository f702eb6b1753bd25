//! Exporter contract tests: the Chrome Trace document of a tiny traced
//! solve is stable (golden), structurally well formed (monotone per-track
//! timestamps, matched B/E pairs, counter tracks present, monitoring
//! choreography visible), and tracing never perturbs virtual time.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::chrome_trace::traced_solve;
use greenla_harness::config::SolverChoice;
use greenla_harness::run::{run_once, run_prepared, Inputs, RunConfig};
use greenla_linalg::generate::SystemKind;
use greenla_monitor::report::JobSummary;
use greenla_mpi::TraceSink;
use serde_json::Value;

mod common;
use common::trace_fingerprint;

const N: usize = 64;
const RANKS: usize = 4;

/// Four ranks on a 2 × 2-core node, so they fill it exactly. CG gets the
/// SPD Poisson stencil (N is a perfect square), the dense solvers the
/// diagonally dominant draw.
fn cfg(solver: SolverChoice) -> RunConfig {
    RunConfig {
        n: N,
        ranks: RANKS,
        layout: LoadLayout::FullLoad,
        solver,
        system: match solver {
            SolverChoice::Cg { .. } => SystemKind::Poisson2d,
            _ => SystemKind::DiagDominant,
        },
        cores_per_socket: 2,
        seed: 11,
        check: false,
        faults: None,
        scheduler: Default::default(),
        batch: 1,
        cg_overlap: true,
    }
}

fn export() -> Value {
    traced_solve(&cfg(SolverChoice::ime_optimized())).trace
}

fn trace_events(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
}

fn field_u64(e: &Value, key: &str) -> u64 {
    e.get(key).and_then(Value::as_u64).expect("u64 field")
}

#[test]
fn export_is_deterministic_golden() {
    // The exported document of each solver family, pinned: a change to
    // what the runtime narrates — an event more or less, a timestamp one
    // bit off, a reordered argument — moves the hash. The faulted stream
    // is pinned next to its plan in `scheduler_invariance.rs`.
    for (solver, golden) in [
        (SolverChoice::ime_optimized(), (3268, 0x7d7c_0f50_a520_4207)),
        (SolverChoice::scalapack(), (2732, 0x90e7_c6d4_f059_2313)),
        (SolverChoice::cg(), (5934, 0xe2fa_3eb5_6dd1_4c15)),
    ] {
        let traced = traced_solve(&cfg(solver));
        assert_eq!(
            trace_fingerprint(&traced),
            golden,
            "{}: (events, FNV-1a of the compact JSON)",
            solver.label()
        );
    }
}

#[test]
fn per_track_timestamps_are_monotone() {
    let doc = export();
    let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
    let mut span_events = 0usize;
    for e in trace_events(&doc) {
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        if !matches!(ph, "B" | "E" | "i") {
            continue;
        }
        span_events += 1;
        let key = (field_u64(e, "pid"), field_u64(e, "tid"));
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        if let Some(&prev) = last.get(&key) {
            assert!(
                ts >= prev,
                "track {key:?}: ts went backwards ({prev} -> {ts})"
            );
        }
        last.insert(key, ts);
    }
    assert!(
        span_events > 50,
        "expected a rich trace, got {span_events} events"
    );
    assert_eq!(last.len(), RANKS, "one span track per rank");
}

#[test]
fn begin_end_pairs_match_per_track() {
    let doc = export();
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> = Default::default();
    for e in trace_events(&doc) {
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        let key = (
            e.get("pid").and_then(Value::as_u64).unwrap_or(0),
            e.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        let name = e.get("name").and_then(Value::as_str).unwrap().to_string();
        match ph {
            "B" => stacks.entry(key).or_default().push(name),
            "E" => {
                let open = stacks
                    .entry(key)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("track {key:?}: E '{name}' with no open span"));
                assert_eq!(open, name, "track {key:?}: spans must nest (LIFO)");
            }
            _ => {}
        }
    }
    for (key, stack) in &stacks {
        assert!(stack.is_empty(), "track {key:?}: unclosed spans {stack:?}");
    }
}

#[test]
fn counter_tracks_are_present_and_energy_grows() {
    let doc = export();
    let energy: Vec<&Value> = trace_events(&doc)
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some("energy (J)")
        })
        .collect();
    assert!(!energy.is_empty(), "energy counter track missing");
    let pkg: Vec<f64> = energy
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("pkg_j"))
                .and_then(Value::as_f64)
                .expect("pkg_j arg")
        })
        .collect();
    assert!(
        pkg.windows(2).all(|w| w[1] >= w[0]),
        "cumulative package energy must be non-decreasing"
    );
    assert!(*pkg.last().unwrap() > 0.0, "final energy must be positive");
    let tx = trace_events(&doc).iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("C")
            && e.get("name").and_then(Value::as_str) == Some("tx (bytes)")
    });
    assert!(tx, "traffic counter track missing");
}

#[test]
fn monitor_choreography_is_visible() {
    let doc = export();
    let events = trace_events(&doc);
    let count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some(name)
                    && e.get("ph").and_then(Value::as_str) == Some(ph)
            })
            .count()
    };
    // Every rank runs the protocol: begin / measured region / finish.
    assert_eq!(count("monitor_begin", "B"), RANKS);
    assert_eq!(count("measured_region", "B"), RANKS);
    assert_eq!(count("monitor_finish", "B"), RANKS);
    // One monitoring rank per node (4 ranks on one test node here).
    assert_eq!(count("start_monitoring", "i"), 1);
    assert_eq!(count("end_monitoring", "i"), 1);
    // Phase markers from the harness workload.
    assert_eq!(count("phase:allocation", "i"), RANKS);
    assert_eq!(count("phase:execution", "i"), RANKS);
    // Collectives show up as spans nested in the protocol.
    assert!(count("barrier", "B") >= 4 * RANKS, "barriers missing");
}

#[test]
fn overlapped_cg_trace_carries_the_halo_and_split_spmv_spans() {
    // The overlapped solver narrates each SpMV phase: post the halo,
    // compute interior rows while payloads fly, drain, finish boundary
    // rows. All four spans must reach the exporter on every rank, in
    // matched numbers — one quartet per halo exchange.
    let traced = traced_solve(&cfg(SolverChoice::cg()));
    let events = trace_events(&traced.trace);
    let begins = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some(name)
                    && e.get("ph").and_then(Value::as_str) == Some("B")
            })
            .count()
    };
    let posts = begins("halo_post");
    assert!(
        posts >= RANKS,
        "one halo_post per rank per exchange: {posts}"
    );
    assert_eq!(begins("spmv_interior"), posts);
    assert_eq!(begins("halo_wait"), posts);
    assert_eq!(begins("spmv_boundary"), posts);
    assert_eq!(
        posts % RANKS,
        0,
        "every rank exchanges the same number of times"
    );
}

#[test]
fn a_trace_is_a_trace_of_the_measured_run() {
    // The traced run is `run_once` with a sink attached: same inputs, same
    // allocation charge, same batch loop. CG-Jacobi runs with the fields
    // the exporter used to ignore set away from their defaults.
    let cg = RunConfig {
        batch: 2,
        cg_overlap: false,
        ..cfg(SolverChoice::cg_jacobi())
    };
    for cfg in [
        cfg(SolverChoice::ime_optimized()),
        cfg(SolverChoice::scalapack()),
        cg,
    ] {
        let what = cfg.solver.label();
        let traced = traced_solve(&cfg);
        let (t, m) = (&traced.measurement, run_once(&cfg));
        assert_eq!(t.duration_s.to_bits(), m.duration_s.to_bits(), "{what}");
        assert_eq!(
            (t.msgs, t.volume_elems, t.iterations, t.refreshes, t.nodes),
            (m.msgs, m.volume_elems, m.iterations, m.refreshes, m.nodes),
            "{what}"
        );
        // Tracing is a pure observer of the virtual clocks.
        let inputs = Inputs::prepare(&cfg);
        let untraced = run_prepared(&cfg, &inputs, TraceSink::disabled())
            .unwrap_or_else(|abort| panic!("{what}: {abort}"));
        assert_eq!(
            traced.makespan_s.to_bits(),
            untraced.makespan_s.to_bits(),
            "{what}"
        );
        assert!(traced.event_count > 0);
        // The kept node reports aggregate to the measurement, bit for bit.
        let (s, m) = (
            JobSummary::aggregate(&untraced.reports),
            &untraced.measurement,
        );
        assert_eq!(
            [
                s.duration_s,
                s.total_energy_j,
                s.pkg_energy_j,
                s.dram_energy_j
            ]
            .map(f64::to_bits),
            [
                m.duration_s,
                m.total_energy_j,
                m.pkg_energy_j,
                m.dram_energy_j
            ]
            .map(f64::to_bits),
            "{what}"
        );
        let sockets = |pkg: [f64; 2], dram: [f64; 2]| [pkg, dram].map(|j| j.map(f64::to_bits));
        assert_eq!(
            sockets(s.pkg_by_socket_j, s.dram_by_socket_j),
            sockets(m.pkg_by_socket_j, m.dram_by_socket_j),
            "{what}"
        );
        // Rank 0's last compute span before the allocation mark is the
        // allocation charge: the CSR image for CG, the dense square else.
        let is = |e: &Value, key: &str, v: &str| e.get(key).and_then(Value::as_str) == Some(v);
        let charged = trace_events(&traced.trace)
            .iter()
            .filter(|e| e.get("tid").and_then(Value::as_u64) == Some(0))
            .take_while(|e| !is(e, "name", "phase:allocation"))
            .filter(|e| is(e, "name", "compute") && is(e, "ph", "B"))
            .last()
            .and_then(|e| e.get("args")?.get("dram_bytes")?.as_f64());
        let bytes = inputs.alloc_bytes() / RANKS as u64;
        assert_eq!(charged, Some(bytes as f64), "{what}");
    }
}
