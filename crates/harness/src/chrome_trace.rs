//! Chrome Trace Event exporter for the virtual-time runtime traces.
//!
//! Converts the events a [`greenla_mpi::TraceSink`] collected during a run
//! into the Chrome Trace Event JSON format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! * one **process** per simulated node (`pid` = node index, named
//!   `node0`, `node1`, …);
//! * one **thread track** per MPI rank (`tid` = global rank), so nested
//!   `B`/`E` span pairs show the call structure — compute blocks,
//!   point-to-point sends/receives, collectives, and the monitoring
//!   protocol's measured region;
//! * one **counter track** per node sampling the simulated RAPL ground
//!   truth (package and DRAM Joules) over a uniform virtual-time grid,
//!   plus a cumulative transmitted-bytes counter rebuilt from the `send`
//!   spans' byte arguments.
//!
//! Timestamps are microseconds of *virtual* time — the clocks the
//! simulated ranks advanced, not wall time. All output ordering is
//! deterministic (events are drained rank-ordered, JSON objects preserve
//! insertion order), so exporting the same run twice yields byte-identical
//! JSON — the property the golden-file test pins down.

use crate::run::{run_prepared, Inputs, Measurement, RunConfig};
use greenla_mpi::{EventKind, TraceEvent, TraceSink};
use greenla_rapl::{Domain, RaplSim};
use serde_json::Value;

/// Number of counter samples per node in the exported grid.
pub const COUNTER_SAMPLES: usize = 64;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn args_obj(args: &[(&'static str, f64)]) -> Value {
    Value::Object(
        args.iter()
            .map(|(k, v)| (k.to_string(), Value::F64(*v)))
            .collect(),
    )
}

/// Convert drained trace events plus the run's RAPL simulator into a
/// Chrome Trace JSON document (`{"traceEvents": [...]}`).
///
/// `makespan_s` bounds the counter-sampling grid; `rapl` supplies the
/// energy ground truth at each grid point.
pub fn chrome_trace_json(
    events: &[TraceEvent],
    rapl: &RaplSim,
    makespan_s: f64,
    counter_samples: usize,
) -> Value {
    let mut out: Vec<Value> = Vec::new();

    // Track metadata: name the node processes and the rank threads.
    // Nodes and (node, rank) pairs are taken from the events themselves so
    // empty tracks never appear.
    let mut nodes: Vec<usize> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut rank_tracks: Vec<(usize, usize)> = events.iter().map(|e| (e.node, e.rank)).collect();
    rank_tracks.sort_unstable();
    rank_tracks.dedup();
    for &node in &nodes {
        out.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(node as u64)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("node{node}")))]),
            ),
        ]));
    }
    for &(node, rank) in &rank_tracks {
        out.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(node as u64)),
            ("tid", Value::U64(rank as u64)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("rank {rank}")))]),
            ),
        ]));
    }

    // Energy counter track: sample the continuous ground truth on a
    // uniform grid so Perfetto draws package/DRAM Joules per node.
    let samples = counter_samples.max(2);
    for &node in &nodes {
        for i in 0..samples {
            let t = makespan_s * i as f64 / (samples - 1) as f64;
            let mut pkg = 0.0;
            let mut dram = 0.0;
            for socket in 0..rapl.sockets_per_node() {
                pkg += rapl
                    .ground_truth_j(node, socket, Domain::Package, t)
                    .unwrap_or(0.0);
                dram += rapl
                    .ground_truth_j(node, socket, Domain::Dram, t)
                    .unwrap_or(0.0);
            }
            out.push(obj(vec![
                ("name", Value::Str("energy (J)".into())),
                ("ph", Value::Str("C".into())),
                ("ts", Value::F64(t * 1e6)),
                ("pid", Value::U64(node as u64)),
                (
                    "args",
                    obj(vec![
                        ("pkg_j", Value::F64(pkg)),
                        ("dram_j", Value::F64(dram)),
                    ]),
                ),
            ]));
        }
    }

    // Cumulative transmitted bytes per node, rebuilt from the byte
    // arguments the send spans carry.
    let mut sends: Vec<(usize, f64, f64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "send")
        .filter_map(|e| {
            e.args
                .iter()
                .find(|(k, _)| *k == "bytes")
                .map(|(_, bytes)| (e.node, e.t_s, *bytes))
        })
        .collect();
    sends.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite virtual times"));
    let mut cumulative: Vec<f64> = vec![0.0; nodes.iter().max().map_or(0, |&m| m + 1)];
    for (node, t, bytes) in sends {
        cumulative[node] += bytes;
        out.push(obj(vec![
            ("name", Value::Str("tx (bytes)".into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::F64(t * 1e6)),
            ("pid", Value::U64(node as u64)),
            (
                "args",
                obj(vec![("cumulative", Value::F64(cumulative[node]))]),
            ),
        ]));
    }

    // The spans and instants themselves, in drain order (rank-major,
    // record order within a rank — which is virtual-time order).
    for e in events {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let mut fields = vec![
            ("name", Value::Str(e.name.clone())),
            ("cat", Value::Str(e.cat.to_string())),
            ("ph", Value::Str(ph.into())),
            ("ts", Value::F64(e.t_s * 1e6)),
            ("pid", Value::U64(e.node as u64)),
            ("tid", Value::U64(e.rank as u64)),
        ];
        if e.kind == EventKind::Instant {
            fields.push(("s", Value::Str("t".into())));
        }
        if !e.args.is_empty() {
            fields.push(("args", args_obj(&e.args)));
        }
        out.push(obj(fields));
    }

    obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// Result of [`traced_solve`]: the exported trace document, the run's
/// measurement (what `run_once` returns for the same configuration) and
/// its virtual makespan.
pub struct TracedSolve {
    pub trace: Value,
    pub measurement: Measurement,
    pub makespan_s: f64,
    pub event_count: usize,
}

/// Run `cfg` exactly as [`run_once`](crate::run::run_once) does, with
/// tracing enabled, and export the Chrome Trace document. A fault plan in
/// `cfg` leaves its `fault:*` instants in the trace and its consolidated
/// report in the measurement. Fully deterministic in `cfg`.
pub fn traced_solve(cfg: &RunConfig) -> TracedSolve {
    let sink = TraceSink::enabled();
    let run = run_prepared(cfg, &Inputs::prepare(cfg), sink.clone())
        .unwrap_or_else(|abort| cfg.aborted(abort));
    let events = sink.drain();
    TracedSolve {
        trace: chrome_trace_json(&events, &run.rapl, run.makespan_s, COUNTER_SAMPLES),
        measurement: run.measurement,
        makespan_s: run.makespan_s,
        event_count: events.len(),
    }
}
