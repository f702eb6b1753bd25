#![forbid(unsafe_code)]
//! Virtual-time event tracing: what happened on the ranks' clocks.
//!
//! The runtime's clocks are *virtual*: each rank advances its own `f64`
//! clock as it computes and communicates. The trace records what happened
//! on those clocks — span begin/end pairs for compute, point-to-point and
//! collective operations, and instant markers for protocol milestones —
//! without ever advancing them. Tracing is therefore an observer: a run
//! produces bit-identical virtual timings whether tracing is enabled or
//! not (the harness tests assert this).
//!
//! With a [`TraceSink`] attached ([`crate::Machine::with_trace`]), each
//! rank keeps every [`RankEvent`] it emits in its one log of `(t, event)`
//! records ([`crate::event`]), without a lock. The machine banks every
//! rank's log when the rank's body ends, however it ends, and once the run
//! stops the sink renders the records into [`TraceEvent`]s, rank by rank —
//! the one mapping from events to trace events. [`TraceSink::disabled`]
//! holds no allocation, and no rank keeps a record for it.
//!
//! The harness's `chrome_trace` module converts drained events into Chrome
//! Trace Event JSON (one Perfetto thread track per rank, one process per
//! node).
//!
//! # Example
//!
//! ```
//! use greenla_cluster::placement::{LoadLayout, Placement};
//! use greenla_cluster::spec::ClusterSpec;
//! use greenla_cluster::PowerModel;
//! use greenla_mpi::{EventKind, Machine, TraceSink};
//!
//! let spec = ClusterSpec::test_cluster(1, 1); // one node, 2×1 cores
//! let placement = Placement::layout(&spec.node, 2, LoadLayout::FullLoad).unwrap();
//! let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1)
//!     .unwrap()
//!     .with_trace(TraceSink::enabled());
//! machine.run(|ctx| {
//!     ctx.trace_begin("app", "step");
//!     ctx.compute(1_000_000, 0);
//!     ctx.trace_end("app", "step");
//!     ctx.trace_instant("checkpoint");
//! });
//!
//! // Per rank: step begins, compute begins and ends, step ends, marker.
//! let events = machine.trace().drain();
//! assert_eq!(events.len(), 10);
//! assert_eq!((events[0].rank, events[0].kind), (0, EventKind::Begin));
//! assert_eq!(events[1].name, "compute");
//! assert_eq!(events[4].kind, EventKind::Instant);
//! assert_eq!(events[5].rank, 1);
//! assert!(machine.trace().drain().is_empty(), "drain empties the sink");
//!
//! // A disabled sink records nothing.
//! assert!(TraceSink::disabled().drain().is_empty());
//! ```

use crate::event::{MonitorStep, RankEvent};
use parking_lot::Mutex;
use std::sync::Arc;

/// What a [`TraceEvent`] marks: the start of a span, its end, or a
/// zero-duration instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Begin,
    End,
    Instant,
}

/// One trace record on a rank's virtual clock.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global rank that recorded the event.
    pub rank: usize,
    /// Node the rank is placed on.
    pub node: usize,
    pub kind: EventKind,
    /// Coarse grouping used for colouring/filtering ("compute", "comm",
    /// "coll", "monitor").
    pub cat: &'static str,
    /// Span or marker name ("dgemm", "bcast", "measured_region", …).
    pub name: String,
    /// Virtual time in seconds.
    pub t_s: f64,
    /// Numeric payload (byte counts, flop counts, peers, …).
    pub args: Vec<(&'static str, f64)>,
}

/// Machine-wide tracing handle. Cheap to clone; all clones feed the same
/// buffer. The disabled sink is a `None`.
#[derive(Clone, Default)]
pub struct TraceSink {
    /// Banked events, one slot per rank, each slot in run then recording
    /// order.
    by_rank: Option<Arc<Mutex<Vec<Vec<TraceEvent>>>>>,
}

impl TraceSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink that collects the events of every run it is attached to.
    pub fn enabled() -> Self {
        Self {
            by_rank: Some(Arc::default()),
        }
    }

    /// Is this sink collecting?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.by_rank.is_some()
    }

    /// Render one run's banked logs, `logs[r]` being the records of rank
    /// `r` on node `node_of[r]`, after what earlier runs banked.
    pub(crate) fn bank(&self, node_of: &[usize], logs: &[Vec<(f64, RankEvent)>]) {
        let Some(by_rank) = &self.by_rank else {
            return;
        };
        let mut by_rank = by_rank.lock();
        if by_rank.len() < logs.len() {
            by_rank.resize_with(logs.len(), Vec::new);
        }
        for (rank, (slot, log)) in by_rank.iter_mut().zip(logs).enumerate() {
            for &(t, ev) in log {
                render(rank, node_of[rank], t, ev, slot);
            }
        }
    }

    /// Take all banked events, ordered by rank and, within a rank, by run
    /// and then recording order (which is also virtual-time order, clocks
    /// being monotone per rank). The sink is left empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(by_rank) = &self.by_rank else {
            return Vec::new();
        };
        std::mem::take(&mut *by_rank.lock())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Append the trace events that `ev`, recorded at `t_s` by `rank` on
/// `node`, stands for: none for a record only the checker reads or a fault
/// note without a marker, two for a compute charge (its span's begin and
/// end), one for everything else.
pub(crate) fn render(rank: usize, node: usize, t_s: f64, ev: RankEvent, out: &mut Vec<TraceEvent>) {
    let mut push = |kind, cat, name: &str, t_s, args: &[(&'static str, f64)]| {
        out.push(TraceEvent {
            rank,
            node,
            kind,
            cat,
            name: name.to_string(),
            t_s,
            args: args.to_vec(),
        });
    };
    match ev {
        RankEvent::SpanBegin { cat, name } => push(EventKind::Begin, cat, name, t_s, &[]),
        RankEvent::SpanEnd { cat, name } => push(EventKind::End, cat, name, t_s, &[]),
        RankEvent::Mark(name) => push(EventKind::Instant, "marker", name, t_s, &[]),
        RankEvent::Computed {
            t0,
            flops,
            dram_bytes,
        } => {
            let args = [("flops", flops as f64), ("dram_bytes", dram_bytes as f64)];
            push(EventKind::Begin, "compute", "compute", t0, &args);
            push(EventKind::End, "compute", "compute", t_s, &[]);
        }
        RankEvent::SendBegin { dst, bytes } => {
            let args = [("bytes", bytes as f64), ("dst", dst as f64)];
            push(EventKind::Begin, "comm", "send", t_s, &args);
        }
        RankEvent::SendEnd => push(EventKind::End, "comm", "send", t_s, &[]),
        RankEvent::RecvBegin { span, arg } => push(EventKind::Begin, "comm", span, t_s, &[arg]),
        RankEvent::RecvEnd { span } => push(EventKind::End, "comm", span, t_s, &[]),
        RankEvent::Fault(note) => {
            if let Some(marker) = note.marker() {
                push(EventKind::Instant, "marker", marker, t_s, &[]);
            }
        }
        RankEvent::Monitor(MonitorStep::Start) => {
            push(EventKind::Instant, "marker", "start_monitoring", t_s, &[]);
        }
        RankEvent::Monitor(MonitorStep::Phase(label)) => {
            let name = format!("phase:{label}");
            push(EventKind::Instant, "marker", &name, t_s, &[]);
        }
        RankEvent::CollEnter(_)
        | RankEvent::Monitor(MonitorStep::NodeComm(_) | MonitorStep::End) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(name: &'static str) -> (f64, RankEvent) {
        (0.0, RankEvent::Mark(name))
    }

    #[test]
    fn disabled_sink_records_nothing_and_holds_no_buffer() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.by_rank.is_none(), "a disabled sink allocates nothing");
        sink.bank(&[0], &[vec![mark("a")]]);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn events_drain_in_rank_then_record_order() {
        // Two runs banked before one drain, the second with more ranks and
        // a rank that recorded nothing: each rank's events stay together,
        // its first run's before its second's.
        let sink = TraceSink::enabled();
        let node_of = [0, 0, 1];
        sink.bank(&node_of, &[vec![mark("a"), mark("b")], vec![mark("c")]]);
        sink.bank(&node_of, &[vec![], vec![mark("d")], vec![mark("e")]]);
        let events = sink.drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert_eq!(events[4].node, 1);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }
}
