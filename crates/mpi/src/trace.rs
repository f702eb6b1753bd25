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
//! rank appends the [`TraceEvent`]s its operations narrate to its own
//! buffer, without a lock (`crate::event` holds the mapping). The machine
//! banks every rank's buffer when the rank's body ends, however it ends,
//! and hands them to the sink in rank order once the run stops.
//! [`TraceSink::disabled`] holds no allocation, and no rank buffers
//! anything behind it.
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

    /// Take one run's buffers, `logs[r]` being rank `r`'s (`None` for a
    /// rank that never ran).
    pub(crate) fn bank(&self, logs: Vec<Option<Vec<TraceEvent>>>) {
        let Some(by_rank) = &self.by_rank else {
            return;
        };
        let mut by_rank = by_rank.lock();
        if by_rank.len() < logs.len() {
            by_rank.resize_with(logs.len(), Vec::new);
        }
        for (slot, log) in by_rank.iter_mut().zip(logs) {
            let Some(mut log) = log else {
                continue;
            };
            // A rank's first buffer moves in whole, without copying its events.
            if slot.is_empty() {
                *slot = log;
            } else {
                slot.append(&mut log);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, name: &str) -> TraceEvent {
        TraceEvent {
            rank,
            node: rank / 2,
            kind: EventKind::Instant,
            cat: "marker",
            name: name.to_string(),
            t_s: 0.0,
            args: Vec::new(),
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_holds_no_buffer() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.by_rank.is_none(), "a disabled sink allocates nothing");
        sink.bank(vec![Some(vec![ev(0, "a")])]);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn events_drain_in_rank_then_record_order() {
        // Two runs banked before one drain, the second with more ranks and
        // a rank that never ran: each rank's events stay together, its
        // first run's before its second's.
        let sink = TraceSink::enabled();
        sink.bank(vec![
            Some(vec![ev(0, "a"), ev(0, "b")]),
            Some(vec![ev(1, "c")]),
        ]);
        sink.bank(vec![None, Some(vec![ev(1, "d")]), Some(vec![ev(2, "e")])]);
        let events = sink.drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert_eq!(events[4].node, 1);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }
}
