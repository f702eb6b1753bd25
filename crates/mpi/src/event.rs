//! The event spine: a rank says once what it did, and keeps one log of
//! what it said.
//!
//! Every operation of [`RankCtx`](crate::RankCtx) — a compute charge, a
//! send, a receive, a collective, a step of the Figure-2 choreography —
//! ends in one [`RankCtx::emit`](crate::RankCtx::emit) of a [`RankEvent`].
//! A run nobody observes pays one branch per event. A run somebody does
//! observe goes through `Observers::hear`, which pushes the event and the
//! rank's clock as one fixed-size `Copy` record onto the rank's one log —
//! if an attached sink reads that kind of record ([`RankEvent`]'s
//! readers: the trace reads every record, the checker the collectives and
//! the monitor steps, the fault tallies the fault notes). Nothing is
//! rendered, judged or tallied while the rank runs: the machine banks the
//! log when the rank's body ends, and each sink reads the banked records
//! once the run stops ([`crate::trace`], [`crate::check`], the fault
//! report's [`FaultReport::note`](greenla_faults::FaultReport::note)). A
//! new listener is one more mask bit and one more reader of the banked
//! records, not a sweep over the MPI layer.
//!
//! `hear` receives the clock by value. A listener cannot move virtual
//! time, so an observed run is bit-identical to an unobserved one by
//! construction. Fault *injection* — the plan queries `crash_due`,
//! `next_send_fault`, `monitor_death_due`, `app_column_loss` — is the one
//! thing allowed to perturb a run, so it stays a direct call on the
//! rank's [`RankFaults`](greenla_faults::RankFaults) schedule; every
//! *tally* of what a fault did travels here, as a [`FaultNote`]. The
//! `Ledger` and the traffic tally are not listeners: they are always on
//! and the simulated RAPL reads the ledger mid-run, so the
//! optional-listener branch would only wrap them.

use crate::check::CollEvent;
use greenla_faults::FaultNote;

/// A step of the Figure-2 monitoring choreography, as the monitoring
/// layer announces it (after the run, MON001–MON003 are judged from
/// these, and MON004 from the `End` time and the ledger).
#[derive(Clone, Copy, Debug)]
pub enum MonitorStep {
    /// `split_shared` produced this rank's node communicator (its id).
    NodeComm(u64),
    /// `start_monitoring` ran on this rank.
    Start,
    /// The node passed the phase boundary with this label.
    Phase(&'static str),
    /// `end_monitoring` is about to run on this rank.
    End,
}

/// One thing a rank did, stamped by [`RankCtx::emit`](crate::RankCtx::emit)
/// with the rank's current virtual time. Layers above the runtime emit
/// [`RankEvent::Fault`] and [`RankEvent::Monitor`]; the other variants are
/// the runtime's own narration (user spans and marks go through
/// `RankCtx::trace_begin` / `trace_end` / `trace_instant`).
#[derive(Clone, Copy, Debug)]
pub enum RankEvent {
    /// A span opens (spans on one rank nest).
    SpanBegin {
        cat: &'static str,
        name: &'static str,
    },
    /// The innermost open span with this name closes.
    SpanEnd {
        cat: &'static str,
        name: &'static str,
    },
    /// A zero-duration marker.
    Mark(&'static str),
    /// A compute (or memory-touch) charge that began at `t0` just ended.
    Computed {
        t0: f64,
        flops: u64,
        dram_bytes: u64,
    },
    /// A send to global rank `dst` starts.
    SendBegin {
        dst: usize,
        bytes: u64,
    },
    /// The send's envelope is posted, or the send gave up.
    SendEnd,
    /// The rank starts a receive of flavour `span` (`recv`, `recv_idle`,
    /// `recv_set`); `arg` is what that flavour's trace span carries.
    RecvBegin {
        span: &'static str,
        arg: (&'static str, f64),
    },
    /// That receive completed.
    RecvEnd {
        span: &'static str,
    },
    /// The rank entered a collective with this lockstep signature.
    CollEnter(CollEvent),
    /// Something happened to a planned fault.
    Fault(FaultNote),
    Monitor(MonitorStep),
}

// A record is the clock and the event, in one fixed size.
const _: () = assert!(std::mem::size_of::<(f64, RankEvent)>() == 56);

/// The sinks a machine can attach, as bits of a rank's mask.
const TRACE: u8 = 1;
const CHECK: u8 = 2;
const FAULTS: u8 = 4;

impl RankEvent {
    /// The sinks that read this kind of record: the trace reads every
    /// one, the checker the collectives and the monitor steps, the fault
    /// tallies the fault notes.
    fn readers(self) -> u8 {
        TRACE
            | match self {
                RankEvent::CollEnter(_) | RankEvent::Monitor(_) => CHECK,
                RankEvent::Fault(_) => FAULTS,
                _ => 0,
            }
    }
}

/// What one rank keeps for the attached sinks: one log of `(t, event)`
/// records, and the mask of the sinks attached. The rank appends without
/// a lock; the machine banks the log when the rank's body ends.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) mask: u8,
    pub(crate) log: Vec<(f64, RankEvent)>,
}

impl Observers {
    /// A rank's empty log, for a machine with these sinks attached.
    pub(crate) fn new(trace: bool, check: bool, faults: bool) -> Self {
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        Self {
            mask: bit(trace, TRACE) | bit(check, CHECK) | bit(faults, FAULTS),
            log: Vec::new(),
        }
    }

    /// Keep `ev`, which happened at virtual time `t`, if an attached sink
    /// reads it. Out of line on purpose: the unobserved path is the one
    /// the benchmark's message-bound workloads run, and with this body
    /// inlined into every emission site they read 2–6 % slower.
    #[cold]
    #[inline(never)]
    pub(crate) fn hear(&mut self, t: f64, ev: RankEvent) {
        if self.mask & ev.readers() != 0 {
            self.log.push((t, ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CollKind;
    use crate::trace::{render, EventKind, TraceEvent};

    /// One of every kind of record a rank can keep.
    fn every_event() -> Vec<RankEvent> {
        let sig = CollEvent {
            comm: 0,
            seq: 3,
            kind: CollKind::Barrier,
            root: None,
            elems: 0,
        };
        vec![
            RankEvent::SpanBegin {
                cat: "app",
                name: "step",
            },
            RankEvent::SpanEnd {
                cat: "app",
                name: "step",
            },
            RankEvent::Mark("checkpoint"),
            RankEvent::Computed {
                t0: 0.5,
                flops: 10,
                dram_bytes: 64,
            },
            RankEvent::SendBegin {
                dst: 5,
                bytes: 4096,
            },
            RankEvent::SendEnd,
            RankEvent::RecvBegin {
                span: "recv_set",
                arg: ("count", 3.0),
            },
            RankEvent::RecvBegin {
                span: "recv",
                arg: ("src", 4.0),
            },
            RankEvent::RecvEnd { span: "recv" },
            RankEvent::CollEnter(sig),
            RankEvent::Fault(FaultNote::DupDiscarded),
            RankEvent::Fault(FaultNote::DropRecovered(2)),
            RankEvent::Monitor(MonitorStep::NodeComm(7)),
            RankEvent::Monitor(MonitorStep::Start),
            RankEvent::Monitor(MonitorStep::Phase("allocation")),
            RankEvent::Monitor(MonitorStep::End),
        ]
    }

    #[test]
    fn every_event_renders_the_trace_events_it_stands_for() {
        use EventKind::{Begin, End, Instant};
        type Row = (
            EventKind,
            &'static str,
            &'static str,
            f64,
            Vec<(&'static str, f64)>,
        );
        let (t, no) = (1.0, Vec::new);
        // What rank 2 of node 1 shows at t = 1 for each event, in order.
        let table: [Vec<Row>; 16] = [
            vec![(Begin, "app", "step", t, no())],
            vec![(End, "app", "step", t, no())],
            vec![(Instant, "marker", "checkpoint", t, no())],
            vec![
                (
                    Begin,
                    "compute",
                    "compute",
                    0.5,
                    vec![("flops", 10.0), ("dram_bytes", 64.0)],
                ),
                (End, "compute", "compute", t, no()),
            ],
            vec![(
                Begin,
                "comm",
                "send",
                t,
                vec![("bytes", 4096.0), ("dst", 5.0)],
            )],
            vec![(End, "comm", "send", t, no())],
            vec![(Begin, "comm", "recv_set", t, vec![("count", 3.0)])],
            vec![(Begin, "comm", "recv", t, vec![("src", 4.0)])],
            vec![(End, "comm", "recv", t, no())],
            vec![],
            vec![(Instant, "marker", "fault:dup_discarded", t, no())],
            vec![],
            vec![],
            vec![(Instant, "marker", "start_monitoring", t, no())],
            vec![(Instant, "marker", "phase:allocation", t, no())],
            vec![],
        ];
        for (ev, rows) in every_event().into_iter().zip(table) {
            let mut out = Vec::new();
            render(2, 1, t, ev, &mut out);
            let want: Vec<TraceEvent> = rows
                .into_iter()
                .map(|(kind, cat, name, t_s, args)| TraceEvent {
                    rank: 2,
                    node: 1,
                    kind,
                    cat,
                    name: name.to_string(),
                    t_s,
                    args,
                })
                .collect();
            assert_eq!(out, want, "{ev:?}");
        }
    }

    /// The kinds of record a rank with these sinks attached keeps, by
    /// their position in [`every_event`] (each is heard at its position),
    /// and the log's capacity.
    fn kept(trace: bool, check: bool, faults: bool) -> (Vec<usize>, usize) {
        let mut observers = Observers::new(trace, check, faults);
        for (i, ev) in every_event().into_iter().enumerate() {
            observers.hear(i as f64, ev);
        }
        let kept = observers.log.iter().map(|&(t, _)| t as usize).collect();
        (kept, observers.log.capacity())
    }

    #[test]
    fn the_mask_keeps_what_the_attached_sinks_read() {
        // Checked only: the collective and the four monitor steps.
        assert_eq!(kept(false, true, false).0, [9, 12, 13, 14, 15]);
        // Faulted only: the two fault notes.
        assert_eq!(kept(false, false, true).0, [10, 11]);
        // Traced: everything, in emission order.
        assert_eq!(kept(true, false, false).0, (0..16).collect::<Vec<_>>());
        assert_eq!(kept(false, true, true).0, [9, 10, 11, 12, 13, 14, 15]);
        // Unobserved: nothing kept, and the log never allocates.
        assert_eq!(kept(false, false, false), (vec![], 0));
        assert_eq!(Observers::default().mask, 0);
    }
}
