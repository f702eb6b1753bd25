//! The event spine: a rank says once what it did, and this module alone
//! decides what the trace, the checker and the fault tallies hear.
//!
//! Every operation of [`RankCtx`](crate::RankCtx) — a compute charge, a
//! send, a receive, a collective, a step of the Figure-2 choreography —
//! ends in one [`RankCtx::emit`](crate::RankCtx::emit) of a [`RankEvent`].
//! A run nobody observes pays one branch per event. A run somebody does
//! observe goes through `Observers::hear`, which holds the only mapping
//! from events to [`TraceEvent`]s and the only mapping from events to the
//! checker's log entries in the workspace: a new listener is one more
//! `match` here, not a sweep over the MPI layer.
//!
//! `hear` receives the clock by value. A listener cannot move virtual
//! time, so an observed run is bit-identical to an unobserved one by
//! construction. Fault *injection* — the plan queries `crash_due`,
//! `next_send_fault`, `monitor_death_due`, `app_column_loss` — is the one
//! thing allowed to perturb a run, so it stays a direct call on
//! [`RankFaults`]; only the *accounting* of what a fault did travels here,
//! as a [`FaultNote`]. The `Ledger` and `Traffic` tallies are not
//! listeners either: they are always on and the simulated RAPL reads the
//! ledger mid-run, so the optional-listener branch would only wrap them.

use crate::check::{CollEvent, Entry};
use crate::trace::{EventKind, TraceEvent};
use greenla_faults::{FaultNote, RankFaults};

/// A step of the Figure-2 monitoring choreography, as the monitoring
/// layer announces it (after the run, MON001–MON003 are judged from
/// these, and MON004 from the `End` time and the ledger).
#[derive(Clone, Copy, Debug)]
pub enum MonitorStep {
    /// `split_shared` produced this rank's node communicator (its id).
    NodeComm(u64),
    /// `start_monitoring` ran on this rank.
    Start,
    /// `end_monitoring` is about to run on this rank.
    End,
}

/// One thing a rank did, stamped by [`RankCtx::emit`](crate::RankCtx::emit)
/// with the rank's current virtual time. Layers above the runtime emit
/// [`RankEvent::Fault`] and [`RankEvent::Monitor`]; the other variants are
/// the runtime's own narration (user spans and marks go through
/// `RankCtx::trace_begin` / `trace_end` / `trace_instant`).
#[derive(Clone, Copy, Debug)]
pub enum RankEvent<'a> {
    /// A span opens (spans on one rank nest).
    SpanBegin {
        cat: &'static str,
        name: &'a str,
        args: &'a [(&'static str, f64)],
    },
    /// The innermost open span with this name closes.
    SpanEnd {
        cat: &'static str,
        name: &'a str,
    },
    /// A zero-duration marker.
    Mark(&'a str),
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
    /// The send's envelope is posted.
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

/// The optional listeners' logs of one rank: its trace events and its
/// checker log, each `None` unless the machine has the matching sink
/// attached. The rank appends to them without a lock; the machine banks
/// them when the rank's body ends.
#[derive(Default)]
pub(crate) struct Observers {
    /// Global rank and node, stamped on every trace event.
    pub(crate) rank: usize,
    pub(crate) node: usize,
    pub(crate) trace: Option<Vec<TraceEvent>>,
    pub(crate) check: Option<Vec<Entry>>,
}

impl Observers {
    /// Tell every attached listener that `ev` happened at virtual time `t`.
    /// Out of line on purpose: the unobserved path is the one the
    /// benchmark's message-bound workloads run, and with this body inlined
    /// into every emission site they read 2–6 % slower.
    #[cold]
    #[inline(never)]
    pub(crate) fn hear(&mut self, faults: &mut RankFaults, t: f64, ev: RankEvent<'_>) {
        if let RankEvent::Fault(note) = ev {
            faults.note(note);
        }
        if let Some(events) = &mut self.trace {
            trace(events, self.rank, self.node, t, ev);
        }
        if let Some(log) = &mut self.check {
            check(log, t, ev);
        }
    }
}

fn trace(events: &mut Vec<TraceEvent>, rank: usize, node: usize, t_s: f64, ev: RankEvent<'_>) {
    let mut push = |kind, cat, name: &str, t_s, args: &[(&'static str, f64)]| {
        events.push(TraceEvent {
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
        RankEvent::SpanBegin { cat, name, args } => push(EventKind::Begin, cat, name, t_s, args),
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
        RankEvent::CollEnter(_)
        | RankEvent::Monitor(MonitorStep::NodeComm(_) | MonitorStep::End) => {}
    }
}

/// The checker hears only what the program chose: its collectives and
/// its Figure-2 steps, judged after the run. Clock causality and the tag
/// space are the runtime's own invariants, so a compute, send or receive
/// is not heard at all.
fn check(log: &mut Vec<Entry>, t: f64, ev: RankEvent<'_>) {
    log.push(match ev {
        RankEvent::CollEnter(sig) => Entry::Coll(sig, t),
        RankEvent::Monitor(MonitorStep::NodeComm(id)) => Entry::NodeComm(id),
        RankEvent::Monitor(MonitorStep::Start) => Entry::Start(t),
        RankEvent::Monitor(MonitorStep::End) => Entry::End(t),
        _ => return,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_ride_along() {
        let mut observers = Observers {
            rank: 2,
            node: 1,
            trace: Some(Vec::new()),
            check: None,
        };
        let ev = RankEvent::SendBegin {
            dst: 5,
            bytes: 4096,
        };
        observers.hear(&mut RankFaults::disabled(), 1.0, ev);
        let events = observers.trace.expect("a trace log");
        assert_eq!((events[0].rank, events[0].node), (2, 1));
        assert_eq!((events[0].kind, events[0].t_s), (EventKind::Begin, 1.0));
        assert_eq!(events[0].args, vec![("bytes", 4096.0), ("dst", 5.0)]);
    }
}
