//! The event spine: a rank says once what it did, and this module alone
//! decides what the trace, the checker and the fault tallies hear.
//!
//! Every operation of [`RankCtx`](crate::RankCtx) — a compute charge, a
//! send, a receive, a collective, a step of the Figure-2 choreography —
//! ends in one [`RankCtx::emit`](crate::RankCtx::emit) of a [`RankEvent`].
//! A run nobody observes pays one branch per event. A run somebody does
//! observe goes through `Observers::hear`, which holds the only mapping
//! from events to `RankTracer` calls and the only mapping from events to
//! `RankChecker` calls in the workspace: a new listener is one more
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

use greenla_check::{CollEvent, RankChecker};
use greenla_faults::{FaultNote, RankFaults};
use greenla_trace::RankTracer;

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

/// The optional listeners of one rank. Both are inert handles unless the
/// machine has the matching sink attached.
pub(crate) struct Observers {
    pub(crate) tracer: RankTracer,
    pub(crate) checker: RankChecker,
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
        if self.tracer.enabled() {
            self.trace(t, ev);
        }
        if self.checker.enabled() {
            self.check(t, ev);
        }
    }

    fn trace(&mut self, t: f64, ev: RankEvent<'_>) {
        let tracer = &mut self.tracer;
        match ev {
            RankEvent::SpanBegin { cat, name, args } => tracer.begin(cat, name, t, args),
            RankEvent::SpanEnd { cat, name } => tracer.end(cat, name, t),
            RankEvent::Mark(name) => tracer.instant(name, t),
            RankEvent::Computed {
                t0,
                flops,
                dram_bytes,
            } => {
                let args = [("flops", flops as f64), ("dram_bytes", dram_bytes as f64)];
                tracer.begin("compute", "compute", t0, &args);
                tracer.end("compute", "compute", t);
            }
            RankEvent::SendBegin { dst, bytes } => {
                let args = [("bytes", bytes as f64), ("dst", dst as f64)];
                tracer.begin("comm", "send", t, &args);
            }
            RankEvent::SendEnd => tracer.end("comm", "send", t),
            RankEvent::RecvBegin { span, arg, .. } => tracer.begin("comm", span, t, &[arg]),
            RankEvent::RecvEnd { span, .. } => tracer.end("comm", span, t),
            RankEvent::Fault(note) => {
                if let Some(marker) = note.marker() {
                    tracer.instant(marker, t);
                }
            }
            RankEvent::Monitor(MonitorStep::Start) => tracer.instant("start_monitoring", t),
            RankEvent::CollEnter(_)
            | RankEvent::Monitor(MonitorStep::NodeComm(_) | MonitorStep::End) => {}
        }
    }

    /// The checker hears only what the program chose: its collectives
    /// and its Figure-2 steps, logged on the rank without a lock and
    /// judged after the run. Clock causality and the tag space are the
    /// runtime's own invariants, so a compute, send or receive is not
    /// heard at all.
    fn check(&mut self, t: f64, ev: RankEvent<'_>) {
        let checker = &mut self.checker;
        match ev {
            RankEvent::CollEnter(sig) => checker.enter_coll(sig, t),
            RankEvent::Monitor(MonitorStep::NodeComm(id)) => checker.monitor_node_comm(id),
            RankEvent::Monitor(MonitorStep::Start) => checker.monitor_start(t),
            RankEvent::Monitor(MonitorStep::End) => checker.monitor_end(t),
            _ => {}
        }
    }
}
