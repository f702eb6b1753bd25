//! The runtime-facing half: a shared sink the machine consults at its
//! injection points and banks each run's tallies into, plus each rank's
//! injection schedule.
//!
//! A disabled sink is a `None` behind an `Option<Arc<..>>`, as are
//! `greenla-mpi`'s trace and check sinks, so every hook costs one branch
//! and the virtual timeline of a fault-free build is untouched. A rank's
//! schedule is a [`RankFaults`] it owns and queries without locks; what a
//! fault then did is a [`FaultNote`] the rank emits, kept in its one log
//! of records. Once the run stops, however each rank ended, the machine
//! folds every rank's notes through [`FaultReport::note`] into the run's
//! one report and hands it to [`FaultSink::bank`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::plan::{CounterFaultKind, CrashWhen, FaultPlan, MsgFault, MsgFaultKind};
use crate::report::FaultReport;

struct Shared {
    plan: FaultPlan,
    /// Every banked run's rank reports, merged.
    banked: Mutex<FaultReport>,
    /// One flag per plan counter fault: has it fired at least once?
    counter_fired: Vec<AtomicBool>,
}

/// Shared fault state for one machine. Cloning is cheap (an `Arc`).
#[derive(Clone)]
pub struct FaultSink {
    shared: Option<Arc<Shared>>,
}

impl Default for FaultSink {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultSink {
    /// A sink that injects nothing and records nothing.
    pub fn disabled() -> FaultSink {
        FaultSink { shared: None }
    }

    /// A sink driven by `plan`.
    pub fn with_plan(plan: FaultPlan) -> FaultSink {
        let counter_fired = plan
            .counters
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        FaultSink {
            shared: Some(Arc::new(Shared {
                plan,
                banked: Mutex::new(FaultReport::default()),
                counter_fired,
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The plan this sink executes, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.shared.as_deref().map(|s| &s.plan)
    }

    /// The injection schedule of `rank`, living on node `node`.
    pub fn handle(&self, rank: usize, node: usize) -> RankFaults {
        let Some(shared) = &self.shared else {
            return RankFaults::default();
        };
        let plan = &shared.plan;
        let mut msg_faults: Vec<MsgFault> = plan
            .messages
            .iter()
            .copied()
            .filter(|m| m.src == rank)
            .collect();
        msg_faults.sort_by_key(|m| m.nth_send);
        RankFaults {
            msg_faults,
            crash: plan.crashes.iter().find(|c| c.rank == rank).map(|c| c.when),
            monitor_death: plan.monitor_deaths.contains(&node),
            column_loss: plan.column_loss.map(|c| (c.level, c.column)),
            ..RankFaults::default()
        }
    }

    /// Look up the counter fault (if any) covering `(node, socket)` and
    /// mark it fired when the read time has reached its onset. Called by
    /// the RAPL simulator on every energy read; returns the kind and the
    /// onset time so the simulator can freeze / inflate from there.
    pub fn counter_fault(
        &self,
        node: usize,
        socket: usize,
        t_s: f64,
    ) -> Option<(CounterFaultKind, f64)> {
        let shared = self.shared.as_deref()?;
        let (fault, fired) = shared
            .plan
            .counters
            .iter()
            .zip(&shared.counter_fired)
            .find(|(c, _)| c.node == node && c.socket == socket)?;
        if t_s < fault.from_s {
            return None;
        }
        fired.store(true, Ordering::Relaxed);
        Some((fault.kind, fault.from_s))
    }

    /// Merge reports into what this sink has banked so far. The machine
    /// calls it once per run, after every rank has stopped, with the
    /// run's one report; a disabled sink banks nothing.
    pub fn bank(&self, reports: impl IntoIterator<Item = FaultReport>) {
        if let Some(shared) = &self.shared {
            let mut banked = shared.banked.lock().expect("fault report lock");
            for report in reports {
                banked.merge(&report);
            }
        }
    }

    /// Everything banked so far, plus one injected and observed counter
    /// fault per plan counter fault that has fired. Call after a run.
    pub fn report(&self) -> FaultReport {
        let Some(shared) = &self.shared else {
            return FaultReport::default();
        };
        let mut rep = shared.banked.lock().expect("fault report lock").clone();
        let fired = shared
            .counter_fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count() as u64;
        rep.injected.counter += fired;
        rep.observed.counter += fired;
        rep
    }
}

/// One thing that happened to a planned fault, as the layer that saw it
/// reports it: the runtime for message faults and a crash, the monitor
/// protocol for a monitoring-rank death and a degraded node, a
/// checksum-protected solver for a column loss. A rank states the fact
/// once; [`FaultReport::note`] turns it into tallies and
/// [`FaultNote::marker`] names the instant a traced run shows for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultNote {
    /// This many consecutive drops were injected on one send.
    DropInjected(u64),
    /// The retry loop delivered the envelope despite that many drops.
    DropRecovered(u64),
    /// A marked second copy of an envelope went on the wire.
    DupInjected,
    /// The receiver noticed and discarded a duplicate envelope.
    DupDiscarded,
    /// An envelope's virtual arrival was pushed into the future.
    DelayInjected,
    /// The receiver matched an envelope marked as delayed.
    DelayObserved,
    /// The rank's planned crash fired; the rank aborts the run next.
    RankCrashed,
    /// The node's monitoring rank died during protocol bring-up.
    MonitorDied,
    /// The node recovered from a monitoring fault by downgrading itself
    /// to "unmeasured".
    Degraded,
    /// A planned column loss wiped the victim's column.
    ColumnLossInjected,
    /// The checksum brought the lost column back.
    ColumnLossRecovered,
}

impl FaultNote {
    /// The `fault:*` instant a traced run records for this note; `None`
    /// for the two recoveries that end inside a span that already shows
    /// them (the retried send, the late receive).
    pub fn marker(self) -> Option<&'static str> {
        match self {
            FaultNote::DropInjected(_) => Some("fault:drop"),
            FaultNote::DupInjected => Some("fault:dup"),
            FaultNote::DupDiscarded => Some("fault:dup_discarded"),
            FaultNote::DelayInjected => Some("fault:delay"),
            FaultNote::RankCrashed => Some("fault:crash"),
            FaultNote::MonitorDied => Some("fault:monitor_death"),
            FaultNote::Degraded => Some("fault:monitor_degraded"),
            FaultNote::ColumnLossInjected => Some("fault:column_loss"),
            FaultNote::ColumnLossRecovered => Some("fault:column_loss_recovered"),
            FaultNote::DropRecovered(_) | FaultNote::DelayObserved => None,
        }
    }
}

/// One rank's injection schedule: owned by the rank's context and queried
/// at every injection point without locks. A disabled sink's schedule
/// (the default) answers every query with "nothing".
#[derive(Default)]
pub struct RankFaults {
    /// The rank's message faults, by send index.
    msg_faults: Vec<MsgFault>,
    next_msg: usize,
    sends: u64,
    crash: Option<CrashWhen>,
    calls: u64,
    monitor_death: bool,
    column_loss: Option<(usize, usize)>,
}

impl RankFaults {
    /// Advance the per-rank call counter and decide whether the planned
    /// crash fires now (`now` is the rank's virtual clock). It fires once.
    #[inline]
    pub fn crash_due(&mut self, now: f64) -> bool {
        self.calls += 1;
        let due = match self.crash {
            None => return false,
            Some(CrashWhen::AtTime { t_s }) => now >= t_s,
            Some(CrashWhen::AtCall { calls }) => self.calls >= calls,
        };
        if due {
            self.crash = None;
        }
        due
    }

    /// The fault (if any) attached to this rank's next logical send.
    /// Advances the send counter either way.
    #[inline]
    pub fn next_send_fault(&mut self) -> Option<MsgFaultKind> {
        let idx = self.sends;
        self.sends += 1;
        while self.next_msg < self.msg_faults.len() && self.msg_faults[self.next_msg].nth_send < idx
        {
            self.next_msg += 1;
        }
        let fault = *self.msg_faults.get(self.next_msg)?;
        (fault.nth_send == idx).then(|| {
            self.next_msg += 1;
            fault.kind
        })
    }

    /// Is this rank's node scheduled for a monitoring-rank death? Asked
    /// by the node's monitoring rank during protocol bring-up.
    pub fn monitor_death_due(&self) -> bool {
        self.monitor_death
    }

    /// The planned application-level column loss, if any (consumed by
    /// checksum-protected solvers).
    pub fn app_column_loss(&self) -> Option<(usize, usize)> {
        self.column_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ColumnLoss, CounterFault, CrashFault};

    #[test]
    fn disabled_sink_is_inert() {
        let sink = FaultSink::disabled();
        assert!(!sink.is_enabled());
        let mut h = sink.handle(3, 0);
        assert!(h.next_send_fault().is_none());
        assert!(!h.crash_due(1.0));
        assert!(!h.monitor_death_due());
        assert!(h.app_column_loss().is_none());
        assert!(sink.counter_fault(0, 0, 1.0).is_none());
        assert!(sink.report().is_empty());
    }

    #[test]
    fn send_faults_fire_at_their_index_in_order() {
        let plan = FaultPlan {
            messages: vec![
                MsgFault {
                    src: 2,
                    nth_send: 3,
                    kind: MsgFaultKind::Duplicate,
                },
                MsgFault {
                    src: 2,
                    nth_send: 1,
                    kind: MsgFaultKind::Drop { count: 2 },
                },
                MsgFault {
                    src: 5,
                    nth_send: 0,
                    kind: MsgFaultKind::Duplicate,
                },
            ],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let mut h = sink.handle(2, 0);
        assert!(h.next_send_fault().is_none()); // send 0
        assert_eq!(h.next_send_fault(), Some(MsgFaultKind::Drop { count: 2 })); // send 1
        assert!(h.next_send_fault().is_none()); // send 2
        assert_eq!(h.next_send_fault(), Some(MsgFaultKind::Duplicate)); // send 3
        assert!(h.next_send_fault().is_none()); // send 4
    }

    #[test]
    fn crash_fires_once_and_is_reported() {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                rank: 1,
                when: CrashWhen::AtTime { t_s: 0.5 },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let mut h = sink.handle(1, 0);
        assert!(!h.crash_due(0.1));
        assert!(h.crash_due(0.7), "crash due");
        assert!(!h.crash_due(0.9), "crash fires exactly once");
        let mut rank = FaultReport::default();
        rank.note(FaultNote::RankCrashed, 0);
        sink.bank([rank]);
        let rep = sink.report();
        assert_eq!(rep.injected.rank_crash, 1);
        assert_eq!(rep.observed.rank_crash, 1);
    }

    #[test]
    fn counter_fault_counts_once_across_many_reads() {
        let plan = FaultPlan {
            counters: vec![CounterFault {
                node: 0,
                socket: 1,
                from_s: 0.25,
                kind: crate::plan::CounterFaultKind::Stuck,
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        assert!(sink.counter_fault(0, 1, 0.1).is_none(), "before onset");
        assert!(sink.counter_fault(0, 0, 0.5).is_none(), "other socket");
        for _ in 0..4 {
            let (kind, from) = sink.counter_fault(0, 1, 0.5).expect("fault active");
            assert_eq!(from, 0.25);
            assert!(matches!(kind, crate::plan::CounterFaultKind::Stuck));
        }
        let rep = sink.report();
        assert_eq!(rep.injected.counter, 1, "one fault, many reads");
        assert_eq!(rep.observed.counter, 1);
    }

    #[test]
    fn every_note_moves_its_tallies_and_names_its_marker() {
        use crate::report::FaultCounts;
        use FaultNote::*;
        type Family = fn(&FaultCounts) -> u64;
        let (drop, dup, delay): (Family, Family, Family) =
            (|c| c.msg_drop, |c| c.msg_dup, |c| c.msg_delay);
        let (crash, monitor, loss): (Family, Family, Family) =
            (|c| c.rank_crash, |c| c.monitor, |c| c.column_loss);
        // (note, its family, [injected, observed, recovered], marker)
        let table = [
            (DropInjected(3), drop, [3, 3, 0], Some("fault:drop")),
            (DropRecovered(3), drop, [0, 0, 3], None),
            (DupInjected, dup, [1, 0, 0], Some("fault:dup")),
            (DupDiscarded, dup, [0, 1, 1], Some("fault:dup_discarded")),
            (DelayInjected, delay, [1, 0, 0], Some("fault:delay")),
            (DelayObserved, delay, [0, 1, 1], None),
            (RankCrashed, crash, [1, 1, 0], Some("fault:crash")),
            (MonitorDied, monitor, [1, 0, 0], Some("fault:monitor_death")),
            (Degraded, monitor, [0, 1, 1], Some("fault:monitor_degraded")),
            (
                ColumnLossInjected,
                loss,
                [1, 1, 0],
                Some("fault:column_loss"),
            ),
            (
                ColumnLossRecovered,
                loss,
                [0, 0, 1],
                Some("fault:column_loss_recovered"),
            ),
        ];
        for (note, family, tallies, marker) in table {
            let mut rep = FaultReport::default();
            rep.note(note, 1);
            let moved = [&rep.injected, &rep.observed, &rep.recovered];
            assert_eq!(moved.map(family), tallies, "{note:?}");
            assert_eq!(
                moved.map(FaultCounts::total),
                tallies,
                "{note:?} moved another family"
            );
            let degraded = if note == Degraded { vec![1] } else { vec![] };
            assert_eq!(rep.degraded_nodes, degraded, "{note:?}");
            assert_eq!(note.marker(), marker, "{note:?}");
        }
    }

    #[test]
    fn bank_accumulates_runs_in_rank_order() {
        let plan = FaultPlan {
            monitor_deaths: vec![1],
            column_loss: Some(ColumnLoss {
                level: 3,
                column: 7,
            }),
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let (a, b) = (sink.handle(4, 1), sink.handle(0, 0));
        assert!(a.monitor_death_due() && !b.monitor_death_due());
        assert_eq!(b.app_column_loss(), Some((3, 7)));
        // One run: node 2 and node 1 degrade, rank 0 loses and recovers a
        // column. The next run degrades node 1 again.
        let report = |notes: &[(FaultNote, usize)]| {
            let mut rep = FaultReport::default();
            for &(note, node) in notes {
                rep.note(note, node);
            }
            rep
        };
        let first = [
            report(&[
                (FaultNote::ColumnLossInjected, 0),
                (FaultNote::ColumnLossRecovered, 0),
            ]),
            report(&[(FaultNote::Degraded, 2)]),
            report(&[(FaultNote::MonitorDied, 1), (FaultNote::Degraded, 1)]),
        ];
        sink.bank(first);
        assert_eq!(sink.report().recovered.column_loss, 1, "banked at once");
        sink.bank([report(&[(FaultNote::Degraded, 1)])]);
        let rep = sink.report();
        assert_eq!(rep.injected.monitor, 1);
        assert_eq!(rep.recovered.monitor, 3, "both runs add up");
        assert_eq!(rep.degraded_nodes, vec![1, 2], "sorted, deduplicated");
        assert_eq!(rep.injected.column_loss, 1);
        assert_eq!(rep.recovered.column_loss, 1);

        let disabled = FaultSink::disabled();
        disabled.bank([report(&[(FaultNote::Degraded, 1)])]);
        assert!(
            disabled.report().is_empty(),
            "a disabled sink banks nothing"
        );
    }
}
