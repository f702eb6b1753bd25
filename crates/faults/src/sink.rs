//! The runtime-facing half: a shared sink the machine consults at its
//! injection points, plus a cheap per-rank handle.
//!
//! A disabled sink is a `None` behind an `Option<Arc<..>>`, as are
//! `greenla-mpi`'s trace and check sinks, so every hook costs one branch and the virtual timeline of a fault-free build is
//! untouched. Per-rank state lives in [`RankFaults`] (no locking on the
//! hot path); local tallies are folded into the shared [`FaultReport`]
//! when the handle drops — which also happens during panic unwinding, so
//! crashed ranks still account for the faults they saw.

use std::sync::{Arc, Mutex};

use crate::plan::{CounterFault, CrashWhen, FaultPlan, MsgFault, MsgFaultKind};
use crate::report::FaultReport;

struct Shared {
    plan: FaultPlan,
    collected: Mutex<FaultReport>,
    /// One flag per plan counter fault: has it fired at least once?
    counter_fired: Mutex<Vec<bool>>,
}

/// Shared fault state for one machine run. Cloning is cheap (an `Arc`).
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
        let fired = vec![false; plan.counters.len()];
        FaultSink {
            shared: Some(Arc::new(Shared {
                plan,
                collected: Mutex::new(FaultReport::default()),
                counter_fired: Mutex::new(fired),
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

    /// Build the per-rank handle for `rank` living on node `node`.
    pub fn handle(&self, rank: usize, node: usize) -> RankFaults {
        let Some(shared) = &self.shared else {
            return RankFaults::disabled();
        };
        let mut msg_faults: Vec<MsgFault> = shared
            .plan
            .messages
            .iter()
            .copied()
            .filter(|m| m.src == rank)
            .collect();
        msg_faults.sort_by_key(|m| m.nth_send);
        let crash = shared
            .plan
            .crashes
            .iter()
            .find(|c| c.rank == rank)
            .map(|c| c.when);
        RankFaults {
            shared: Some(shared.clone()),
            rank,
            node,
            msg_faults,
            next_msg: 0,
            sends: 0,
            crash,
            calls: 0,
            local: FaultReport::default(),
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
    ) -> Option<(crate::plan::CounterFaultKind, f64)> {
        let shared = self.shared.as_deref()?;
        let (i, fault): (usize, &CounterFault) = shared
            .plan
            .counters
            .iter()
            .enumerate()
            .find(|(_, c)| c.node == node && c.socket == socket)?;
        if t_s < fault.from_s {
            return None;
        }
        let mut fired = shared.counter_fired.lock().expect("counter_fired lock");
        if !fired[i] {
            fired[i] = true;
            let mut rep = shared.collected.lock().expect("fault report lock");
            rep.injected.counter += 1;
            rep.observed.counter += 1;
        }
        Some((fault.kind, fault.from_s))
    }

    /// Account for a duplicate envelope that was still sitting in an
    /// inbox when the run finished (no receive searched past it). Called from the machine's finalisation audit so the
    /// observed-duplicate count is deterministic regardless of wall-clock
    /// arrival order.
    pub fn note_dup_discarded(&self) {
        if let Some(shared) = &self.shared {
            let mut rep = shared.collected.lock().expect("fault report lock");
            rep.observed.msg_dup += 1;
            rep.recovered.msg_dup += 1;
        }
    }

    /// The merged report across all ranks that have flushed (i.e. whose
    /// handles dropped). Call after the run completes.
    pub fn report(&self) -> FaultReport {
        match &self.shared {
            None => FaultReport::default(),
            Some(shared) => {
                let mut rep = shared.collected.lock().expect("fault report lock").clone();
                rep.degraded_nodes.sort_unstable();
                rep.degraded_nodes.dedup();
                rep
            }
        }
    }
}

/// One thing that happened to a planned fault, as the layer that saw it
/// reports it: the runtime for message faults, the monitor protocol for a
/// degraded node, a checksum-protected solver for a column loss. A rank
/// states the fact once; [`RankFaults::note`] turns it into tallies and
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
            FaultNote::Degraded => Some("fault:monitor_degraded"),
            FaultNote::ColumnLossInjected => Some("fault:column_loss"),
            FaultNote::ColumnLossRecovered => Some("fault:column_loss_recovered"),
            FaultNote::DropRecovered(_) | FaultNote::DelayObserved => None,
        }
    }
}

/// Per-rank fault state: owned by the rank's context, consulted at every
/// injection point without locks. Flushes its tallies into the shared
/// report on drop.
pub struct RankFaults {
    shared: Option<Arc<Shared>>,
    rank: usize,
    node: usize,
    msg_faults: Vec<MsgFault>,
    next_msg: usize,
    sends: u64,
    crash: Option<CrashWhen>,
    calls: u64,
    local: FaultReport,
}

impl RankFaults {
    /// A handle that injects and records nothing.
    pub fn disabled() -> RankFaults {
        RankFaults {
            shared: None,
            rank: 0,
            node: 0,
            msg_faults: Vec::new(),
            next_msg: 0,
            sends: 0,
            crash: None,
            calls: 0,
            local: FaultReport::default(),
        }
    }

    /// One branch on the hot path: is there anything to do at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Advance the per-rank call counter and decide whether the planned
    /// crash fires now (`now` is the rank's virtual clock). Returns the
    /// abort diagnostic when due. Call only when [`enabled`](Self::enabled).
    pub fn crash_due(&mut self, now: f64) -> Option<String> {
        self.calls += 1;
        let due = match self.crash? {
            CrashWhen::AtTime { t_s } => now >= t_s,
            CrashWhen::AtCall { calls } => self.calls >= calls,
        };
        if !due {
            return None;
        }
        self.crash = None;
        self.local.injected.rank_crash += 1;
        self.local.observed.rank_crash += 1;
        Some(format!(
            "injected fault: rank {} crashed at virtual t={now:.6}s",
            self.rank
        ))
    }

    /// The fault (if any) attached to this rank's next logical send.
    /// Advances the send counter either way. Call only when
    /// [`enabled`](Self::enabled).
    pub fn next_send_fault(&mut self) -> Option<MsgFaultKind> {
        let idx = self.sends;
        self.sends += 1;
        while self.next_msg < self.msg_faults.len() && self.msg_faults[self.next_msg].nth_send < idx
        {
            self.next_msg += 1;
        }
        if self.next_msg < self.msg_faults.len() && self.msg_faults[self.next_msg].nth_send == idx {
            let kind = self.msg_faults[self.next_msg].kind;
            self.next_msg += 1;
            Some(kind)
        } else {
            None
        }
    }

    /// Is this rank's node scheduled for a monitoring-rank death? Records
    /// the injection when it is. Called once per run by the node's
    /// monitoring rank during protocol bring-up.
    pub fn monitor_death_due(&mut self) -> bool {
        let due = self
            .shared
            .as_deref()
            .is_some_and(|s| s.plan.monitor_deaths.contains(&self.node));
        if due {
            self.local.injected.monitor += 1;
        }
        due
    }

    /// The planned application-level column loss, if any (consumed by
    /// checksum-protected solvers).
    pub fn app_column_loss(&self) -> Option<(usize, usize)> {
        self.shared
            .as_deref()
            .and_then(|s| s.plan.column_loss)
            .map(|c| (c.level, c.column))
    }

    /// Account for one thing that happened to a planned fault. The one
    /// way tallies move outside the plan queries above, which count their
    /// own injections.
    pub fn note(&mut self, note: FaultNote) {
        let FaultReport {
            injected,
            observed,
            recovered,
            degraded_nodes,
        } = &mut self.local;
        match note {
            FaultNote::DropInjected(count) => {
                injected.msg_drop += count;
                observed.msg_drop += count;
            }
            FaultNote::DropRecovered(count) => recovered.msg_drop += count,
            FaultNote::DupInjected => injected.msg_dup += 1,
            FaultNote::DupDiscarded => {
                observed.msg_dup += 1;
                recovered.msg_dup += 1;
            }
            FaultNote::DelayInjected => injected.msg_delay += 1,
            FaultNote::DelayObserved => {
                observed.msg_delay += 1;
                recovered.msg_delay += 1;
            }
            FaultNote::Degraded => {
                observed.monitor += 1;
                recovered.monitor += 1;
                degraded_nodes.push(self.node);
            }
            FaultNote::ColumnLossInjected => {
                injected.column_loss += 1;
                observed.column_loss += 1;
            }
            FaultNote::ColumnLossRecovered => recovered.column_loss += 1,
        }
    }
}

impl Drop for RankFaults {
    fn drop(&mut self) {
        let Some(shared) = &self.shared else { return };
        if self.local.is_empty() {
            return;
        }
        let mut rep = shared.collected.lock().expect("fault report lock");
        rep.merge(&self.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ColumnLoss, CrashFault};

    #[test]
    fn disabled_sink_is_inert() {
        let sink = FaultSink::disabled();
        assert!(!sink.is_enabled());
        let mut h = sink.handle(3, 0);
        assert!(!h.enabled());
        assert!(h.next_send_fault().is_none());
        assert!(h.crash_due(1.0).is_none());
        assert!(!h.monitor_death_due());
        assert!(h.app_column_loss().is_none());
        assert!(sink.counter_fault(0, 0, 1.0).is_none());
        drop(h);
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
        assert!(h.crash_due(0.1).is_none());
        let msg = h.crash_due(0.7).expect("crash due");
        assert!(msg.starts_with("injected fault: rank 1 crashed"));
        assert!(h.crash_due(0.9).is_none(), "crash fires exactly once");
        drop(h);
        let rep = sink.report();
        assert_eq!(rep.injected.rank_crash, 1);
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
        let (monitor, loss): (Family, Family) = (|c| c.monitor, |c| c.column_loss);
        // (note, its family, [injected, observed, recovered], marker)
        let table = [
            (DropInjected(3), drop, [3, 3, 0], Some("fault:drop")),
            (DropRecovered(3), drop, [0, 0, 3], None),
            (DupInjected, dup, [1, 0, 0], Some("fault:dup")),
            (DupDiscarded, dup, [0, 1, 1], Some("fault:dup_discarded")),
            (DelayInjected, delay, [1, 0, 0], Some("fault:delay")),
            (DelayObserved, delay, [0, 1, 1], None),
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
            let sink = FaultSink::with_plan(FaultPlan::default());
            sink.handle(4, 1).note(note);
            let rep = sink.report();
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
    fn handles_flush_on_drop_and_merge() {
        let plan = FaultPlan {
            monitor_deaths: vec![1],
            column_loss: Some(ColumnLoss {
                level: 3,
                column: 7,
            }),
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let mut a = sink.handle(4, 1);
        assert!(a.monitor_death_due());
        a.note(FaultNote::Degraded);
        let mut b = sink.handle(0, 0);
        assert_eq!(b.app_column_loss(), Some((3, 7)));
        b.note(FaultNote::ColumnLossInjected);
        b.note(FaultNote::ColumnLossRecovered);
        assert!(sink.report().is_empty(), "nothing flushed yet");
        drop(a);
        drop(b);
        let rep = sink.report();
        assert_eq!(rep.injected.monitor, 1);
        assert_eq!(rep.recovered.monitor, 1);
        assert_eq!(rep.degraded_nodes, vec![1]);
        assert_eq!(rep.injected.column_loss, 1);
        assert_eq!(rep.recovered.column_loss, 1);
    }
}
