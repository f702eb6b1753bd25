//! `start_monitoring` / `end_monitoring` — the paper's `papi_monitoring.h`.
//!
//! The paper's monitoring rank brings PAPI up (library and thread
//! initialisation, an event set holding the powercap events), starts the
//! counters with `PAPI_start_AND_time`, reads them at phase boundaries and
//! stops them with `PAPI_stop_AND_time`. Those calls always run in that one
//! order, so PAPI's own event-set state machine is not emulated: the
//! [`Session`] reads each event straight from the simulated RAPL device —
//! a baseline at the start, then one read of every event per phase mark
//! and at the stop, reported as the µJ counted since the baseline.

use crate::error::MonitorError;
use crate::events::{paper_events, read_all, EventCode};
use crate::report::{NodeReport, PhaseReport};
use greenla_rapl::RaplSim;
use std::sync::Arc;

/// Monitoring configuration.
#[derive(Clone, Debug, Default)]
pub struct MonitorConfig {
    /// Directory for per-processor result files; `None` skips file output.
    pub output_dir: Option<std::path::PathBuf>,
    /// Graceful degradation: when the node's monitoring fails — the
    /// monitoring rank dies during bring-up, or a counter read fails
    /// mid-protocol — downgrade the node to "unmeasured" (no
    /// [`NodeReport`], run continues) instead of failing the whole job.
    /// Off by default: a fault-free campaign wants loud failures.
    pub degrade_on_fault: bool,
}

/// A live measurement on a monitoring rank.
pub struct Session {
    rapl: Arc<RaplSim>,
    node: usize,
    events: Vec<EventCode>,
    start_t: f64,
    /// µJ of every event at `start_t`, same order as `events`.
    base_uj: Vec<u64>,
    /// Phase boundaries: (label, boundary time, counts since the start).
    marks: Vec<(String, f64, Vec<i64>)>,
}

/// Start counting the paper's events of `node` at virtual time `now`.
pub fn start_monitoring(
    rapl: &Arc<RaplSim>,
    node: usize,
    now: f64,
) -> Result<Session, MonitorError> {
    let events = paper_events(rapl.sockets_per_node());
    let base_uj = read_all(rapl, node, &events, now)?;
    Ok(Session {
        rapl: Arc::clone(rapl),
        node,
        events,
        start_t: now,
        base_uj,
        marks: Vec::new(),
    })
}

impl Session {
    /// µJ counted by every event since the start, read at `now`.
    fn counts(&self, now: f64) -> Result<Vec<i64>, MonitorError> {
        let cur = read_all(&self.rapl, self.node, &self.events, now)?;
        Ok(cur
            .iter()
            .zip(&self.base_uj)
            .map(|(&cur, &base)| cur.wrapping_sub(base) as i64)
            .collect())
    }

    /// Record a phase boundary at virtual time `now`.
    pub fn mark_phase(&mut self, label: &str, now: f64) -> Result<(), MonitorError> {
        let vals = self.counts(now)?;
        self.marks.push((label.to_string(), now, vals));
        Ok(())
    }
}

/// Stop counting at `now` and produce the node report.
pub fn end_monitoring(
    session: Session,
    monitor_rank: usize,
    now: f64,
) -> Result<NodeReport, MonitorError> {
    let totals = session.counts(now)?;

    // Build phase deltas from the cumulative marks (+ implicit final phase).
    let mut phases = Vec::new();
    let mut prev_t = session.start_t;
    let mut prev_vals = vec![0i64; session.events.len()];
    for (label, t, vals) in &session.marks {
        phases.push(PhaseReport {
            label: label.clone(),
            duration_s: t - prev_t,
            values_uj: vals.iter().zip(&prev_vals).map(|(a, b)| a - b).collect(),
        });
        prev_t = *t;
        prev_vals = vals.clone();
    }
    if now > prev_t || phases.is_empty() {
        phases.push(PhaseReport {
            label: "final".into(),
            duration_s: now - prev_t,
            values_uj: totals.iter().zip(&prev_vals).map(|(a, b)| a - b).collect(),
        });
    }
    Ok(NodeReport {
        node: session.node,
        monitor_rank,
        events: session.events.iter().map(EventCode::name).collect(),
        start_usec: (session.start_t * 1e6) as u64,
        end_usec: (now * 1e6) as u64,
        totals_uj: totals,
        phases,
    })
}
