//! `start_monitoring` / `end_monitoring` — the paper's `papi_monitoring.h`.
//!
//! `start_monitoring` performs, on the designated monitoring rank only, the
//! full PAPI bring-up the paper lists: library initialisation, thread
//! initialisation, event-set creation, addition of all desired powercap
//! events (name → code translation included), then `PAPI_start_AND_time`.
//! `end_monitoring` stops the counters (`PAPI_stop_AND_time`), collects the
//! values and destroys the event set (`PAPI_term` equivalent).

use crate::error::MonitorError;
use crate::report::{NodeReport, PhaseReport};
use greenla_papi::low::{EventSetId, Papi, PAPI_VER_CURRENT};
use greenla_papi::powercap::paper_event_names;
use greenla_papi::reader::{EnergyReader, NodeRapl};
use greenla_papi::timer::real_usec;
use greenla_rapl::RaplSim;
use std::sync::Arc;

/// Monitoring configuration.
#[derive(Clone, Debug, Default)]
pub struct MonitorConfig {
    /// Events to monitor; `None` selects the paper's standard set (package
    /// and DRAM energy for every socket).
    pub events: Option<Vec<String>>,
    /// Directory for per-processor result files; `None` skips file output.
    pub output_dir: Option<std::path::PathBuf>,
    /// Graceful degradation: when the node's monitoring fails — the
    /// monitoring rank dies during bring-up, or PAPI/powercap reads fail
    /// mid-protocol — downgrade the node to "unmeasured" (no
    /// [`NodeReport`], run continues) instead of failing the whole job.
    /// Off by default: a fault-free campaign wants loud failures.
    pub degrade_on_fault: bool,
}

/// A live measurement on a monitoring rank.
pub struct Session {
    papi: Papi<NodeRapl>,
    set: EventSetId,
    names: Vec<String>,
    start_t: f64,
    /// Phase boundaries: (label, boundary time, cumulative counts at the
    /// boundary).
    marks: Vec<(String, f64, Vec<i64>)>,
}

/// Bring up PAPI on this node and start counting at virtual time `now`.
pub fn start_monitoring(
    rapl: &Arc<RaplSim>,
    node: usize,
    cfg: &MonitorConfig,
    now: f64,
) -> Result<Session, MonitorError> {
    let reader = NodeRapl::new(Arc::clone(rapl), node);
    let sockets = reader.sockets();
    // PWCAP_plot_init(): library + thread initialisation.
    let mut papi = Papi::library_init(PAPI_VER_CURRENT, reader)?;
    papi.thread_init()?;
    // Event-set creation and event addition.
    let names = cfg
        .events
        .clone()
        .unwrap_or_else(|| paper_event_names(sockets));
    let set = papi.create_eventset()?;
    for name in &names {
        papi.add_named_event(set, name)?;
    }
    // PAPI_start_AND_time().
    papi.start(set, now)?;
    Ok(Session {
        papi,
        set,
        names,
        start_t: now,
        marks: Vec::new(),
    })
}

impl Session {
    /// Record a phase boundary at virtual time `now` (a `PAPI_read`).
    pub fn mark_phase(&mut self, label: &str, now: f64) -> Result<(), MonitorError> {
        let vals = self.papi.read(self.set, now)?;
        self.marks.push((label.to_string(), now, vals));
        Ok(())
    }

    /// Event names being counted.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Stop the counters at `now`, tear PAPI down and produce the node report.
pub fn end_monitoring(
    mut session: Session,
    node: usize,
    monitor_rank: usize,
    now: f64,
) -> Result<NodeReport, MonitorError> {
    // PAPI_stop_AND_time().
    let totals = session.papi.stop(session.set, now)?;
    // PAPI_term(): clean up and destroy the event set.
    session.papi.cleanup_eventset(session.set)?;
    session.papi.destroy_eventset(session.set)?;

    // Build phase deltas from the cumulative marks (+ implicit final phase).
    let mut phases = Vec::new();
    let mut prev_t = session.start_t;
    let mut prev_vals = vec![0i64; session.names.len()];
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
        node,
        monitor_rank,
        events: session.names,
        start_usec: real_usec(session.start_t),
        end_usec: real_usec(now),
        totals_uj: totals,
        phases,
    })
}
