//! Black-box monitoring — the paper's §4 requirement that the framework
//! "accommodate both white-box and black box approaches, introducing only
//! minimal modifications".
//!
//! In black-box mode the application is **not** instrumented at all: one
//! core per node hosts a sampling daemon instead of an application rank.
//! The daemon reads the node's energy counters on a fixed period while the
//! unmodified application runs on the remaining cores, and stops when every
//! application rank of its node reports completion. The result is a
//! *power trace* — energy/power over time — rather than the white-box
//! mode's phase-aligned totals; the trade-off is zero application changes
//! against sampling-grained (≥ counter-update-grained) resolution.
//!
//! Determinism note: the daemon's samples are reconstructed from the
//! time-indexed RAPL device after the completion message arrives — the
//! exact series a live sampler with the same period would have produced,
//! without racing the wall clock.

use crate::error::MonitorError;
use crate::events::{paper_events, read_all};
use crate::monitoring::MonitorConfig;
use greenla_mpi::{Comm, RankCtx};
use greenla_rapl::RaplSim;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const DONE_TAG: u64 = 9_001;

/// One sample of the daemon: cumulative per-event energy at `t_s`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    pub t_s: f64,
    /// Cumulative µJ since t = 0, one per monitored event.
    pub values_uj: Vec<i64>,
}

/// What one node's sampling daemon collected.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlackboxReport {
    pub node: usize,
    pub monitor_rank: usize,
    pub events: Vec<String>,
    pub sample_period_s: f64,
    pub samples: Vec<PowerSample>,
    /// Virtual time at which the last application rank of the node
    /// finished.
    pub end_s: f64,
}

impl BlackboxReport {
    /// Total monitored energy in joules (all events, last sample).
    pub fn total_energy_j(&self) -> f64 {
        self.samples
            .last()
            .map(|s| s.values_uj.iter().map(|&v| v as f64 / 1e6).sum())
            .unwrap_or(0.0)
    }

    /// Node power trace: `(interval midpoint [s], mean power [W])` between
    /// consecutive samples, summed over all monitored events.
    pub fn power_trace(&self) -> Vec<(f64, f64)> {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = w[1].t_s - w[0].t_s;
                let de: f64 = w[1]
                    .values_uj
                    .iter()
                    .zip(&w[0].values_uj)
                    .map(|(b, a)| (b - a) as f64 / 1e6)
                    .sum();
                (
                    (w[0].t_s + w[1].t_s) / 2.0,
                    if dt > 0.0 { de / dt } else { 0.0 },
                )
            })
            .collect()
    }
}

/// Result of a black-box run on one rank.
pub struct BlackboxOutput<R> {
    /// The application's result — `None` on sampling-daemon ranks, which
    /// never run the application.
    pub result: Option<R>,
    /// The power trace — `Some` only on daemon ranks.
    pub report: Option<BlackboxReport>,
}

/// Run an **unmodified** application under black-box sampling.
///
/// The highest rank of each node becomes the sampling daemon; the rest form
/// the application communicator handed to `workload` (which needs no
/// monitoring hooks at all — that is the point of the mode). Collective
/// over the world communicator.
pub fn blackbox_run<R>(
    ctx: &mut RankCtx,
    rapl: &Arc<RaplSim>,
    cfg: &MonitorConfig,
    sample_period_s: f64,
    workload: impl FnOnce(&mut RankCtx, &Comm) -> R,
) -> Result<BlackboxOutput<R>, MonitorError> {
    assert!(sample_period_s > 0.0, "sampling period must be positive");
    let world = ctx.world();
    let node_comm = ctx.split_shared(&world);
    let is_daemon = node_comm.is_highest();
    // Application ranks get their own communicator (the unmodified app must
    // not see the daemons).
    let app_comm = ctx.split(&world, is_daemon as u64, ctx.rank() as u64);

    if is_daemon {
        let node = ctx.node();
        let events = paper_events(rapl.sockets_per_node());
        // Wait (idle, like a daemon sleeping in epoll) for every
        // application rank of this node to report completion.
        let workers = node_comm.size() - 1;
        let mut end_s = ctx.now();
        for w in 0..workers {
            let msg = ctx.recv_f64_idle(&node_comm, w, DONE_TAG);
            end_s = end_s.max(msg[0]);
        }
        end_s = end_s.max(ctx.now());
        // Reconstruct the periodic samples the live daemon would have read.
        let mut samples = Vec::new();
        let mut t = 0.0f64;
        loop {
            let t_read = t.min(end_s);
            let values = read_all(rapl, node, &events, t_read)?
                .into_iter()
                .map(|v| v as i64)
                .collect();
            samples.push(PowerSample {
                t_s: t_read,
                values_uj: values,
            });
            if t >= end_s {
                break;
            }
            t += sample_period_s;
        }
        let report = BlackboxReport {
            node,
            monitor_rank: ctx.rank(),
            events: events.iter().map(|e| e.name()).collect(),
            sample_period_s,
            samples,
            end_s,
        };
        if let Some(dir) = &cfg.output_dir {
            let text = serde_json::to_string_pretty(&report)
                .map_err(|e| MonitorError::Io(e.to_string()))?;
            std::fs::create_dir_all(dir).map_err(|e| MonitorError::Io(e.to_string()))?;
            std::fs::write(
                dir.join(format!("greenla_blackbox_node{node:04}.json")),
                text,
            )
            .map_err(|e| MonitorError::Io(e.to_string()))?;
        }
        Ok(BlackboxOutput {
            result: None,
            report: Some(report),
        })
    } else {
        let r = workload(ctx, &app_comm);
        // Report completion (with my finish time) to my node's daemon.
        let t = ctx.now();
        let daemon = node_comm.size() - 1;
        ctx.send_f64(&node_comm, daemon, DONE_TAG, &[t]);
        Ok(BlackboxOutput {
            result: Some(r),
            report: None,
        })
    }
}
