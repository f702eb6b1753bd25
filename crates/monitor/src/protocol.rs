//! The Figure-2 choreography: rank grouping, monitoring-rank designation,
//! and the barrier protocol around the measured region.
//!
//! ```text
//! MPI_Comm_split_type(SHARED)            → one communicator per node
//! monitoring rank = highest rank of node comm
//! MPI_Barrier(node comm)                 → align the node
//! monitoring rank: start_monitoring()
//! MPI_Barrier(COMM_WORLD)                → align the job
//! every rank: its share of the solver
//! MPI_Barrier(node comm)                 → wait for the node's ranks
//! monitoring rank: end_monitoring()
//! MPI_Barrier(COMM_WORLD)                → final alignment
//! ```
//!
//! The node barrier before `end_monitoring` is what makes the measurement
//! *correct*: the counters are read only after every rank of the node has
//! finished its share, so the window covers all of the node's work (the
//! property `tests/monitor_correctness.rs` checks, including the failure
//! of a barrier-less variant).

use crate::error::MonitorError;
use crate::files;
use crate::monitoring::{end_monitoring, start_monitoring, MonitorConfig, Session};
use crate::report::NodeReport;
use greenla_mpi::{AbortKind, Comm, FaultNote, MonitorStep, RankCtx, RankEvent};
use greenla_rapl::RaplSim;
use std::sync::Arc;

/// In-band status word the monitoring rank broadcasts over the node
/// communicator after the counters' bring-up: the node is measured.
const STATUS_OK: u64 = 0;

/// Status word for a node that downgraded itself to "unmeasured" after a
/// monitoring fault (only sent when [`MonitorConfig::degrade_on_fault`] is
/// set). A bring-up that fails without leave to degrade sends nothing: the
/// monitoring rank aborts the run on the spot.
const STATUS_DEGRADED: u64 = 0xDE67_ADED;

/// Live monitoring state carried through the measured region.
pub struct MonitorHandle {
    node_comm: Comm,
    session: Option<Session>,
    monitor_rank_world: usize,
    degrade_on_fault: bool,
}

/// Result of a monitored run on one rank.
pub struct MonitorOutput<R> {
    /// The workload's return value.
    pub result: R,
    /// The node report — `Some` only on monitoring ranks.
    pub report: Option<NodeReport>,
}

impl MonitorHandle {
    /// Rank grouping + designation + measurement start (first half of the
    /// Figure-2 flow). Collective over the world communicator.
    ///
    /// A monitoring rank whose bring-up fails without leave to degrade
    /// ends the run as [`AbortKind::Monitor`]: an `Err` handed to its own
    /// node would strand every other node in the job-wide barrier below.
    /// So this never returns `Err`. The `Result` stays only for the
    /// benchmark's copy of the harness's run (`benchmark/src/exploded.rs`),
    /// which calls `.expect` on it; it goes when that copy is replaced by
    /// `greenla_harness::run::rank_body`, the one monitored rank body.
    pub fn begin(
        ctx: &mut RankCtx,
        rapl: &Arc<RaplSim>,
        cfg: &MonitorConfig,
    ) -> Result<MonitorHandle, MonitorError> {
        ctx.trace_begin("monitor", "monitor_begin");
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::Monitor(MonitorStep::NodeComm(node_comm.id())));
        let is_monitor = node_comm.is_highest();
        let monitor_rank_world = node_comm.global_rank(node_comm.size() - 1);
        // Node synchronisation before measurements begin.
        ctx.barrier(&node_comm);
        let mut status = vec![STATUS_OK];
        let mut session = None;
        if is_monitor {
            // A planned monitoring-rank death fires here, mid-protocol:
            // with degradation enabled the node downgrades itself to
            // "unmeasured"; without it the rank really dies and takes the
            // run with it.
            if ctx.faults().monitor_death_due() {
                ctx.emit(RankEvent::Fault(FaultNote::MonitorDied));
                if !cfg.degrade_on_fault {
                    ctx.abort(
                        AbortKind::InjectedFault,
                        format!(
                            "injected fault: monitoring rank {} of node {} died during \
                             protocol bring-up",
                            ctx.rank(),
                            ctx.node()
                        ),
                    );
                }
                ctx.emit(RankEvent::Fault(FaultNote::Degraded));
                status = vec![STATUS_DEGRADED];
            } else {
                match start_monitoring(rapl, ctx.node(), ctx.now()) {
                    Ok(s) => {
                        ctx.emit(RankEvent::Monitor(MonitorStep::Start));
                        session = Some(s);
                    }
                    Err(_) if cfg.degrade_on_fault => {
                        ctx.emit(RankEvent::Fault(FaultNote::Degraded));
                        status = vec![STATUS_DEGRADED];
                    }
                    Err(e) => ctx.abort(
                        AbortKind::Monitor,
                        format!(
                            "start_monitoring on rank {} (node {}): {e}",
                            ctx.rank(),
                            ctx.node()
                        ),
                    ),
                }
            }
        }
        // The monitoring rank shares its bring-up status with its node;
        // everyone only reads it, so it travels as one shared word. The
        // `FaultNote::Degraded` event above is the record of a downgrade.
        let root = node_comm.size() - 1;
        ctx.bcast_shared_u64(&node_comm, root, is_monitor.then_some(status));
        // General execution synchronisation. A degraded node still joins:
        // the rest of the job must not notice the downgrade.
        ctx.barrier(&world);
        ctx.trace_end("monitor", "monitor_begin");
        ctx.trace_begin("monitor", "measured_region");
        Ok(MonitorHandle {
            node_comm,
            session,
            monitor_rank_world,
            degrade_on_fault: cfg.degrade_on_fault,
        })
    }

    /// Mark a phase boundary (e.g. between matrix allocation and solver
    /// execution). Collective over the node communicator: all ranks of the
    /// node synchronise so the boundary is well defined.
    pub fn phase(&mut self, ctx: &mut RankCtx, label: &'static str) -> Result<(), MonitorError> {
        ctx.barrier(&self.node_comm);
        ctx.emit(RankEvent::Monitor(MonitorStep::Phase(label)));
        if let Some(mut s) = self.session.take() {
            match s.mark_phase(label, ctx.now()) {
                Ok(()) => self.session = Some(s),
                Err(e) => {
                    // Mid-run measurement loss (e.g. a glitched powercap
                    // read): degrade the node rather than fail the job.
                    if !self.degrade_on_fault {
                        return Err(e);
                    }
                    ctx.emit(RankEvent::Fault(FaultNote::Degraded));
                }
            }
        }
        Ok(())
    }

    /// Measurement stop + teardown (second half of the Figure-2 flow).
    pub fn finish(
        self,
        ctx: &mut RankCtx,
        cfg: &MonitorConfig,
    ) -> Result<Option<NodeReport>, MonitorError> {
        ctx.trace_end("monitor", "measured_region");
        ctx.trace_begin("monitor", "monitor_finish");
        // Ranks of the node synchronise so the monitoring rank stops only
        // after all of them completed their share.
        ctx.barrier(&self.node_comm);
        // A monitoring rank's failure is held until after the job-wide
        // barrier below: every other rank is about to enter it.
        let mut report = Ok(None);
        if let Some(session) = self.session {
            ctx.emit(RankEvent::Monitor(MonitorStep::End));
            match end_monitoring(session, self.monitor_rank_world, ctx.now()) {
                Ok(r) => {
                    ctx.trace_instant("end_monitoring");
                    report = match &cfg.output_dir {
                        Some(dir) => files::write_node_report(dir, &r)
                            .map(|_path| Some(r))
                            .map_err(|e| MonitorError::Io(e.to_string())),
                        None => Ok(Some(r)),
                    };
                }
                // The counters died between the last read and the stop:
                // with degradation enabled the node forfeits its report
                // instead of failing the job.
                Err(_) if self.degrade_on_fault => {
                    ctx.emit(RankEvent::Fault(FaultNote::Degraded));
                }
                Err(e) => report = Err(e),
            }
        }
        // Final job-wide alignment (then MPI_Finalize in the C framework).
        let world = ctx.world();
        ctx.barrier(&world);
        ctx.trace_end("monitor", "monitor_finish");
        report
    }
}

/// Run `workload` under monitoring: the complete Figure-2 flow in one call.
/// The workload receives the rank context and the handle (to mark phase
/// boundaries).
///
/// # Example
///
/// ```
/// use greenla_cluster::placement::{LoadLayout, Placement};
/// use greenla_cluster::spec::ClusterSpec;
/// use greenla_cluster::PowerModel;
/// use greenla_monitor::{monitored_run, MonitorConfig};
/// use greenla_mpi::Machine;
/// use greenla_rapl::RaplSim;
/// use std::sync::Arc;
///
/// let spec = ClusterSpec::test_cluster(1, 4); // one node, 2×4 cores
/// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
/// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap();
/// let rapl = Arc::new(RaplSim::new(machine.ledger(), machine.power().clone(), 1));
/// let cfg = MonitorConfig::default();
///
/// let out = machine.run(|ctx| {
///     monitored_run(ctx, &rapl, &cfg, |ctx, _handle| {
///         ctx.compute(1_000_000, 0); // the measured workload
///     })
///     .expect("monitoring protocol")
/// });
///
/// // Exactly one rank per node (here: one node) produced a report.
/// let reports: Vec<_> = out.results.into_iter().filter_map(|m| m.report).collect();
/// assert_eq!(reports.len(), 1);
/// assert!(reports[0].total_energy_j() > 0.0);
/// ```
pub fn monitored_run<R>(
    ctx: &mut RankCtx,
    rapl: &Arc<RaplSim>,
    cfg: &MonitorConfig,
    workload: impl FnOnce(&mut RankCtx, &mut MonitorHandle) -> R,
) -> Result<MonitorOutput<R>, MonitorError> {
    let mut handle = MonitorHandle::begin(ctx, rapl, cfg)?;
    let result = workload(ctx, &mut handle);
    let report = handle.finish(ctx, cfg)?;
    Ok(MonitorOutput { result, report })
}
