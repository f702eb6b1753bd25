//! The machine: runs a program with one rank per placement slot, every
//! rank a task of one [`crate::sched`] engine (carried by fibers or OS
//! threads).

use crate::check::CheckSink;
use crate::context::RankCtx;
use crate::error::{Abort, AbortKind, MachineError};
use crate::event::{Observers, RankEvent};
use crate::mailbox::Mailboxes;
use crate::registry::{RankExit, Registry};
use crate::sched::{Engine, SchedulerKind};
use crate::trace::TraceSink;
use crate::traffic::TrafficSnapshot;
use greenla_cluster::ledger::{ActivityKind, Ledger};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_faults::{FaultNote, FaultReport, FaultSink};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A configured simulated machine, ready to run MPI programs.
pub struct Machine {
    spec: ClusterSpec,
    placement: Placement,
    power: PowerModel,
    seed: u64,
    ledger: Arc<Ledger>,
    /// Every run's traffic so far, summed once each run stops.
    traffic: Mutex<TrafficSnapshot>,
    trace: TraceSink,
    check: CheckSink,
    faults: FaultSink,
    scheduler: SchedulerKind,
    sched_workers: Option<usize>,
}

/// What a completed run produced.
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by global rank.
    pub results: Vec<R>,
    /// Final virtual clock of each rank.
    pub final_clocks: Vec<f64>,
    /// Virtual makespan: the latest final clock.
    pub makespan: f64,
    /// Total traffic of the machine's runs so far, this one included.
    pub traffic: TrafficSnapshot,
}

/// What one rank leaves behind, banked when its body ends however it
/// ends.
struct Banked<R> {
    /// The result and final clock of a rank whose body returned.
    done: Option<(R, f64)>,
    log: Vec<(f64, RankEvent)>,
    traffic: TrafficSnapshot,
}

impl Machine {
    /// Build a machine. The placement must have been generated for the same
    /// node shape and must fit within the cluster's node count.
    pub fn new(
        spec: ClusterSpec,
        placement: Placement,
        power: PowerModel,
        seed: u64,
    ) -> Result<Self, MachineError> {
        if placement.node_spec() != &spec.node {
            return Err(MachineError::NodeShapeMismatch);
        }
        if placement.nodes_used() > spec.nodes {
            return Err(MachineError::PlacementTooLarge {
                needed: placement.nodes_used(),
                available: spec.nodes,
            });
        }
        let ledger = Arc::new(Ledger::new(spec.node.clone(), placement.nodes_used()));
        Ok(Self {
            spec,
            placement,
            power,
            seed,
            ledger,
            traffic: Mutex::default(),
            trace: TraceSink::disabled(),
            check: CheckSink::disabled(),
            faults: FaultSink::disabled(),
            scheduler: SchedulerKind::default(),
            sched_workers: None,
        })
    }

    /// Select the rank-scheduling engine (see [`SchedulerKind`]). The
    /// engine changes only wall-clock execution; virtual-time outcomes
    /// are bit-identical by the scheduler-invariance contract
    /// ([`crate::sched`] module docs).
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.scheduler = kind;
    }

    /// Builder-style [`Machine::set_scheduler`].
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Pin the fiber carrier's worker-pool size instead of deriving it
    /// from the host's parallelism. The harness pins one worker for a job
    /// its model predicts communication-bound and otherwise, inside a
    /// campaign's fan-out, the thread's share of the host's cores; tests
    /// pin it to run a program on pools of chosen sizes. Virtual-time
    /// results never depend on it. Ignored by the OS-thread carrier.
    pub fn with_sched_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.sched_workers = Some(workers);
        self
    }

    /// The pinned fiber-pool size; `None` leaves the engine's default.
    pub fn sched_workers(&self) -> Option<usize> {
        self.sched_workers
    }

    /// Attach an event-trace sink. Tracing only observes the virtual
    /// clocks — it never advances them — so a traced run produces
    /// bit-identical timings to an untraced one.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The attached trace sink (disabled by default).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Attach a correctness-checking sink. Like tracing, checking only
    /// observes the virtual clocks — it never advances them — so a checked
    /// run produces bit-identical timings to an unchecked one.
    pub fn with_check(mut self, sink: CheckSink) -> Self {
        self.check = sink;
        self
    }

    /// The attached checking sink (disabled by default).
    pub fn check(&self) -> &CheckSink {
        &self.check
    }

    /// Attach a fault-injection sink. Unlike tracing and checking, an
    /// *active* plan perturbs virtual time on purpose; a disabled sink
    /// (the default) costs one branch per injection point and leaves the
    /// timeline bit-identical to a build without the fault layer.
    pub fn with_faults(mut self, sink: FaultSink) -> Self {
        self.faults = sink;
        self
    }

    /// The activity ledger (shared; energy layers read it during and after
    /// the run).
    pub fn ledger(&self) -> Arc<Ledger> {
        Arc::clone(&self.ledger)
    }

    /// Total traffic of the machine's runs so far.
    pub fn traffic(&self) -> TrafficSnapshot {
        *self.traffic.lock()
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// [`Machine::try_run`] for callers that have nothing to do with a
    /// failed run: panics, once and on this thread, with the [`Abort`]'s
    /// diagnostic.
    ///
    /// # Example
    ///
    /// ```
    /// use greenla_cluster::placement::{LoadLayout, Placement};
    /// use greenla_cluster::spec::ClusterSpec;
    /// use greenla_cluster::PowerModel;
    /// use greenla_mpi::Machine;
    ///
    /// let spec = ClusterSpec::test_cluster(1, 4); // one node, 2×4 cores
    /// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
    /// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap();
    ///
    /// let out = machine.run(|ctx| {
    ///     let world = ctx.world();
    ///     ctx.compute(1_000_000, 0); // charge virtual time for 1 Mflop
    ///     ctx.allreduce_sum_f64(&world, &[1.0])[0]
    /// });
    ///
    /// assert!(out.results.iter().all(|&r| r == 8.0));
    /// assert!(out.makespan > 0.0); // virtual seconds, not wall time
    /// ```
    pub fn run<R, F>(&self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.try_run(f).unwrap_or_else(|abort| panic!("{abort}"))
    }

    /// Run `f` on every rank and collect results, or say why the run died.
    ///
    /// What carries the ranks depends on the selected [`SchedulerKind`]:
    /// fibers multiplexed over a small worker pool, or one scoped OS
    /// thread per rank. Either way this call blocks until every rank has
    /// finished, and all virtual-time outputs are bit-identical across
    /// carriers.
    ///
    /// A run dies when a rank calls [`RankCtx::abort`] — the runtime does
    /// for planned faults, deadlocks (every unfinished rank waits and none
    /// can be woken, whether its peers are blocked or already finished;
    /// the detail says what each parked rank waits on and names the cycle
    /// or the finished rank it waits for) and broken collective contracts; solvers and the monitor do for
    /// their own errors — or when a rank body panics ([`AbortKind::Panic`],
    /// with the panic's message as the detail). The first cause recorded is
    /// the one returned: it is on record before the run is poisoned, and
    /// the ranks the poison then unblocks leave without reporting anything.
    pub fn try_run<R, F>(&self, f: F) -> Result<RunOutput<R>, Abort>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let n = self.placement.ntasks();
        self.check.clear();
        let mail = Arc::new(Mailboxes::new(Engine::new(
            n,
            self.scheduler,
            self.sched_workers,
        )));
        let registry = Registry::new(Arc::clone(&mail), self.check.clone());
        let world_members: Arc<Vec<usize>> = Arc::new((0..n).collect());
        let slots: Vec<Mutex<Option<Banked<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();

        // One rank's whole life: build the context, run the closure, bank
        // the outputs. The engine decides only what carries this body.
        let run_rank = |rank: usize| {
            let core = self.placement.core_of(rank);
            let perf_mult = self.power.perf_multiplier(self.seed, core.node);
            let mut ctx = RankCtx {
                rank,
                nranks: n,
                core,
                clock: 0.0,
                spec: &self.spec,
                perf_mult,
                ledger: &self.ledger,
                traffic: TrafficSnapshot::default(),
                registry: &registry,
                placement: &self.placement,
                mail: &mail,
                seqs: Default::default(),
                world_members: Arc::clone(&world_members),
                observers: Observers::new(
                    self.trace.is_enabled(),
                    self.check.is_enabled(),
                    self.faults.is_enabled(),
                ),
                faults: self.faults.handle(rank, core.node),
            };
            let done = match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                Ok(r) => Some((r, ctx.clock)),
                // The rank left an aborted run: its cause is on record.
                Err(payload) if payload.is::<RankExit>() => None,
                // The rank body itself panicked (the hook has printed it).
                Err(payload) => {
                    let detail = match payload.downcast::<String>() {
                        Ok(text) => *text,
                        Err(other) => other
                            .downcast_ref::<&str>()
                            .map_or("rank panicked with a non-string payload", |text| text)
                            .to_string(),
                    };
                    registry.poison(Abort {
                        rank,
                        kind: AbortKind::Panic,
                        detail,
                    });
                    None
                }
            };
            // Every exit path: what an aborted rank sent still crossed the
            // wire, and what it did up to its exit is in its log.
            *slots[rank].lock() = Some(Banked {
                done,
                log: ctx.observers.log,
                traffic: ctx.traffic,
            });
        };
        let run_rank = &run_rank;
        mail.engine().run(
            (0..n)
                .map(|rank| Box::new(move || run_rank(rank)) as Box<dyn FnOnce() + Send + '_>)
                .collect(),
        );
        let mut banked: Vec<Banked<R>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every rank banks its outputs"))
            .collect();

        let cause = registry.cause();
        let node_of: Vec<usize> = (0..n).map(|r| self.placement.core_of(r).node).collect();
        let mut faults = FaultReport::default();
        let mut leftovers = Vec::new();
        if cause.is_none() && (self.check.is_enabled() || self.faults.is_enabled()) {
            // Message hygiene, once every rank has stopped sending:
            // anything still in an inbox at finalize was sent but never
            // received (MSG001). Injected duplicates no receive searched
            // past are tallied here, on the receiver's node, instead —
            // whether a duplicate is discarded mid-run or at finalize is a
            // wall-clock accident, but the total observed count is
            // deterministic.
            for (rank, &node) in node_of.iter().enumerate() {
                for e in mail.drain(rank) {
                    if e.dup {
                        faults.note(FaultNote::DupDiscarded, node);
                    } else {
                        leftovers.push((e.src, rank, e.comm_id, e.tag, e.arrival));
                    }
                }
            }
        }
        // Every rank's log is in, in rank order, and each sink reads it
        // now: the trace renders it, the fault notes fold into the run's
        // one report, and the checker judges the run from the logs, the
        // finished ledger and the leftovers — so every verdict is the
        // same whatever order the ranks ran in, and an aborted run
        // reports them.
        let traffic = {
            let mut total = self.traffic.lock();
            banked.iter().for_each(|slot| total.add(&slot.traffic));
            *total
        };
        let logs: Vec<Vec<(f64, RankEvent)>> = (banked.iter_mut())
            .map(|slot| std::mem::take(&mut slot.log))
            .collect();
        self.trace.bank(&node_of, &logs);
        for (log, &node) in logs.iter().zip(&node_of) {
            for &(_, ev) in log {
                if let RankEvent::Fault(note) = ev {
                    faults.note(note, node);
                }
            }
        }
        self.faults.bank([faults]);
        self.check.end_run(
            &node_of,
            &logs,
            &mut |rank, t| {
                let core = self.placement.core_of(rank);
                self.ledger.span_across(core, ActivityKind::Compute, t)
            },
            &leftovers,
        );
        if let Some(abort) = cause {
            return Err(abort.clone());
        }
        let (results, final_clocks): (Vec<R>, Vec<f64>) = banked
            .into_iter()
            .map(|slot| slot.done.expect("rank produced no result"))
            .unzip();
        let makespan = final_clocks.iter().fold(0.0f64, |a, &b| a.max(b));
        Ok(RunOutput {
            results,
            final_clocks,
            makespan,
            traffic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CollContractError;
    use greenla_cluster::placement::LoadLayout;

    fn machine(ranks: usize) -> Machine {
        let spec = ClusterSpec::test_cluster(8, 4); // 8 nodes × 2×4 cores
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 42).unwrap()
    }

    #[test]
    fn ranks_see_identity() {
        let m = machine(8);
        let out = m.run(|ctx| (ctx.rank(), ctx.size(), ctx.node()));
        for (r, &(rank, size, node)) in out.results.iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 8);
            assert_eq!(node, r / 8); // 8 ranks per full-load test node
        }
    }

    #[test]
    fn compute_advances_clock_deterministically() {
        let m = machine(8);
        let out = m.run(|ctx| {
            ctx.compute(1_000_000, 0);
            ctx.now()
        });
        for &t in &out.results {
            assert!(t > 0.0);
        }
        // Same node → same jitter → same time; all ranks did identical work.
        assert_eq!(out.results[0], out.results[1]);
        // Two runs are bit-identical.
        let m2 = machine(8);
        let out2 = m2.run(|ctx| {
            ctx.compute(1_000_000, 0);
            ctx.now()
        });
        assert_eq!(out.results, out2.results);
    }

    #[test]
    fn send_recv_pair_respects_causality() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.compute(50_000_000, 0); // delay the sender
                ctx.send_f64(&world, 1, 7, &[1.5, 2.5]);
                ctx.now()
            } else if ctx.rank() == 1 {
                let data = ctx.recv_f64(&world, 0, 7);
                assert_eq!(data, vec![1.5, 2.5]);
                ctx.now()
            } else {
                0.0
            }
        });
        // Receiver finishes after sender started the message.
        assert!(
            out.results[1] > out.results[0] * 0.9,
            "{:?}",
            &out.results[..2]
        );
        assert!(out.results[1] > 0.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let m = machine(8);
        let out = m.run(|ctx| {
            // Rank-dependent work before the barrier.
            ctx.compute(1_000_000 * (ctx.rank() as u64 + 1), 0);
            let world = ctx.world();
            ctx.barrier(&world);
            ctx.now()
        });
        let t0 = out.results[0];
        for &t in &out.results {
            assert!((t - t0).abs() < 1e-12, "clocks diverged: {:?}", out.results);
        }
        // Barrier time ≥ slowest rank's work.
        assert!(t0 >= out.results[7] * 0.999);
    }

    /// Both carriers this build has.
    fn carriers() -> impl Iterator<Item = SchedulerKind> {
        [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven]
            .into_iter()
            .filter(|kind| kind.supported())
    }

    #[test]
    fn every_wait_is_visible_at_the_release() {
        // Whoever leaves first already reads every member's wait at the
        // release, however many of them the host has resumed, and each
        // wait is recorded once. A split keeps its waits the same way.
        for kind in carriers() {
            let m = machine(8).with_scheduler(kind);
            let ledger = m.ledger();
            let comm_at = |t: f64| -> Vec<f64> {
                (0..8)
                    .map(|r| {
                        ledger.core_busy_until(m.placement().core_of(r), ActivityKind::Comm, t)
                    })
                    .collect()
            };
            // `(arrival, release, every core's Comm time read at the release)`
            // of the barrier, then of the split.
            let out = m.run(|ctx| {
                let world = ctx.world();
                let enter = |ctx: &mut RankCtx, split: bool| {
                    let arrival = ctx.now();
                    if split {
                        ctx.split(&world, ctx.rank() as u64 % 2, 0);
                    } else {
                        ctx.barrier(&world);
                    }
                    (arrival, ctx.now(), comm_at(ctx.now()))
                };
                ctx.compute(1_000_000 * (ctx.rank() as u64 % 3 + 1), 0);
                let barrier = enter(ctx, false);
                ctx.compute(1_000_000 * (ctx.rank() as u64 % 5), 0);
                (barrier, enter(ctx, true))
            });
            let (barrier_release, split_release) = (out.results[0].0 .1, out.results[0].1 .1);
            let waits: Vec<f64> = out
                .results
                .iter()
                .map(|r| barrier_release - r.0 .0)
                .collect();
            let both: Vec<f64> = (out.results.iter().zip(&waits))
                .map(|(r, w)| w + (split_release - r.1 .0))
                .collect();
            for (rank, (barrier, split)) in out.results.iter().enumerate() {
                assert_eq!((barrier.1, split.1), (barrier_release, split_release));
                assert_eq!(barrier.2, waits, "{kind}: rank {rank} at the barrier");
                assert_eq!(split.2, both, "{kind}: rank {rank} at the split");
            }
            assert_eq!(comm_at(f64::INFINITY), both, "{kind}: after the run");
        }
    }

    #[test]
    fn an_abandoned_wait_records_nothing() {
        // Rank 0 panics while the others wait in a world barrier: each of
        // them unwinds out with its wait open, which must leave its core's
        // `Comm` time where it was before the barrier.
        for kind in carriers() {
            let m = machine(8).with_scheduler(kind);
            let ledger = m.ledger();
            let comm = |r: usize| {
                ledger.core_busy_until(m.placement().core_of(r), ActivityKind::Comm, f64::INFINITY)
            };
            let before: Vec<Mutex<f64>> = (0..8).map(|_| Mutex::new(f64::NAN)).collect();
            let abort = m
                .try_run(|ctx| {
                    let world = ctx.world();
                    ctx.compute(1_000_000 * (ctx.rank() as u64 % 3 + 1), 0);
                    ctx.barrier(&world);
                    if ctx.rank() == 0 {
                        // Every peer has left the first barrier once it
                        // has sent. On OS threads, also wait until every
                        // peer's second wait is open (it reads +∞ at +∞);
                        // a fiber must not spin.
                        for r in 1..8 {
                            ctx.recv_f64(&world, r, 0);
                        }
                        while kind == SchedulerKind::ThreadPerRank
                            && (1..8).any(|r| comm(r) != f64::INFINITY)
                        {
                            std::thread::yield_now();
                        }
                        panic!("rank 0 hit a bug");
                    }
                    ctx.compute(1_000_000 * (ctx.rank() as u64 % 5), 0);
                    ctx.send_f64(&world, 0, 0, &[]);
                    *before[ctx.rank()].lock() = comm(ctx.rank());
                    ctx.barrier(&world);
                })
                .err()
                .expect("a panicking rank must abort the run");
            assert_eq!((abort.kind, abort.rank), (AbortKind::Panic, 0), "{kind}");
            for (r, before) in before.iter().enumerate().skip(1) {
                let before = *before.lock();
                assert!(before > 0.0, "{kind}: rank {r} waited in the first barrier");
                assert_eq!(comm(r).to_bits(), before.to_bits(), "{kind}: rank {r}");
            }
        }
    }

    #[test]
    fn split_shared_groups_by_node() {
        let m = machine(16); // 2 nodes × 8
        let out = m.run(|ctx| {
            let world = ctx.world();
            let node_comm = ctx.split_shared(&world);
            (node_comm.size(), node_comm.rank(), node_comm.is_highest())
        });
        for (r, &(size, idx, highest)) in out.results.iter().enumerate() {
            assert_eq!(size, 8);
            assert_eq!(idx, r % 8);
            assert_eq!(highest, r % 8 == 7, "rank {r}");
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let data = (ctx.rank() == 3).then(|| vec![9.0, 8.0, 7.0]);
            ctx.bcast_shared_f64(&world, 3, data)
        });
        for r in out.results {
            assert_eq!(*r, vec![9.0, 8.0, 7.0]);
        }
    }

    #[test]
    fn bcast_traffic_is_p_minus_1_messages() {
        let m = machine(8);
        let before = m.traffic();
        m.run(|ctx| {
            let world = ctx.world();
            let data = (ctx.rank() == 0).then(|| vec![0.0; 100]);
            ctx.bcast_shared_f64(&world, 0, data);
        });
        let diff = m.traffic().since(&before);
        assert_eq!(diff.msgs, 7, "binomial bcast must send P-1 messages");
        assert_eq!(diff.volume_elems(), 700);
    }

    #[test]
    fn an_aborted_run_still_counts_what_its_ranks_sent() {
        // Rank 0 sends and then panics; rank 1 sends and then waits for a
        // message that never comes, so it leaves by the poison unwind.
        // Both sends crossed the wire and must be in the tally.
        let m = machine(8);
        let abort = m
            .try_run(|ctx| {
                let world = ctx.world();
                match ctx.rank() {
                    0 => {
                        ctx.send_f64(&world, 1, 7, &[1.0; 4]);
                        panic!("rank 0 dies after its send");
                    }
                    1 => {
                        ctx.send_f64(&world, 2, 7, &[1.0; 2]);
                        ctx.recv_f64(&world, 0, 8);
                    }
                    2 => {
                        ctx.recv_f64(&world, 1, 7);
                    }
                    _ => {}
                }
            })
            .err()
            .expect("the panic aborts the run");
        assert_eq!((abort.rank, abort.kind), (0, AbortKind::Panic));
        let sent = m.traffic();
        assert_eq!((sent.msgs, sent.volume_elems()), (2, 6));
    }

    #[test]
    fn pipelined_bcast_delivers_identically() {
        let m = machine(16);
        let payload: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let expected = payload.clone();
        let out = m.run(|ctx| {
            let world = ctx.world();
            let data = (ctx.rank() == 2).then(|| payload.clone());
            ctx.bcast_pipelined_shared_f64(&world, 2, data, 128)
        });
        for r in out.results {
            assert_eq!(*r, expected);
        }
    }

    #[test]
    fn pipelined_bcast_beats_binomial_on_large_payloads() {
        // Critical path O(α·logP + β·n) vs O((α + β·n)·logP).
        let payload = vec![1.0f64; 2_000_000];
        let run = |pipelined: bool| {
            let m = machine(16);
            let p2 = payload.clone();
            let out = m.run(move |ctx| {
                let world = ctx.world();
                let data = (ctx.rank() == 0).then(|| p2.clone());
                if pipelined {
                    ctx.bcast_pipelined_shared_f64(&world, 0, data, 64 * 1024);
                } else {
                    ctx.bcast_shared_f64(&world, 0, data);
                }
                ctx.now()
            });
            out.results.iter().fold(0.0f64, |a, &b| a.max(b))
        };
        let t_pipe = run(true);
        let t_tree = run(false);
        assert!(
            t_pipe < t_tree * 0.7,
            "pipelined {t_pipe} should clearly beat binomial {t_tree}"
        );
    }

    #[test]
    fn pipelined_bcast_empty_and_tiny_payloads() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let small = (ctx.rank() == 0).then(|| vec![42.0]);
            let small = ctx.bcast_pipelined_shared_f64(&world, 0, small, 1000);
            let empty = (ctx.rank() == 0).then(Vec::new);
            let empty = ctx.bcast_pipelined_shared_f64(&world, 0, empty, 4);
            (small, empty)
        });
        for (small, empty) in out.results {
            assert_eq!(*small, vec![42.0]);
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mine = vec![ctx.rank() as f64, 1.0];
            let root_sum = ctx.reduce_sum_f64(&world, 2, mine.clone());
            let all_sum = ctx.allreduce_sum_f64(&world, &mine);
            (root_sum, all_sum)
        });
        for (r, (root_sum, all_sum)) in out.results.into_iter().enumerate() {
            assert_eq!(all_sum, vec![28.0, 8.0]);
            if r == 2 {
                assert_eq!(root_sum.unwrap(), vec![28.0, 8.0]);
            } else {
                assert!(root_sum.is_none());
            }
        }
    }

    #[test]
    fn maxloc_finds_global_pivot() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            // Rank 5 holds the largest |value|.
            let v = if ctx.rank() == 5 {
                -100.0
            } else {
                ctx.rank() as f64
            };
            ctx.allreduce_maxloc_abs(&world, v, ctx.rank() as u64)
        });
        for (v, loc) in out.results {
            assert_eq!(v, -100.0);
            assert_eq!(loc, 5);
        }
    }

    #[test]
    fn gather_preserves_order_and_lengths() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mine: Vec<f64> = (0..=ctx.rank()).map(|i| i as f64).collect();
            ctx.gather_f64(&world, 0, &mine)
        });
        let chunks = out.results[0].clone().unwrap();
        assert_eq!(chunks.len(), 8);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.len(), i + 1);
        }
        assert!(out.results[1].is_none());
    }

    #[test]
    fn mismatched_reduce_lengths_abort_with_the_stable_diagnostic() {
        // A malformed collective must surface as a typed contract breach
        // on the rank that combined the odd buffer (5's tree parent), not
        // as a bare slice-length assert.
        let abort = machine(8)
            .try_run(|ctx| {
                let world = ctx.world();
                let len = if ctx.rank() == 5 { 3 } else { 2 };
                ctx.reduce_sum_f64(&world, 0, vec![1.0; len]);
            })
            .err()
            .expect("mismatched lengths must abort");
        assert_eq!((abort.kind, abort.rank), (AbortKind::CollectiveContract, 4));
        let breach = CollContractError::ReduceLengthMismatch {
            comm: 0,
            rank: 4,
            got: 3,
            expected: 2,
        };
        assert_eq!(abort.detail, breach.to_string());
    }

    #[test]
    fn an_oversized_pipeline_aborts_before_it_sends() {
        // 2^20 one-element chunks need two more ids than the tag layout
        // has below its markers; checked or not, the root refuses first.
        for checked in [false, true] {
            let mut m = machine(8);
            if checked {
                m = m.with_check(CheckSink::enabled());
            }
            let abort = m
                .try_run(|ctx| {
                    let world = ctx.world();
                    let data = (ctx.rank() == 0).then(|| vec![0.0; 1 << 20]);
                    ctx.bcast_pipelined_shared_f64(&world, 0, data, 1);
                })
                .err()
                .expect("an oversized pipeline aborts the run");
            assert_eq!((abort.rank, abort.kind), (0, AbortKind::CollectiveContract));
            assert!(
                abort.detail.contains("needs 1048576 tag chunks")
                    && abort.detail.contains("ids for 1048574"),
                "{abort}"
            );
            assert_eq!(m.traffic().msgs, 0, "nothing was sent");
        }
    }

    #[test]
    fn gather_charges_receives_in_completion_order() {
        // All 8 ranks sit on one node, so permuting the senders'
        // pre-gather compute times permutes the arrival times without
        // changing their multiset. A root that receives in completion
        // order finishes at the same virtual time either way; the old
        // rank-ordered receive loop stalled on slow low ranks while
        // arrived high ranks waited (head-of-line blocking), making the
        // end time permutation-dependent.
        let run = |weights: [u64; 8]| {
            let out = machine(8).run(move |ctx| {
                let world = ctx.world();
                ctx.compute(weights[ctx.rank()] * 1_000_000, 0);
                ctx.gather_f64(&world, 0, &[ctx.rank() as f64])
            });
            let chunks = out.results[0].clone().unwrap();
            let flat: Vec<f64> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, (0..8).map(f64::from).collect::<Vec<_>>());
            out.final_clocks[0]
        };
        // The root (rank 0) keeps the same weight in both runs; the other
        // seven are reversed.
        let ascending = run([0, 1, 2, 3, 4, 5, 6, 7]);
        let descending = run([0, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(
            ascending.to_bits(),
            descending.to_bits(),
            "completion-order gather must be invariant to arrival permutation"
        );
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            ctx.allgather_f64(&world, &[ctx.rank() as f64 * 10.0])
        });
        let expected: Vec<Arc<Vec<f64>>> =
            (0..8).map(|r| Arc::new(vec![r as f64 * 10.0])).collect();
        for r in out.results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn recv_idle_advances_clock_without_busy_time() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.compute(100_000_000, 0);
                    ctx.send_f64(&world, 1, 9, &[3.0]);
                    0.0
                }
                1 => {
                    let v = ctx.recv_f64_idle(&world, 0, 9);
                    assert_eq!(v, vec![3.0]);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        // Receiver's clock advanced past the sender's work…
        assert!(out.results[1] > 0.04);
        // …but its core shows (almost) no busy time: only the wake-up o.
        let busy = m.ledger().core_busy_until(
            m.placement().core_of(1),
            greenla_cluster::ledger::ActivityKind::Comm,
            f64::INFINITY,
        );
        assert!(
            busy < 1e-6,
            "idle wait must not record busy time, got {busy}"
        );
    }

    #[test]
    fn rank_panic_propagates_without_deadlock() {
        let abort = machine(8)
            .try_run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 3 {
                    panic!("rank 3 hit a bug");
                }
                // Everyone else blocks in a barrier rank 3 never joins.
                ctx.barrier(&world);
            })
            .err()
            .expect("a panicking rank must abort the run");
        assert_eq!(
            abort,
            Abort {
                rank: 3,
                kind: AbortKind::Panic,
                detail: "rank 3 hit a bug".into(),
            }
        );
    }

    /// Ranks 1..7 park in a blocking receive on a message rank 0 never
    /// sends; rank 0's death must wake them (nothing polls) to leave.
    fn rank_0_panics_under_receivers(m: Machine) {
        let abort = m
            .try_run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    panic!("rank 0 hit a bug");
                }
                ctx.recv_f64(&world, 0, 1);
            })
            .err()
            .expect("a panicking rank must abort the run");
        assert_eq!((abort.kind, abort.rank), (AbortKind::Panic, 0));
    }

    #[test]
    fn rank_panic_unblocks_blocking_receivers() {
        rank_0_panics_under_receivers(machine(8));
    }

    #[test]
    fn rank_panic_unblocks_checked_receivers() {
        rank_0_panics_under_receivers(machine(8).with_check(CheckSink::enabled()));
    }

    #[test]
    fn dropped_send_recovers_with_backoff_and_is_reported() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop { count: 2 },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                    ctx.now()
                }
                1 => {
                    assert_eq!(ctx.recv_f64(&world, 0, 7), vec![1.0]);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        // The two dropped attempts cost the sender backoff busy time.
        let clean = machine(8).run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                    ctx.now()
                }
                1 => {
                    ctx.recv_f64(&world, 0, 7);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[0] > clean.results[0],
            "retries must be visible in virtual time"
        );
        let rep = sink.report();
        assert_eq!(rep.injected.msg_drop, 2);
        assert_eq!(rep.recovered.msg_drop, 2);
    }

    #[test]
    fn drop_burst_past_retry_budget_aborts_with_diagnostic() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind, MAX_SEND_RETRIES};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop {
                    count: MAX_SEND_RETRIES + 1,
                },
            }],
            ..Default::default()
        };
        let abort = machine(8)
            .with_faults(FaultSink::with_plan(plan))
            .try_run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                } else if ctx.rank() == 1 {
                    ctx.recv_f64(&world, 0, 7);
                }
            })
            .err()
            .expect("lost message must abort the run");
        // The sender is runnable until it gives up, so the receiver cannot
        // be deadlocked before the cause is on record.
        assert_eq!((abort.kind, abort.rank), (AbortKind::InjectedFault, 0));
    }

    #[test]
    fn duplicate_envelope_is_discarded_and_counted() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[2.0]);
                    Vec::new()
                }
                1 => ctx.recv_f64(&world, 0, 7),
                _ => Vec::new(),
            }
        });
        assert_eq!(out.results[1], vec![2.0], "payload delivered exactly once");
        let rep = sink.report();
        assert_eq!(rep.injected.msg_dup, 1);
        assert_eq!(
            rep.observed.msg_dup, 1,
            "duplicate accounted whether a receive discarded it or the audit did"
        );
    }

    #[test]
    fn delayed_envelope_shifts_arrival_and_is_observed() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let extra = 0.5;
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: extra },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[3.0]);
                    0.0
                }
                1 => {
                    ctx.recv_f64(&world, 0, 7);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[1] >= extra,
            "receiver must wait out the injected delay, got {}",
            out.results[1]
        );
        let rep = sink.report();
        assert_eq!(rep.injected.msg_delay, 1);
        assert_eq!(rep.observed.msg_delay, 1);
    }

    #[test]
    fn planned_crash_aborts_both_schedulers() {
        // Rank 3 crashes at its second compute. Before that, rank 0 sends
        // rank 1 a delayed message and rank 1 tells rank 3 it has it, so
        // the delay is observed before the crash on every carrier; rank 1
        // then unwinds out of the poisoned barrier, and its tally must
        // still reach the report. Every leg banks the same report.
        use crate::trace::EventKind;
        use greenla_faults::{CrashFault, CrashWhen, FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: 1e-3 },
            }],
            crashes: vec![CrashFault {
                rank: 3,
                when: CrashWhen::AtCall { calls: 2 },
            }],
            ..Default::default()
        };
        let legs = [
            (SchedulerKind::ThreadPerRank, None),
            (SchedulerKind::EventDriven, Some(1)),
            (SchedulerKind::EventDriven, Some(2)),
        ];
        let mut reports = Vec::new();
        for (kind, workers) in legs.into_iter().filter(|(kind, _)| kind.supported()) {
            for checked in [false, true] {
                let leg = format!("{kind}, {workers:?} worker(s), checked={checked}");
                let sink = FaultSink::with_plan(plan.clone());
                let mut m = machine(8)
                    .with_scheduler(kind)
                    .with_faults(sink.clone())
                    .with_trace(TraceSink::enabled());
                if let Some(workers) = workers {
                    m = m.with_sched_workers(workers);
                }
                if checked {
                    m = m.with_check(CheckSink::enabled());
                }
                let pre_abort = Mutex::new(f64::NAN);
                let abort = m
                    .try_run(|ctx| {
                        let world = ctx.world();
                        match ctx.rank() {
                            0 => ctx.send_f64(&world, 1, 7, &[1.0]),
                            1 => {
                                ctx.recv_f64(&world, 0, 7);
                                ctx.send_f64(&world, 3, 8, &[]);
                            }
                            3 => {
                                ctx.recv_f64(&world, 1, 8);
                            }
                            _ => {}
                        }
                        ctx.compute(1_000, 0);
                        if ctx.rank() == 3 {
                            *pre_abort.lock() = ctx.now();
                        }
                        ctx.compute(1_000, 0);
                        ctx.barrier(&world);
                    })
                    .err()
                    .unwrap_or_else(|| panic!("{leg}: planned crash must abort"));
                assert_eq!(
                    (abort.kind, abort.rank),
                    (AbortKind::InjectedFault, 3),
                    "{leg}: {abort}"
                );
                let crashes: Vec<_> = (m.trace().drain().into_iter())
                    .filter(|e| e.name == "fault:crash")
                    .map(|e| (e.kind, e.rank, e.t_s))
                    .collect();
                let at = *pre_abort.lock();
                assert_eq!(crashes, [(EventKind::Instant, 3, at)], "{leg}");
                let rep = sink.report();
                let crashed = (rep.injected.rank_crash, rep.observed.rank_crash);
                assert_eq!(crashed, (1, 1), "{leg}");
                assert_eq!(rep.observed.msg_delay, 1, "{leg}: rank 1's unwind banks");
                reports.push(rep);
            }
        }
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:#?}");
    }

    #[test]
    fn disabled_faults_leave_virtual_time_untouched() {
        use greenla_faults::FaultSink;
        let base = machine(8).run(|ctx| {
            let world = ctx.world();
            ctx.compute(1_000_000, 64);
            ctx.barrier(&world);
            ctx.now()
        });
        let with_sink = machine(8).with_faults(FaultSink::disabled()).run(|ctx| {
            let world = ctx.world();
            ctx.compute(1_000_000, 64);
            ctx.barrier(&world);
            ctx.now()
        });
        for (a, b) in base.results.iter().zip(&with_sink.results) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn placement_bigger_than_cluster_rejected() {
        let spec = ClusterSpec::test_cluster(1, 4);
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        assert!(matches!(
            Machine::new(spec, placement, PowerModel::deterministic(), 0),
            Err(MachineError::PlacementTooLarge { .. })
        ));
    }

    #[test]
    fn ledger_records_compute_activity() {
        let m = machine(8);
        m.run(|ctx| ctx.compute(1000, 512));
        assert_eq!(m.ledger().total_flops(), 8 * 1000);
        assert!(m.ledger().dram_bytes_until(0, 0, f64::INFINITY) > 0);
    }

    #[test]
    fn intra_vs_inter_node_message_cost() {
        let m = machine(16); // ranks 0..8 node 0, 8..16 node 1
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 1, &vec![0.0; 10000]); // same node
                    0.0
                }
                1 => {
                    ctx.recv_f64(&world, 0, 1);
                    ctx.now()
                }
                2 => {
                    ctx.send_f64(&world, 8, 2, &vec![0.0; 10000]); // cross node
                    0.0
                }
                8 => {
                    ctx.recv_f64(&world, 2, 2);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[8] > out.results[1],
            "cross-node message should be slower: {} vs {}",
            out.results[8],
            out.results[1]
        );
    }
}
