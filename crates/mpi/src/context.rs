//! Per-rank execution context: the API rank code programs against.

use crate::comm::{Comm, WORLD_ID};
use crate::envelope::{Envelope, Payload};
use crate::error::AbortKind;
use crate::mailbox::Mailboxes;
use crate::registry::{leave_run, Registry, SplitEntry};
use crate::sched::WakeReason;
use crate::traffic::Traffic;
use greenla_check::{CollEvent, CollKind, RankChecker};
use greenla_cluster::ledger::{ActivityKind, Interval, Ledger};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::topology::CoreId;
use greenla_cluster::PowerModel;
use greenla_faults::{retry_backoff_s, MsgFaultKind, RankFaults, MAX_SEND_RETRIES};
use greenla_trace::RankTracer;
use std::collections::HashMap;
use std::sync::Arc;

/// Tag bit reserved for collective-internal messages; user tags must stay
/// below it.
pub const COLL_TAG: u64 = 1 << 63;

/// Execution context handed to each rank's closure by
/// [`crate::Machine::run`]. All communication and virtual-time charging
/// goes through this handle.
pub struct RankCtx<'m> {
    pub(crate) rank: usize,
    pub(crate) nranks: usize,
    pub(crate) core: CoreId,
    pub(crate) clock: f64,
    pub(crate) spec: &'m ClusterSpec,
    pub(crate) power: &'m PowerModel,
    pub(crate) seed: u64,
    pub(crate) perf_mult: f64,
    pub(crate) ledger: &'m Ledger,
    pub(crate) traffic: &'m Traffic,
    pub(crate) registry: &'m Registry,
    pub(crate) placement: &'m Placement,
    pub(crate) mail: &'m Mailboxes,
    pub(crate) pending: Vec<Envelope>,
    /// Per-communicator collective sequence numbers (barrier/split/bcast/…
    /// all consume from the same stream, so ordering is consistent as long
    /// as ranks issue collectives in the same order — the MPI contract).
    pub(crate) seqs: HashMap<u64, u64>,
    pub(crate) world_members: Arc<Vec<usize>>,
    /// Event recorder for this rank; a no-op unless the machine has an
    /// enabled [`greenla_trace::TraceSink`] attached.
    pub(crate) tracer: RankTracer,
    /// Correctness-checker hooks for this rank; a no-op unless the machine
    /// has an enabled [`greenla_check::CheckSink`] attached. Hooks only
    /// observe the virtual clocks, never advance them.
    pub(crate) checker: RankChecker,
    /// Planned-fault state for this rank; a no-op unless the machine has
    /// an enabled [`greenla_faults::FaultSink`] attached. Unlike the
    /// observers above, active faults *do* perturb virtual time (that is
    /// their point) — but a disabled handle costs one branch per hook and
    /// leaves the timeline untouched.
    pub(crate) faults: RankFaults,
}

impl<'m> RankCtx<'m> {
    /// Global rank (index in the world communicator).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        Comm::new(WORLD_ID, Arc::clone(&self.world_members), self.rank)
    }

    /// Physical core this rank is pinned to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Node index of this rank.
    pub fn node(&self) -> usize {
        self.core.node
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Cluster specification.
    pub fn cluster(&self) -> &ClusterSpec {
        self.spec
    }

    /// Power model of the machine (monitoring layers read energies through
    /// RAPL, but the model itself is public for ground-truth comparisons).
    pub fn power_model(&self) -> &PowerModel {
        self.power
    }

    /// Run seed (selects node jitter draws).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Activity ledger (read-only use; the context itself records).
    pub fn ledger(&self) -> &Ledger {
        self.ledger
    }

    /// Rank placement for the run.
    pub fn placement(&self) -> &Placement {
        self.placement
    }

    // ----- event tracing ---------------------------------------------------------

    /// Is event tracing active for this run? Workloads can skip building
    /// span labels when it is not.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Open a trace span at the current virtual time. Spans on one rank
    /// must nest (close in LIFO order). No-op when tracing is disabled.
    pub fn trace_begin(&mut self, cat: &'static str, name: &str) {
        let t = self.clock;
        self.tracer.begin(cat, name, t);
    }

    /// Close the innermost open span with this name at the current virtual
    /// time.
    pub fn trace_end(&mut self, cat: &'static str, name: &str) {
        let t = self.clock;
        self.tracer.end(cat, name, t);
    }

    /// Record a zero-duration marker at the current virtual time.
    pub fn trace_instant(&mut self, name: &str) {
        let t = self.clock;
        self.tracer.instant(name, t);
    }

    // ----- fault injection -------------------------------------------------------

    /// Is fault injection active for this run?
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// This rank's fault handle (plan queries and recovery accounting for
    /// higher layers — the monitor protocol and checksum-protected
    /// solvers).
    pub fn faults_mut(&mut self) -> &mut RankFaults {
        &mut self.faults
    }

    /// Shorthand for the mid-protocol checks higher layers make.
    pub fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// An injection point: every compute and send entry passes through
    /// here, advancing the per-rank call counter and firing a planned
    /// crash when due.
    fn fault_point(&mut self) {
        if !self.faults.enabled() {
            return;
        }
        if let Some(msg) = self.faults.crash_due(self.clock) {
            let t = self.clock;
            self.tracer.instant("fault:crash", t);
            self.abort(AbortKind::InjectedFault, msg);
        }
    }

    // ----- aborting the run ------------------------------------------------------

    /// The one way a rank dies: end the whole run because of something
    /// that happened on this rank. The [`crate::Abort`] is recorded before
    /// any peer can notice the run is failing (the first cause recorded
    /// wins), every blocked peer is woken to leave silently, and this rank
    /// unwinds; [`crate::Machine::try_run`] returns the recorded cause.
    /// No panic hook fires on the way.
    pub fn abort(&self, kind: AbortKind, detail: impl Into<String>) -> ! {
        self.registry.abort(self.rank, kind, detail.into())
    }

    // ----- virtual-time charging -------------------------------------------------

    /// Record a busy interval of `dt` seconds starting at the current clock
    /// and advance the clock.
    fn busy(&mut self, dt: f64, kind: ActivityKind, flops: u64) {
        debug_assert!(dt >= 0.0, "negative busy time {dt}");
        if dt <= 0.0 && flops == 0 {
            return;
        }
        let start = self.clock;
        let end = start + dt;
        self.ledger.record(
            self.core,
            Interval {
                start,
                end,
                kind,
                flops,
            },
        );
        self.clock = end;
    }

    /// Advance to an absolute time `t`, recording the elapsed span as busy
    /// communication (spin-waiting, as blocking MPI calls do).
    fn busy_until(&mut self, t: f64, kind: ActivityKind) {
        if t > self.clock {
            let start = self.clock;
            self.ledger.record(
                self.core,
                Interval {
                    start,
                    end: t,
                    kind,
                    flops: 0,
                },
            );
            self.clock = t;
        }
    }

    /// Charge `flops` floating-point operations touching `dram_bytes` bytes
    /// of memory. Virtual time advances by the larger of the flop time (at
    /// the node's jittered sustained rate) and the memory time (at this
    /// core's share of socket DRAM bandwidth).
    pub fn compute(&mut self, flops: u64, dram_bytes: u64) {
        self.fault_point();
        let rate = self.spec.node.cpu.sustained_flops_per_core * self.perf_mult;
        let t_flops = flops as f64 / rate;
        let per_core_bw =
            self.spec.node.dram_bw_bytes_per_s / self.spec.node.cpu.cores_per_socket as f64;
        let t_mem = dram_bytes as f64 / per_core_bw;
        if dram_bytes > 0 {
            self.ledger
                .record_dram(self.core.node, self.core.socket, self.clock, dram_bytes);
        }
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer.begin_with_args(
                "compute",
                "compute",
                t,
                &[("flops", flops as f64), ("dram_bytes", dram_bytes as f64)],
            );
        }
        let t0 = self.clock;
        self.busy(t_flops.max(t_mem), ActivityKind::Compute, flops);
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer.end("compute", "compute", t);
        }
        if self.checker.enabled() {
            let t1 = self.clock;
            self.checker.compute(t0, t1);
        }
    }

    /// Charge a pure memory operation (allocation, initialisation, copies)
    /// with no arithmetic — the paper monitors the allocation phase
    /// separately from the computation phase.
    pub fn touch_memory(&mut self, dram_bytes: u64) {
        self.compute(0, dram_bytes);
    }

    // ----- point-to-point --------------------------------------------------------

    pub(crate) fn send_payload(
        &mut self,
        comm: &Comm,
        dst_index: usize,
        tag: u64,
        payload: Payload,
    ) {
        self.fault_point();
        let fault = if self.faults.enabled() {
            self.faults.next_send_fault()
        } else {
            None
        };
        let dst = comm.global_rank(dst_index);
        assert!(dst != self.rank, "self-send on comm {}", comm.id());
        let bytes = payload.size_bytes();
        let same_node = self.placement.node_of(dst) == self.core.node;
        let o = self.spec.net.per_message_overhead_s;
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer.begin_with_args(
                "comm",
                "send",
                t,
                &[("bytes", bytes as f64), ("dst", dst as f64)],
            );
        }
        self.busy(o, ActivityKind::Comm, 0);
        if let Some(MsgFaultKind::Drop { count }) = fault {
            // Sender-side retry with exponential virtual backoff: each
            // dropped attempt costs busy time, so faults leave a visible,
            // deterministic footprint in the timeline.
            self.faults.record_drop_injected(count as u64);
            let t = self.clock;
            self.tracer.instant("fault:drop", t);
            for attempt in 0..count.min(MAX_SEND_RETRIES + 1) {
                self.busy(retry_backoff_s(o, attempt), ActivityKind::Comm, 0);
            }
            if count > MAX_SEND_RETRIES {
                if self.tracer.enabled() {
                    let t = self.clock;
                    self.tracer.end("comm", "send", t);
                }
                self.abort(
                    AbortKind::InjectedFault,
                    format!(
                        "injected fault: rank {} lost message to rank {dst} after \
                         {MAX_SEND_RETRIES} retries (comm {}, tag {tag})",
                        self.rank,
                        comm.id()
                    ),
                );
            }
            self.faults.record_drop_recovered(count as u64);
        }
        let mut arrival = self.clock + self.spec.net.message_time(bytes, same_node);
        let mut delayed = false;
        if let Some(MsgFaultKind::Delay { extra_s }) = fault {
            arrival += extra_s;
            delayed = true;
            self.faults.record_delay_injected();
            let t = self.clock;
            self.tracer.instant("fault:delay", t);
        }
        let duplicate = matches!(fault, Some(MsgFaultKind::Duplicate));
        self.traffic.record(bytes, same_node);
        if duplicate {
            // The phantom copy crosses the wire too; the receiver discards
            // it on sight.
            self.faults.record_dup_injected();
            let t = self.clock;
            self.tracer.instant("fault:dup", t);
            self.traffic.record(bytes, same_node);
            self.mail.post(
                dst,
                Envelope {
                    src: self.rank,
                    comm_id: comm.id(),
                    tag,
                    arrival,
                    payload: payload.clone(),
                    dup: true,
                    delayed: false,
                },
            );
        }
        self.mail.post(
            dst,
            Envelope {
                src: self.rank,
                comm_id: comm.id(),
                tag,
                arrival,
                payload,
                dup: false,
                delayed,
            },
        );
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer.end("comm", "send", t);
        }
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.sent(dst, comm.id(), tag, t);
        }
    }

    /// Move the next wire envelope into the pending queue, blocking until
    /// one arrives. Blocking is the engine's business: the rank parks in
    /// [`crate::sched::Engine::block_current`] and a post, a poison
    /// broadcast or the scheduler's orphan signal wakes it — no polling,
    /// checked or not, and the virtual clocks never see the wait.
    fn pump_mailbox(&mut self, src: usize, tag: u64) {
        let engine = self.mail.engine();
        let env = loop {
            if let Some(env) = self.mail.try_pop(self.rank) {
                break env;
            }
            self.registry.leave_if_poisoned();
            if engine.orphaned() {
                // Every runnable task finished and nobody can wake us.
                // With checking on, the probe can name who we wait for.
                if self.checker.enabled() {
                    self.registry.report_quiescent_deadlock();
                }
                self.abort(
                    AbortKind::PeersGone,
                    format!(
                        "all peers gone while rank {} waits for ({src}, {tag})",
                        self.rank
                    ),
                );
            }
            match engine.block_current() {
                WakeReason::Woken => {}
                WakeReason::Quiescent => self.registry.report_quiescent_deadlock(),
            }
        };
        if env.is_control() {
            leave_run();
        }
        if env.dup {
            // Injected duplicate: discard on sight — it never reaches the
            // pending queue, so matching logic and the checker never see it.
            self.faults.record_dup_discarded();
            let t = self.clock;
            self.tracer.instant("fault:dup_discarded", t);
            return;
        }
        self.pending.push(env);
    }

    pub(crate) fn recv_payload(&mut self, comm: &Comm, src_index: usize, tag: u64) -> Payload {
        let src = comm.global_rank(src_index);
        assert!(src != self.rank, "self-receive on comm {}", comm.id());
        let cid = comm.id();
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer
                .begin_with_args("comm", "recv", t, &[("src", src as f64)]);
        }
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.block_recv(src, cid, tag, t);
        }
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|e| e.src == src && e.comm_id == cid && e.tag == tag)
            {
                let env = self.pending.remove(pos);
                if env.delayed {
                    self.faults.record_delay_observed();
                }
                let o = self.spec.net.per_message_overhead_s;
                let done = (self.clock + o).max(env.arrival + o);
                self.busy_until(done, ActivityKind::Comm);
                if self.tracer.enabled() {
                    let t = self.clock;
                    self.tracer.end("comm", "recv", t);
                }
                if self.checker.enabled() {
                    let t = self.clock;
                    self.checker.unblock_recv(env.arrival, t);
                }
                return env.payload;
            }
            self.pump_mailbox(src, tag);
        }
    }

    /// Receive one message with `tag` from *every* rank in `srcs`
    /// (communicator indices), in completion order rather than list order.
    /// The caller gets payloads back aligned with `srcs`, but the receive
    /// cost is charged as the messages complete, not in rank order — a
    /// gather root no longer head-of-line blocks on rank 1 while ranks
    /// 2..p sit fully arrived in the queue.
    ///
    /// Determinism: envelopes are first *collected* (wall-clock order,
    /// which may differ run to run) and only then *charged* in sorted
    /// `(arrival, src)` order, so the virtual timeline depends only on the
    /// virtual arrival times, never on OS scheduling.
    pub(crate) fn recv_payload_set(
        &mut self,
        comm: &Comm,
        srcs: &[usize],
        tag: u64,
    ) -> Vec<Payload> {
        let cid = comm.id();
        let srcs_g: Vec<usize> = srcs.iter().map(|&s| comm.global_rank(s)).collect();
        debug_assert!(
            srcs_g.iter().all(|&s| s != self.rank),
            "self-receive in set"
        );
        if srcs_g.is_empty() {
            return Vec::new();
        }
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer
                .begin_with_args("comm", "recv_set", t, &[("count", srcs_g.len() as f64)]);
        }
        if self.checker.enabled() {
            // One wait-for edge toward a representative source keeps the
            // deadlock probe sound: if this rank can never be satisfied,
            // the whole system is still blocked and the probe fires.
            let t = self.clock;
            self.checker.block_recv(srcs_g[0], cid, tag, t);
        }
        let mut got: Vec<Envelope> = Vec::with_capacity(srcs_g.len());
        while got.len() < srcs_g.len() {
            while let Some(pos) = self
                .pending
                .iter()
                .position(|e| e.comm_id == cid && e.tag == tag && srcs_g.contains(&e.src))
            {
                got.push(self.pending.remove(pos));
            }
            if got.len() < srcs_g.len() {
                self.pump_mailbox(srcs_g[0], tag);
            }
        }
        // Charge deterministically: earliest virtual arrival first, ties
        // broken by source rank.
        got.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .expect("finite arrivals")
                .then(a.src.cmp(&b.src))
        });
        let o = self.spec.net.per_message_overhead_s;
        let mut max_arrival: f64 = 0.0;
        for env in &got {
            if env.delayed {
                self.faults.record_delay_observed();
            }
            if self.tracer.enabled() {
                let t = self.clock;
                self.tracer
                    .begin_with_args("comm", "recv", t, &[("src", env.src as f64)]);
            }
            let done = (self.clock + o).max(env.arrival + o);
            self.busy_until(done, ActivityKind::Comm);
            if self.tracer.enabled() {
                let t = self.clock;
                self.tracer.end("comm", "recv", t);
            }
            max_arrival = max_arrival.max(env.arrival);
        }
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.unblock_recv(max_arrival, t);
        }
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer.end("comm", "recv_set", t);
        }
        // Hand payloads back aligned with the caller's source list.
        let mut out: Vec<Option<Payload>> = (0..srcs_g.len()).map(|_| None).collect();
        for env in got {
            let slot = srcs_g
                .iter()
                .position(|&s| s == env.src)
                .expect("envelope matched the set");
            assert!(
                out[slot].is_none(),
                "duplicate message from rank {} (comm {cid}, tag {tag})",
                env.src
            );
            out[slot] = Some(env.payload);
        }
        out.into_iter()
            .map(|p| p.expect("all slots filled"))
            .collect()
    }

    /// Non-blocking probe (`MPI_Iprobe`): has a message from `src` with
    /// `tag` on `comm` *arrived by this rank's current virtual time*?
    /// Drains the wire into the pending queue without blocking. A message
    /// whose arrival timestamp lies in this rank's future is not yet
    /// visible — exactly the semantics a causally-correct simulation needs.
    pub fn iprobe(&mut self, comm: &Comm, src_index: usize, tag: u64) -> bool {
        let src = comm.global_rank(src_index);
        let cid = comm.id();
        while let Some(env) = self.mail.try_pop(self.rank) {
            if env.is_control() {
                leave_run();
            }
            if env.dup {
                self.faults.record_dup_discarded();
                let t = self.clock;
                self.tracer.instant("fault:dup_discarded", t);
                continue;
            }
            self.pending.push(env);
        }
        self.pending
            .iter()
            .any(|e| e.src == src && e.comm_id == cid && e.tag == tag && e.arrival <= self.clock)
    }

    /// Blocking receive that waits *idle* instead of spinning: the waiting
    /// span is not recorded as busy time (models a process sleeping in an
    /// OS-blocking receive — e.g. a monitoring daemon between events — as
    /// opposed to an MPI busy-poll). The clock still advances to the
    /// message's arrival.
    pub fn recv_f64_idle(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < COLL_TAG, "user tag too large");
        let src_g = comm.global_rank(src);
        let cid = comm.id();
        if self.tracer.enabled() {
            let t = self.clock;
            self.tracer
                .begin_with_args("comm", "recv_idle", t, &[("src", src_g as f64)]);
        }
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.block_recv(src_g, cid, tag, t);
        }
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|e| e.src == src_g && e.comm_id == cid && e.tag == tag)
            {
                let env = self.pending.remove(pos);
                if env.delayed {
                    self.faults.record_delay_observed();
                }
                // Advance without recording a busy interval, then charge
                // only the wake-up/copy overhead.
                let o = self.spec.net.per_message_overhead_s;
                if env.arrival > self.clock {
                    self.clock = env.arrival;
                }
                self.busy(o, ActivityKind::Comm, 0);
                if self.tracer.enabled() {
                    let t = self.clock;
                    self.tracer.end("comm", "recv_idle", t);
                }
                if self.checker.enabled() {
                    let t = self.clock;
                    self.checker.unblock_recv(env.arrival, t);
                }
                return env.payload.expect_f64();
            }
            self.pump_mailbox(src_g, tag);
        }
    }

    /// Send a slice of doubles to `dst` (communicator index) with `tag`.
    pub fn send_f64(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[f64]) {
        assert!(tag < COLL_TAG, "user tag too large");
        self.send_payload(comm, dst, tag, Payload::f64(data.to_vec()));
    }

    /// Receive doubles from `src` (communicator index) with `tag`.
    pub fn recv_f64(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < COLL_TAG, "user tag too large");
        self.recv_payload(comm, src, tag).expect_f64()
    }

    // ----- synchronising collectives (registry-based) ----------------------------

    pub(crate) fn next_seq(&mut self, comm_id: u64) -> u64 {
        let seq = self.seqs.entry(comm_id).or_insert(0);
        let out = *seq;
        *seq += 1;
        out
    }

    /// Latency parameter for a collective over this communicator: network
    /// latency if it spans nodes, shared-memory latency otherwise.
    pub(crate) fn coll_alpha(&self, comm: &Comm) -> f64 {
        let first_node = self.placement.node_of(comm.global_rank(0));
        let spans = comm
            .members()
            .iter()
            .any(|&g| self.placement.node_of(g) != first_node);
        if spans {
            self.spec.net.latency_s
        } else {
            self.spec.net.intra_latency_s
        }
    }

    /// Record a collective entry with the checker (no-op when checking is
    /// disabled).
    pub(crate) fn check_enter_coll(&mut self, ev: CollEvent, members: &[usize]) {
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.coll_tag_space(ev.seq, 0, t);
            self.checker.enter_coll(ev, members, t);
        }
    }

    /// `MPI_Barrier`: blocks until every member arrives; all leave at
    /// `max(arrival) + α·⌈log₂ P⌉`.
    pub fn barrier(&mut self, comm: &Comm) {
        self.trace_begin("coll", "barrier");
        let p = comm.size();
        let seq = self.next_seq(comm.id());
        self.check_enter_coll(
            CollEvent {
                comm: comm.id(),
                seq,
                kind: CollKind::Barrier,
                root: None,
                elems: 0,
            },
            comm.members(),
        );
        if p > 1 {
            let cost = self.coll_alpha(comm) * (p as f64).log2().ceil()
                + self.spec.net.per_message_overhead_s;
            let release = self.registry.barrier(comm.id(), seq, p, self.clock, cost);
            self.busy_until(release, ActivityKind::Comm);
        }
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.coll_done(t);
        }
        self.trace_end("coll", "barrier");
    }

    /// `MPI_Comm_split`: partition `comm` by `color`, ordering each new
    /// communicator by `(key, global rank)`.
    pub fn split(&mut self, comm: &Comm, color: u64, key: u64) -> Comm {
        self.trace_begin("coll", "comm_split");
        let p = comm.size();
        let cost = self.coll_alpha(comm) * (p as f64).log2().ceil().max(1.0)
            + self.spec.net.per_message_overhead_s;
        let seq = self.next_seq(comm.id());
        self.check_enter_coll(
            CollEvent {
                comm: comm.id(),
                seq,
                kind: CollKind::Split,
                root: None,
                elems: 0,
            },
            comm.members(),
        );
        let out = self.registry.split(SplitEntry {
            parent_id: comm.id(),
            seq,
            expected: p,
            grank: self.rank,
            color,
            key,
            t: self.clock,
            cost,
        });
        self.busy_until(out.release_t, ActivityKind::Comm);
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.coll_done(t);
        }
        self.trace_end("coll", "comm_split");
        Comm::new(out.comm_id, out.members, out.my_index)
    }

    /// `MPI_Comm_split_type(MPI_COMm_TYPE_SHARED)`: one communicator per
    /// node, members ordered by global rank — so the "highest rank on the
    /// node" designation used by the monitoring framework is well defined.
    pub fn split_shared(&mut self, comm: &Comm) -> Comm {
        self.split(comm, self.core.node as u64, self.rank as u64)
    }

    // ----- correctness checking --------------------------------------------------

    /// Is correctness checking active for this run?
    pub fn check_enabled(&self) -> bool {
        self.checker.enabled()
    }

    /// Tell the checker which communicator is this rank's node
    /// communicator in the Figure-2 monitoring choreography. Called by the
    /// monitoring layer right after `split_shared`.
    pub fn check_monitor_node_comm(&mut self, node_comm: &Comm) {
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.monitor_node_comm(node_comm.id(), t);
        }
    }

    /// Tell the checker `start_monitoring` ran on this rank (MON001: the
    /// designated monitoring rank is the node's highest rank).
    pub fn check_monitor_start(&mut self) {
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.monitor_start(t);
        }
    }

    /// Tell the checker `end_monitoring` ran on this rank
    /// (MON002/MON003/MON004: start before end, node barrier immediately
    /// before, no work straddling the window).
    pub fn check_monitor_end(&mut self) {
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.monitor_end(t);
        }
    }

    /// Mark this rank finished for the wait-for graph (called by the
    /// machine when the rank's closure returns).
    pub(crate) fn check_finished(&mut self) {
        if self.checker.enabled() {
            let t = self.clock;
            self.checker.rank_finished(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::COLL_TAG;

    #[test]
    fn coll_tag_bit_matches_checker_tagspace() {
        // The checker describes tags and audits overflow against its own
        // copy of the bit layout; the two must agree.
        assert_eq!(COLL_TAG, greenla_check::tagspace::COLL_TAG_BIT);
    }
}
