//! Per-rank execution context: the API rank code programs against.

use crate::check::{CollEvent, CollKind};
use crate::comm::{Comm, WORLD_ID};
use crate::envelope::{Envelope, Payload};
use crate::error::AbortKind;
use crate::event::{Observers, RankEvent};
use crate::mailbox::{Mailboxes, RecvWait};
use crate::registry::{Registry, SplitEntry};
use crate::traffic::TrafficSnapshot;
use greenla_cluster::ledger::{ActivityKind, Interval, Ledger};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::topology::CoreId;
use greenla_faults::{retry_backoff_s, FaultNote, MsgFaultKind, RankFaults, MAX_SEND_RETRIES};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::tagspace::COLL_TAG;

/// Execution context handed to each rank's closure by
/// [`crate::Machine::run`]. All communication and virtual-time charging
/// goes through this handle.
pub struct RankCtx<'m> {
    pub(crate) rank: usize,
    pub(crate) nranks: usize,
    pub(crate) core: CoreId,
    pub(crate) clock: f64,
    pub(crate) spec: &'m ClusterSpec,
    pub(crate) perf_mult: f64,
    pub(crate) ledger: &'m Ledger,
    /// This rank's own sends; the machine banks them when the body ends,
    /// so sends touch no shared counter.
    pub(crate) traffic: TrafficSnapshot,
    pub(crate) registry: &'m Registry,
    pub(crate) placement: &'m Placement,
    pub(crate) mail: &'m Mailboxes,
    /// Per-communicator collective sequence numbers (barrier/split/bcast/…
    /// all consume from the same stream, so ordering is consistent as long
    /// as ranks issue collectives in the same order — the MPI contract).
    pub(crate) seqs: HashMap<u64, u64>,
    pub(crate) world_members: Arc<Vec<usize>>,
    /// This rank's one log of `(t, event)` records and the mask of the
    /// attached sinks; the log holds what [`RankCtx::emit`] told it that
    /// some attached sink reads, and the machine banks it when the body
    /// ends.
    pub(crate) observers: Observers,
    /// This rank's injection schedule; empty unless the machine has an
    /// enabled [`greenla_faults::FaultSink`] attached. Unlike the
    /// observers above, active faults *do* perturb virtual time (that is
    /// their point) — but an empty schedule answers every query with
    /// "nothing" and leaves the timeline untouched.
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

    /// Node index of this rank.
    pub fn node(&self) -> usize {
        self.core.node
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Rank placement for the run.
    pub fn placement(&self) -> &Placement {
        self.placement
    }

    // ----- the event spine -------------------------------------------------------

    /// Say what this rank just did, at its current virtual time. One
    /// branch when nothing listens; otherwise the rank's log keeps the
    /// record if an attached sink reads it ([`crate::event`]). Listeners
    /// get the clock by value: hearing an event never moves it.
    #[inline]
    pub fn emit(&mut self, ev: RankEvent) {
        if self.observers.mask != 0 {
            self.observers.hear(self.clock, ev);
        }
    }

    /// Open a trace span at the current virtual time. Spans on one rank
    /// must nest (close in LIFO order). No-op when tracing is disabled.
    pub fn trace_begin(&mut self, cat: &'static str, name: &'static str) {
        self.emit(RankEvent::SpanBegin { cat, name });
    }

    /// Close the innermost open span with this name at the current virtual
    /// time.
    pub fn trace_end(&mut self, cat: &'static str, name: &'static str) {
        self.emit(RankEvent::SpanEnd { cat, name });
    }

    /// Record a zero-duration marker at the current virtual time.
    pub fn trace_instant(&mut self, name: &'static str) {
        self.emit(RankEvent::Mark(name));
    }

    // ----- fault injection -------------------------------------------------------

    /// This rank's injection schedule, for the plan queries higher layers
    /// make (the monitor protocol, checksum-protected solvers). What a
    /// fault then did is reported through [`RankCtx::emit`].
    pub fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// An injection point: every compute and send entry passes through
    /// here, advancing the per-rank call counter and firing a planned
    /// crash when due.
    fn fault_point(&mut self) {
        if self.faults.crash_due(self.clock) {
            self.emit(RankEvent::Fault(FaultNote::RankCrashed));
            let detail = format!(
                "injected fault: rank {} crashed at virtual t={:.6}s",
                self.rank, self.clock
            );
            self.abort(AbortKind::InjectedFault, detail);
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
        self.busy_to(self.clock + dt, kind, flops);
    }

    /// Advance to an absolute time `t`, recording the elapsed span as busy
    /// communication (spin-waiting, as blocking MPI calls do).
    fn busy_until(&mut self, t: f64) {
        if t > self.clock {
            self.busy_to(t, ActivityKind::Comm, 0);
        }
    }

    /// Record `[clock, end]` as `kind` and advance the clock to `end`.
    fn busy_to(&mut self, end: f64, kind: ActivityKind, flops: u64) {
        let start = self.clock;
        let span = Interval {
            start,
            end,
            kind,
            flops,
        };
        self.ledger.record(self.core, span);
        self.clock = end;
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
            self.ledger.record_dram(self.core, self.clock, dram_bytes);
        }
        let t0 = self.clock;
        self.busy(t_flops.max(t_mem), ActivityKind::Compute, flops);
        self.emit(RankEvent::Computed {
            t0,
            flops,
            dram_bytes,
        });
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
        let fault = self.faults.next_send_fault();
        let dst = comm.global_rank(dst_index);
        assert!(dst != self.rank, "self-send on comm {}", comm.id());
        let bytes = payload.size_bytes();
        let same_node = self.placement.node_of(dst) == self.core.node;
        let o = self.spec.net.per_message_overhead_s;
        self.emit(RankEvent::SendBegin { dst, bytes });
        self.busy(o, ActivityKind::Comm, 0);
        if let Some(MsgFaultKind::Drop { count }) = fault {
            // Sender-side retry with exponential virtual backoff: each
            // dropped attempt costs busy time, so faults leave a visible,
            // deterministic footprint in the timeline.
            self.emit(RankEvent::Fault(FaultNote::DropInjected(count as u64)));
            for attempt in 0..count.min(MAX_SEND_RETRIES + 1) {
                self.busy(retry_backoff_s(o, attempt), ActivityKind::Comm, 0);
            }
            if count > MAX_SEND_RETRIES {
                // Nothing was sent: the trace closes its span.
                self.emit(RankEvent::SendEnd);
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
            self.emit(RankEvent::Fault(FaultNote::DropRecovered(count as u64)));
        }
        let mut arrival = self.clock + self.spec.net.message_time(bytes, same_node);
        let mut delayed = false;
        if let Some(MsgFaultKind::Delay { extra_s }) = fault {
            arrival += extra_s;
            delayed = true;
            self.emit(RankEvent::Fault(FaultNote::DelayInjected));
        }
        let duplicate = matches!(fault, Some(MsgFaultKind::Duplicate));
        self.traffic.record(bytes, same_node);
        if duplicate {
            // The phantom copy crosses the wire too; the receiver discards
            // it on sight.
            self.emit(RankEvent::Fault(FaultNote::DupInjected));
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
        self.emit(RankEvent::SendEnd);
    }

    /// Take the first envelope of this rank's inbox that `wanted`
    /// accepts, in arrival order, parking until one arrives — on record
    /// as waiting for `waits_on()` while parked. Injected duplicates the
    /// search passes are discarded on sight, so matching and the checker
    /// never see them. Blocking is the engine's business: a post or a
    /// poisoned run's wake-all resumes the rank — no polling, checked or
    /// not, and the virtual clocks never see the wait.
    fn take_envelope(
        &mut self,
        wanted: impl Fn(&Envelope) -> bool,
        mut waits_on: impl FnMut() -> RecvWait,
    ) -> Envelope {
        loop {
            let (env, dups) = self.mail.take(self.rank, &wanted, &mut waits_on);
            for _ in 0..dups {
                self.emit(RankEvent::Fault(FaultNote::DupDiscarded));
            }
            if let Some(env) = env {
                return env;
            }
            self.registry.park(self.clock);
        }
    }

    pub(crate) fn recv_payload(&mut self, comm: &Comm, src_index: usize, tag: u64) -> Payload {
        self.recv_matching(comm, src_index, tag, false)
    }

    /// The blocking receive: wait for the message `(src, comm, tag)` and
    /// charge its completion. A busy receive spins until the message is
    /// in — the whole wait is communication time, as in a blocking MPI
    /// call; an `idle` one sleeps until the arrival and pays only the
    /// wake-up/copy overhead (see [`RankCtx::recv_f64_idle`]).
    fn recv_matching(&mut self, comm: &Comm, src_index: usize, tag: u64, idle: bool) -> Payload {
        let src = comm.global_rank(src_index);
        assert!(src != self.rank, "self-receive on comm {}", comm.id());
        let cid = comm.id();
        let span = if idle { "recv_idle" } else { "recv" };
        self.emit(RankEvent::RecvBegin {
            span,
            arg: ("src", src as f64),
        });
        let env = self.take_envelope(
            |e| e.src == src && e.comm_id == cid && e.tag == tag,
            || RecvWait {
                src,
                comm: cid,
                tag,
            },
        );
        if env.delayed {
            self.emit(RankEvent::Fault(FaultNote::DelayObserved));
        }
        let o = self.spec.net.per_message_overhead_s;
        if idle {
            // Advance without recording a busy interval.
            if env.arrival > self.clock {
                self.clock = env.arrival;
            }
            self.busy(o, ActivityKind::Comm, 0);
        } else {
            let done = (self.clock + o).max(env.arrival + o);
            self.busy_until(done);
        }
        self.emit(RankEvent::RecvEnd { span });
        env.payload
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
        self.emit(RankEvent::RecvBegin {
            span: "recv_set",
            arg: ("count", srcs_g.len() as f64),
        });
        let mut got: Vec<Envelope> = Vec::with_capacity(srcs_g.len());
        // Parked, the set waits on its first source not heard from yet.
        let mut unheard = 0;
        while got.len() < srcs_g.len() {
            let env = self.take_envelope(
                |e| e.comm_id == cid && e.tag == tag && srcs_g.contains(&e.src),
                || {
                    while got.iter().any(|e| e.src == srcs_g[unheard]) {
                        unheard += 1;
                    }
                    RecvWait {
                        src: srcs_g[unheard],
                        comm: cid,
                        tag,
                    }
                },
            );
            got.push(env);
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
        for env in &got {
            if env.delayed {
                self.emit(RankEvent::Fault(FaultNote::DelayObserved));
            }
            // The trace shows each completion inside the set's span.
            self.emit(RankEvent::RecvBegin {
                span: "recv",
                arg: ("src", env.src as f64),
            });
            let done = (self.clock + o).max(env.arrival + o);
            self.busy_until(done);
            self.emit(RankEvent::RecvEnd { span: "recv" });
        }
        self.emit(RankEvent::RecvEnd { span: "recv_set" });
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

    /// Blocking receive that waits *idle* instead of spinning: the waiting
    /// span is not recorded as busy time (models a process sleeping in an
    /// OS-blocking receive — e.g. a monitoring daemon between events — as
    /// opposed to an MPI busy-poll). The clock still advances to the
    /// message's arrival.
    pub fn recv_f64_idle(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < COLL_TAG, "user tag too large");
        self.recv_matching(comm, src, tag, true).expect_f64()
    }

    /// Send a slice of doubles to `dst` (communicator index) with `tag`.
    pub fn send_f64(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[f64]) {
        assert!(tag < COLL_TAG, "user tag too large");
        self.send_payload(comm, dst, tag, Payload::copy_f64(data));
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

    /// Allocate this collective's sequence number and announce its
    /// lockstep signature.
    pub(crate) fn coll_site(
        &mut self,
        comm: &Comm,
        kind: CollKind,
        root: Option<usize>,
        elems: u64,
    ) -> u64 {
        let seq = self.next_seq(comm.id());
        self.emit(RankEvent::CollEnter(CollEvent {
            comm: comm.id(),
            seq,
            kind,
            root,
            elems,
        }));
        seq
    }

    /// Run a collective inside its `coll` trace span.
    pub(crate) fn coll_span<R>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.trace_begin("coll", name);
        let out = body(self);
        self.trace_end("coll", name);
        out
    }

    /// `MPI_Barrier`: blocks until every member arrives; all leave at
    /// `max(arrival) + α·⌈log₂ P⌉`.
    pub fn barrier(&mut self, comm: &Comm) {
        self.coll_span("barrier", |ctx| {
            let p = comm.size();
            let seq = ctx.coll_site(comm, CollKind::Barrier, None, 0);
            if p > 1 {
                let cost = ctx.coll_alpha(comm) * (p as f64).log2().ceil()
                    + ctx.spec.net.per_message_overhead_s;
                // Open from the arrival on, the wait counts in a read at the
                // release whether or not this rank has been resumed yet.
                let wait = ctx.ledger.open_wait(ctx.core, ctx.clock);
                let release = ctx.registry.barrier(comm, seq, ctx.clock, cost);
                wait.close(release);
                ctx.clock = release;
            }
        });
    }

    /// `MPI_Comm_split`: partition `comm` by `color`, ordering each new
    /// communicator by `(key, global rank)`.
    pub fn split(&mut self, comm: &Comm, color: u64, key: u64) -> Comm {
        self.coll_span("comm_split", |ctx| {
            let p = comm.size();
            let cost = ctx.coll_alpha(comm) * (p as f64).log2().ceil().max(1.0)
                + ctx.spec.net.per_message_overhead_s;
            let seq = ctx.coll_site(comm, CollKind::Split, None, 0);
            let wait = ctx.ledger.open_wait(ctx.core, ctx.clock);
            let out = ctx.registry.split(
                comm,
                SplitEntry {
                    seq,
                    grank: ctx.rank,
                    color,
                    key,
                    t: ctx.clock,
                    cost,
                },
            );
            wait.close(out.release_t);
            ctx.clock = out.release_t;
            Comm::new(out.comm_id, out.members, out.my_index)
        })
    }

    /// `MPI_Comm_split_type(MPI_COMm_TYPE_SHARED)`: one communicator per
    /// node, members ordered by global rank — so the "highest rank on the
    /// node" designation used by the monitoring framework is well defined.
    pub fn split_shared(&mut self, comm: &Comm) -> Comm {
        self.split(comm, self.core.node as u64, self.rank as u64)
    }
}
