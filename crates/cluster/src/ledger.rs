//! Per-core activity ledger.
//!
//! The simulated MPI runtime records, for every core, the virtual-time
//! spans during which the core was busy computing or communicating, and
//! the DRAM traffic its compute charged. The RAPL layer later integrates
//! the power model over these records to answer "energy consumed up to time
//! *t*" — which is exactly what the hardware's energy-status MSRs report.
//!
//! Each core keeps one log behind a mutex that arbitrates between the rank
//! writing it and RAPL readers on the same node. Only the core's own rank
//! writes its log. The log is one timeline of the core's spans of both
//! [`ActivityKind`]s in record order, 8 bytes and one bit a span: its end
//! as an `f64` and its kind in a bitset. A span's start is the previous
//! span's end, except at a gap: the core's first span, or one after a
//! clock jump that recorded nothing (a rank idling in `recv_f64_idle`).
//! Gaps are rare, so their starts go in a side list of `(index, start)`.
//! A start equals the previous end only if the two have the same bits, so
//! every start reads back exactly as recorded. Every 64 spans a checkpoint
//! keeps, per kind, the running left fold of the durations and the
//! running maximum end.
//!
//! Every array of the log lives in blocks of 1024 items that never move.
//! Only the last block grows, the way a `Vec` does, and a full block is
//! followed by a new one; so a long log is never copied and keeps at most
//! one block of slack.
//!
//! Starts never decrease on a core, so the spans that started before `t`
//! are a prefix. A read finds it with two binary searches: the last gap
//! that started before `t`, then the first span after that gap whose
//! predecessor ended at or after `t`. A third search finds the last
//! checkpoint inside the prefix whose spans of the kind all ended by `t`;
//! each of those contributes exactly its duration. The remaining spans of
//! the kind in the prefix are clipped at `t` and folded on top, walking
//! the gap list alongside: at most 64 timeline spans, since the runtime's
//! spans on one core never overlap, so only the last one before `t` can
//! end after it. That is the left fold `Iterator::sum::<f64>` computes
//! over every clipped span of the prefix, from the same initial value and
//! in the same order, so a read returns the bits of a full scan.
//!
//! A rank in a barrier or split opens its wait at its arrival
//! ([`Ledger::open_wait`]) and closes it at the release. Open, it is its
//! core's last span and reads as one ending at `+∞`, clipped at `t`: at any
//! `t ≤ release` (every read the program makes of a waiting core) the
//! closed span's value bit for bit, whether or not the rank has resumed.
//!
//! DRAM traffic is kept per core as `(t, running byte total)`, with events
//! at one instant merged. A socket's bytes up to `t` take one binary search
//! per core; the sum is in `u64`, so any grouping gives the same total.
//! As with a span, only an event stamped strictly before `t` counts. IMe's
//! INITIME and CG's setup (not `pdgesv`, which splits first) charge memory
//! right at the monitor's allocation release `r`; a read at `r` leaves
//! that memory out whichever rank the host ran first.

use crate::spec::NodeSpec;
use crate::topology::CoreId;
use parking_lot::Mutex;
use std::ops::{Index, Range};

/// Spans of a core's timeline between two checkpoints.
const STRIDE: usize = 64;

/// Items in a full block of a [`Blocks`] array.
const BLOCK: usize = 1024;

/// What a core was doing during a busy interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityKind {
    /// Floating-point work (charged via `compute`).
    Compute,
    /// Message progression, copies, or synchronisation spinning.
    Comm,
}

/// One busy interval of a core.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
    pub kind: ActivityKind,
    /// Flops executed during the interval (zero for `Comm`).
    pub flops: u64,
}

/// The running state of one kind's spans after some prefix of a timeline.
#[derive(Clone, Copy)]
struct Fold {
    /// Left fold of the durations, as `Iterator::sum::<f64>` folds them.
    busy: f64,
    /// Latest end among the spans.
    max_end: f64,
}

impl Fold {
    fn empty() -> Self {
        Self {
            busy: std::iter::empty::<f64>().sum(),
            max_end: f64::NEG_INFINITY,
        }
    }
}

/// An append-only array in blocks of [`BLOCK`] items that never move.
struct Blocks<T> {
    blocks: Vec<Vec<T>>,
}

impl<T: Copy> Blocks<T> {
    fn new() -> Self {
        Self { blocks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * BLOCK + last.len())
    }

    /// Append `item`: the last block doubles up to [`BLOCK`] items, and a
    /// full one is followed by a new block.
    fn push(&mut self, item: T) {
        match self.blocks.last_mut() {
            Some(last) if last.len() < BLOCK => {
                if last.len() == last.capacity() {
                    last.reserve_exact(last.len().min(BLOCK - last.len()));
                }
                last.push(item);
            }
            _ => {
                let mut block = Vec::with_capacity(4);
                block.push(item);
                self.blocks.push(block);
            }
        }
    }

    fn get(&self, i: usize) -> Option<T> {
        self.blocks.get(i / BLOCK)?.get(i % BLOCK).copied()
    }

    fn last(&self) -> Option<T> {
        self.blocks.last()?.last().copied()
    }

    fn last_mut(&mut self) -> Option<&mut T> {
        self.blocks.last_mut()?.last_mut()
    }

    /// The first index of `range` whose item fails `pred`, which holds on
    /// a prefix of the range (`slice::partition_point` over indices).
    fn partition_point(&self, range: Range<usize>, mut pred: impl FnMut(T) -> bool) -> usize {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Heap bytes held, slack included.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Vec<T>>()
            + self
                .blocks
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<T>())
                .sum::<usize>()
    }
}

impl<T> Index<usize> for Blocks<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.blocks[i / BLOCK][i % BLOCK]
    }
}

/// Everything the ledger keeps about one core.
struct CoreLog {
    /// Each span's end, in record order.
    ends: Blocks<f64>,
    /// Bit `i % 64` of word `i / 64` is set iff span `i` is `Comm`.
    comm: Blocks<u64>,
    /// `(i, start)` for each span `i` that does not start where span
    /// `i − 1` ended, ascending; span 0 is always one.
    gaps: Blocks<(usize, f64)>,
    /// Entry `k` holds both kinds' folds of spans `..(k + 1) * STRIDE`,
    /// indexed by `ActivityKind as usize`.
    checkpoints: Blocks<[Fold; 2]>,
    /// Both kinds' folds of every span so far.
    all: [Fold; 2],
    flops: u64,
    /// `(start, end)` of the latest span.
    last: Option<[f64; 2]>,
    /// Start of the core's open `Comm` wait, if it is in one.
    wait: Option<f64>,
    /// `(t, bytes moved up to and including t)`, one entry per instant.
    dram: Blocks<(f64, u64)>,
}

impl CoreLog {
    fn new() -> Self {
        Self {
            ends: Blocks::new(),
            comm: Blocks::new(),
            gaps: Blocks::new(),
            checkpoints: Blocks::new(),
            all: [Fold::empty(); 2],
            flops: 0,
            last: None,
            wait: None,
            dram: Blocks::new(),
        }
    }

    /// A span or wait starting at `start` may come next: no wait is open
    /// and no earlier span started later.
    fn assert_next_start(&self, core: CoreId, start: f64) {
        assert!(
            self.wait.is_none(),
            "record on {core:?} while its wait is open"
        );
        let last = self.last.map_or(f64::NEG_INFINITY, |[start, _]| start);
        assert!(
            start >= last,
            "non-monotonic interval on {core:?}: start {start} after {last}"
        );
    }

    fn push(&mut self, kind: ActivityKind, start: f64, end: f64, flops: u64) {
        let i = self.ends.len();
        if self
            .last
            .is_none_or(|[_, prev]| prev.to_bits() != start.to_bits())
        {
            self.gaps.push((i, start));
        }
        self.ends.push(end);
        if i.is_multiple_of(64) {
            self.comm.push(0);
        }
        if kind == ActivityKind::Comm {
            *self.comm.last_mut().expect("the span's word") |= 1 << (i % 64);
        }
        let fold = &mut self.all[kind as usize];
        fold.busy += end - start;
        fold.max_end = fold.max_end.max(end);
        if (i + 1).is_multiple_of(STRIDE) {
            self.checkpoints.push(self.all);
        }
        self.flops += flops;
        self.last = Some([start, end]);
    }

    fn kind(&self, i: usize) -> ActivityKind {
        if self.comm[i / 64] >> (i % 64) & 1 == 1 {
            ActivityKind::Comm
        } else {
            ActivityKind::Compute
        }
    }

    /// Spans `range` as `(kind, start, end)`, in record order, walking the
    /// gap list alongside.
    fn spans(&self, range: Range<usize>) -> impl Iterator<Item = (ActivityKind, f64, f64)> + '_ {
        let mut gap = self
            .gaps
            .partition_point(0..self.gaps.len(), |(i, _)| i < range.start);
        // Unread when `range` starts at span 0, which is a gap.
        let mut prev_end = range
            .start
            .checked_sub(1)
            .map_or(f64::NAN, |i| self.ends[i]);
        range.map(move |i| {
            let start = match self.gaps.get(gap) {
                Some((at, start)) if at == i => {
                    gap += 1;
                    start
                }
                _ => prev_end,
            };
            prev_end = self.ends[i];
            (self.kind(i), start, prev_end)
        })
    }

    /// How many spans started before `t`: a prefix, since starts never
    /// decrease.
    fn started_before(&self, t: f64) -> usize {
        let g = self
            .gaps
            .partition_point(0..self.gaps.len(), |(_, start)| start < t);
        let Some(first) = g.checked_sub(1).map(|g| self.gaps[g].0) else {
            return 0;
        };
        let next = self.gaps.get(g).map_or(self.ends.len(), |(i, _)| i);
        // Span `first` started before `t`; each later span up to the next
        // gap starts where its predecessor ended.
        self.ends.partition_point(first..next - 1, |end| end < t) + 1
    }

    /// `Σ min(end, t) − start` over the spans of `kind` with `start < t`,
    /// in record order, and last over a `Comm` wait open since `wait`,
    /// ending at `+∞`.
    fn busy_until(&self, kind: ActivityKind, t: f64) -> f64 {
        let prefix = self.started_before(t);
        // Checkpoints wholly inside the prefix whose spans of `kind` all
        // ended by `t` contribute unclipped durations.
        let k = self
            .checkpoints
            .partition_point(0..prefix / STRIDE, |cp| cp[kind as usize].max_end <= t);
        let (from, init) = match k {
            0 => (0, Fold::empty().busy),
            k => (k * STRIDE, self.checkpoints[k - 1][kind as usize].busy),
        };
        let closed = self
            .spans(from..prefix)
            .filter(|&(of, _, _)| of == kind)
            .fold(init, |acc, (_, start, end)| acc + (end.min(t) - start));
        match self.wait {
            Some(start) if kind == ActivityKind::Comm && start < t => closed + (t - start),
            _ => closed,
        }
    }

    /// Heap bytes held by the span and DRAM records, slack included.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.ends.heap_bytes()
            + self.comm.heap_bytes()
            + self.gaps.heap_bytes()
            + self.checkpoints.heap_bytes()
            + self.dram.heap_bytes()
    }
}

/// The cluster-wide activity record for one run.
pub struct Ledger {
    node_spec: NodeSpec,
    nodes: usize,
    /// `cores[node * cores_per_node + flat_core]`
    cores: Vec<Mutex<CoreLog>>,
}

/// A core's open rendezvous wait ([`Ledger::open_wait`]). Dropping it
/// unclosed, as a rank unwinding out of an abandoned rendezvous does,
/// records nothing.
#[must_use = "an open wait is dropped unrecorded unless closed"]
pub struct OpenWait<'l> {
    log: &'l Mutex<CoreLog>,
    release: Option<f64>,
}

impl OpenWait<'_> {
    /// End the wait at `release ≥ start`, under one lock recording
    /// `[start, release]` in its place (nothing if `release = start`).
    pub fn close(mut self, release: f64) {
        self.release = Some(release);
    }
}

impl Drop for OpenWait<'_> {
    fn drop(&mut self) {
        let mut log = self.log.lock();
        match (log.wait.take(), self.release) {
            (Some(start), Some(release)) if release > start => {
                log.push(ActivityKind::Comm, start, release, 0);
            }
            _ => {}
        }
    }
}

impl Ledger {
    pub fn new(node_spec: NodeSpec, nodes: usize) -> Self {
        let cores = (0..nodes * node_spec.cores())
            .map(|_| Mutex::new(CoreLog::new()))
            .collect();
        Self {
            node_spec,
            nodes,
            cores,
        }
    }

    pub fn node_spec(&self) -> &NodeSpec {
        &self.node_spec
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn core_slot(&self, core: CoreId) -> &Mutex<CoreLog> {
        let idx = core.node * self.node_spec.cores() + core.flat_in_node(&self.node_spec);
        &self.cores[idx]
    }

    /// Record a busy interval on a core. Intervals of one core must be
    /// appended in non-decreasing start order (each rank owns one core and
    /// its clock only moves forward).
    pub fn record(&self, core: CoreId, interval: Interval) {
        assert!(
            interval.end >= interval.start,
            "interval ends before it starts: {interval:?}"
        );
        let mut log = self.core_slot(core).lock();
        log.assert_next_start(core, interval.start);
        log.push(interval.kind, interval.start, interval.end, interval.flops);
    }

    /// Open `core`'s wait at its rank's arrival `t` in a rendezvous: until
    /// the guard is closed or dropped, reads count `Comm` time from `t` on,
    /// and nothing else may be recorded on the core.
    pub fn open_wait(&self, core: CoreId, t: f64) -> OpenWait<'_> {
        let slot = self.core_slot(core);
        let mut log = slot.lock();
        log.assert_next_start(core, t);
        log.wait = Some(t);
        OpenWait {
            log: slot,
            release: None,
        }
    }

    /// Record `bytes` of DRAM traffic charged by `core` at virtual time
    /// `t`. A core's events must arrive in non-decreasing time order.
    pub fn record_dram(&self, core: CoreId, t: f64, bytes: u64) {
        let mut log = self.core_slot(core).lock();
        let (last_t, before) = log.dram.last().unwrap_or((f64::NEG_INFINITY, 0));
        assert!(
            t >= last_t,
            "non-monotonic DRAM event on {core:?}: t = {t} after {last_t}"
        );
        match log.dram.last_mut() {
            Some((at, total)) if *at == t => *total += bytes,
            _ => log.dram.push((t, before + bytes)),
        }
    }

    /// Seconds core `core` spent in activity `kind` up to virtual time `t`.
    pub fn core_busy_until(&self, core: CoreId, kind: ActivityKind, t: f64) -> f64 {
        self.core_slot(core).lock().busy_until(kind, t)
    }

    /// `core`'s recorded span of `kind` running across `t` — started
    /// before it and ending after it — as `(start, end)`, if there is one.
    /// Spans of one core never overlap, so only the last one to start
    /// before `t`, of either kind, can be it.
    pub fn span_across(&self, core: CoreId, kind: ActivityKind, t: f64) -> Option<(f64, f64)> {
        let log = self.core_slot(core).lock();
        let i = log.started_before(t).checked_sub(1)?;
        let (last_kind, start, end) = log.spans(i..i + 1).next()?;
        (last_kind == kind && end > t).then_some((start, end))
    }

    /// Total busy seconds in `kind`, summed over every core of `(node,
    /// socket)`, up to time `t`.
    pub fn socket_busy_until(&self, node: usize, socket: usize, kind: ActivityKind, t: f64) -> f64 {
        (0..self.node_spec.cpu.cores_per_socket)
            .map(|c| self.core_busy_until(CoreId::new(node, socket, c), kind, t))
            .sum()
    }

    /// DRAM bytes moved on `(node, socket)` up to time `t`.
    pub fn dram_bytes_until(&self, node: usize, socket: usize, t: f64) -> u64 {
        (0..self.node_spec.cpu.cores_per_socket)
            .map(|c| {
                let log = self.core_slot(CoreId::new(node, socket, c)).lock();
                let k = log
                    .dram
                    .partition_point(0..log.dram.len(), |(et, _)| et < t);
                k.checked_sub(1).map_or(0, |k| log.dram[k].1)
            })
            .sum()
    }

    /// Total flops across the whole run.
    pub fn total_flops(&self) -> u64 {
        self.cores.iter().map(|m| m.lock().flops).sum()
    }

    /// Latest interval end across the cluster (the run's virtual makespan so
    /// far).
    pub fn max_time(&self) -> f64 {
        self.cores
            .iter()
            .map(|m| m.lock().last.map_or(0.0, |[_, end]| end))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    fn ledger() -> Ledger {
        Ledger::new(NodeSpec::test_node(4), 2)
    }

    fn iv(start: f64, end: f64, kind: ActivityKind, flops: u64) -> Interval {
        Interval {
            start,
            end,
            kind,
            flops,
        }
    }

    #[test]
    fn busy_time_accumulates_and_clips() {
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        l.record(c, iv(0.0, 1.0, ActivityKind::Compute, 100));
        l.record(c, iv(2.0, 4.0, ActivityKind::Compute, 200));
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 10.0), 3.0);
        // Clip at t = 3.0: first interval full, second half.
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 3.0), 2.0);
        // Before anything started.
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 0.0), 0.0);
    }

    #[test]
    fn kinds_are_separated() {
        let l = ledger();
        let c = CoreId::new(0, 1, 2);
        l.record(c, iv(0.0, 1.0, ActivityKind::Comm, 0));
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 2.0), 0.0);
        assert_eq!(l.core_busy_until(c, ActivityKind::Comm, 2.0), 1.0);
    }

    #[test]
    fn socket_aggregation() {
        let l = ledger();
        l.record(
            CoreId::new(1, 0, 0),
            iv(0.0, 1.0, ActivityKind::Compute, 10),
        );
        l.record(
            CoreId::new(1, 0, 3),
            iv(0.0, 2.0, ActivityKind::Compute, 20),
        );
        l.record(
            CoreId::new(1, 1, 0),
            iv(0.0, 5.0, ActivityKind::Compute, 40),
        );
        assert_eq!(l.socket_busy_until(1, 0, ActivityKind::Compute, 10.0), 3.0);
        assert_eq!(l.total_flops(), 70);
    }

    #[test]
    fn dram_accounting() {
        let l = ledger();
        l.record_dram(CoreId::new(0, 0, 0), 0.5, 1000);
        l.record_dram(CoreId::new(0, 0, 0), 1.5, 500);
        l.record_dram(CoreId::new(0, 1, 0), 0.1, 42);
        assert_eq!(l.dram_bytes_until(0, 0, 1.0), 1000);
        assert_eq!(l.dram_bytes_until(0, 0, 2.0), 1500);
        assert_eq!(l.dram_bytes_until(0, 1, 2.0), 42);
    }

    #[test]
    fn a_read_at_t_counts_neither_dram_stamped_at_t_nor_a_span_starting_there() {
        // The rule the module docs state for a read at a barrier release:
        // DRAM traffic charged exactly at `t` is out, as is a span or wait
        // that starts exactly at `t`.
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        l.record_dram(c, 1.0, 64);
        l.record(c, iv(1.0, 2.0, ActivityKind::Compute, 10));
        let wait = l.open_wait(c, 2.0);
        assert_eq!(l.dram_bytes_until(0, 0, 1.0), 0);
        assert_eq!(l.dram_bytes_until(0, 0, 1.0 + 1e-12), 64);
        assert_eq!(l.core_busy_until(c, ActivityKind::Compute, 1.0), 0.0);
        assert_eq!(l.core_busy_until(c, ActivityKind::Comm, 2.0), 0.0);
        assert_eq!(l.core_busy_until(c, ActivityKind::Comm, 2.5), 0.5);
        wait.close(3.0);
        assert_eq!(l.core_busy_until(c, ActivityKind::Comm, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "while its wait is open")]
    fn rejects_a_record_under_an_open_wait() {
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        let _wait = l.open_wait(c, 1.0);
        l.record(c, iv(1.0, 2.0, ActivityKind::Compute, 0));
    }

    #[test]
    fn max_time_tracks_latest_end() {
        let l = ledger();
        assert_eq!(l.max_time(), 0.0);
        l.record(CoreId::new(0, 0, 1), iv(0.0, 3.5, ActivityKind::Compute, 1));
        l.record(CoreId::new(1, 1, 0), iv(0.0, 7.25, ActivityKind::Comm, 0));
        assert_eq!(l.max_time(), 7.25);
    }

    #[test]
    fn socket_touched_detects_idle_socket() {
        let l = ledger();
        l.record(CoreId::new(0, 0, 0), iv(0.0, 1.0, ActivityKind::Compute, 1));
        assert_eq!(l.socket_busy_until(0, 0, ActivityKind::Compute, 2.0), 1.0);
        assert_eq!(l.socket_busy_until(0, 1, ActivityKind::Compute, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn rejects_backwards_interval() {
        let l = ledger();
        l.record(CoreId::new(0, 0, 0), iv(1.0, 0.5, ActivityKind::Compute, 0));
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn rejects_out_of_order_intervals() {
        let c = CoreId::new(0, 0, 0);
        let l = ledger();
        l.record(c, iv(5.0, 6.0, ActivityKind::Compute, 0));
        let earlier = std::panic::catch_unwind(|| {
            l.record(c, iv(1.0, 2.0, ActivityKind::Compute, 0));
        });
        assert!(earlier.is_err(), "a start 4 s early was accepted");
        // The binary search needs exact order: a start a hair before the
        // last one, on the other kind, is refused too.
        let l = ledger();
        l.record(c, iv(5.0, 6.0, ActivityKind::Compute, 0));
        l.record(c, iv(5.0 - 1e-13, 6.0, ActivityKind::Comm, 0));
    }

    #[test]
    #[should_panic(expected = "non-monotonic DRAM event")]
    fn rejects_out_of_order_dram_events() {
        let l = ledger();
        let c = CoreId::new(0, 0, 0);
        l.record_dram(c, 2.0, 1);
        l.record_dram(c, 1.0, 1);
    }

    /// The scan every read replaced, verbatim: the differential oracle.
    #[derive(Default)]
    struct Scan {
        cores: std::collections::HashMap<CoreId, Vec<Interval>>,
        dram: std::collections::HashMap<(usize, usize), Vec<(f64, u64)>>,
    }

    impl Scan {
        fn core_busy_until(&self, core: CoreId, kind: ActivityKind, t: f64) -> f64 {
            self.cores
                .get(&core)
                .map_or(&[][..], |v| &v[..])
                .iter()
                .filter(|iv| iv.kind == kind && iv.start < t)
                .map(|iv| iv.end.min(t) - iv.start)
                .sum()
        }

        fn socket_busy_until(
            &self,
            spec: &NodeSpec,
            node: usize,
            socket: usize,
            kind: ActivityKind,
            t: f64,
        ) -> f64 {
            (0..spec.cpu.cores_per_socket)
                .map(|c| self.core_busy_until(CoreId::new(node, socket, c), kind, t))
                .sum()
        }

        fn dram_bytes_until(&self, node: usize, socket: usize, t: f64) -> u64 {
            self.dram
                .get(&(node, socket))
                .map_or(&[][..], |v| &v[..])
                .iter()
                .filter(|e| e.0 < t)
                .map(|e| e.1)
                .sum()
        }

        fn total_flops(&self) -> u64 {
            self.cores
                .values()
                .map(|v| v.iter().map(|iv| iv.flops).sum::<u64>())
                .sum()
        }

        fn max_time(&self) -> f64 {
            self.cores
                .values()
                .map(|v| v.last().map_or(0.0, |iv| iv.end))
                .fold(0.0, f64::max)
        }
    }

    /// SplitMix64: a dependency-free stream for the random ledgers.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Every read of `(node, socket)` at every probe, held to the scan by
    /// `to_bits`.
    fn assert_reads_match(
        ledger: &Ledger,
        scan: &Scan,
        (node, socket): (usize, usize),
        probes: impl IntoIterator<Item = f64>,
    ) {
        let spec = ledger.node_spec();
        for t in probes {
            for kind in [ActivityKind::Compute, ActivityKind::Comm] {
                for c in 0..spec.cpu.cores_per_socket {
                    let core = CoreId::new(node, socket, c);
                    assert_eq!(
                        ledger.core_busy_until(core, kind, t).to_bits(),
                        scan.core_busy_until(core, kind, t).to_bits(),
                        "{core:?} {kind:?} at t = {t}"
                    );
                }
                assert_eq!(
                    ledger.socket_busy_until(node, socket, kind, t).to_bits(),
                    scan.socket_busy_until(spec, node, socket, kind, t)
                        .to_bits(),
                    "socket ({node}, {socket}) {kind:?} at t = {t}"
                );
            }
            assert_eq!(
                ledger.dram_bytes_until(node, socket, t),
                scan.dram_bytes_until(node, socket, t),
                "DRAM ({node}, {socket}) at t = {t}"
            );
        }
    }

    /// How the scan models a wait opened at `start`.
    fn open_span(start: f64) -> Interval {
        iv(start, f64::INFINITY, ActivityKind::Comm, 0)
    }

    /// Close `wait` at `release` in both records: the scan's open span (its
    /// core's last, ending at `+∞`) ends at `release`, or goes when the
    /// release is its start.
    fn close_wait(scan: &mut Scan, core: CoreId, wait: OpenWait<'_>, release: f64) {
        wait.close(release);
        let spans = scan.cores.get_mut(&core).expect("the wait's core");
        let open = spans.pop().expect("the open wait");
        assert_eq!(open.end, f64::INFINITY, "the core's last span is its wait");
        if release > open.start {
            spans.push(iv(open.start, release, ActivityKind::Comm, 0));
        }
    }

    #[test]
    fn reads_equal_the_full_scan_bit_for_bit() {
        // 480 spans per core, so reads cross several checkpoints; Miri gets
        // a stream that still crosses a few.
        let (per_core, min_checkpoints, probe_step) = if cfg!(miri) {
            (200, 3, 40)
        } else {
            (480, 7, 1)
        };
        let spec = NodeSpec::test_node(2);
        let sockets = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut rng = Rng(0x5eed_1ed9);
        let ledger = Ledger::new(spec.clone(), 2);
        let mut scan = Scan::default();
        for (node, socket) in sockets {
            // Each socket is read at every start, end, in-span instant and
            // DRAM time stamp of its own cores, and at the edges.
            let mut probes = vec![f64::NEG_INFINITY, -1.0, 0.0, f64::INFINITY, f64::NAN];
            let mut waits = Vec::new();
            for c in 0..spec.cpu.cores_per_socket {
                let core = CoreId::new(node, socket, c);
                // Some cores start late, so reads land before their first
                // span.
                let mut clock = rng.below(3) as f64 * 1e-3;
                let mut dram_t = clock;
                for _ in 0..per_core {
                    let kind = if rng.below(2) == 0 {
                        ActivityKind::Compute
                    } else {
                        ActivityKind::Comm
                    };
                    // A gap before the span, or none.
                    if rng.below(3) == 0 {
                        clock += rng.unit() * 1e-4;
                    }
                    let (len, flops) = match rng.below(6) {
                        // A zero-length span that still carries flops.
                        0 => (0.0, rng.below(1000) + 1),
                        _ => (rng.unit() * 1e-4, rng.below(1 << 20)),
                    };
                    let span = iv(clock, clock + len, kind, flops);
                    ledger.record(core, span);
                    scan.cores.entry(core).or_default().push(span);
                    probes.extend([span.start, span.end, span.start + len * rng.unit()]);
                    // Usually the next span starts where this one ended;
                    // now and then at the same start (spans then overlap,
                    // so a checkpoint's max end can lie past a later start).
                    if rng.below(5) != 0 {
                        clock = span.end;
                    }
                    if rng.below(3) == 0 {
                        // DRAM traffic; an event that does not move its
                        // time stamp shares it with the previous one.
                        if rng.below(2) == 0 {
                            dram_t = dram_t.max(clock);
                        }
                        let bytes = rng.below(1 << 24);
                        ledger.record_dram(core, dram_t, bytes);
                        scan.dram
                            .entry((node, socket))
                            .or_default()
                            .push((dram_t, bytes));
                        probes.push(dram_t);
                    }
                }
                // Most cores end in an open wait, which the scan models
                // as a span ending at +∞; the instants inside it are read
                // too.
                if rng.below(4) != 0 {
                    waits.push((core, ledger.open_wait(core, clock)));
                    scan.cores.entry(core).or_default().push(open_span(clock));
                    probes.extend([clock + rng.unit() * 1e-4, clock + 0.5]);
                }
                probes.push(clock + 1.0);
                let log = ledger.core_slot(core).lock();
                assert!(
                    log.checkpoints.len() >= min_checkpoints
                        && log.checkpoints[0].iter().all(|f| f.max_end > 0.0),
                    "{core:?}: the stream must cross checkpoints in both kinds"
                );
            }
            assert!(
                !waits.is_empty(),
                "socket ({node}, {socket}) has no open wait"
            );
            let probes = || probes.iter().copied().step_by(probe_step);
            assert_reads_match(&ledger, &scan, (node, socket), probes());
            // Close the waits: at a later release, at their own start
            // (nothing recorded), or not at all (an abandoned rendezvous,
            // nothing recorded either); then read everything again.
            for (core, wait) in waits {
                let start = scan.cores[&core].last().expect("the open wait").start;
                match rng.below(3) {
                    0 => close_wait(&mut scan, core, wait, start + rng.unit() * 1e-4),
                    1 => close_wait(&mut scan, core, wait, start),
                    _ => {
                        drop(wait);
                        scan.cores.get_mut(&core).expect("the wait's core").pop();
                    }
                }
            }
            assert_reads_match(&ledger, &scan, (node, socket), probes());
        }
        assert_eq!(ledger.total_flops(), scan.total_flops());
        assert_eq!(ledger.max_time().to_bits(), scan.max_time().to_bits());

        // A wait that closes as its core's 64th `Comm` span lands on a
        // checkpoint; one closed at its own start records nothing.
        let core = CoreId::new(0, 0, 0);
        let ledger = Ledger::new(spec.clone(), 1);
        let mut scan = Scan::default();
        let mut probes = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
        for k in 0..STRIDE - 1 {
            let span = iv(k as f64, k as f64 + 0.75, ActivityKind::Comm, 0);
            ledger.record(core, span);
            scan.cores.entry(core).or_default().push(span);
            probes.extend([span.start, span.end, span.start + 0.5]);
        }
        // Every span of this core is `Comm`: (spans, checkpoints).
        let comm = |ledger: &Ledger| {
            let log = ledger.core_slot(core).lock();
            (log.ends.len(), log.checkpoints.len())
        };
        let start = (STRIDE - 1) as f64;
        for (release, spans) in [(start, STRIDE - 1), (start + 0.25, STRIDE)] {
            let wait = ledger.open_wait(core, start);
            scan.cores
                .get_mut(&core)
                .expect("the core")
                .push(open_span(start));
            probes.extend([start, start + 0.125, release, start + 1.0]);
            assert_reads_match(&ledger, &scan, (0, 0), probes.iter().copied());
            close_wait(&mut scan, core, wait, release);
            assert_eq!(
                comm(&ledger),
                (spans, spans / STRIDE),
                "closed at {release}"
            );
            assert_reads_match(&ledger, &scan, (0, 0), probes.iter().copied());
        }
        assert_eq!(ledger.max_time().to_bits(), (start + 0.25).to_bits());
    }

    #[test]
    fn span_across_finds_what_a_full_scan_finds() {
        // A runtime-shaped stream: spans of both kinds back to back or
        // after a gap, some of zero length, never overlapping; then an
        // open wait, which is no recorded span.
        let ledger = ledger();
        let core = CoreId::new(1, 0, 2);
        let mut rng = Rng(0x5eed_a105);
        let mut spans = Vec::new();
        let mut probes = vec![f64::NEG_INFINITY, -1.0, 0.0, f64::INFINITY, f64::NAN];
        let mut clock = 0.0;
        // Past a block boundary of the timeline.
        let n = if cfg!(miri) {
            3 * STRIDE
        } else {
            BLOCK + 3 * STRIDE
        };
        for _ in 0..n {
            if rng.below(3) == 0 {
                clock += rng.unit() * 1e-4;
            }
            let kind = if rng.below(2) == 0 {
                ActivityKind::Compute
            } else {
                ActivityKind::Comm
            };
            let len = if rng.below(6) == 0 {
                0.0
            } else {
                rng.unit() * 1e-4
            };
            let span = iv(clock, clock + len, kind, 1);
            ledger.record(core, span);
            spans.push(span);
            probes.extend([span.start, span.end, span.start + len * rng.unit()]);
            clock = span.end;
        }
        let _wait = ledger.open_wait(core, clock);
        probes.extend([clock, clock + 1.0]);
        // Probes inside a span whose predecessor, of the other kind, is
        // the last span of the asked kind.
        let mut behind_the_other_kind = 0;
        for t in probes {
            for kind in [ActivityKind::Compute, ActivityKind::Comm] {
                let scanned = spans
                    .iter()
                    .find(|s| s.kind == kind && s.start < t && s.end > t)
                    .map(|s| (s.start, s.end));
                assert_eq!(
                    ledger.span_across(core, kind, t),
                    scanned,
                    "{kind:?} at t = {t}"
                );
                let last = spans.iter().rev().find(|s| s.start < t);
                behind_the_other_kind += usize::from(last.is_some_and(|s| s.kind != kind));
            }
        }
        assert!(behind_the_other_kind > 0);
        // By hand: a `Compute` span, then a `Comm` one from its end.
        let l = Ledger::new(NodeSpec::test_node(4), 2);
        let c = CoreId::new(0, 1, 1);
        l.record(c, iv(1.0, 2.0, ActivityKind::Compute, 1));
        l.record(c, iv(2.0, 3.0, ActivityKind::Comm, 0));
        assert_eq!(
            l.span_across(c, ActivityKind::Compute, 1.5),
            Some((1.0, 2.0))
        );
        assert_eq!(l.span_across(c, ActivityKind::Compute, 2.5), None);
        assert_eq!(l.span_across(c, ActivityKind::Comm, 2.5), Some((2.0, 3.0)));
        assert_eq!(l.span_across(c, ActivityKind::Comm, 1.5), None);
        // Another core's spans are not this one's.
        assert_eq!(
            ledger.span_across(CoreId::new(0, 0, 0), ActivityKind::Compute, 1e-5),
            None
        );
    }

    #[test]
    fn block_boundaries_gaps_and_waits_read_like_the_full_scan() {
        // One core's timeline past two block boundaries, shaped like the
        // runtime's: spans back to back, clock jumps that record nothing
        // (gaps), zero-length spans on either side of a gap, and waits
        // that open right after a jump. Debug builds read a third of the
        // probes; release builds read them all.
        let (n, probe_step) = match () {
            _ if cfg!(miri) => (3 * STRIDE, 20),
            _ if cfg!(debug_assertions) => (2 * BLOCK + STRIDE / 2, 3),
            _ => (2 * BLOCK + STRIDE / 2, 1),
        };
        let spec = NodeSpec::test_node(2);
        let ledger = Ledger::new(spec.clone(), 1);
        let mut scan = Scan::default();
        let core = CoreId::new(0, 0, 1);
        let mut rng = Rng(0x5eed_b10c);
        let mut probes = vec![f64::NEG_INFINITY, 0.0, f64::INFINITY, f64::NAN];
        // The socket's other core starts a span at −0 where the previous
        // one ended at +0: equal values, but a gap, or the first
        // `Compute` read would fold `−0 − (+0)` where the scan folds
        // `−0 − (−0)`.
        for span in [
            iv(-1.0, 0.0, ActivityKind::Comm, 0),
            iv(-0.0, -0.0, ActivityKind::Compute, 1),
        ] {
            ledger.record(CoreId::new(0, 0, 0), span);
            scan.cores
                .entry(CoreId::new(0, 0, 0))
                .or_default()
                .push(span);
        }
        let mut clock = 0.5;
        let mut spans = 0;
        while spans < n {
            let jump = rng.below(8) == 0;
            if jump {
                probes.push(clock);
                clock += 1e-6 + rng.unit() * 1e-4;
            }
            if jump && rng.below(4) == 0 {
                // A wait right after the jump, read while open, then closed
                // later or at its own start.
                let wait = ledger.open_wait(core, clock);
                scan.cores.entry(core).or_default().push(open_span(clock));
                let open = [clock, clock + 1e-5, clock + 1.0];
                assert_reads_match(&ledger, &scan, (0, 0), open);
                let release = clock + rng.below(2) as f64 * rng.unit() * 1e-4;
                close_wait(&mut scan, core, wait, release);
                probes.extend([clock, release, (clock + release) / 2.0]);
                spans += usize::from(release > clock);
                clock = release;
                continue;
            }
            let kind = if rng.below(2) == 0 {
                ActivityKind::Compute
            } else {
                ActivityKind::Comm
            };
            let len = match rng.below(4) {
                0 => 0.0,
                _ => rng.unit() * 1e-4,
            };
            let span = iv(clock, clock + len, kind, rng.below(100));
            ledger.record(core, span);
            scan.cores.entry(core).or_default().push(span);
            probes.extend([span.start, span.end, span.start + len * rng.unit()]);
            spans += 1;
            clock = span.end;
        }
        {
            let log = ledger.core_slot(core).lock();
            assert_eq!(log.ends.len(), n);
            assert!(log.ends.blocks.len() >= 3, "two block boundaries");
            assert!(log.gaps.len() > n / 16, "{} gaps", log.gaps.len());
        }
        let probes = probes.iter().copied().step_by(probe_step);
        assert_reads_match(&ledger, &scan, (0, 0), probes);
        assert_eq!(ledger.total_flops(), scan.total_flops());
        assert_eq!(ledger.max_time().to_bits(), scan.max_time().to_bits());
    }

    #[test]
    fn abutting_spans_keep_eight_bytes_and_a_bit_each() {
        // N spans back to back keep their ends (8·N bytes), their kinds
        // (N/8 bytes), the checkpoints and at most one block of slack.
        let n = 5 * BLOCK + BLOCK / 2 + 1;
        let ledger = Ledger::new(NodeSpec::test_node(1), 1);
        let core = CoreId::new(0, 0, 0);
        for i in 0..n {
            let kind = if i % 3 == 0 {
                ActivityKind::Compute
            } else {
                ActivityKind::Comm
            };
            ledger.record(core, iv(i as f64, (i + 1) as f64, kind, 1));
        }
        let log = ledger.core_slot(core).lock();
        assert_eq!(log.gaps.len(), 1, "only the first span starts a gap");
        let checkpoints = n / STRIDE * std::mem::size_of::<[Fold; 2]>();
        let bound = 8 * n + n / 8 + checkpoints + BLOCK * std::mem::size_of::<f64>();
        assert!(
            log.heap_bytes() <= bound,
            "{} heap bytes for {n} spans, bound {bound}",
            log.heap_bytes()
        );
    }
}
