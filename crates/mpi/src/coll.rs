//! Data-moving collectives built over the point-to-point layer so their
//! timing and traffic emerge from the same α + β·size model as everything
//! else.
//!
//! Three algorithm families coexist, selected by payload size exactly as
//! production MPI does:
//!
//! * **Trees** (binomial broadcast/reduce, linear gather) for small
//!   payloads, where latency dominates and `α·log P` depth wins. A tree
//!   broadcast over `P` ranks performs `P − 1` sends — the count the
//!   paper's closed-form message formulas assume.
//! * **Recursive doubling** (allreduce) for mid-size payloads and a
//!   **ring** (allgather, at every size), replacing the old
//!   reduce-to-0-then-broadcast and gather-then-broadcast compositions:
//!   the critical path drops from
//!   `O((α + β·s)·log P + root serialization)` to `log P·(α + β·s)`
//!   (allreduce) and the bandwidth-optimal `(P−1)·(α + β·s/P)`
//!   (allgather).
//! * **Rabenseifner's reduce-scatter + allgather** (allreduce) for large
//!   payloads: recursive halving leaves every rank with `1/p₂` of the
//!   reduced vector, recursive doubling gathers the pieces back, and the
//!   wire carries `≈ 2·s` per rank instead of recursive doubling's
//!   `log₂P·s` at twice the latency steps.
//!
//! The switch points are [`COLL_SMALL_BYTES`] and [`COLL_LARGE_BYTES`];
//! which allreduce runs is a pure function of `(P, len)`. The scalar
//! max/maxloc allreduces carry fixed 8–16 byte payloads, permanently
//! below the small threshold, so for them the selection rule resolves to
//! the trees at compile time — which also keeps the paper's closed-form
//! per-column message counts (one reduce tree + one broadcast tree per
//! pivot) intact. Payload fan-out everywhere shares one `Arc` allocation
//! per buffer — see [`crate::envelope::Payload`].
//!
//! Every collective has one entry, and what it returns follows one rule.
//! A collective that distributes one replica — the broadcasts, the gather
//! and the allgather — returns the shared `Arc` the payload travelled in.
//! A reduction returns the rank's own `Vec`: the reduce root's
//! accumulator, the allreduce's per-rank result. A caller that needs to
//! mutate a replica copies it at its own call site
//! (`Arc::unwrap_or_clone`, `extend_from_slice`), where the copy is seen.

use crate::check::CollKind;
use crate::comm::Comm;
use crate::context::RankCtx;
use crate::envelope::Payload;
use crate::error::{AbortKind, CollContractError};
use crate::tagspace::{
    CHUNK_BITS, COLL_TAG, HEADER_CHUNK, MAX_CHUNK, MAX_PIPELINE_CHUNKS, MAX_SEQ, PLAIN_CHUNK,
};
use std::sync::Arc;

/// Allreduce payloads at or below this many bytes take the
/// latency-optimized tree pair; larger ones take recursive doubling. 512 B is
/// where the α and β terms cross for the simulated network (α ≈ 1.8 µs,
/// β ≈ 1/12.5 GB/s: β·512 ≈ 41 ns ≪ α, so halving byte volume cannot pay
/// for even one extra latency on the critical path below this size).
pub const COLL_SMALL_BYTES: u64 = 512;

/// Sum-allreduces of at least this many bytes take Rabenseifner's
/// reduce-scatter + allgather instead of recursive doubling (given
/// `p₂ ≥ 4` participants and at least one element per participant — see
/// `allreduce_arm`). With `L = log₂p₂` exchange rounds, recursive
/// doubling costs `L·(2o + α + β·n)` and Rabenseifner
/// `2L·(2o + α) + 2β·n·(1 − 1/p₂)`, so the latter wins when
/// `n > (2o + α)·L / (β·(L − 2 + 2/p₂))`. On the simulated Omni-Path
/// (o = 0.2 µs, α = 1.8 µs, β = 1/12.5 GB/s) that crossing is 110 KB at
/// p₂ = 4 and falls monotonically to 27.5 KB as p₂ → ∞; with the
/// intra-node parameters (α = 0.3 µs, β = 1/40 GB/s) it starts at 112 KB.
/// 128 KiB is the first power of two above every crossing, so the arm
/// never loses to recursive doubling where it is selected (at p₂ = 2 the
/// denominator is zero: same volume, twice the latency, never selected).
pub const COLL_LARGE_BYTES: u64 = 128 * 1024;

/// The algorithm a sum-allreduce runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceArm {
    /// Binomial reduce to rank 0 + binomial broadcast.
    Trees,
    /// Full-payload exchanges over the butterfly.
    RecursiveDoubling,
    /// Recursive-halving reduce-scatter + recursive-doubling allgather.
    Rabenseifner,
}

/// Which algorithm a sum-allreduce of `len` f64 elements over `p` ranks
/// runs — a pure function of the two, so every member of a communicator
/// picks the same one. Recursive doubling keeps the payloads that are
/// large in bytes but shorter than the `p₂` pieces the reduce-scatter
/// must cut them into. `greenla_model::comm` prices the same rule.
pub fn allreduce_arm(p: usize, len: usize) -> AllreduceArm {
    let bytes = 8 * len as u64;
    let p2 = prev_pow2(p);
    if bytes <= COLL_SMALL_BYTES {
        AllreduceArm::Trees
    } else if p2 >= 4 && len >= p2 && bytes >= COLL_LARGE_BYTES {
        AllreduceArm::Rabenseifner
    } else {
        AllreduceArm::RecursiveDoubling
    }
}

/// Pack a collective message tag: the `COLL_TAG` bit, a 43-bit
/// per-communicator sequence number, and a 20-bit chunk id (see
/// [`crate::tagspace`]). The fields must not overflow into each other — a
/// campaign long enough to exhaust 2^43 collectives per communicator, or
/// a chunk id past the field, would silently alias unrelated messages —
/// so both are asserted in every build.
pub(crate) fn compose_coll_tag(seq: u64, chunk: u64) -> u64 {
    assert!(
        chunk <= MAX_CHUNK,
        "collective chunk id {chunk} overflows its {CHUNK_BITS}-bit field"
    );
    assert!(
        seq <= MAX_SEQ,
        "collective sequence number {seq} overflows into the COLL_TAG bit"
    );
    COLL_TAG | (seq << CHUNK_BITS) | chunk
}

/// Largest power of two not exceeding `p`.
fn prev_pow2(p: usize) -> usize {
    debug_assert!(p >= 1);
    if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    }
}

/// Map a recursive-doubling participant id back to its communicator rank
/// (inverse of the non-power-of-two fold: the first `2r` ranks fold into
/// `r` odd survivors, ranks `≥ 2r` keep their position shifted by `r`).
fn rd_participant_rank(newrank: usize, r: usize) -> usize {
    if newrank < r {
        2 * newrank + 1
    } else {
        newrank + r
    }
}

fn sum_op(a: &mut [f64], b: &[f64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

impl<'m> RankCtx<'m> {
    /// Abort the run when a collective on `comm` needs more data chunk
    /// ids than its tag layout has: past [`MAX_PIPELINE_CHUNKS`] they would
    /// alias the marker chunks and the next sequence number.
    fn check_chunks(&self, comm: &Comm, chunks: usize) {
        if chunks as u64 > MAX_PIPELINE_CHUNKS {
            let breach = CollContractError::TagChunksExhausted {
                comm: comm.id(),
                rank: self.rank(),
                chunks: chunks as u64,
                max: MAX_PIPELINE_CHUNKS,
            };
            self.abort(AbortKind::CollectiveContract, breach.to_string());
        }
    }

    /// Abort the run when a peer's reduction buffer does not match ours.
    fn check_reduce_len(&self, comm: &Comm, got: usize, expected: usize) {
        if got != expected {
            let breach = CollContractError::ReduceLengthMismatch {
                comm: comm.id(),
                rank: self.rank(),
                got,
                expected,
            };
            self.abort(AbortKind::CollectiveContract, breach.to_string());
        }
    }

    /// Binomial-tree broadcast of an arbitrary payload from `root`. Every
    /// hop forwards the same shared buffer (an `Arc` bump, never a copy).
    fn bcast_payload(&mut self, comm: &Comm, root: usize, payload: Option<Payload>) -> Payload {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Bcast, Some(root), 0);
        let tag = compose_coll_tag(seq, PLAIN_CHUNK);
        if p == 1 {
            return payload.expect("root must supply the broadcast payload");
        }
        let me = comm.rank();
        let rel = (me + p - root) % p;
        let mut data: Option<Payload> = if rel == 0 {
            Some(payload.expect("root must supply the broadcast payload"))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src_index = (rel - mask + root) % p;
                data = Some(self.recv_payload(comm, src_index, tag));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst_index = (rel + mask + root) % p;
                let d = data
                    .as_ref()
                    .expect("broadcast data must exist before fan-out");
                self.send_payload(comm, dst_index, tag, d.clone());
            }
            mask >>= 1;
        }
        data.expect("broadcast produced no data")
    }

    /// `MPI_Bcast` of doubles: the root passes `Some(data)` and every rank
    /// gets back the one replica, a handle to the root's allocation
    /// whatever its length — no per-hop clone, no unwrap copy.
    pub fn bcast_shared_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> Arc<Vec<f64>> {
        self.coll_span("bcast", |ctx| {
            let payload = if comm.rank() == root {
                let data = data.expect("root must supply the payload");
                Some(Payload::shared_f64(Arc::new(data)))
            } else {
                None
            };
            ctx.bcast_payload(comm, root, payload).into_shared_f64()
        })
    }

    /// `MPI_Bcast` of u64 values (see [`Self::bcast_shared_f64`]).
    pub fn bcast_shared_u64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<u64>>,
    ) -> Arc<Vec<u64>> {
        self.coll_span("bcast", |ctx| {
            let payload = if comm.rank() == root {
                let data = data.expect("root must supply the payload");
                Some(Payload::shared_u64(Arc::new(data)))
            } else {
                None
            };
            ctx.bcast_payload(comm, root, payload).into_shared_u64()
        })
    }

    /// Pipelined large-message broadcast: a binary tree over the
    /// communicator with the payload cut into `chunk_elems`-sized pieces
    /// that stream down the tree, so the critical path is
    /// `O(α·log P + β·size)` instead of the binomial tree's
    /// `O((α + β·size)·log P)` — what production MPI switches to above a
    /// few kilobytes. Every payload takes the binary tree, however small:
    /// a one-element length header first, then `max(1, ⌈len / chunk⌉)`
    /// chunks, so each tree edge carries `1 + chunks` messages
    /// (`ime::par::predict_traffic` counts the header,
    /// `model::comm::bcast_pipelined` prices it). Callers that want the
    /// binomial [`Self::bcast_shared_f64`] for small payloads pick it
    /// themselves.
    ///
    /// The root passes `Some(data)`; every rank gets back the read-only
    /// replica. The header travels inline and each interior rank forwards
    /// the one it received. A single-chunk payload is the root's own
    /// allocation, forwarded down the tree, so every rank holds that same
    /// `Arc`. A longer one is cut once at the root; each receiver appends
    /// the chunks from borrows into its replica and forwards every chunk
    /// to both subtrees as the same shared buffer.
    pub fn bcast_pipelined_shared_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<f64>>,
        chunk_elems: usize,
    ) -> Arc<Vec<f64>> {
        assert!(chunk_elems > 0, "chunk size must be positive");
        self.coll_span("bcast_pipelined", |ctx| {
            ctx.bcast_pipelined_impl(comm, root, data, chunk_elems)
        })
    }

    fn bcast_pipelined_impl(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<f64>>,
        chunk_elems: usize,
    ) -> Arc<Vec<f64>> {
        let p = comm.size();
        let me = comm.rank();
        let seq = self.coll_site(
            comm,
            CollKind::BcastPipelined,
            Some(root),
            chunk_elems as u64,
        );
        let data = if me == root {
            data.expect("root must supply the payload")
        } else {
            Vec::new()
        };
        if p == 1 {
            return Arc::new(data);
        }
        let tag = |chunk: u64| compose_coll_tag(seq, chunk);
        let rel = (me + p - root) % p;
        let parent = (rel != 0).then(|| ((rel - 1) / 2 + root) % p);
        let kids: Vec<usize> = [2 * rel + 1, 2 * rel + 2]
            .into_iter()
            .filter(|&c| c < p)
            .map(|c| (c + root) % p)
            .collect();
        // Header: total length (receivers cannot know it otherwise).
        let header = match parent {
            None => Payload::copy_u64(&[data.len() as u64]),
            Some(par) => self.recv_payload(comm, par, tag(HEADER_CHUNK)),
        };
        let total = header.as_u64()[0] as usize;
        let nchunks = total.div_ceil(chunk_elems).max(1);
        // The root checks before it sends anything.
        self.check_chunks(comm, nchunks);
        for &k in &kids {
            self.send_payload(comm, k, tag(HEADER_CHUNK), header.clone());
        }
        if nchunks == 1 {
            let piece = match parent {
                None => Payload::shared_f64(Arc::new(data)),
                Some(par) => self.recv_payload(comm, par, tag(0)),
            };
            for &k in &kids {
                self.send_payload(comm, k, tag(0), piece.clone());
            }
            return piece.into_shared_f64();
        }
        // The root cuts each chunk once; everyone downstream appends from
        // a borrow and forwards the same allocation.
        let mut out = if parent.is_none() {
            data
        } else {
            Vec::with_capacity(total)
        };
        for c in 0..nchunks {
            let piece = match parent {
                None => Payload::copy_f64(&out[c * chunk_elems..total.min((c + 1) * chunk_elems)]),
                Some(par) => {
                    let got = self.recv_payload(comm, par, tag(c as u64));
                    out.extend_from_slice(got.as_f64());
                    got
                }
            };
            for &k in &kids {
                self.send_payload(comm, k, tag(c as u64), piece.clone());
            }
        }
        Arc::new(out)
    }

    /// Binomial-tree reduction of f64 vectors toward `root` with a custom
    /// element-wise combiner. Returns `Some(result)` at the root — its own
    /// accumulator — and `None` elsewhere.
    fn reduce_f64_with(
        &mut self,
        comm: &Comm,
        root: usize,
        mut acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Option<Vec<f64>> {
        self.coll_span("reduce", |ctx| {
            let p = comm.size();
            let seq = ctx.coll_site(comm, CollKind::Reduce, Some(root), acc.len() as u64);
            let tag = compose_coll_tag(seq, PLAIN_CHUNK);
            if p == 1 {
                return Some(acc);
            }
            let me = comm.rank();
            let rel = (me + p - root) % p;
            let mut mask = 1usize;
            while mask < p {
                if rel & mask == 0 {
                    let src_rel = rel | mask;
                    if src_rel < p {
                        let src_index = (src_rel + root) % p;
                        let other = ctx.recv_payload(comm, src_index, tag);
                        ctx.check_reduce_len(comm, other.as_f64().len(), acc.len());
                        op(&mut acc, other.as_f64());
                    }
                } else {
                    let dst_index = (rel - mask + root) % p;
                    ctx.send_payload(comm, dst_index, tag, Payload::f64(acc));
                    return None;
                }
                mask <<= 1;
            }
            Some(acc)
        })
    }

    /// `MPI_Reduce(MPI_SUM)` of f64 vectors. The contribution is moved in,
    /// and the root gets its own accumulator back.
    pub fn reduce_sum_f64(&mut self, comm: &Comm, root: usize, data: Vec<f64>) -> Option<Vec<f64>> {
        self.reduce_f64_with(comm, root, data, sum_op)
    }

    /// The tree pair: a binomial reduce to rank 0, then a binomial
    /// broadcast of its result. Every rank unwraps the broadcast into its
    /// own `Vec`, which copies a still-shared buffer of at most
    /// [`COLL_SMALL_BYTES`].
    fn allreduce_trees(
        &mut self,
        comm: &Comm,
        data: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Vec<f64> {
        let reduced = self.reduce_f64_with(comm, 0, data, op);
        self.coll_span("bcast", |ctx| {
            ctx.bcast_payload(comm, 0, reduced.map(Payload::f64))
                .expect_f64()
        })
    }

    /// Non-power-of-two fold of the butterfly allreduces, per the standard
    /// MPICH scheme: with `r = P − p₂`, the even ranks below `2r` hand
    /// their contribution to their odd neighbour and sit the butterfly
    /// out. Returns this rank's butterfly participant id, `None` for a
    /// rank that sits out (its `acc` is left empty).
    fn allreduce_fold(
        &mut self,
        comm: &Comm,
        tag: u64,
        acc: &mut Vec<f64>,
        op: &impl Fn(&mut [f64], &[f64]),
    ) -> Option<usize> {
        let me = comm.rank();
        let r = comm.size() - prev_pow2(comm.size());
        if me >= 2 * r {
            Some(me - r)
        } else if me & 1 == 0 {
            let contrib = std::mem::take(acc);
            self.send_payload(comm, me + 1, tag, Payload::f64(contrib));
            None
        } else {
            let other = self.recv_payload(comm, me - 1, tag);
            self.check_reduce_len(comm, other.as_f64().len(), acc.len());
            op(acc, other.as_f64());
            Some(me / 2)
        }
    }

    /// Inverse of [`RankCtx::allreduce_fold`]: odd survivors hand the
    /// result back to the even neighbour that sat out.
    fn allreduce_unfold(&mut self, comm: &Comm, tag: u64, acc: Vec<f64>) -> Vec<f64> {
        let me = comm.rank();
        let r = comm.size() - prev_pow2(comm.size());
        if me >= 2 * r {
            acc
        } else if me & 1 == 0 {
            self.recv_payload(comm, me + 1, tag).expect_f64()
        } else {
            self.send_payload(comm, me - 1, tag, Payload::copy_f64(&acc));
            acc
        }
    }

    /// Recursive-doubling allreduce of an owned vector with a commutative
    /// element-wise combiner: `⌈log₂ P⌉` exchange rounds, every rank busy
    /// every round, no root bottleneck. Non-power-of-two sizes fold the
    /// first `2r` ranks (where `r = P − 2^⌊log₂P⌋`) into `r` survivors
    /// before the butterfly and unfold after.
    ///
    /// Every rank applies the combiner over the same pairing tree (only
    /// operand order differs), so for a *commutative* op — IEEE addition
    /// and max/maxloc selection both qualify — all ranks produce
    /// bit-identical results.
    fn allreduce_rd(
        &mut self,
        comm: &Comm,
        mut acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Vec<f64> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Allreduce, None, acc.len() as u64);
        if p == 1 {
            return acc;
        }
        let p2 = prev_pow2(p);
        let (r, steps) = (p - p2, p2.trailing_zeros() as u64);
        // Tag chunks: 0 = fold, 1..=steps = butterfly rounds,
        // steps+1 = unfold.
        let tag = |chunk: u64| compose_coll_tag(seq, chunk);
        if let Some(nr) = self.allreduce_fold(comm, tag(0), &mut acc, &op) {
            for s in 0..steps {
                let partner = rd_participant_rank(nr ^ (1usize << s), r);
                self.send_payload(comm, partner, tag(1 + s), Payload::copy_f64(&acc));
                let other = self.recv_payload(comm, partner, tag(1 + s));
                self.check_reduce_len(comm, other.as_f64().len(), acc.len());
                op(&mut acc, other.as_f64());
            }
        }
        self.allreduce_unfold(comm, tag(1 + steps), acc)
    }

    /// Rabenseifner's allreduce of an owned vector with a commutative
    /// element-wise combiner: the fold of [`RankCtx::allreduce_rd`], then
    /// a recursive-halving reduce-scatter (highest participant bit first)
    /// that leaves each of the `p₂` participants with one reduced piece,
    /// then a recursive-doubling allgather (lowest bit first) that puts
    /// the pieces back together. `2·log₂p₂` exchange rounds moving
    /// `2·n·(1 − 1/p₂)` elements per participant, against recursive
    /// doubling's `log₂p₂` rounds of `n` — see [`COLL_LARGE_BYTES`].
    ///
    /// The accumulator is always exactly the live range: a halving round
    /// splits it in two, *moves* one half into the message and folds the
    /// partner's piece into the other; a doubling round forwards its piece
    /// as a shared payload and concatenates `lower ++ upper`. The rank
    /// whose participant bit is clear keeps the lower half, so undoing the
    /// rounds in reverse order restores element order with no index
    /// arithmetic, for any length `≥ p₂`. (A lower half keeps the capacity
    /// it was split from until the allgather replaces it: shrinking it
    /// bought no peak memory — the last merge sets the peak — and cost a
    /// quarter more page faults.)
    ///
    /// Each element is reduced on exactly one rank and then distributed,
    /// so all ranks hold bit-identical results.
    fn allreduce_rsag(
        &mut self,
        comm: &Comm,
        mut acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Vec<f64> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Allreduce, None, acc.len() as u64);
        let p2 = prev_pow2(p);
        let (r, steps) = (p - p2, p2.trailing_zeros() as usize);
        // Tag chunks: 0 = fold, 1..=steps = halving rounds,
        // steps+1..=2·steps = doubling rounds, 2·steps+1 = unfold.
        let tag = |chunk: usize| compose_coll_tag(seq, chunk as u64);
        if let Some(nr) = self.allreduce_fold(comm, tag(0), &mut acc, &op) {
            let partner = |s: usize| rd_participant_rank(nr ^ (1 << s), r);
            let keeps_lower = |s: usize| (nr >> s) & 1 == 0;
            // The piece the bit-`s` partner comes back with in the
            // allgather is the reduced half it was given here.
            let mut gave = vec![0usize; steps];
            for s in (0..steps).rev() {
                let upper = acc.split_off(acc.len() / 2);
                let give = if keeps_lower(s) {
                    upper
                } else {
                    std::mem::replace(&mut acc, upper)
                };
                gave[s] = give.len();
                self.send_payload(comm, partner(s), tag(1 + s), Payload::f64(give));
                let other = self.recv_payload(comm, partner(s), tag(1 + s));
                self.check_reduce_len(comm, other.as_f64().len(), acc.len());
                op(&mut acc, other.as_f64());
            }
            let mut piece = Payload::f64(acc);
            for (s, &expected) in gave.iter().enumerate() {
                self.send_payload(comm, partner(s), tag(1 + steps + s), piece.clone());
                let other = self.recv_payload(comm, partner(s), tag(1 + steps + s));
                self.check_reduce_len(comm, other.as_f64().len(), expected);
                let (lower, upper) = if keeps_lower(s) {
                    (piece.as_f64(), other.as_f64())
                } else {
                    (other.as_f64(), piece.as_f64())
                };
                piece = Payload::f64([lower, upper].concat());
            }
            // The last merge is this rank's alone: unwrapping never copies.
            acc = piece.expect_f64();
        }
        self.allreduce_unfold(comm, tag(1 + 2 * steps), acc)
    }

    /// `MPI_Allreduce(MPI_SUM)` of f64 vectors, by the size rule of
    /// `allreduce_arm`: the legacy reduce-then-broadcast tree pair at or
    /// below [`COLL_SMALL_BYTES`] (latency dominates tiny payloads, and the
    /// tree pair is what the paper's per-block formulas count),
    /// Rabenseifner's reduce-scatter + allgather from [`COLL_LARGE_BYTES`]
    /// up, recursive doubling between.
    pub fn allreduce_sum_f64(&mut self, comm: &Comm, data: &[f64]) -> Vec<f64> {
        self.allreduce_sum_owned_f64(comm, data.to_vec())
    }

    /// Owned-input [`RankCtx::allreduce_sum_f64`]: callers that already own
    /// the contribution skip the copy.
    pub fn allreduce_sum_owned_f64(&mut self, comm: &Comm, data: Vec<f64>) -> Vec<f64> {
        match allreduce_arm(comm.size(), data.len()) {
            AllreduceArm::Trees => {
                self.coll_span("allreduce", |ctx| ctx.allreduce_trees(comm, data, sum_op))
            }
            AllreduceArm::RecursiveDoubling => {
                self.coll_span("allreduce_rd", |ctx| ctx.allreduce_rd(comm, data, sum_op))
            }
            AllreduceArm::Rabenseifner => self.coll_span("allreduce_rsag", |ctx| {
                ctx.allreduce_rsag(comm, data, sum_op)
            }),
        }
    }

    /// `MPI_Allreduce(MPI_MAXLOC)`: the maximum of `|v|` ties broken by the
    /// smaller `loc`; returns `(winning value, winning loc)`. The pivot
    /// search of distributed LU is built on this. Its fixed 16-byte
    /// payload is always below [`COLL_SMALL_BYTES`], so the size rule
    /// resolves statically to the tree pair — which is also what the
    /// paper's per-column message formulas count.
    pub fn allreduce_maxloc_abs(&mut self, comm: &Comm, v: f64, loc: u64) -> (f64, u64) {
        self.coll_span("allreduce_maxloc", |ctx| {
            let buf = ctx.allreduce_trees(comm, vec![v, loc as f64], |a, b| {
                let better = b[0].abs() > a[0].abs() || (b[0].abs() == a[0].abs() && b[1] < a[1]);
                if better {
                    a[0] = b[0];
                    a[1] = b[1];
                }
            });
            (buf[0], buf[1] as u64)
        })
    }

    /// `MPI_Gather` of variable-length f64 chunks: the root gets every
    /// member's chunk (its own included), ordered by communicator rank,
    /// each as its sender's own allocation. The root receives in
    /// completion order (earliest virtual arrival first) and slots by
    /// source — never head-of-line blocking on a slow low rank while
    /// faster high ranks sit fully arrived.
    pub fn gather_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[f64],
    ) -> Option<Vec<Arc<Vec<f64>>>> {
        self.coll_span("gather", |ctx| {
            let p = comm.size();
            let seq = ctx.coll_site(comm, CollKind::Gather, Some(root), 0);
            let tag = compose_coll_tag(seq, PLAIN_CHUNK);
            let own = Payload::copy_f64(data);
            if comm.rank() != root {
                ctx.send_payload(comm, root, tag, own);
                return None;
            }
            let srcs: Vec<usize> = (0..p).filter(|&i| i != root).collect();
            let mut chunks: Vec<Arc<Vec<f64>>> = ctx
                .recv_payload_set(comm, &srcs, tag)
                .into_iter()
                .map(Payload::into_shared_f64)
                .collect();
            chunks.insert(root, own.into_shared_f64());
            Some(chunks)
        })
    }

    /// `MPI_Allgather` of variable-length f64 chunks via the ring
    /// algorithm: step `s` sends chunk `(me − s) mod p` to the right
    /// neighbour and receives chunk `(me − 1 − s) mod p` from the left, so
    /// after `p − 1` steps everyone holds every chunk. Forwarded chunks
    /// travel as the originator's shared allocation (an `Arc` bump per
    /// hop), and every rank gets each chunk back as that allocation.
    /// Handles variable-length (including empty) chunks natively, which the
    /// old gather-then-broadcast needed a counts round-trip for.
    pub fn allgather_f64(&mut self, comm: &Comm, data: &[f64]) -> Vec<Arc<Vec<f64>>> {
        self.coll_span("allgather_ring", |ctx| {
            let p = comm.size();
            let seq = ctx.coll_site(comm, CollKind::Allgather, None, 0);
            let me = comm.rank();
            let mut chunks: Vec<Option<Payload>> = (0..p).map(|_| None).collect();
            chunks[me] = Some(Payload::copy_f64(data));
            if p > 1 {
                ctx.check_chunks(comm, p - 1);
                let right = (me + 1) % p;
                let left = (me + p - 1) % p;
                for s in 0..p - 1 {
                    let send_idx = (me + p - s) % p;
                    let recv_idx = (me + p - 1 - s) % p;
                    let tag = compose_coll_tag(seq, s as u64);
                    let outgoing = chunks[send_idx]
                        .as_ref()
                        .expect("ring invariant: chunk present before step")
                        .clone();
                    ctx.send_payload(comm, right, tag, outgoing);
                    chunks[recv_idx] = Some(ctx.recv_payload(comm, left, tag));
                }
            }
            chunks
                .into_iter()
                .map(|c| c.expect("ring complete").into_shared_f64())
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tag_fields_are_disjoint() {
        // Neighbouring (seq, chunk) pairs must never alias: each field lives
        // in its own bit range below the COLL_TAG marker.
        let a = compose_coll_tag(1, 0);
        let b = compose_coll_tag(0, 1);
        let c = compose_coll_tag(1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a & COLL_TAG, COLL_TAG);
        // seq and chunk decode back out of the packed tag.
        assert_eq!((a >> CHUNK_BITS) & MAX_SEQ, 1);
        assert_eq!(c & MAX_CHUNK, 1);
    }

    #[test]
    fn coll_tag_saturates_exactly_at_the_field_boundaries() {
        // The largest legal (seq, chunk) fills every bit without carrying
        // into a neighbouring field.
        assert_eq!(compose_coll_tag(MAX_SEQ, MAX_CHUNK), u64::MAX);
        // Data chunks stop below the reserved markers.
        assert_eq!(MAX_PIPELINE_CHUNKS, HEADER_CHUNK);
    }

    #[test]
    #[should_panic(expected = "overflows into the COLL_TAG bit")]
    fn coll_tag_rejects_seq_overflow() {
        compose_coll_tag(MAX_SEQ + 1, 0);
    }

    #[test]
    #[should_panic(expected = "overflows its 20-bit field")]
    fn coll_tag_rejects_chunk_overflow() {
        compose_coll_tag(0, MAX_CHUNK + 1);
    }

    #[test]
    fn rd_fold_mapping_is_a_bijection_onto_participants() {
        // For every communicator size, the newrank → rank mapping must hit
        // each butterfly participant exactly once, and the fold must pair
        // every even sitter-out with an odd survivor.
        for p in 1..=40usize {
            let p2 = prev_pow2(p);
            let r = p - p2;
            let mut seen = vec![false; p];
            for nr in 0..p2 {
                let rank = rd_participant_rank(nr, r);
                assert!(rank < p, "p={p}: participant {nr} maps to {rank}");
                assert!(!seen[rank], "p={p}: rank {rank} mapped twice");
                seen[rank] = true;
            }
            for (rank, active) in seen.iter().enumerate() {
                let folded_out = rank < 2 * r && rank % 2 == 0;
                assert_eq!(
                    *active, !folded_out,
                    "p={p}: rank {rank} participation is wrong"
                );
            }
        }
    }

    #[test]
    fn allreduce_arm_switches_on_bytes_ranks_and_pieces() {
        use AllreduceArm::*;
        let large = (COLL_LARGE_BYTES / 8) as usize;
        // 64 f64 elements sit exactly on the small boundary: the last
        // payload served by the trees, whatever the rank count.
        assert_eq!(allreduce_arm(16, 64), Trees);
        assert_eq!(allreduce_arm(16, 65), RecursiveDoubling);
        assert_eq!(allreduce_arm(16, large - 1), RecursiveDoubling);
        assert_eq!(allreduce_arm(16, large), Rabenseifner);
        // p₂ < 4: halving would only add latency steps.
        for p in 1..4 {
            assert_eq!(allreduce_arm(p, 1 << 20), RecursiveDoubling, "p={p}");
        }
        assert_eq!(allreduce_arm(4, large), Rabenseifner);
        assert_eq!(allreduce_arm(7, large), Rabenseifner);
        // Fewer elements than pieces: cannot be halved log₂p₂ times.
        assert_eq!(allreduce_arm(1 << 15, large), RecursiveDoubling);
        assert_eq!(allreduce_arm(1 << 14, large), Rabenseifner);
        assert_eq!(allreduce_arm(4096, 128), RecursiveDoubling);
    }
}
