//! Critical-path costs of the simulated runtime's collectives.
//!
//! Each function mirrors the corresponding algorithm in
//! `greenla_mpi::coll`: binomial trees for ordinary broadcasts/reductions,
//! the chunked binary-tree pipeline for large broadcasts, the three-way
//! allreduce (trees, recursive doubling above the small-payload threshold,
//! Rabenseifner's reduce-scatter + allgather from the large-payload
//! threshold up), the ring for allgather, linear gathers, and
//! max-synchronising barriers. The traffic closed forms (`*_traffic`) give
//! the exact message/element counts the runtime's traffic tally
//! (`greenla_mpi::RunOutput::traffic`) must reproduce. [`allreduce`] and
//! [`allreduce_traffic`] select the arm by the runtime's own rule,
//! `greenla_mpi::coll::allreduce_arm`.

use crate::params::MachineParams;
use greenla_mpi::coll::{allreduce_arm, AllreduceArm};

fn log2c(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (p as f64).log2().ceil()
    }
}

fn prev_pow2(p: usize) -> usize {
    let mut q = 1;
    while q * 2 <= p {
        q *= 2;
    }
    q
}

/// Binomial-tree broadcast of `bytes` over `p` ranks: depth hops, each a
/// full-payload message.
pub fn bcast_binomial(p: usize, bytes: f64, m: &MachineParams) -> f64 {
    log2c(p) * m.p2p(bytes)
}

/// Chunked binary-tree pipelined broadcast (see
/// `RankCtx::bcast_pipelined_shared_f64`): a depth term per chunk-sized hop plus a
/// streaming term, and the one-word header.
pub fn bcast_pipelined(p: usize, bytes: f64, chunk_bytes: f64, m: &MachineParams) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let depth = ((p + 1) as f64).log2().ceil();
    let chunks = (bytes / chunk_bytes).ceil().max(1.0);
    let cb = bytes.min(chunk_bytes);
    // Per hop: forward the header (one send overhead) plus the first chunk
    // (send + transport + receive); later chunks stream behind at the
    // fan-out-2 sender rate, with the final chunk's transport at the end.
    let per_hop = 3.0 * m.o + m.alpha + cb * m.beta;
    depth * per_hop + (chunks - 1.0) * 2.0 * m.o + cb * m.beta
}

/// Binomial reduction of `bytes` (same shape as the broadcast).
pub fn reduce_binomial(p: usize, bytes: f64, m: &MachineParams) -> f64 {
    log2c(p) * m.p2p(bytes)
}

/// Recursive-doubling allreduce (see `RankCtx::allreduce_rd`): a
/// fold/unfold round-trip when `p` is not a power of two, then
/// `log₂ p₂` full-payload exchange rounds. Bandwidth term is
/// `log₂ p₂ · β·bytes` versus the tree composition's `2·⌈log₂ p⌉`.
pub fn allreduce_rd(p: usize, bytes: f64, m: &MachineParams) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let p2 = prev_pow2(p);
    let fold = if p2 != p { 2.0 * m.p2p(bytes) } else { 0.0 };
    fold + (p2 as f64).log2() * m.p2p(bytes)
}

/// Rabenseifner allreduce (see `RankCtx::allreduce_rsag`): the same
/// fold/unfold round-trip, then `log₂ p₂` halving exchanges of
/// `bytes/2ᵏ` and the mirror-image doubling exchanges. Bandwidth term
/// `2·(1 − 1/p₂)·β·bytes` whatever the rank count, for twice recursive
/// doubling's latency steps.
pub fn allreduce_rsag(p: usize, bytes: f64, m: &MachineParams) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let p2 = prev_pow2(p);
    let fold = if p2 != p { 2.0 * m.p2p(bytes) } else { 0.0 };
    let halving: f64 = (1..=p2.ilog2())
        .map(|k| m.p2p(bytes / (1u64 << k) as f64))
        .sum();
    fold + 2.0 * halving
}

/// Allreduce of a whole number of f64s, `bytes` in all, as the runtime
/// selects it: reduce + broadcast trees at or below
/// `greenla_mpi::coll::COLL_SMALL_BYTES`, Rabenseifner from
/// `COLL_LARGE_BYTES` up, recursive doubling between. (The scalar
/// max/maxloc variants carry 8–16 bytes and therefore always resolve to
/// the trees.)
pub fn allreduce(p: usize, bytes: f64, m: &MachineParams) -> f64 {
    debug_assert_eq!(bytes % 8.0, 0.0, "{bytes} B is not a whole f64 payload");
    match allreduce_arm(p, (bytes / 8.0) as usize) {
        AllreduceArm::Trees => reduce_binomial(p, bytes, m) + bcast_binomial(p, bytes, m),
        AllreduceArm::RecursiveDoubling => allreduce_rd(p, bytes, m),
        AllreduceArm::Rabenseifner => allreduce_rsag(p, bytes, m),
    }
}

/// Ring allgather of `total_bytes` spread evenly over `p` ranks: `p − 1`
/// steps, each forwarding one `total/p`-sized chunk to the right
/// neighbour. Bandwidth-optimal: `(p−1)/p · β·total` on the wire.
pub fn allgather_ring(p: usize, total_bytes: f64, m: &MachineParams) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p as f64 - 1.0) * m.p2p(total_bytes / p as f64)
}

/// Exact traffic of the recursive-doubling allreduce over `p` ranks with
/// `elems` elements per contribution: `(messages, elements)`. Fold and
/// unfold contribute one full-payload message each per excess rank
/// (`r = p − p₂`); the butterfly sends one full payload per participant
/// per round.
pub fn allreduce_rd_traffic(p: usize, elems: u64) -> (u64, u64) {
    if p <= 1 {
        return (0, 0);
    }
    let p2 = prev_pow2(p) as u64;
    let r = p as u64 - p2;
    let msgs = 2 * r + p2 * p2.ilog2() as u64;
    (msgs, msgs * elems)
}

/// Exact traffic of the Rabenseifner allreduce over `p` ranks with
/// `elems ≥ p₂` elements per contribution. Every participant sends one
/// message per halving and per doubling round. In a halving round the two
/// partners of a pair hold the same range and give each other its two
/// halves, so a round's pairs together move `p₂/2ᵏ⁺¹` whole vectors and
/// the `log₂ p₂` rounds `elems·(p₂ − 1)` — exact however unevenly the
/// halves fall; the allgather moves the same pieces back.
pub fn allreduce_rsag_traffic(p: usize, elems: u64) -> (u64, u64) {
    if p <= 1 {
        return (0, 0);
    }
    let p2 = prev_pow2(p) as u64;
    let r = p as u64 - p2;
    (
        2 * r + 2 * p2 * p2.ilog2() as u64,
        2 * r * elems + 2 * elems * (p2 - 1),
    )
}

/// Exact traffic of the sum-allreduce the runtime selects for `elems`
/// f64 elements over `p` ranks (the arm [`allreduce`] prices).
pub fn allreduce_traffic(p: usize, elems: u64) -> (u64, u64) {
    match allreduce_arm(p, elems as usize) {
        AllreduceArm::Trees => allreduce_tree_traffic(p, elems),
        AllreduceArm::RecursiveDoubling => allreduce_rd_traffic(p, elems),
        AllreduceArm::Rabenseifner => allreduce_rsag_traffic(p, elems),
    }
}

/// Exact traffic of the ring allgather over `p` ranks with `total_elems`
/// elements overall: every rank sends one chunk per step for `p − 1`
/// steps, and each chunk travels the ring `p − 1` times.
pub fn allgather_ring_traffic(p: usize, total_elems: u64) -> (u64, u64) {
    if p <= 1 {
        return (0, 0);
    }
    let pu = p as u64;
    (pu * (pu - 1), (pu - 1) * total_elems)
}

/// Exact traffic of the small-payload tree allreduce (binomial reduce to
/// rank 0 + binomial rebroadcast) over `p` ranks with `elems` elements:
/// every non-root rank moves one full payload in each half, so
/// `2·(p − 1)` messages of `elems` elements. This is the path every
/// ≤ `COLL_SMALL_BYTES` sum-allreduce takes — including CG's 8- and
/// 16-byte per-iteration reductions.
pub fn allreduce_tree_traffic(p: usize, elems: u64) -> (u64, u64) {
    if p <= 1 {
        return (0, 0);
    }
    let msgs = 2 * (p as u64 - 1);
    (msgs, msgs * elems)
}

/// Exact traffic of one steady-state CG iteration over `p` ranks
/// (`greenla_cg::pcg`): one halo exchange of the direction vector
/// (`halo_msgs` messages, `halo_elems` elements — both from
/// `greenla_cg::partition::HaloStats`), the 1-element curvature
/// allreduce, and the combined 2-element `[r·z, r·r]` allreduce, the
/// latter two always on the tree path.
pub fn cg_iteration_traffic(p: usize, halo_msgs: u64, halo_elems: u64) -> (u64, u64) {
    let (m1, e1) = allreduce_tree_traffic(p, 1);
    let (m2, e2) = allreduce_tree_traffic(p, 2);
    (halo_msgs + m1 + m2, halo_elems + e1 + e2)
}

/// Exact whole-solve traffic of a converged `greenla_cg::pcg` run: the
/// 2-element seed allreduce, `iters` full iterations, one extra halo
/// exchange per true-residual refresh, and the final ring allgather of
/// the `n` solution elements.
pub fn cg_solve_traffic(
    p: usize,
    n: usize,
    iters: u64,
    refreshes: u64,
    halo_msgs: u64,
    halo_elems: u64,
) -> (u64, u64) {
    let (sm, se) = allreduce_tree_traffic(p, 2);
    let (im, ie) = cg_iteration_traffic(p, halo_msgs, halo_elems);
    let (gm, ge) = allgather_ring_traffic(p, n as u64);
    (
        sm + iters * im + refreshes * halo_msgs + gm,
        se + iters * ie + refreshes * halo_elems + ge,
    )
}

/// Linear gather to a root: the root serialises one receive overhead per
/// child and the last payload's transport.
pub fn gather_linear(p: usize, bytes_per_rank: f64, m: &MachineParams) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p as f64 - 1.0) * (m.o + bytes_per_rank * m.beta) + m.alpha + m.o
}

/// Registry barrier: `α·⌈log₂ p⌉ + o` past the latest arrival.
pub fn barrier(p: usize, m: &MachineParams) -> f64 {
    m.alpha * log2c(p) + m.o
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::spec::ClusterSpec;

    fn m() -> MachineParams {
        MachineParams::from_spec(&ClusterSpec::marconi_a3(64))
    }

    #[test]
    fn pipelined_beats_binomial_on_large_payloads() {
        let m = m();
        let big = 8.0 * 34560.0;
        assert!(bcast_pipelined(1296, big, 65536.0, &m) < bcast_binomial(1296, big, &m));
    }

    #[test]
    fn binomial_fine_for_small_payloads() {
        let m = m();
        // One chunk: the pipeline only adds the header hop.
        let small = 512.0;
        let ratio = bcast_pipelined(64, small, 65536.0, &m) / bcast_binomial(64, small, &m);
        assert!(ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn gather_scales_linearly() {
        let m = m();
        let g100 = gather_linear(100, 64.0, &m);
        let g200 = gather_linear(200, 64.0, &m);
        assert!(g200 / g100 > 1.8);
    }

    #[test]
    fn degenerate_single_rank_costs_nothing() {
        let m = m();
        assert_eq!(bcast_binomial(1, 1e6, &m), 0.0);
        assert_eq!(bcast_pipelined(1, 1e6, 65536.0, &m), 0.0);
        assert_eq!(gather_linear(1, 1e6, &m), 0.0);
        assert_eq!(allreduce_rd(1, 1e6, &m), 0.0);
        assert_eq!(allgather_ring(1, 1e6, &m), 0.0);
        assert_eq!(barrier(1, &m), m.o);
    }

    #[test]
    fn recursive_doubling_halves_tree_bandwidth() {
        let m = m();
        let big = 8.0 * 1024.0 * 1024.0;
        let tree = reduce_binomial(64, big, &m) + bcast_binomial(64, big, &m);
        let rd = allreduce_rd(64, big, &m);
        // Power of two: log₂ 64 rounds vs 2·log₂ 64 hops — exactly half.
        assert!((rd / tree - 0.5).abs() < 1e-9, "ratio {}", rd / tree);
    }

    #[test]
    fn allreduce_dispatches_three_ways_on_size() {
        let m = m();
        assert_eq!(
            allreduce(64, 512.0, &m),
            reduce_binomial(64, 512.0, &m) + bcast_binomial(64, 512.0, &m)
        );
        assert_eq!(allreduce(64, 520.0, &m), allreduce_rd(64, 520.0, &m));
        let large = greenla_mpi::coll::COLL_LARGE_BYTES as f64;
        let below = large - 8.0;
        assert_eq!(allreduce(64, below, &m), allreduce_rd(64, below, &m));
        let at = large;
        assert_eq!(allreduce(64, at, &m), allreduce_rsag(64, at, &m));
        // Fewer than four participants, or fewer elements than pieces:
        // recursive doubling whatever the size.
        assert_eq!(allreduce(3, 1e6, &m), allreduce_rd(3, 1e6, &m));
        let p = 1 << 15;
        assert_eq!(allreduce(p, at, &m), allreduce_rd(p, at, &m));
    }

    #[test]
    fn rabenseifner_bandwidth_term_is_two_payloads() {
        let m = m();
        let big = 8.0 * 1024.0 * 1024.0;
        // p = 64: 12 latency steps, 2·(63/64) payloads on the wire.
        let want = 12.0 * (2.0 * m.o + m.alpha) + 2.0 * (63.0 / 64.0) * big * m.beta;
        let got = allreduce_rsag(64, big, &m);
        assert!((got / want - 1.0).abs() < 1e-12, "{got} vs {want}");
        assert!(got < allreduce_rd(64, big, &m) / 2.5);
        // The fold costs both arms the same full-payload round trip.
        let fold = allreduce_rsag(65, big, &m) - got;
        assert!((fold / (2.0 * m.p2p(big)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ring_beats_tree_allgather_on_large_payloads() {
        let m = m();
        // Tree composition: gather to root, then rebroadcast the full
        // concatenation — the bcast alone moves log₂p · total bytes.
        let total = 8.0 * 1024.0 * 1024.0;
        let p = 64;
        let tree = gather_linear(p, total / p as f64, &m) + bcast_binomial(p, total, &m);
        let ring = allgather_ring(p, total, &m);
        assert!(tree / ring > 1.3, "ratio {}", tree / ring);
    }

    #[test]
    fn traffic_closed_forms() {
        // Power of two: butterfly only.
        assert_eq!(allreduce_rd_traffic(8, 10), (8 * 3, 8 * 3 * 10));
        // p = 6: p₂ = 4, r = 2 → 2 fold + 2 unfold + 4·2 butterfly.
        assert_eq!(allreduce_rd_traffic(6, 5), (12, 60));
        assert_eq!(allreduce_rd_traffic(1, 7), (0, 0));
        // Rabenseifner at p = 8: 2·8·3 messages, 2·(8 − 1) vectors.
        assert_eq!(allreduce_rsag_traffic(8, 100), (48, 1400));
        // p = 6: 2 fold + 2 unfold full vectors, p₂ = 4 butterfly.
        assert_eq!(allreduce_rsag_traffic(6, 100), (4 + 16, 400 + 600));
        assert_eq!(allreduce_rsag_traffic(1, 7), (0, 0));
        // The dispatching form follows the runtime's size rule.
        assert_eq!(allreduce_traffic(8, 64), allreduce_tree_traffic(8, 64));
        assert_eq!(allreduce_traffic(8, 65), allreduce_rd_traffic(8, 65));
        assert_eq!(allreduce_traffic(8, 16383), allreduce_rd_traffic(8, 16383));
        assert_eq!(
            allreduce_traffic(8, 16384),
            allreduce_rsag_traffic(8, 16384)
        );
        assert_eq!(allreduce_traffic(3, 16384), allreduce_rd_traffic(3, 16384));
        assert_eq!(allgather_ring_traffic(8, 40), (56, 280));
        assert_eq!(allgather_ring_traffic(1, 40), (0, 0));
    }

    #[test]
    fn cg_traffic_closed_forms() {
        // Tree allreduce: 2(p−1) full-payload messages.
        assert_eq!(allreduce_tree_traffic(16, 2), (30, 60));
        assert_eq!(allreduce_tree_traffic(1, 2), (0, 0));
        // One iteration at p = 4 with a 6-message / 24-element halo:
        // halo + 2·3 msgs of 1 elem + 2·3 msgs of 2 elems.
        assert_eq!(cg_iteration_traffic(4, 6, 24), (6 + 6 + 6, 24 + 6 + 12));
        // Single rank: no communication at all.
        assert_eq!(cg_iteration_traffic(1, 0, 0), (0, 0));
        assert_eq!(cg_solve_traffic(1, 100, 17, 3, 0, 0), (0, 0));
        // Whole solve = seed + iters·iteration + refresh halos + allgather.
        let (im, ie) = cg_iteration_traffic(4, 6, 24);
        let (gm, ge) = allgather_ring_traffic(4, 64);
        assert_eq!(
            cg_solve_traffic(4, 64, 10, 2, 6, 24),
            (6 + 10 * im + 2 * 6 + gm, 12 + 10 * ie + 2 * 24 + ge)
        );
    }
}
