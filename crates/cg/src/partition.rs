//! 1-D row-block partition and the pattern-derived halo-exchange plan.
//!
//! Both are pure functions of the (replicated) matrix and the rank count,
//! so every rank computes identical plans with no negotiation traffic,
//! and the closed-form traffic models in `greenla_model::comm` can
//! consume the same [`HaloStats`] the runtime exchange produces —
//! message-for-message.

use greenla_linalg::sparse::CsrMatrix;
use std::ops::Range;

/// Contiguous 1-D row-block partition of `n` rows over `p` ranks: the
/// first `n mod p` ranks own `⌈n/p⌉` rows, the rest `⌊n/p⌋` (ranks beyond
/// `n` own nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowBlocks {
    n: usize,
    p: usize,
}

impl RowBlocks {
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0, "no ranks");
        RowBlocks { n, p }
    }

    /// First row owned by `rank`.
    pub fn lo(&self, rank: usize) -> usize {
        let (base, rem) = (self.n / self.p, self.n % self.p);
        rank * base + rank.min(rem)
    }

    /// One past the last row owned by `rank`.
    pub fn hi(&self, rank: usize) -> usize {
        self.lo(rank + 1).min(self.n)
    }

    /// Rows owned by `rank`.
    pub fn rows(&self, rank: usize) -> usize {
        self.hi(rank) - self.lo(rank)
    }

    /// Which rank owns row `i`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n);
        let (base, rem) = (self.n / self.p, self.n % self.p);
        let wide = rem * (base + 1);
        if i < wide {
            i / (base + 1)
        } else {
            rem + (i - wide) / base
        }
    }
}

/// One rank's halo-exchange plan: which remote vector entries it needs
/// before a local SpMV, and which of its own entries its peers need.
/// Peer lists are sorted by rank, index lists ascending — the
/// deterministic order the exchange and the traffic model both count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HaloPlan {
    /// `(peer, global indices)` this rank receives, one message per peer.
    pub recv: Vec<(usize, Vec<usize>)>,
    /// `(peer, global indices)` this rank sends, one message per peer.
    pub send: Vec<(usize, Vec<usize>)>,
}

impl HaloPlan {
    /// Rank `rank`'s plan, derived from the global sparsity pattern: a
    /// rank needs column `j` iff some row it owns references `j` and `j`
    /// lives on another rank. The recv side reads the rank's own rows;
    /// the send side reads every other rank's rows for columns in the
    /// rank's block.
    pub fn build(a: &CsrMatrix, blocks: RowBlocks, rank: usize) -> HaloPlan {
        let (lo, hi) = (blocks.lo(rank), blocks.hi(rank));
        let send = (0..blocks.p)
            .filter(|&peer| peer != rank)
            .map(|peer| {
                let rows = blocks.lo(peer)..blocks.hi(peer);
                (peer, columns(a, rows, |j| (lo..hi).contains(&j)))
            })
            .filter(|(_, idxs)| !idxs.is_empty())
            .collect();
        HaloPlan {
            recv: recv_list(a, blocks, rank),
            send,
        }
    }

    /// Every rank's plan, equal to [`HaloPlan::build`] in rank order, in
    /// one pass over the matrix: each rank's recv list reads its own rows,
    /// and each owner's send list copies what every peer, in rank order,
    /// receives from it.
    pub fn build_all(a: &CsrMatrix, blocks: RowBlocks) -> Vec<HaloPlan> {
        let recvs: Vec<_> = (0..blocks.p)
            .map(|rank| recv_list(a, blocks, rank))
            .collect();
        let mut sends = vec![Vec::new(); blocks.p];
        for (needer, recv) in recvs.iter().enumerate() {
            for (owner, idxs) in recv {
                sends[*owner].push((needer, idxs.clone()));
            }
        }
        (recvs.into_iter().zip(sends))
            .map(|(recv, send)| HaloPlan { recv, send })
            .collect()
    }

    /// Elements this rank receives per exchange.
    pub fn recv_elems(&self) -> usize {
        self.recv.iter().map(|(_, idxs)| idxs.len()).sum()
    }
}

/// Sorted, deduplicated columns of rows `rows` of `a` that `keep` admits.
fn columns(a: &CsrMatrix, rows: Range<usize>, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut cols: Vec<usize> = rows
        .flat_map(|i| a.row(i).0.iter().map(|&j| j as usize))
        .filter(|&j| keep(j))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// `(owner, global indices)` rank `rank` receives: the remote columns its
/// own rows reference, grouped by owner in rank order.
fn recv_list(a: &CsrMatrix, blocks: RowBlocks, rank: usize) -> Vec<(usize, Vec<usize>)> {
    let (lo, hi) = (blocks.lo(rank), blocks.hi(rank));
    let mut recv: Vec<(usize, Vec<usize>)> = Vec::new();
    for j in columns(a, lo..hi, |j| j < lo || j >= hi) {
        let owner = blocks.owner(j);
        match recv.last_mut() {
            Some((peer, idxs)) if *peer == owner => idxs.push(j),
            _ => recv.push((owner, vec![j])),
        }
    }
    recv
}

/// One rank's rows split by halo dependence: *interior* rows reference
/// only columns the rank owns and can be computed before any neighbour
/// payload lands; *boundary* rows touch at least one remote column and
/// must wait for the halo. The split is what lets the overlapped solver
/// compute the interior SpMV while the exchange is in flight, turning the
/// per-iteration time into `max(halo, interior) + boundary`.
///
/// Row indices are local (relative to the rank's block), each list
/// ascending; together they tile `0..rows`. `nnz` counts accompany each
/// side so the closed-form cost split in [`crate::formulas`] matches the
/// kernel work exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSplit {
    /// Local indices of rows with no remote column, ascending.
    pub interior: Vec<usize>,
    /// Local indices of rows with at least one remote column, ascending.
    pub boundary: Vec<usize>,
    /// Stored entries in the interior rows.
    pub interior_nnz: usize,
    /// Stored entries in the boundary rows.
    pub boundary_nnz: usize,
}

impl RowSplit {
    /// Split rank `rank`'s rows of `a` (the *global* matrix) under
    /// `blocks`. Pure function of the replicated pattern, like
    /// [`HaloPlan::build`].
    pub fn build(a: &CsrMatrix, blocks: RowBlocks, rank: usize) -> RowSplit {
        let (lo, hi) = (blocks.lo(rank), blocks.hi(rank));
        let mut split = RowSplit::default();
        for i in lo..hi {
            let (cols, _) = a.row(i);
            let nnz = cols.len();
            let local = cols
                .iter()
                .all(|&j| (j as usize) >= lo && (j as usize) < hi);
            if local {
                split.interior.push(i - lo);
                split.interior_nnz += nnz;
            } else {
                split.boundary.push(i - lo);
                split.boundary_nnz += nnz;
            }
        }
        split
    }
}

/// Aggregate traffic of one halo exchange across all ranks — exactly what
/// `greenla_model::comm::cg_iteration_traffic` consumes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HaloStats {
    /// Directed messages per exchange (one per `(owner, needer)` pair).
    pub msgs: u64,
    /// Total elements moved per exchange.
    pub elems: u64,
}

impl HaloStats {
    pub fn of(plans: &[HaloPlan]) -> HaloStats {
        HaloStats {
            msgs: plans.iter().map(|pl| pl.recv.len() as u64).sum(),
            elems: plans.iter().map(|pl| pl.recv_elems() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_linalg::sparse::{laplace2d, laplace3d, random_spd};
    use std::collections::BTreeMap;

    #[test]
    fn blocks_tile_the_row_space() {
        for (n, p) in [(10, 3), (16, 4), (3, 8), (1, 1), (64, 5)] {
            let b = RowBlocks::new(n, p);
            let total: usize = (0..p).map(|r| b.rows(r)).sum();
            assert_eq!(total, n);
            for i in 0..n {
                let r = b.owner(i);
                assert!(b.lo(r) <= i && i < b.hi(r), "n={n} p={p} i={i}");
            }
        }
    }

    #[test]
    fn stencil_halo_degenerates_to_neighbour_ring() {
        // A k×k 5-point Laplacian split into p = k blocks of k rows: each
        // interior rank needs exactly one grid line (k entries) from each
        // of its two neighbours — the classic ring exchange.
        let k = 6;
        let sys = laplace2d(k);
        let blocks = RowBlocks::new(sys.n(), k);
        let plans = HaloPlan::build_all(&sys.a, blocks);
        for (r, plan) in plans.iter().enumerate() {
            let peers: Vec<usize> = plan.recv.iter().map(|(pr, _)| *pr).collect();
            let expect: Vec<usize> = [r.checked_sub(1), (r + 1 < k).then_some(r + 1)]
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(peers, expect, "rank {r}");
            assert!(plan.recv.iter().all(|(_, idxs)| idxs.len() == k));
        }
        let stats = HaloStats::of(&plans);
        assert_eq!(stats.msgs, 2 * (k as u64 - 1));
        assert_eq!(stats.elems, 2 * (k as u64 - 1) * k as u64);
    }

    #[test]
    fn send_and_recv_sides_mirror() {
        let sys = random_spd(40, 5, 9);
        let blocks = RowBlocks::new(sys.n(), 7);
        let plans = HaloPlan::build_all(&sys.a, blocks);
        for (r, plan) in plans.iter().enumerate() {
            for (peer, idxs) in &plan.recv {
                let (_, theirs) = plans[*peer]
                    .send
                    .iter()
                    .find(|(to, _)| *to == r)
                    .expect("matching send");
                assert_eq!(idxs, theirs);
                assert!(idxs.iter().all(|&j| blocks.owner(j) == *peer));
                assert!(idxs.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            }
        }
    }

    /// The all-ranks construction `build` replaced, kept as its oracle.
    fn build_all_at_once(a: &CsrMatrix, blocks: RowBlocks) -> Vec<HaloPlan> {
        let p = blocks.p;
        // needs[(needer, owner)] = sorted global indices.
        let mut needs: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for r in 0..p {
            let mut wanted: Vec<usize> = (blocks.lo(r)..blocks.hi(r))
                .flat_map(|i| a.row(i).0.iter().map(|&j| j as usize))
                .filter(|&j| blocks.owner(j) != r)
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            for j in wanted {
                needs.entry((r, blocks.owner(j))).or_default().push(j);
            }
        }
        let mut plans = vec![HaloPlan::default(); p];
        for ((needer, owner), idxs) in needs {
            plans[needer].recv.push((owner, idxs.clone()));
            plans[owner].send.push((needer, idxs));
        }
        plans
    }

    #[test]
    fn one_ranks_plan_equals_the_all_ranks_construction() {
        let mut cases: Vec<_> = [laplace2d(4), laplace2d(5), laplace2d(18), laplace3d(5)]
            .into_iter()
            .map(|sys| (sys, vec![1, 2, 3, 7, 16]))
            .collect();
        if !cfg!(debug_assertions) {
            // The campaign-sized case: 65 536 rows on up to 256 ranks.
            cases.push((laplace2d(256), vec![64, 256]));
        }
        for (sys, ps) in &cases {
            for &p in ps {
                let blocks = RowBlocks::new(sys.n(), p);
                let oracle = build_all_at_once(&sys.a, blocks);
                for (rank, plan) in oracle.iter().enumerate() {
                    assert_eq!(
                        &HaloPlan::build(&sys.a, blocks, rank),
                        plan,
                        "n = {}, p = {p}, rank {rank}",
                        sys.n()
                    );
                }
                assert_eq!(HaloPlan::build_all(&sys.a, blocks), oracle);
            }
        }
    }

    #[test]
    fn single_rank_needs_no_halo() {
        let sys = laplace2d(4);
        let plans = HaloPlan::build_all(&sys.a, RowBlocks::new(sys.n(), 1));
        assert_eq!(HaloStats::of(&plans), HaloStats::default());
    }

    #[test]
    fn row_split_tiles_the_block_and_matches_the_stencil() {
        // k×k 5-point Laplacian on p = k/2 ranks of two grid lines each:
        // the halo reaches exactly one grid line per neighbour, so each
        // block's boundary is its first and/or last line (k rows per
        // neighbouring rank) and the rest is interior.
        let k = 6;
        let p = k / 2;
        let sys = laplace2d(k);
        let blocks = RowBlocks::new(sys.n(), p);
        for r in 0..p {
            let split = RowSplit::build(&sys.a, blocks, r);
            let rows = blocks.rows(r);
            // Tiling: interior ∪ boundary = 0..rows, disjoint, ascending.
            let mut all: Vec<usize> = split
                .interior
                .iter()
                .chain(&split.boundary)
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..rows).collect::<Vec<_>>(), "rank {r}");
            let nbrs = usize::from(r > 0) + usize::from(r + 1 < p);
            assert_eq!(split.boundary.len(), nbrs * k, "rank {r}");
            assert_eq!(split.interior.len(), rows - nbrs * k, "rank {r}");
            let nnz = sys.a.row_block(blocks.lo(r), blocks.hi(r)).nnz();
            assert_eq!(split.interior_nnz + split.boundary_nnz, nnz, "rank {r}");
        }
    }

    #[test]
    fn single_rank_split_is_all_interior() {
        let sys = random_spd(30, 4, 5);
        let split = RowSplit::build(&sys.a, RowBlocks::new(sys.n(), 1), 0);
        assert_eq!(split.interior.len(), 30);
        assert!(split.boundary.is_empty());
        assert_eq!(split.interior_nnz, sys.a.nnz());
        assert_eq!(split.boundary_nnz, 0);
    }
}
