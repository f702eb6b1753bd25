//! Rank-to-core placement and the paper's Table 1 configurations.
//!
//! The paper evaluates three node layouts for every rank count:
//!
//! * **full load** — 48 ranks/node (24 per socket on Marconi A3);
//! * **half load, one socket** — 24 ranks/node, all pinned to socket 0,
//!   socket 1 left idle;
//! * **half load, two sockets** — 24 ranks/node, split 12 + 12.
//!
//! [`LoadLayout`] generalises those to any node shape so scaled-down
//! functional runs keep the same geometry, and [`table1_rows`] reproduces
//! the paper's Table 1 exactly for the Marconi node.

use crate::spec::NodeSpec;
use crate::topology::CoreId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three load layouts of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadLayout {
    /// All cores of every socket carry one rank each (48/node on Marconi).
    FullLoad,
    /// Half the node's ranks, all on socket 0 (24/node on Marconi).
    HalfOneSocket,
    /// Half the node's ranks, split evenly across both sockets (12+12).
    HalfTwoSockets,
}

impl LoadLayout {
    /// All three layouts in the paper's order.
    pub fn all() -> [LoadLayout; 3] {
        [
            LoadLayout::FullLoad,
            LoadLayout::HalfOneSocket,
            LoadLayout::HalfTwoSockets,
        ]
    }

    /// Ranks placed on each node under this layout (always consistent with
    /// [`LoadLayout::per_socket`], including odd core counts).
    pub fn ranks_per_node(&self, node: &NodeSpec) -> usize {
        let (s0, s1) = self.per_socket(node);
        s0 + s1
    }

    /// Number of sockets that receive ranks.
    pub fn sockets_used(&self) -> usize {
        match self {
            LoadLayout::FullLoad | LoadLayout::HalfTwoSockets => 2,
            LoadLayout::HalfOneSocket => 1,
        }
    }

    /// Ranks on each of the node's two sockets `(socket0, socket1)`.
    pub fn per_socket(&self, node: &NodeSpec) -> (usize, usize) {
        let cps = node.cpu.cores_per_socket;
        match self {
            LoadLayout::FullLoad => (cps, cps),
            LoadLayout::HalfOneSocket => (cps, 0),
            LoadLayout::HalfTwoSockets => (cps / 2, cps / 2),
        }
    }

    /// Short label used in charts and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            LoadLayout::FullLoad => "full-48",
            LoadLayout::HalfOneSocket => "half-1sock",
            LoadLayout::HalfTwoSockets => "half-2sock",
        }
    }
}

impl fmt::Display for LoadLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a placement could not be constructed.
#[derive(Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// `ntasks` is not a multiple of the ranks-per-node of the layout.
    NotDivisible {
        ntasks: usize,
        ranks_per_node: usize,
    },
    /// A socket would receive more ranks than it has cores.
    SocketOversubscribed { requested: usize, cores: usize },
    /// Zero tasks requested.
    Empty,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NotDivisible {
                ntasks,
                ranks_per_node,
            } => write!(
                f,
                "{ntasks} tasks not divisible by {ranks_per_node} ranks per node"
            ),
            PlacementError::SocketOversubscribed { requested, cores } => {
                write!(f, "{requested} ranks requested on a {cores}-core socket")
            }
            PlacementError::Empty => write!(f, "no tasks requested"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A concrete rank → core assignment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    node_spec: NodeSpec,
    cores: Vec<CoreId>,
    nodes_used: usize,
}

impl Placement {
    /// Place `ntasks` ranks under `layout`, using as many nodes as needed.
    /// Ranks are assigned in block order (rank 0..k on node 0, …), and
    /// within a node in socket-major, core-minor order over the sockets the
    /// layout uses — matching Slurm's `--distribution=block:block`.
    pub fn layout(
        node_spec: &NodeSpec,
        ntasks: usize,
        layout: LoadLayout,
    ) -> Result<Placement, PlacementError> {
        if ntasks == 0 {
            return Err(PlacementError::Empty);
        }
        let rpn = layout.ranks_per_node(node_spec);
        if !ntasks.is_multiple_of(rpn) {
            return Err(PlacementError::NotDivisible {
                ntasks,
                ranks_per_node: rpn,
            });
        }
        let (s0, s1) = layout.per_socket(node_spec);
        Self::explicit(node_spec, ntasks, &[s0, s1])
    }

    /// Place `ntasks` ranks with an explicit per-socket rank count on every
    /// node (`per_socket[s]` ranks pinned to the first cores of socket `s`).
    pub fn explicit(
        node_spec: &NodeSpec,
        ntasks: usize,
        per_socket: &[usize],
    ) -> Result<Placement, PlacementError> {
        if ntasks == 0 {
            return Err(PlacementError::Empty);
        }
        assert_eq!(
            per_socket.len(),
            node_spec.sockets,
            "per-socket spec length"
        );
        let cps = node_spec.cpu.cores_per_socket;
        for &r in per_socket {
            if r > cps {
                return Err(PlacementError::SocketOversubscribed {
                    requested: r,
                    cores: cps,
                });
            }
        }
        let rpn: usize = per_socket.iter().sum();
        if rpn == 0 || !ntasks.is_multiple_of(rpn) {
            return Err(PlacementError::NotDivisible {
                ntasks,
                ranks_per_node: rpn.max(1),
            });
        }
        let nodes_used = ntasks / rpn;
        let mut cores = Vec::with_capacity(ntasks);
        for node in 0..nodes_used {
            for (socket, &count) in per_socket.iter().enumerate() {
                for core in 0..count {
                    cores.push(CoreId::new(node, socket, core));
                }
            }
        }
        Ok(Placement {
            node_spec: node_spec.clone(),
            cores,
            nodes_used,
        })
    }

    /// Pack `ntasks` ranks densely: fill each node's cores in socket-major
    /// order, the last node possibly partially. Accepts any task count —
    /// the workhorse for tests and ad-hoc runs that don't model a paper
    /// configuration.
    pub fn packed(node_spec: &NodeSpec, ntasks: usize) -> Result<Placement, PlacementError> {
        if ntasks == 0 {
            return Err(PlacementError::Empty);
        }
        let per_node = node_spec.cores();
        let cps = node_spec.cpu.cores_per_socket;
        let nodes_used = ntasks.div_ceil(per_node);
        let mut cores = Vec::with_capacity(ntasks);
        for rank in 0..ntasks {
            let node = rank / per_node;
            let flat = rank % per_node;
            cores.push(CoreId::new(node, flat / cps, flat % cps));
        }
        Ok(Placement {
            node_spec: node_spec.clone(),
            cores,
            nodes_used,
        })
    }

    /// Number of ranks.
    pub fn ntasks(&self) -> usize {
        self.cores.len()
    }

    /// Number of nodes that received at least one rank.
    pub fn nodes_used(&self) -> usize {
        self.nodes_used
    }

    /// Node spec the placement was built for.
    pub fn node_spec(&self) -> &NodeSpec {
        &self.node_spec
    }

    /// Physical core of a rank.
    pub fn core_of(&self, rank: usize) -> CoreId {
        self.cores[rank]
    }

    /// Node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        self.cores[rank].node
    }

    /// Ranks per node (uniform by construction).
    pub fn ranks_per_node(&self) -> usize {
        self.ntasks() / self.nodes_used
    }
}

/// One row of the paper's Table 1.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Row {
    pub ranks: usize,
    pub nodes: usize,
    pub ranks_per_node: usize,
    pub sockets: usize,
    pub ranks_per_socket: (usize, usize),
    pub layout: LoadLayout,
}

/// The paper's rank counts (square numbers, as IMeP requires).
pub const PAPER_RANKS: [usize; 3] = [144, 576, 1296];

/// The paper's matrix dimensions.
pub const PAPER_DIMS: [usize; 4] = [8640, 17280, 25920, 34560];

/// Reproduce Table 1 for a given node shape (the Marconi node yields the
/// published numbers; scaled-down nodes yield the analogous geometry).
pub fn table1_rows(node: &NodeSpec, rank_counts: &[usize]) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        for layout in LoadLayout::all() {
            let rpn = layout.ranks_per_node(node);
            let per_socket = layout.per_socket(node);
            rows.push(Table1Row {
                ranks,
                nodes: ranks / rpn,
                ranks_per_node: rpn,
                sockets: layout.sockets_used(),
                ranks_per_socket: per_socket,
                layout,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    type Table1Expected = (usize, usize, usize, usize, (usize, usize));

    #[test]
    fn table1_matches_paper_exactly() {
        let node = NodeSpec::marconi_a3();
        let rows = table1_rows(&node, &PAPER_RANKS);
        // The paper's Table 1, row by row.
        let expected: [Table1Expected; 9] = [
            (144, 3, 48, 2, (24, 24)),
            (144, 6, 24, 1, (24, 0)),
            (144, 6, 24, 2, (12, 12)),
            (576, 12, 48, 2, (24, 24)),
            (576, 24, 24, 1, (24, 0)),
            (576, 24, 24, 2, (12, 12)),
            (1296, 27, 48, 2, (24, 24)),
            (1296, 54, 24, 1, (24, 0)),
            (1296, 54, 24, 2, (12, 12)),
        ];
        assert_eq!(rows.len(), expected.len());
        for (row, exp) in rows.iter().zip(&expected) {
            assert_eq!(
                (
                    row.ranks,
                    row.nodes,
                    row.ranks_per_node,
                    row.sockets,
                    row.ranks_per_socket
                ),
                *exp,
                "mismatch for {row:?}"
            );
        }
    }

    #[test]
    fn full_load_uses_every_core() {
        let node = NodeSpec::marconi_a3();
        let p = Placement::layout(&node, 96, LoadLayout::FullLoad).unwrap();
        assert_eq!(p.nodes_used(), 2);
        assert_eq!(p.ranks_per_node(), 48);
        // No two ranks share a core.
        let mut seen = std::collections::HashSet::new();
        for r in 0..96 {
            assert!(seen.insert(p.core_of(r)), "core reused by rank {r}");
        }
    }

    #[test]
    fn half_one_socket_leaves_socket1_idle() {
        let node = NodeSpec::marconi_a3();
        let p = Placement::layout(&node, 48, LoadLayout::HalfOneSocket).unwrap();
        assert_eq!(p.nodes_used(), 2);
        for r in 0..48 {
            assert_eq!(p.core_of(r).socket, 0);
        }
    }

    #[test]
    fn half_two_sockets_splits_evenly() {
        let node = NodeSpec::marconi_a3();
        let p = Placement::layout(&node, 24, LoadLayout::HalfTwoSockets).unwrap();
        assert_eq!(p.nodes_used(), 1);
        let s0 = (0..24).filter(|&r| p.core_of(r).socket == 0).count();
        assert_eq!(s0, 12);
    }

    #[test]
    fn block_distribution_rank_order() {
        let node = NodeSpec::marconi_a3();
        let p = Placement::layout(&node, 144, LoadLayout::FullLoad).unwrap();
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(47), 0);
        assert_eq!(p.node_of(48), 1);
        assert_eq!(p.node_of(143), 2);
    }

    #[test]
    fn rejects_non_divisible() {
        let node = NodeSpec::marconi_a3();
        assert_eq!(
            Placement::layout(&node, 50, LoadLayout::FullLoad),
            Err(PlacementError::NotDivisible {
                ntasks: 50,
                ranks_per_node: 48
            })
        );
    }

    #[test]
    fn rejects_oversubscription() {
        let node = NodeSpec::marconi_a3();
        assert!(matches!(
            Placement::explicit(&node, 60, &[30, 30]),
            Err(PlacementError::SocketOversubscribed { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let node = NodeSpec::marconi_a3();
        assert_eq!(
            Placement::layout(&node, 0, LoadLayout::FullLoad),
            Err(PlacementError::Empty)
        );
    }

    #[test]
    fn scaled_down_node_keeps_geometry() {
        // 4-core-per-socket test node: full = 8/node, half = 4/node.
        let node = NodeSpec::test_node(4);
        let p = Placement::layout(&node, 16, LoadLayout::HalfTwoSockets).unwrap();
        assert_eq!(p.nodes_used(), 4);
        let s1 = (0..4).filter(|&r| p.core_of(r).socket == 1).count();
        assert_eq!(s1, 2);
    }
}
