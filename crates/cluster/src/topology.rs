//! Core addressing within the simulated cluster.

use crate::spec::NodeSpec;
use serde::{Deserialize, Serialize};

/// Physical location of one hardware core: `(node, socket, core-in-socket)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreId {
    pub node: usize,
    pub socket: usize,
    pub core: usize,
}

impl CoreId {
    pub fn new(node: usize, socket: usize, core: usize) -> Self {
        Self { node, socket, core }
    }

    /// Flat index of this core within its node (`socket * cps + core`).
    pub fn flat_in_node(&self, node: &NodeSpec) -> usize {
        self.socket * node.cpu.cores_per_socket + self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    #[test]
    fn flat_roundtrip() {
        let node = NodeSpec::marconi_a3();
        for flat in [0, 1, 23, 24, 47] {
            let id = CoreId::new(3, flat / 24, flat % 24);
            assert_eq!(id.flat_in_node(&node), flat);
        }
    }

    #[test]
    fn socket_boundary() {
        let node = NodeSpec::marconi_a3();
        assert_eq!(CoreId::new(0, 0, 23).flat_in_node(&node), 23);
        assert_eq!(CoreId::new(0, 1, 0).flat_in_node(&node), 24);
    }
}
