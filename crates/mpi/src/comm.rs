//! Communicator handles.

use std::sync::Arc;

/// The world communicator's id.
pub const WORLD_ID: u64 = 0;

/// A communicator: an ordered group of global ranks plus this rank's index
/// within it. Cheap to clone (the member list is shared).
#[derive(Clone, Debug)]
pub struct Comm {
    id: u64,
    members: Arc<Vec<usize>>,
    my_index: usize,
}

impl Comm {
    pub(crate) fn new(id: u64, members: Arc<Vec<usize>>, my_index: usize) -> Self {
        debug_assert!(my_index < members.len());
        Self {
            id,
            members,
            my_index,
        }
    }

    /// Unique communicator id (0 = world).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This rank's index within the communicator (its "rank" in MPI terms).
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Translate a communicator index to a global (world) rank.
    pub fn global_rank(&self, index: usize) -> usize {
        self.members[index]
    }

    /// All members as global ranks, in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shared member list itself, for state that outlives this handle.
    pub(crate) fn shared_members(&self) -> &Arc<Vec<usize>> {
        &self.members
    }

    /// Does this rank hold the highest index in the communicator? (The
    /// paper designates the highest rank of each node communicator as the
    /// monitoring rank.)
    pub fn is_highest(&self) -> bool {
        self.my_index + 1 == self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation() {
        let c = Comm::new(3, Arc::new(vec![4, 7, 9]), 1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.global_rank(2), 9);
        assert!(!c.is_highest());
        let top = Comm::new(3, Arc::new(vec![4, 7, 9]), 2);
        assert!(top.is_highest());
    }
}
