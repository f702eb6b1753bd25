//! BLACS-style 2-D process grid over a simulated MPI communicator.

use greenla_mpi::{Comm, RankCtx};

/// A `nprow × npcol` process grid with row-major rank ordering (BLACS
/// default): grid position of communicator index `r` is
/// `(r / npcol, r % npcol)`.
pub struct ProcessGrid {
    nprow: usize,
    npcol: usize,
    myrow: usize,
    mycol: usize,
    /// All processes with my grid row (ordered by column).
    row_comm: Comm,
    /// All processes with my grid column (ordered by row).
    col_comm: Comm,
    /// The full grid.
    all: Comm,
}

impl ProcessGrid {
    /// Build a grid over `comm`; `comm.size()` must equal
    /// `nprow × npcol`. Collective over `comm`.
    pub fn new(ctx: &mut RankCtx, comm: &Comm, nprow: usize, npcol: usize) -> Self {
        assert_eq!(comm.size(), nprow * npcol, "grid shape mismatch");
        let me = comm.rank();
        let myrow = me / npcol;
        let mycol = me % npcol;
        let row_comm = ctx.split(comm, myrow as u64, mycol as u64);
        let col_comm = ctx.split(comm, (nprow as u64) + mycol as u64, myrow as u64);
        Self {
            nprow,
            npcol,
            myrow,
            mycol,
            row_comm,
            col_comm,
            all: comm.clone(),
        }
    }

    /// Most-square factorisation `nprow × npcol = p` with `nprow ≤ npcol`
    /// (ScaLAPACK's usual recommendation).
    pub fn square_shape(p: usize) -> (usize, usize) {
        assert!(p > 0);
        let mut best = (1, p);
        let mut r = 1;
        while r * r <= p {
            if p.is_multiple_of(r) {
                best = (r, p / r);
            }
            r += 1;
        }
        best
    }

    pub fn nprow(&self) -> usize {
        self.nprow
    }

    pub fn npcol(&self) -> usize {
        self.npcol
    }

    pub fn myrow(&self) -> usize {
        self.myrow
    }

    pub fn mycol(&self) -> usize {
        self.mycol
    }

    /// Communicator spanning my grid row (size `npcol`, my index `mycol`).
    pub fn row_comm(&self) -> &Comm {
        &self.row_comm
    }

    /// Communicator spanning my grid column (size `nprow`, my index
    /// `myrow`).
    pub fn col_comm(&self) -> &Comm {
        &self.col_comm
    }

    /// The whole-grid communicator.
    pub fn all(&self) -> &Comm {
        &self.all
    }

    /// Grid coordinates of a communicator index.
    pub fn coords_of(&self, index: usize) -> (usize, usize) {
        (index / self.npcol, index % self.npcol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::Machine;

    #[test]
    fn square_shapes() {
        assert_eq!(ProcessGrid::square_shape(1), (1, 1));
        assert_eq!(ProcessGrid::square_shape(4), (2, 2));
        assert_eq!(ProcessGrid::square_shape(6), (2, 3));
        assert_eq!(ProcessGrid::square_shape(7), (1, 7));
        assert_eq!(ProcessGrid::square_shape(144), (12, 12));
        assert_eq!(ProcessGrid::square_shape(1296), (36, 36));
    }

    #[test]
    fn grid_communicators_have_right_shape() {
        let spec = ClusterSpec::test_cluster(2, 4);
        let placement = Placement::packed(&spec.node, 8).unwrap();
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap();
        let out = machine.run(|ctx| {
            let world = ctx.world();
            let grid = ProcessGrid::new(ctx, &world, 2, 4);
            (
                grid.myrow(),
                grid.mycol(),
                grid.row_comm().size(),
                grid.row_comm().rank(),
                grid.col_comm().size(),
                grid.col_comm().rank(),
            )
        });
        for (r, &(myrow, mycol, rsz, rrk, csz, crk)) in out.results.iter().enumerate() {
            assert_eq!(myrow, r / 4);
            assert_eq!(mycol, r % 4);
            assert_eq!(rsz, 4);
            assert_eq!(rrk, mycol);
            assert_eq!(csz, 2);
            assert_eq!(crk, myrow);
        }
    }
}
