//! Per-solver critical-path time models, mirroring the implementations.

use crate::comm;
use crate::params::MachineParams;
use crate::roofline::{KernelProfile, Roofline};
use greenla_cg::formulas::{cg_iter_cost, spmv_split_cost};
use greenla_cg::partition::{HaloPlan, RowBlocks, RowSplit};
use greenla_ime::par::{ImepOptions, BCAST_CHUNK, LEVEL_FUSE};
use greenla_linalg::sparse::CsrMatrix;
use greenla_scalapack::ProcessGrid;

/// Split of the predicted makespan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeBreakdown {
    /// Per-rank busy-computing seconds (flop- or memory-bound, whichever
    /// binds).
    pub compute_s: f64,
    /// Exposed communication/synchronisation seconds on the critical path.
    pub comm_s: f64,
}

impl TimeBreakdown {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Total DRAM bytes a solver moves (drives the DRAM energy model).
pub fn ime_bytes(n: usize) -> f64 {
    let n = n as f64;
    // Table updates (fused over LEVEL_FUSE levels) + INITIME writes.
    16.0 * n * n * n / LEVEL_FUSE as f64 + 16.0 * n * n
}

/// Total DRAM bytes of the blocked distributed LU.
pub fn ge_bytes(n: usize, nb: usize) -> f64 {
    let n = n as f64;
    // Trailing GEMM traffic per panel, divided by the LLC reuse factor the
    // implementation charges (see `greenla_scalapack::pdgetrf`).
    let reuse = greenla_scalapack::pdgetrf::GEMM_CACHE_REUSE as f64;
    16.0 * n * n * n / (3.0 * nb as f64) / reuse + 16.0 * n * n
}

/// IMeP makespan model.
pub fn ime_time(n: usize, nranks: usize, m: &MachineParams, opts: ImepOptions) -> TimeBreakdown {
    let nf = n as f64;
    let flops = greenla_ime::formulas::flops_ime_ours(n) as f64;
    let flop_time = flops / (nranks as f64 * m.rate);
    let mem_time = ime_bytes(n) / (nranks as f64 * m.bw_per_core);
    let compute_s = flop_time.max(mem_time);

    let col_bytes = 8.0 * nf;
    let per_level_bcast = if opts.pipelined_bcast {
        comm::bcast_pipelined(nranks, col_bytes, 8.0 * BCAST_CHUNK as f64, m)
    } else {
        comm::bcast_binomial(nranks, col_bytes, m)
    };
    let per_level_h = if opts.centralized_h {
        comm::bcast_binomial(nranks, 8.0 * (nf + 1.0), m)
    } else {
        0.0
    };
    let per_level_rows = if opts.collect_last_rows {
        comm::gather_linear(nranks, 8.0 * (nf + 1.0) / nranks as f64, m)
    } else {
        0.0
    };
    let init_final = comm::bcast_binomial(nranks, col_bytes, m) * 2.0
        + comm::gather_linear(nranks, 8.0 * nf / nranks as f64, m);
    let comm_s = nf * (per_level_bcast + per_level_h + per_level_rows) + init_final;
    TimeBreakdown { compute_s, comm_s }
}

/// `pdgesv` makespan model (factorisation + solve).
pub fn ge_time(n: usize, nranks: usize, nb: usize, m: &MachineParams) -> TimeBreakdown {
    let nf = n as f64;
    let nbf = nb as f64;
    let (pr, pc) = ProcessGrid::square_shape(nranks);
    let (prf, pcf) = (pr as f64, pc as f64);

    // --- compute ---
    let lu_flops = greenla_linalg::flops::getrf(n) as f64 + greenla_linalg::flops::getrs(n) as f64;
    let flop_time = lu_flops / (nranks as f64 * m.rate);
    let mem_time = ge_bytes(n, nb) / (nranks as f64 * m.bw_per_core);
    // Panel factorisation runs on one process column while the rest wait:
    // its flops sit on the critical path beyond the balanced share.
    let panel_flops = nbf * nf * nf / 2.0;
    let panel_extra = panel_flops / (prf * m.rate);
    let compute_s = flop_time.max(mem_time) + panel_extra;

    // --- per-column communication (panel factorisation) ---
    let maxloc = comm::allreduce(pr, 16.0, m);
    let panel_swap = 2.0 * m.p2p(8.0 * nbf);
    let rowseg = comm::bcast_binomial(pr, 8.0 * nbf / 2.0, m);
    let per_column = maxloc + panel_swap + rowseg;

    // --- per-panel communication ---
    let panels = nf / nbf;
    let lrows = nf / prf;
    let panel_bcast_bytes = 8.0 * lrows * nbf;
    let panel_bcast = if panel_bcast_bytes > 8.0 * 4096.0 {
        comm::bcast_pipelined(pc, panel_bcast_bytes, 8.0 * 1024.0, m)
    } else {
        comm::bcast_binomial(pc, panel_bcast_bytes, m)
    };
    let meta = comm::bcast_binomial(pc, 8.0 * (nbf + 2.0), m);
    // Trailing row interchanges: nb swaps per panel, pairwise-parallel
    // across process columns but serialised at repeated owner rows.
    let laswp = nbf * 2.0 * m.o + m.p2p(8.0 * nf / pcf);
    let u12_bytes = 8.0 * nbf * (nf / 2.0) / pcf;
    let u12_bcast = if u12_bytes > 8.0 * 4096.0 {
        comm::bcast_pipelined(pr, u12_bytes, 8.0 * 1024.0, m)
    } else {
        comm::bcast_binomial(pr, u12_bytes, m)
    };
    let per_panel = meta + panel_bcast + laswp + u12_bcast;

    // --- triangular solves (pdgetrs): two sweeps over the block rows ---
    let per_block = comm::allreduce(pc, 8.0 * nbf, m)
        + comm::bcast_binomial(pc, 8.0 * nbf, m)
        + comm::bcast_binomial(pr, 8.0 * nbf, m);
    let solve_comm = 2.0 * panels * per_block;

    let comm_s = nf * per_column + panels * per_panel + solve_comm;
    TimeBreakdown { compute_s, comm_s }
}

/// One steady-state iteration of distributed CG on its critical path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgIterTime {
    /// The rank whose iteration the roofline predicts slowest (the last
    /// of equals).
    pub straggler: usize,
    /// The straggler's `cg_iter_cost` through the roofline (ranks run
    /// concurrently, each on its own core).
    pub compute_s: f64,
    /// The iteration's two tree allreduces (`p·q`, then `r·z` and `r·r`
    /// fused).
    pub reduce_s: f64,
    /// One halo exchange: the bottleneck rank drains its incoming
    /// messages.
    pub halo_s: f64,
    /// What an overlapped exchange hides under the straggler's interior
    /// rows ([`Roofline::overlap_credit`]); 0 for the blocking exchange.
    pub overlap_s: f64,
}

impl CgIterTime {
    /// The iteration as compute against exposed communication.
    pub fn split(&self) -> TimeBreakdown {
        TimeBreakdown {
            compute_s: self.compute_s,
            comm_s: self.reduce_s + self.halo_s - self.overlap_s,
        }
    }
}

/// Distributed CG per iteration (its iteration count is known only after
/// a solve): `a` split into row `blocks`, one halo plan per rank in
/// `plans`, computed through `rf` and communicating at `m`'s latency
/// class; `overlap` is the solver's halo/interior overlap
/// (`greenla_cg::solver::CgConfig::overlap`).
pub fn cg_iter_time(
    a: &CsrMatrix,
    blocks: RowBlocks,
    plans: &[HaloPlan],
    jacobi: bool,
    overlap: bool,
    rf: &Roofline,
    m: &MachineParams,
) -> CgIterTime {
    let p = plans.len();
    let (straggler, compute_s) = (0..p)
        .map(|r| {
            let nnz = (blocks.lo(r)..blocks.hi(r)).map(|i| a.row(i).0.len()).sum();
            let c = cg_iter_cost(blocks.rows(r), nnz, plans[r].recv_elems(), jacobi);
            (
                r,
                rf.predict(&KernelProfile::sparse(c.flops, c.bytes)).time_s,
            )
        })
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .expect("at least one rank");
    let halo_s = plans
        .iter()
        .map(|pl| {
            pl.recv
                .iter()
                .map(|(_, idxs)| m.p2p(8.0 * idxs.len() as f64))
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    // The overlapped solver posts the halo first and computes its interior
    // rows while the payloads are in flight.
    let overlap_s = if overlap {
        let split = RowSplit::build(a, blocks, straggler);
        let (interior, _) = spmv_split_cost(
            split.interior.len(),
            split.interior_nnz,
            split.boundary.len(),
            split.boundary_nnz,
            plans[straggler].recv_elems(),
        );
        rf.overlap_credit(
            &KernelProfile::sparse(interior.flops, interior.bytes),
            halo_s,
        )
    } else {
        0.0
    };
    CgIterTime {
        straggler,
        compute_s,
        reduce_s: comm::allreduce(p, 8.0, m) + comm::allreduce(p, 16.0, m),
        halo_s,
        overlap_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::spec::ClusterSpec;

    fn m() -> MachineParams {
        MachineParams::from_spec(&ClusterSpec::marconi_a3(64))
    }

    #[test]
    fn ime_compute_scales_inverse_in_ranks() {
        let m = m();
        let t144 = ime_time(8640, 144, &m, ImepOptions::optimized());
        let t576 = ime_time(8640, 576, &m, ImepOptions::optimized());
        assert!((t144.compute_s / t576.compute_s - 4.0).abs() < 0.1);
    }

    #[test]
    fn ge_flops_advantage_shows_in_compute() {
        let m = m();
        let ime = ime_time(17280, 144, &m, ImepOptions::optimized());
        let ge = ge_time(17280, 144, 64, &m);
        let ratio = ime.compute_s / ge.compute_s;
        assert!(ratio > 2.0 && ratio < 4.5, "compute ratio {ratio}");
    }

    #[test]
    fn paper_protocol_costs_more_comm_than_optimized() {
        let m = m();
        let paper = ime_time(8640, 576, &m, ImepOptions::paper());
        let opt = ime_time(8640, 576, &m, ImepOptions::optimized());
        assert!(paper.comm_s > opt.comm_s * 1.5);
    }

    #[test]
    fn fig5_crossover_shape() {
        // The paper's §5.2: "ScaLAPACK is faster in the more dense
        // computations, whilst IMe is faster … in more distributed
        // computations, like for 576 and 1296 ranks for matrix dimensions
        // 8640 and 17280".
        let m = m();
        let opts = ImepOptions::optimized();
        // Dense computation: the largest matrix on the fewest ranks.
        let ime_dense = ime_time(34560, 144, &m, opts).total_s();
        let ge_dense = ge_time(34560, 144, 64, &m).total_s();
        assert!(
            ge_dense < ime_dense,
            "ScaLAPACK must win dense: {ge_dense} vs {ime_dense}"
        );
        // Distributed computation: the smallest matrix on the most ranks.
        let ime_dist = ime_time(8640, 1296, &m, opts).total_s();
        let ge_dist = ge_time(8640, 1296, 64, &m).total_s();
        assert!(
            ime_dist < ge_dist,
            "IMe must win distributed: {ime_dist} vs {ge_dist}"
        );
    }

    #[test]
    fn cg_overlap_hides_only_halo_seconds() {
        // A 40×40 stencil in 4 blocks of 400 rows: 320 interior rows each,
        // and the middle blocks receive two neighbours' halos.
        let a = greenla_linalg::sparse::laplace2d(40).a;
        let blocks = RowBlocks::new(1600, 4);
        let plans = HaloPlan::build_all(&a, blocks);
        let spec = ClusterSpec::test_cluster(1, 2);
        let (rf, m) = (
            Roofline::from_spec(&spec),
            MachineParams::from_spec(&spec).intra_node(),
        );
        let iter = |overlap| cg_iter_time(&a, blocks, &plans, false, overlap, &rf, &m);
        let (over, block) = (iter(true), iter(false));
        assert_eq!((over.straggler, block.straggler), (2, 2));
        assert_eq!(block.overlap_s, 0.0);
        assert!(over.overlap_s > 0.0 && over.overlap_s <= over.halo_s);
        assert_eq!(over.split().compute_s, block.split().compute_s);
        let hidden = block.split().comm_s - over.split().comm_s;
        assert!((hidden - over.overlap_s).abs() <= 1e-12 * block.split().comm_s);
    }

    #[test]
    fn strong_scaling_reduces_time() {
        let m = m();
        // At n=17280 and above, quadrupling the ranks still pays off; the
        // smallest matrix saturates (which is where IMe overtakes, §5.2).
        for n in [17280, 34560] {
            let t1 = ge_time(n, 144, 64, &m).total_s();
            let t2 = ge_time(n, 576, 64, &m).total_s();
            assert!(t2 < t1, "n={n}: {t2} !< {t1}");
        }
        let ime1 = ime_time(17280, 144, &m, ImepOptions::optimized()).total_s();
        let ime2 = ime_time(17280, 576, &m, ImepOptions::optimized()).total_s();
        assert!(ime2 < ime1, "IMe: {ime2} !< {ime1}");
    }
}
