//! The dense-vs-sparse energy campaign: the same Poisson SPD system
//! solved by the dense direct solvers (IMe, ScaLAPACK) and by distributed
//! CG over the sparse row-block SpMV, on one simulated node.
//!
//! This is the memory-bound inversion the sparse workload family exists
//! to demonstrate: CG's achieved GFLOP/s sits far below every dense
//! solver's — SpMV's ~1/6 flop-per-byte intensity pins it to the DRAM
//! ceiling — yet its energy to solution is lower, because it moves
//! O(nnz·iters) data instead of executing O(n³) flops. Alongside the
//! measurements, every CG point is re-derived from the closed forms
//! (`greenla_cg::formulas` for flops/bytes through the spec roofline,
//! `greenla_model::comm` for the collectives and the halo exchange) and
//! gated against the simulator within the same ±30% band the dense
//! roofline validation uses.

use crate::config::SolverChoice;
use crate::roofline::REL_TOL;
use crate::run::{self, BatchRule, Dataset, Inputs, Measurement, RunConfig};
use greenla_cg::formulas;
use greenla_cg::partition::{HaloPlan, RowBlocks};
use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::PowerModel;
use greenla_linalg::generate::SystemKind;
use greenla_linalg::sparse::CsrMatrix;
use greenla_model::comm;
use greenla_model::params::MachineParams;
use greenla_model::roofline::{KernelProfile, Roofline};
use greenla_model::solvers::cg_iter_time;
use greenla_mpi::SchedulerKind;
use serde::{Deserialize, Serialize};

/// A model check passes when its predicted/measured ratio sits in the
/// roofline validations' ±[`REL_TOL`] band.
fn within_band(ratio: f64) -> bool {
    crate::bench::retry::within_band(ratio, REL_TOL)
}

/// Grid of the sparse campaign. Dimensions must be perfect squares
/// ([`SystemKind::Poisson2d`] is a k×k 5-point stencil); all ranks run
/// full-load on a single node so every message is intra-node and the
/// closed-form communication model needs only one latency class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparseGrid {
    pub dims: Vec<usize>,
    pub ranks: usize,
    pub reps: usize,
    pub cores_per_socket: usize,
    pub base_seed: u64,
    /// Rank-scheduling engine for every run of the campaign
    /// (`repro --exp sparse --scheduler thread|event`; by default fibers
    /// where the build has them, OS threads otherwise); virtual-time
    /// results are engine-invariant.
    #[serde(default = "Default::default")]
    pub scheduler: SchedulerKind,
}

impl Default for SparseGrid {
    fn default() -> Self {
        Self {
            dims: vec![400, 784, 1296],
            ranks: 16,
            reps: 3,
            cores_per_socket: 8,
            base_seed: 2023,
            scheduler: SchedulerKind::default(),
        }
    }
}

impl SparseGrid {
    /// A minimal grid for CI smoke runs.
    pub fn smoke() -> Self {
        Self {
            dims: vec![196, 324],
            reps: 1,
            ..Self::default()
        }
    }
}

/// One solver × dimension summary row of the campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparsePoint {
    pub solver: String,
    pub n: usize,
    pub duration_s: f64,
    pub energy_j: f64,
    /// Achieved rate over the solver's closed-form flop count.
    pub gflops: f64,
    pub iterations: Option<u64>,
    /// Solves per monitored window (sized so the window spans well past
    /// the RAPL update period); all figures above are already per solve.
    pub batch: usize,
}

/// Closed-form model vs simulator for one CG point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelCheck {
    pub solver: String,
    pub n: usize,
    pub iterations: u64,
    pub pred_wall_s: f64,
    pub meas_wall_s: f64,
    pub wall_ratio: f64,
    pub pred_iter_wall_s: f64,
    pub meas_iter_wall_s: f64,
    pub pred_energy_j: f64,
    pub meas_energy_j: f64,
    pub energy_ratio: f64,
    /// The roofline's verdict on the per-rank solve profile — must be
    /// `false` (memory-bound) for every CG point.
    pub compute_bound: bool,
    /// Achieved DRAM GB/s of the solve against the closed-form byte count.
    pub gbps: f64,
    pub within_band: bool,
}

/// The ranking divergence at one dimension: CG delivers the *lowest*
/// GFLOP/s yet the *lowest* energy to solution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InversionCheck {
    pub n: usize,
    pub cg_gflops: f64,
    pub min_dense_gflops: f64,
    pub cg_energy_j: f64,
    pub min_dense_energy_j: f64,
    pub holds: bool,
}

/// The campaign's machine-readable verdict, written as
/// `sparse_campaign.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparseReport {
    pub points: Vec<SparsePoint>,
    pub checks: Vec<ModelCheck>,
    pub inversions: Vec<InversionCheck>,
    pub all_within_band: bool,
    pub all_memory_bound: bool,
    pub inversion_holds: bool,
}

/// Run the dense-vs-sparse campaign: every solver at every dimension,
/// `reps` repetitions, on `ranks` full-load ranks of one node, each point's
/// window sized past the RAPL update period by a batch-1 probe. Returns
/// the dataset (same schema the dense campaign writes) and the report,
/// whose model checks and inversions are passes over the measured points.
pub fn campaign(grid: &SparseGrid, progress: impl Fn(&str) + Sync) -> (Dataset, SparseReport) {
    let configs: Vec<RunConfig> = grid
        .dims
        .iter()
        .flat_map(|&n| {
            // Both CG variants against both dense direct solvers.
            let solvers = [
                SolverChoice::cg(),
                SolverChoice::cg_jacobi(),
                SolverChoice::ime_optimized(),
                SolverChoice::scalapack(),
            ];
            solvers.map(|solver| RunConfig {
                n,
                ranks: grid.ranks,
                layout: LoadLayout::FullLoad,
                solver,
                system: SystemKind::Poisson2d,
                cores_per_socket: grid.cores_per_socket,
                seed: grid.base_seed,
                check: false,
                faults: None,
                scheduler: grid.scheduler,
                batch: 1,
                cg_overlap: true,
            })
        })
        .collect();
    let measured = run::campaign(&configs, grid.reps, BatchRule::Window, progress);
    let mut checks = Vec::new();
    let rows: Vec<SparsePoint> = configs
        .iter()
        .zip(&measured)
        .map(|(cfg, (point, batch, first))| {
            // Closed-form flops of one solve: the IMe model, the classic
            // ²⁄₃·n³ LU factor + 2n² solve, the summed per-rank CG cost.
            let flops = match cfg.solver {
                SolverChoice::Ime { .. } => greenla_ime::formulas::flops_ime_ours(cfg.n) as f64,
                SolverChoice::ScaLapack { .. } => {
                    let n = cfg.n as f64;
                    2.0 * n * n * n / 3.0 + 2.0 * n * n
                }
                SolverChoice::Cg { jacobi } => {
                    // The point's CSR again: O(nnz), and the loop keeps none.
                    let Inputs::Cg(sys, _) = Inputs::prepare(cfg) else {
                        unreachable!("CG inputs are CSR")
                    };
                    let (check, flops) = model_check(cfg, &sys.a, jacobi, first);
                    checks.push(check);
                    flops
                }
            };
            let duration_s = point.agg.duration_s.mean;
            SparsePoint {
                solver: point.solver.clone(),
                n: cfg.n,
                duration_s,
                energy_j: point.agg.total_energy_j.mean,
                gflops: flops / duration_s / 1e9,
                iterations: first.iterations,
                batch: *batch,
            }
        })
        .collect();
    let inversions: Vec<InversionCheck> = grid
        .dims
        .iter()
        .map(|&n| {
            let side = |cg: bool| {
                rows.iter()
                    .filter(move |p| p.n == n && p.solver.starts_with("CG") == cg)
            };
            let cg_gflops = side(true).map(|p| p.gflops).fold(0.0, f64::max);
            let cg_energy_j = side(true).map(|p| p.energy_j).fold(f64::INFINITY, f64::min);
            let min_dense_gflops = side(false).map(|p| p.gflops).fold(f64::INFINITY, f64::min);
            let min_dense_energy_j = side(false)
                .map(|p| p.energy_j)
                .fold(f64::INFINITY, f64::min);
            InversionCheck {
                n,
                cg_gflops,
                min_dense_gflops,
                cg_energy_j,
                min_dense_energy_j,
                holds: cg_gflops < min_dense_gflops && cg_energy_j < min_dense_energy_j,
            }
        })
        .collect();
    let report = SparseReport {
        all_within_band: checks.iter().all(|c| c.within_band),
        all_memory_bound: checks.iter().all(|c| !c.compute_bound),
        inversion_holds: inversions.iter().all(|i| i.holds),
        points: rows,
        checks,
        inversions,
    };
    let points = measured.into_iter().map(|(point, ..)| point).collect();
    (Dataset { points }, report)
}

/// Re-derive one CG measurement — CSR operator `a`, Jacobi-preconditioned
/// or not — from the closed forms and gate it. Also returns the summed
/// closed-form flops of one solve, the row's GFLOP/s numerator.
fn model_check(cfg: &RunConfig, a: &CsrMatrix, jacobi: bool, m: &Measurement) -> (ModelCheck, f64) {
    let node = NodeSpec::test_node(cfg.cores_per_socket);
    let spec = ClusterSpec {
        node: node.clone(),
        nodes: m.nodes,
        net: greenla_cluster::Interconnect::omni_path(),
    };
    let rf = Roofline::from_spec(&spec);
    let iters = m.iterations.expect("CG run records iterations");
    let refreshes = m.refreshes.expect("CG run records refreshes");
    let blocks = RowBlocks::new(cfg.n, cfg.ranks);
    let plans = HaloPlan::build_all(a, blocks);
    // Everything is intra-node on the single-node campaign.
    let mi = MachineParams::from_spec(&spec).intra_node();
    let iter = cg_iter_time(a, blocks, &plans, jacobi, cfg.cg_overlap, &rf, &mi);
    // Per-rank closed-form solve costs at the measured iteration counts.
    let costs: Vec<formulas::IterCost> = (0..cfg.ranks)
        .map(|r| {
            let rows = blocks.rows(r);
            let nnz = a.row_block(blocks.lo(r), blocks.hi(r)).nnz();
            formulas::cg_solve_cost(rows, nnz, plans[r].recv_elems(), jacobi, iters, refreshes)
        })
        .collect();

    // Compute side: the straggler's whole solve through the spec roofline.
    let worst = costs[iter.straggler];
    let per_rank = KernelProfile::sparse(worst.flops, worst.bytes);
    let pred = rf.predict(&per_rank);

    // Communication side: the setup reduction, every iteration's exposed
    // communication, a halo exchange per refresh and the final gather. The
    // overlap credit the iterations carry also lowers the energy
    // prediction's communication share.
    let p = cfg.ranks;
    let comm_s = comm::allreduce(p, 16.0, &mi)
        + iters as f64 * iter.split().comm_s
        + refreshes as f64 * (iter.halo_s - iter.overlap_s)
        + comm::allgather_ring(p, 8.0 * cfg.n as f64, &mi);

    let pred_wall_s = pred.time_s + comm_s;
    let bytes_total: f64 = costs.iter().map(|c| c.bytes as f64).sum();
    let power = PowerModel::scaled_for(&node);
    let e = rf.predict_energy(
        &node,
        &power,
        LoadLayout::FullLoad,
        p,
        &per_rank,
        comm_s,
        bytes_total,
    );
    let wall_ratio = pred_wall_s / m.duration_s;
    let energy_ratio = e.total_j / m.total_energy_j;
    let check = ModelCheck {
        solver: cfg.solver.label().to_string(),
        n: cfg.n,
        iterations: iters,
        pred_wall_s,
        meas_wall_s: m.duration_s,
        wall_ratio,
        pred_iter_wall_s: pred_wall_s / iters as f64,
        meas_iter_wall_s: m.duration_s / iters as f64,
        pred_energy_j: e.total_j,
        meas_energy_j: m.total_energy_j,
        energy_ratio,
        compute_bound: pred.compute_bound,
        gbps: bytes_total / m.duration_s / 1e9,
        within_band: within_band(wall_ratio) && within_band(energy_ratio),
    };
    (check, costs.iter().map(|c| c.flops as f64).sum())
}

/// Render the report as the terminal table `repro --exp sparse` prints.
pub fn table(report: &SparseReport) -> crate::output::Table {
    let fmt = |v: f64| format!("{v:.4}");
    crate::output::Table {
        id: "sparse".into(),
        title: "E-SP — dense vs sparse on the same Poisson system (energy inversion)".into(),
        headers: ["solver", "n", "time [s]", "energy [J]", "GFLOP/s", "iters"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: report
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.solver.clone(),
                    pt.n.to_string(),
                    fmt(pt.duration_s),
                    fmt(pt.energy_j),
                    fmt(pt.gflops),
                    pt.iterations.map_or("-".into(), |i| i.to_string()),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_check_is_symmetric_in_the_ratio() {
        assert!(within_band(1.0));
        assert!(within_band(1.29) && within_band(1.0 / 1.29));
        assert!(!within_band(1.31) && !within_band(1.0 / 1.31));
        assert!(!within_band(f64::NAN));
    }

    #[test]
    fn smoke_grid_dims_are_perfect_squares_on_one_node() {
        for grid in [SparseGrid::default(), SparseGrid::smoke()] {
            let node = NodeSpec::test_node(grid.cores_per_socket);
            assert_eq!(node.cores(), grid.ranks, "one full node exactly");
            for &n in &grid.dims {
                let k = (n as f64).sqrt().round() as usize;
                assert_eq!(k * k, n, "{n} is not a perfect square");
            }
        }
    }
}
