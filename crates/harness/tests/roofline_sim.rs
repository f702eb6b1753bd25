//! Roofline vs the simulated RAPL: on a compute-dominated campaign run the
//! spec-derived roofline (whose class rates collapse to the simulator's
//! sustained per-core flop rate) must reproduce the measured makespan and
//! the RAPL-integrated energy within the same ±30% band the host-side
//! validation uses. The run is fully deterministic — virtual time and the
//! power integrals never depend on the wall clock — so this is a tight
//! regression net over the model/simulator contract, not a tolerance for
//! noise.

use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::{Interconnect, PowerModel};
use greenla_harness::bench::retry::within_band;
use greenla_harness::roofline::REL_TOL;
use greenla_harness::run::{run_once, RunConfig};
use greenla_harness::SolverChoice;
use greenla_ime::formulas;
use greenla_linalg::generate::SystemKind;
use greenla_model::roofline::{KernelProfile, Roofline};

fn within(pred: f64, measured: f64) -> bool {
    within_band(pred / measured, REL_TOL)
}

#[test]
fn roofline_matches_simulated_rapl_on_compute_dominated_run() {
    // Two ranks on one node: big enough that IMe's ~3/2·n³ flops dwarf the
    // α/β message costs, small enough that the real numerics stay cheap in
    // a debug test run.
    let (n, ranks, cps) = (384, 2, 1);
    let cfg = RunConfig {
        n,
        ranks,
        layout: LoadLayout::FullLoad,
        solver: SolverChoice::Ime {
            collect_last_rows: false,
            centralized_h: false,
            pipelined_bcast: false,
        },
        system: SystemKind::DiagDominant,
        cores_per_socket: cps,
        seed: 42,
        check: false,
        faults: None,
        scheduler: Default::default(),
        batch: 1,
        cg_overlap: true,
    };
    let m = run_once(&cfg);
    assert_eq!(m.nodes, 1);

    let node = NodeSpec::test_node(cps);
    let spec = ClusterSpec {
        node: node.clone(),
        nodes: m.nodes,
        net: Interconnect::omni_path(),
    };
    let rf = Roofline::from_spec(&spec);

    // Per-rank work: this implementation's IMe flop model (2n³ + O(n²) —
    // 4/3× the paper's 3/2·n³, see greenla_ime::formulas), split evenly.
    // The roofline only ever sees the closed form, never the run.
    let per_rank = KernelProfile::simd(formulas::flops_ime_ours(n) as f64 / ranks as f64, 0.0);
    let pred = rf.predict(&per_rank);
    assert!(
        within(pred.time_s, m.duration_s),
        "predicted makespan {:.4}s vs simulated {:.4}s (ratio {:.3}) — run is \
         not compute-dominated enough or the rate model drifted",
        pred.time_s,
        m.duration_s,
        pred.time_s / m.duration_s,
    );

    // Energy through the same coefficients the simulated RAPL integrates.
    // comm_s = 0 and bytes_total = 0: the roofline models the compute-only
    // picture, and the tolerance covers what the real choreography adds.
    let power = PowerModel::scaled_for(&node);
    let e = rf.predict_energy(&node, &power, cfg.layout, ranks, &per_rank, 0.0, 0.0);
    assert!(
        within(e.total_j, m.total_energy_j),
        "predicted energy {:.3} J vs simulated RAPL {:.3} J (ratio {:.3})",
        e.total_j,
        m.total_energy_j,
        e.total_j / m.total_energy_j,
    );
    assert!(
        within(e.pkg_j, m.pkg_energy_j),
        "predicted pkg {:.3} J vs simulated {:.3} J",
        e.pkg_j,
        m.pkg_energy_j,
    );
}
