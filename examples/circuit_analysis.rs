//! Circuit analysis with the Inhibition Method — the problem class IMe was
//! invented for (Ciampolini, *L'Elettrotecnica* 1963): nodal analysis of a
//! resistive network, solved by the method's hierarchy of elementary
//! sub-systems.
//!
//! Builds a random resistor network's nodal conductance matrix `G`, applies
//! a current-injection vector, and solves `G·v = i` for the node voltages —
//! sequentially, in parallel, and via LU as a cross-check.
//!
//! ```text
//! cargo run --release --example circuit_analysis
//! ```

use greenla::cluster::placement::Placement;
use greenla::cluster::spec::ClusterSpec;
use greenla::cluster::PowerModel;
use greenla::ime::{solve_imep, solve_seq, ImepOptions};
use greenla::linalg::{generate, norms};
use greenla::mpi::Machine;
use greenla::scalapack::getrs::gesv;

fn main() {
    let nodes = 200; // circuit nodes (unknown voltages)
    println!("nodal analysis of a {nodes}-node resistor network\n");

    // Conductance matrix: symmetric, diagonally dominant — IMe's home turf,
    // no pivoting needed.
    let mut sys = generate::circuit_network(nodes, 99);
    // Inject 1 A at node 0, extract at the last node.
    sys.b = vec![0.0; nodes];
    sys.b[0] = 1.0;
    sys.b[nodes - 1] = -1.0;
    sys.x_ref = None;

    // Sequential IMe.
    let (v_seq, stats) = solve_seq(&sys).expect("sequential IMe");
    println!(
        "sequential IMe : {} levels, {:.2e} flops, residual {:.2e}",
        stats.levels,
        stats.flops as f64,
        sys.residual(&v_seq)
    );

    // Parallel IMeP on a simulated 2-node cluster.
    let spec = ClusterSpec::test_cluster(2, 4);
    let placement = Placement::packed(&spec.node, 8).unwrap();
    let power = PowerModel::scaled_for(&spec.node);
    let machine = Machine::new(spec, placement, power, 3).unwrap();
    let out = machine.run(|ctx| {
        let world = ctx.world();
        solve_imep(ctx, &world, &sys, ImepOptions::paper()).expect("IMeP")
    });
    let v_par = &out.results[0];
    println!(
        "parallel IMeP  : 8 ranks, {:.1} µs virtual, residual {:.2e}",
        out.makespan * 1e6,
        sys.residual(v_par)
    );

    // LU cross-check.
    let v_lu = gesv(&sys.a, &sys.b, 32).expect("LU");
    let max_diff = v_seq
        .iter()
        .zip(&v_lu)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    println!("LU cross-check : max |v_IMe − v_LU| = {max_diff:.2e}");

    // Physics sanity: voltage drops monotonically along the injection path
    // direction (node 0 is the source, the last node the sink).
    let v0 = v_seq[0];
    let vn = v_seq[nodes - 1];
    println!(
        "\nvoltages: source {v0:.4} V, sink {vn:.4} V (drop {:.4} V)",
        v0 - vn
    );
    assert!(v0 > vn, "current must flow downhill");
    // Total injected power = i·v (dissipated in the resistors).
    let p: f64 = sys.b.iter().zip(&v_seq).map(|(i, v)| i * v).sum();
    println!("dissipated power: {p:.4} W (must be positive)");
    assert!(p > 0.0);
    println!(
        "\nKirchhoff checks out: residual {:.2e}",
        norms::scaled_residual(&sys.a, &v_seq, &sys.b)
    );
}
