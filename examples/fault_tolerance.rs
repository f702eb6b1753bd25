//! Fault tolerance demo: IMe's checksum-based in-band recovery — the
//! capability the paper cites as IMe's key advantage over the
//! checkpoint/restart that Gaussian elimination needs (Artioli, Loreti &
//! Ciampolini, SRDS 2019).
//!
//! Each scenario is a fault plan on the machine: a rank loses one of its
//! inhibition-table columns mid-solve, the survivors reconstruct it from
//! the running checksum column and the job completes with the same answer.
//! The first row's plan schedules no loss, so it is the unprotected program
//! — the gap to the rows below is the price of protection plus one recovery.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use greenla::cluster::placement::Placement;
use greenla::cluster::spec::ClusterSpec;
use greenla::cluster::PowerModel;
use greenla::ime::{solve_imep, solve_seq, ImepOptions};
use greenla::linalg::generate;
use greenla::mpi::{ColumnLoss, FaultPlan, FaultSink, Machine};

fn main() {
    let n = 240;
    let ranks = 8;
    let sys = generate::diag_dominant(n, 17);
    let (x_ref, _) = solve_seq(&sys).expect("reference solve");
    println!("IMe fault-tolerance demo: n={n}, {ranks} ranks\n");

    let loss = |level, column| Some(ColumnLoss { level, column });
    let scenarios = [
        ("no fault, unprotected", None),
        ("early loss of a right column", loss(n - 2, n + 7)),
        ("mid-solve loss of a left column", loss(n / 2, 3)),
        ("late loss near the end", loss(2, n + 1)),
        ("loss of a master-owned column", loss(n / 3, 0)),
    ];

    for (label, column_loss) in scenarios {
        let spec = ClusterSpec::test_cluster(2, 4);
        let placement = Placement::packed(&spec.node, ranks).unwrap();
        let power = PowerModel::scaled_for(&spec.node);
        let sink = FaultSink::with_plan(FaultPlan {
            column_loss,
            ..FaultPlan::default()
        });
        let machine = Machine::new(spec, placement, power, 23)
            .unwrap()
            .with_faults(sink.clone());
        let out = machine.run(|ctx| {
            let world = ctx.world();
            solve_imep(ctx, &world, &sys, ImepOptions::optimized()).expect("IMeP solve")
        });
        let x = &out.results[0];
        let err = x
            .iter()
            .zip(&x_ref)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        println!(
            "{label:<34} residual {:.2e}   max|x − x_ref| {err:.2e}   time {:.1} µs",
            sys.residual(x),
            out.makespan * 1e6
        );
        assert!(sys.residual(x) < 1e-9, "recovery must preserve exactness");
        let recovered = sink.report().recovered.column_loss;
        assert_eq!(recovered, column_loss.is_some() as u64, "{label}");
    }

    println!(
        "\nEvery faulty run recovered in-band: the per-level update is a row \
         operation, so a checksum column maintained with the same formula \
         always equals the sum of all columns — one extra column of \
         arithmetic instead of a checkpoint/restart cycle."
    );
}
