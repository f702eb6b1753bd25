//! The virtual-clock canary: 27 fixed configurations — three monitored
//! solves, eighteen bare collectives and six rank-engine workouts — each
//! run once and held to its recorded makespan bit for bit. The simulated
//! clock is deterministic and identical under every `GREENLA_KERNEL` path
//! and on both rank carriers, so any drift is a change of algorithm or
//! cost model; a PR that moves one on purpose updates exactly those rows
//! and says so.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_harness::{run_once, RunConfig, SolverChoice};
use greenla_linalg::generate::SystemKind;
use greenla_mpi::{Machine, RankCtx, SchedulerKind};

#[derive(Clone, Copy)]
enum Op {
    Bcast,
    Allreduce,
    /// `elems` is the combined payload, what the solvers see.
    Allgather,
}

enum Workload {
    /// A monitored solve through `run_once` on 16 fully loaded ranks.
    Solve(SolverChoice, SystemKind, usize),
    /// One collective moving `elems` f64s over `p` ranks.
    Coll(Op, usize, usize),
    /// `p` ranks on one carrier running `count` back-to-back barriers.
    Barriers(SchedulerKind, usize, usize),
}

fn machine(ranks: usize, seed: u64) -> Machine {
    let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), seed).unwrap()
}

fn virtual_s(w: &Workload) -> f64 {
    match *w {
        Workload::Solve(solver, system, n) => {
            run_once(&RunConfig {
                n,
                ranks: 16,
                layout: LoadLayout::FullLoad,
                solver,
                system,
                cores_per_socket: 8,
                seed: 42,
                check: false,
                faults: None,
                scheduler: Default::default(),
                batch: 1,
                cg_overlap: true,
            })
            .duration_s
        }
        Workload::Coll(op, elems, p) => {
            let body = move |ctx: &mut RankCtx| {
                let world = ctx.world();
                match op {
                    Op::Bcast => {
                        let data = (ctx.rank() == 0).then(|| vec![1.0; elems]);
                        ctx.bcast_shared_f64(&world, 0, data);
                    }
                    Op::Allreduce => {
                        ctx.allreduce_sum_owned_f64(&world, vec![1.0; elems]);
                    }
                    Op::Allgather => {
                        ctx.allgather_f64(&world, &vec![ctx.rank() as f64; elems / p]);
                    }
                }
            };
            machine(p, 13).run(body).makespan
        }
        Workload::Barriers(kind, p, count) => {
            machine(p, 17)
                .with_scheduler(kind)
                .with_sched_workers(2)
                .run(|ctx| {
                    let world = ctx.world();
                    for _ in 0..count {
                        ctx.barrier(&world);
                    }
                })
                .makespan
        }
    }
}

/// One row per configuration: its name, what it runs, and the makespan
/// recorded for it (a decimal literal that parses back to the exact bits).
#[rustfmt::skip]
fn rows() -> Vec<(&'static str, Workload, f64)> {
    use Op::*;
    use SystemKind::*;
    use Workload::*;
    let (thread, event) = (SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven);
    // Element counts for 1 KiB / 256 KiB / 8 MiB of f64s.
    let (kib1, kib256, mib8) = (128, 32 * 1024, 1024 * 1024);
    let ime = SolverChoice::ime_optimized();
    let (pdgesv, cg) = (SolverChoice::scalapack(), SolverChoice::cg());
    vec![
        ("ime_n192_p16",             Solve(ime, DiagDominant, 192),    0.001217),
        ("scalapack_n192_p16",       Solve(pdgesv, DiagDominant, 192), 0.001256),
        ("cg_n196_p16",              Solve(cg, Poisson2d, 196),        0.000615),
        ("bcast_1kib_p16",           Coll(Bcast, kib1, 16),       0.000004458719999999998),
        ("allreduce_1kib_p16",       Coll(Allreduce, kib1, 16),   0.00000445872),
        ("allgather_1kib_p16",       Coll(Allgather, kib1, 16),   0.000013531039999999997),
        ("bcast_256kib_p16",         Coll(Bcast, kib256, 16),     0.00004493232),
        ("allreduce_256kib_p16",     Coll(Allreduce, kib256, 16), 0.00003530592000000001),
        ("allgather_256kib_p16",     Coll(Allgather, kib256, 16), 0.000021446240000000018),
        ("bcast_8mib_p16",           Coll(Bcast, mib8, 16),       0.00130453424),
        ("allreduce_8mib_p16",       Coll(Allreduce, mib8, 16),   0.0008631894400000001),
        ("allgather_8mib_p16",       Coll(Allgather, mib8, 16),   0.0002677796800000001),
        ("bcast_1kib_p64",           Coll(Bcast, kib1, 64),       0.00000902256),
        ("allreduce_1kib_p64",       Coll(Allreduce, kib1, 64),   0.000009022559999999998),
        ("allgather_1kib_p64",       Coll(Allgather, kib1, 64),   0.00005613223999999999),
        ("bcast_256kib_p64",         Coll(Bcast, kib256, 64),     0.00009127536000000002),
        ("allreduce_256kib_p64",     Coll(Allreduce, kib256, 64), 0.00005553376000000001),
        ("allgather_256kib_p64",     Coll(Allgather, kib256, 64), 0.00006435344000000003),
        ("bcast_8mib_p64",           Coll(Bcast, mib8, 64),       0.002651111520000001),
        ("allreduce_8mib_p64",       Coll(Allreduce, mib8, 64),   0.00123768032),
        ("allgather_8mib_p64",       Coll(Allgather, mib8, 64),   0.00032021008000000047),
        ("spinup_thread_p1k",        Barriers(thread, 1_000, 1),  0.000018200000000000002),
        ("barrier_storm_thread_p1k", Barriers(thread, 1_000, 20), 0.0003640000000000001),
        ("spinup_event_p1k",         Barriers(event, 1_000, 1),   0.000018200000000000002),
        ("barrier_storm_event_p1k",  Barriers(event, 1_000, 20),  0.0003640000000000001),
        ("spinup_event_p10k",        Barriers(event, 10_000, 1),  0.0000254),
        ("barrier_storm_event_p10k", Barriers(event, 10_000, 20), 0.0005080000000000002),
    ]
}

#[test]
fn every_recorded_makespan_reproduces_bit_for_bit() {
    let rows = rows();
    assert_eq!(rows.len(), 27);
    let mut drifted = Vec::new();
    for (id, workload, want) in &rows {
        if let Workload::Barriers(kind, ..) = workload {
            if !kind.supported() {
                println!("{id}: skipped, no {kind} carrier on this platform");
                continue;
            }
        }
        let got = virtual_s(workload);
        if got.to_bits() != want.to_bits() {
            drifted.push(format!("{id}: recorded {want:e}, now {got:e}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "virtual clock drifted:\n{}",
        drifted.join("\n")
    );
}
