//! The rank-scheduling engine must be invisible in virtual time.
//!
//! Wall-clock scheduling varies along two axes: what carries a rank
//! (`SchedulerKind::EventDriven` multiplexes every rank as a fiber over a
//! small worker pool of any size; `ThreadPerRank` gives it an OS thread),
//! and whether the checker rides along. None of that may leak into the
//! simulation: fixed-seed campaigns must produce byte-identical
//! [`Measurement`]s run over run, checked and unchecked runs must agree
//! bit for bit, both carriers must agree bit for bit — including under
//! active fault plans — and the observers must see the exact same event
//! stream. This file is the executable form of the scheduler-invariance
//! contract documented in ARCHITECTURE.md §10.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::chrome_trace::traced_solve;
use greenla_harness::run::{run_once, run_prepared, Inputs, Measurement, RunConfig};
use greenla_harness::SolverChoice;
use greenla_linalg::generate::SystemKind;
use greenla_monitor::report::NodeReport;
use greenla_mpi::{EventKind, SchedulerKind, TraceEvent, TraceSink};

mod common;
use common::trace_fingerprint;

fn cfg(solver: SolverChoice, check: bool) -> RunConfig {
    // CG needs a symmetric positive definite operator; the dense solvers
    // keep the unsymmetric diagonally-dominant draw they have always used.
    let system = match solver {
        SolverChoice::Cg { .. } => SystemKind::Spd,
        _ => SystemKind::DiagDominant,
    };
    RunConfig {
        n: 96,
        ranks: 16,
        layout: LoadLayout::FullLoad,
        solver,
        system,
        cores_per_socket: 4,
        seed: 11,
        check,
        faults: None,
        scheduler: SchedulerKind::ThreadPerRank,
        batch: 1,
        cg_overlap: true,
    }
}

/// Every way this target can carry ranks, as `(kind, pinned fiber
/// workers)`: OS threads always; fibers — where the build has them — on
/// a 1-, 2- and 8-worker pool.
fn carriers() -> Vec<(SchedulerKind, Option<usize>)> {
    let mut all = vec![(SchedulerKind::ThreadPerRank, None)];
    if SchedulerKind::EventDriven.supported() {
        all.extend([1, 2, 8].map(|w| (SchedulerKind::EventDriven, Some(w))));
    }
    all
}

/// Bit-level equality of everything a campaign records.
fn assert_bit_identical(a: &Measurement, b: &Measurement, what: &str) {
    let bits = |m: &Measurement| {
        let mut v = vec![
            m.duration_s.to_bits(),
            m.total_energy_j.to_bits(),
            m.pkg_energy_j.to_bits(),
            m.dram_energy_j.to_bits(),
            m.mean_power_w.to_bits(),
            m.residual.to_bits(),
            m.msgs,
            m.volume_elems,
            m.nodes as u64,
        ];
        v.extend(m.pkg_by_socket_j.iter().map(|x| x.to_bits()));
        v.extend(m.dram_by_socket_j.iter().map(|x| x.to_bits()));
        // Iterative-solver counters (None on direct solves): CG iteration
        // and refresh counts are part of the determinism contract too.
        v.push(m.iterations.unwrap_or(u64::MAX));
        v.push(m.refreshes.unwrap_or(u64::MAX));
        v
    };
    assert_eq!(
        bits(a),
        bits(b),
        "{what}: measurements must be bit-identical"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    for solver in [
        SolverChoice::ime_optimized(),
        SolverChoice::scalapack(),
        SolverChoice::cg(),
        SolverChoice::cg_jacobi(),
    ] {
        let first = run_once(&cfg(solver, false));
        let second = run_once(&cfg(solver, false));
        assert_bit_identical(&first, &second, "repeat, unchecked");
    }
}

#[test]
fn energy_read_at_a_barrier_release_is_wake_order_free() {
    // The monitor reads its counters at the release of a node barrier.
    // Every member's wait up to that instant must be in the ledger by
    // then, however the host wakes the members; this point read 1.850768 J
    // or 1.850770 J depending on wake order while each member recorded its
    // own wait after waking. Release builds (CI's `scale` job) run that
    // size; debug builds a smaller one over the same 32 ranks.
    let (n, reps) = if cfg!(debug_assertions) {
        (96, 5)
    } else {
        (480, 20)
    };
    let cfg = RunConfig {
        n,
        ranks: 32,
        layout: LoadLayout::HalfTwoSockets,
        seed: 2024,
        ..cfg(SolverChoice::scalapack(), false)
    };
    let inputs = Inputs::prepare(&cfg);
    let mut first: Option<Measurement> = None;
    for scheduler in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
        if !scheduler.supported() {
            continue;
        }
        let cfg = RunConfig {
            scheduler,
            ..cfg.clone()
        };
        for rep in 0..reps {
            let m = run_prepared(&cfg, &inputs, TraceSink::disabled())
                .expect("clean run")
                .measurement;
            match &first {
                None => first = Some(m),
                Some(first) => assert_bit_identical(first, &m, &format!("{scheduler} run {rep}")),
            }
        }
    }
}

#[test]
fn phase_reads_are_wake_order_free() {
    // `Measurement` keeps only the monitored window's totals; this holds
    // every node's per-phase counter deltas (the reports `run_prepared`
    // aggregates), each read at the release of a node barrier, bit-equal
    // across repeated runs on both carriers. Release builds (CI's `scale`
    // job) run the size that drifted; debug builds a smaller one.
    let (n, reps) = if cfg!(debug_assertions) {
        (96, 5)
    } else {
        (480, 20)
    };
    for solver in [
        SolverChoice::ime_optimized(),
        SolverChoice::scalapack(),
        SolverChoice::cg(),
    ] {
        let cfg = RunConfig {
            n,
            ranks: 32,
            layout: LoadLayout::HalfTwoSockets,
            seed: 2024,
            ..cfg(solver, false)
        };
        let inputs = Inputs::prepare(&cfg);
        let mut first: Option<Vec<NodeReport>> = None;
        for scheduler in [SchedulerKind::ThreadPerRank, SchedulerKind::EventDriven] {
            if !scheduler.supported() {
                continue;
            }
            let cfg = RunConfig {
                scheduler,
                ..cfg.clone()
            };
            for rep in 0..reps {
                let got = run_prepared(&cfg, &inputs, TraceSink::disabled())
                    .expect("clean run")
                    .reports;
                match &first {
                    None => {
                        assert!(
                            got.len() > 1 && got.iter().all(|r| r.phases.len() >= 2),
                            "{solver:?}: every node reports both phases"
                        );
                        first = Some(got);
                    }
                    Some(first) => {
                        for (a, b) in first.iter().zip(&got) {
                            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                                assert_eq!(
                                    (&pa.values_uj, pa.duration_s.to_bits()),
                                    (&pb.values_uj, pb.duration_s.to_bits()),
                                    "{solver:?}, {scheduler} run {rep}: node {} phase {}",
                                    a.node,
                                    pa.label
                                );
                            }
                        }
                        assert_eq!(first, &got, "{solver:?}, {scheduler} run {rep}");
                    }
                }
            }
        }
    }
}

#[test]
fn checked_and_unchecked_runs_agree() {
    // The checker only observes: every hook it adds on the blocking and
    // messaging paths must leave the virtual timeline untouched. CG rides
    // along: its halo exchange is point-to-point-heavy where the dense
    // solvers are broadcast-heavy, so it stresses a different wait
    // pattern.
    for solver in [SolverChoice::ime_optimized(), SolverChoice::cg()] {
        let checked = run_once(&cfg(solver, true));
        let unchecked = run_once(&cfg(solver, false));
        assert!(checked.violations.is_empty(), "{:#?}", checked.violations);
        assert_bit_identical(&checked, &unchecked, "checked vs unchecked");
    }
}

#[test]
fn overlapped_and_blocking_cg_agree_on_everything_but_the_clock() {
    // Halo/compute overlap is a *virtual-time* optimisation: it reorders
    // wall work but never arithmetic, so the solution, the iteration and
    // refresh counts, and the traffic ledger must be bit-identical to the
    // blocking exchange — only durations (and hence energies) may move,
    // and only downward.
    for solver in [SolverChoice::cg(), SolverChoice::cg_jacobi()] {
        let over = run_once(&cfg(solver, false));
        let block = run_once(&RunConfig {
            cg_overlap: false,
            ..cfg(solver, false)
        });
        assert_eq!(over.residual.to_bits(), block.residual.to_bits());
        assert_eq!(over.iterations, block.iterations, "iteration counts");
        assert_eq!(over.refreshes, block.refreshes, "refresh counts");
        assert_eq!(over.msgs, block.msgs, "message counts");
        assert_eq!(over.volume_elems, block.volume_elems, "traffic volume");
        assert!(
            over.duration_s <= block.duration_s,
            "overlap may only shrink the virtual window: {} vs {}",
            over.duration_s,
            block.duration_s
        );
        // And the overlapped path repeats bit-identically like every run.
        assert_bit_identical(&over, &run_once(&cfg(solver, false)), "overlapped repeat");
    }
}

#[test]
fn trace_event_stream_is_identical_across_runs() {
    let first = traced_solve(&cfg(SolverChoice::ime_optimized(), false));
    let second = traced_solve(&cfg(SolverChoice::ime_optimized(), false));
    assert_eq!(first.event_count, second.event_count);
    assert!(first.event_count > 0, "traced run must record events");
    assert_eq!(
        first.makespan_s.to_bits(),
        second.makespan_s.to_bits(),
        "virtual makespan must not depend on wall-clock scheduling"
    );
    let text = |r: &greenla_harness::chrome_trace::TracedSolve| {
        serde_json::to_string(&r.trace).expect("serialise trace")
    };
    assert_eq!(
        text(&first),
        text(&second),
        "observers must see an unchanged event stream"
    );
}

/// A recoverable plan exercising every fault family that completes: message
/// drop (within the retry budget), duplicate, delay, a counter glitch and a
/// monitoring-rank death (degrading one node), plus an IMe column loss.
fn recoverable_plan() -> greenla_mpi::FaultPlan {
    use greenla_mpi::{
        ColumnLoss, CounterFault, CounterFaultKind, FaultPlan, MsgFault, MsgFaultKind,
    };
    FaultPlan {
        seed: 7,
        messages: vec![
            MsgFault {
                src: 1,
                nth_send: 2,
                kind: MsgFaultKind::Drop { count: 2 },
            },
            MsgFault {
                src: 3,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
            MsgFault {
                src: 5,
                nth_send: 4,
                kind: MsgFaultKind::Delay { extra_s: 2.5e-4 },
            },
        ],
        crashes: vec![],
        // On the degraded node: its session never starts, so the glitch
        // stays unobserved — the disabled-read path must stay deterministic.
        counters: vec![CounterFault {
            node: 1,
            socket: 0,
            from_s: 1e-5,
            kind: CounterFaultKind::Glitch,
        }],
        monitor_deaths: vec![1],
        column_loss: Some(ColumnLoss {
            level: 9,
            column: 30,
        }),
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_schedulers() {
    // Identical seed + plan ⇒ bit-identical virtual timings and identical
    // FaultReports with the checker attached or not.
    let faulted = |check: bool| RunConfig {
        faults: Some(recoverable_plan()),
        ..cfg(SolverChoice::ime_optimized(), check)
    };
    let checked = run_once(&faulted(true));
    let parked = run_once(&faulted(false));
    assert_bit_identical(&checked, &parked, "faulted checked vs unchecked");
    let (pr, kr) = (
        checked.fault_report.clone().expect("faulted run reports"),
        parked.fault_report.clone().expect("faulted run reports"),
    );
    assert_eq!(pr, kr, "fault accounting must not depend on the scheduler");
    assert!(pr.injected.total() > 0, "the plan actually fired: {pr:?}");
    assert_eq!(pr.injected.msg_drop, 2);
    assert_eq!(pr.recovered.msg_drop, 2, "drops within budget recover");
    assert_eq!(pr.injected.monitor, 1);
    assert_eq!(pr.degraded_nodes, vec![1], "node 1 runs unmeasured");
    assert_eq!(pr.injected.column_loss, 1);
    assert_eq!(pr.recovered.column_loss, 1);
    // And the repeat is bit-identical too.
    let again = run_once(&faulted(false));
    assert_bit_identical(&parked, &again, "faulted repeat");
    assert_eq!(again.fault_report.unwrap(), kr);
}

#[test]
fn collectives_straddling_the_size_switch_are_scheduler_invariant() {
    // The allreduce/allgather families switch algorithms at 512 B
    // (64 f64 elements), the allreduce again at 128 KiB. Drive both sides
    // of each switch — one element below, at, and above — under an active
    // fault plan, checked and unchecked, on every carrier: virtual clocks,
    // traffic and every rank's numerical results must be bit-identical,
    // and the lockstep checker must see matching collective signatures on
    // every path.
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::coll::COLL_LARGE_BYTES;
    use greenla_mpi::{CheckSink, FaultPlan, FaultSink, Machine, MsgFault, MsgFaultKind};

    let plan = || FaultPlan {
        seed: 3,
        messages: vec![
            MsgFault {
                src: 2,
                nth_send: 1,
                kind: MsgFaultKind::Drop { count: 1 },
            },
            MsgFault {
                src: 7,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
            MsgFault {
                src: 4,
                nth_send: 2,
                kind: MsgFaultKind::Delay { extra_s: 1.0e-4 },
            },
        ],
        ..FaultPlan::default()
    };
    let run = |check: bool, (kind, workers): (SchedulerKind, Option<usize>)| {
        let spec = ClusterSpec::test_cluster(2, 4);
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 23)
            .unwrap()
            .with_scheduler(kind)
            .with_faults(FaultSink::with_plan(plan()));
        if let Some(workers) = workers {
            m = m.with_sched_workers(workers);
        }
        if check {
            m = m.with_check(CheckSink::enabled());
        }
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mut acc: Vec<Vec<f64>> = Vec::new();
            // 63/64 elems take the tree pair, 65 up to one below the
            // large threshold recursive doubling, the rest
            // reduce-scatter + allgather (one of them in uneven halves).
            let large = (COLL_LARGE_BYTES / 8) as usize;
            for elems in [63usize, 64, 65, large - 1, large, large + 1] {
                let mine = vec![ctx.rank() as f64 + elems as f64; elems];
                acc.push(ctx.allreduce_sum_f64(&world, &mine));
            }
            // And the ring allgather, which takes every size.
            for per in [4usize, 5] {
                let mine = vec![ctx.rank() as f64; per];
                let all = ctx.allgather_f64(&world, &mine);
                acc.push(all.iter().flat_map(|c| c.iter().copied()).collect());
            }
            acc
        });
        let violations = m.check().violations();
        assert!(violations.is_empty(), "checked={check}: {violations:#?}");
        out
    };
    // The reference: unchecked, on OS threads.
    let parked = run(false, (SchedulerKind::ThreadPerRank, None));
    for carrier in carriers() {
        for check in [true, false] {
            let what = format!("{carrier:?} checked={check}");
            let out = run(check, carrier);
            assert_eq!(
                out.makespan.to_bits(),
                parked.makespan.to_bits(),
                "{what}: virtual makespan must not depend on the scheduler"
            );
            for (r, (a, b)) in out
                .final_clocks
                .iter()
                .zip(&parked.final_clocks)
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: rank {r} final clock");
            }
            assert_eq!(out.traffic, parked.traffic, "{what}: traffic tallies");
            assert_eq!(out.results, parked.results, "{what}: numerical results");
        }
    }
    // Results are equal across ranks too: recursive doubling applies the
    // commutative combiner over one shared pairing tree and the
    // reduce-scatter reduces each element on one rank, so every rank must
    // produce the same bits.
    for (r, res) in parked.results.iter().enumerate() {
        assert_eq!(res, &parked.results[0], "rank {r} result divergence");
    }
}

#[test]
fn faulted_trace_streams_are_identical_and_carry_fault_instants() {
    let faulted = RunConfig {
        faults: Some(recoverable_plan()),
        ..cfg(SolverChoice::ime_optimized(), false)
    };
    let first = traced_solve(&faulted);
    let second = traced_solve(&faulted);
    assert!(first.measurement.fault_report.is_some());
    assert_eq!(
        first.measurement.fault_report, second.measurement.fault_report,
        "identical FaultReports run over run"
    );
    assert_eq!(
        first.makespan_s.to_bits(),
        second.makespan_s.to_bits(),
        "faulted virtual makespan is deterministic"
    );
    let text = serde_json::to_string(&first.trace).expect("serialise trace");
    assert_eq!(
        text,
        serde_json::to_string(&second.trace).expect("serialise trace"),
        "faulted event streams must be identical"
    );
    assert!(
        text.contains("fault:"),
        "the trace records the injection instants"
    );
    // The golden of `chrome_trace.rs`, for the stream that carries every
    // recoverable fault family's instants.
    assert_eq!(
        trace_fingerprint(&first),
        (21974, 0x4f89_bd76_403d_415b),
        "(events, FNV-1a of the compact JSON)"
    );
}

#[test]
fn listeners_hear_the_same_run_whoever_else_listens() {
    // Every combination of {trace, check, fault plan} on one datapoint.
    // The plan is harmless — one message delayed by zero seconds — so
    // arming it exercises injection, accounting and the `fault:delay`
    // instant without a reason to move a clock. What each listener
    // reports must not depend on which others are attached.
    use greenla_mpi::{FaultPlan, MsgFault, MsgFaultKind};
    let harmless = FaultPlan {
        messages: vec![MsgFault {
            src: 1,
            nth_send: 0,
            kind: MsgFaultKind::Delay { extra_s: 0.0 },
        }],
        ..FaultPlan::default()
    };
    let is_fault_instant =
        |e: &TraceEvent| e.kind == EventKind::Instant && e.name.starts_with("fault:");
    for solver in [SolverChoice::ime_optimized(), SolverChoice::cg()] {
        // Row `4·faulted + 2·traced + checked`.
        let rows: Vec<(String, Measurement, Vec<TraceEvent>)> = (0..8u8)
            .map(|row| {
                let (faulted, traced, checked) = (row & 4 != 0, row & 2 != 0, row & 1 != 0);
                let what = format!(
                    "{} faulted={faulted} traced={traced} checked={checked}",
                    solver.label()
                );
                let cfg = RunConfig {
                    faults: faulted.then(|| harmless.clone()),
                    ..cfg(solver, checked)
                };
                let sink = if traced {
                    TraceSink::enabled()
                } else {
                    TraceSink::disabled()
                };
                let m = run_prepared(&cfg, &Inputs::prepare(&cfg), sink.clone())
                    .unwrap_or_else(|abort| panic!("{what}: {abort}"))
                    .measurement;
                let stream = sink.drain();
                assert!(m.violations.is_empty(), "{what}: {:#?}", m.violations);
                assert_eq!(stream.is_empty(), !traced, "{what}: event stream");
                let delays = m.fault_report.as_ref().map(|r| {
                    assert!(r.degraded_nodes.is_empty(), "{what}: {r:?}");
                    assert_eq!(
                        (r.observed, r.recovered),
                        (r.injected, r.injected),
                        "{what}"
                    );
                    (r.injected.total(), r.injected.msg_delay)
                });
                assert_eq!(
                    delays,
                    faulted.then_some((1, 1)),
                    "{what}: fault accounting"
                );
                (what, m, stream)
            })
            .collect();
        // Same plan, any other listeners: one measurement, one stream.
        for same_plan in rows.chunks(4) {
            let (_, m0, _) = &same_plan[0];
            for (what, m, _) in &same_plan[1..] {
                assert_bit_identical(m0, m, what);
                assert_eq!(m0.fault_report, m.fault_report, "{what}");
            }
            let (what, _, checked_stream) = &same_plan[3];
            assert!(same_plan[2].2 == *checked_stream, "{what}: event stream");
        }
        let (clean_stream, armed_stream) = (&rows[2].2, &rows[6].2);
        let instants = armed_stream.iter().filter(|e| is_fault_instant(e)).count();
        assert_eq!(instants, 1, "{}: the plan's one instant", solver.label());
        // Armed or not, every solver runs one program (IMe arms its
        // checksum only for a planned column loss), so the two plans are
        // held to each other bit for bit, and event for event once the
        // plan's own instant is set aside.
        let what = format!("{}, armed vs clean", solver.label());
        assert_bit_identical(&rows[0].1, &rows[4].1, &what);
        let heard: Vec<&TraceEvent> = armed_stream
            .iter()
            .filter(|e| !is_fault_instant(e))
            .collect();
        assert!(
            heard == clean_stream.iter().collect::<Vec<_>>(),
            "{what}: a harmless plan must leave the rest of the stream alone"
        );
    }
}

// ---------------------------------------------------------------------------
// Cross-carrier invariance: OS threads (the reference) vs fibers. Fibers
// only exist on x86_64 Linux; elsewhere the fiber carrier refuses to start, so
// these cases are gated rather than silently vacuous.
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod cross_engine {
    use super::*;

    fn with_engine(mut c: RunConfig, kind: SchedulerKind) -> RunConfig {
        c.scheduler = kind;
        c
    }

    #[test]
    fn engines_agree_bit_for_bit_on_plain_runs() {
        for solver in [
            SolverChoice::ime_optimized(),
            SolverChoice::scalapack(),
            SolverChoice::cg(),
            SolverChoice::cg_jacobi(),
        ] {
            let threads = run_once(&cfg(solver, false));
            let fibers = run_once(&with_engine(cfg(solver, false), SchedulerKind::EventDriven));
            assert_bit_identical(&threads, &fibers, "thread vs event engine");
        }
    }

    #[test]
    fn engines_agree_under_checking_with_zero_violations() {
        // One protocol, one probe: the checker sees the same hooks in the
        // same virtual order whatever carries the ranks, so it must agree
        // on the timeline and on the (empty) findings.
        let threads = run_once(&cfg(SolverChoice::ime_optimized(), true));
        let fibers = run_once(&with_engine(
            cfg(SolverChoice::ime_optimized(), true),
            SchedulerKind::EventDriven,
        ));
        assert!(fibers.violations.is_empty(), "{:#?}", fibers.violations);
        assert_eq!(
            threads.violations.len(),
            fibers.violations.len(),
            "both engines must report the same diagnostics"
        );
        assert_bit_identical(&threads, &fibers, "checked, thread vs event");
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_engines() {
        // Fault injection shifts *virtual* arrival times and send counts,
        // never wall-clock waits, so the full plan must replay identically
        // on fibers: same measurements, same FaultReport, checked or not.
        let faulted = |check: bool, kind: SchedulerKind| {
            let mut c = cfg(SolverChoice::ime_optimized(), check);
            c.faults = Some(recoverable_plan());
            c.scheduler = kind;
            c
        };
        for check in [false, true] {
            let threads = run_once(&faulted(check, SchedulerKind::ThreadPerRank));
            let fibers = run_once(&faulted(check, SchedulerKind::EventDriven));
            assert_bit_identical(
                &threads,
                &fibers,
                &format!("faulted (check={check}), thread vs event"),
            );
            let (tr, fr) = (
                threads.fault_report.expect("faulted run reports"),
                fibers.fault_report.expect("faulted run reports"),
            );
            assert_eq!(tr, fr, "fault accounting must not depend on the engine");
            assert!(tr.injected.total() > 0, "the plan actually fired: {tr:?}");
        }
    }

    #[test]
    fn campaign_runs_survive_a_worker_count_sweep() {
        // The carrier — and on fibers the worker count — is pure
        // wall-clock capacity; run_once leaves the pool at the Machine
        // default, so vary both through the raw Machine to prove the
        // invariance holds there too.
        use greenla_cluster::placement::Placement;
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_mpi::Machine;

        let run = |(kind, workers): (SchedulerKind, Option<usize>)| {
            let spec = ClusterSpec::test_cluster(4, 4);
            let placement = Placement::layout(&spec.node, 32, LoadLayout::FullLoad).unwrap();
            let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 9)
                .unwrap()
                .with_scheduler(kind);
            if let Some(workers) = workers {
                m = m.with_sched_workers(workers);
            }
            m.run(|ctx| {
                let world = ctx.world();
                let r = ctx.allreduce_sum_f64(&world, &[ctx.rank() as f64]);
                ctx.barrier(&world);
                r[0].to_bits()
            })
        };
        let auto = run((SchedulerKind::EventDriven, None));
        for carrier in carriers() {
            let out = run(carrier);
            assert_eq!(
                auto.makespan.to_bits(),
                out.makespan.to_bits(),
                "carrier {carrier:?} leaked into virtual time"
            );
            assert_eq!(auto.results, out.results, "carrier {carrier:?}");
        }
    }
}
