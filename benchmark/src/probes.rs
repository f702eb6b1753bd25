//! Differential probes: small runs that isolate one layer's host cost by
//! subtracting a run without it (barrier-only run, monitored no-op, bare
//! solve, per-collective runs), plus kernel rates and the closed-form
//! cross-checks. No benchmark workload depends on them; they are the
//! per-layer numbers a change to one layer should move on its own.

use crate::exploded::{build_machine, cg_predicted_traffic, solve, Inputs};
use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{coll_machine, one_node_config, sparse_configs, Scale};
use greenla_cluster::ledger::Interval;
use greenla_cluster::spec::NodeSpec;
use greenla_cluster::{ActivityKind, CoreId, Ledger};
use greenla_harness::bench::retry::median_wall;
use greenla_harness::sparse::{self, SparseGrid};
use greenla_harness::{run_once, RunConfig, SolverChoice};
use greenla_ime::par::predict_traffic;
use greenla_linalg::blas3::{dgemm, dtrsm_left_lower_unit};
use greenla_linalg::generate::SystemKind;
use greenla_linalg::sparse::{laplace2d, CsrMatrix, SparseSystem};
use greenla_linalg::{flops, Matrix};
use greenla_model::comm::{allgather_ring_traffic, allreduce_rd_traffic, allreduce_tree_traffic};
use greenla_monitor::overhead::measure_overhead;
use greenla_monitor::{monitored_run, MonitorConfig};
use greenla_mpi::{
    CheckSink, FaultPlan, FaultSink, Machine, MsgFault, MsgFaultKind, RankCtx, SchedulerKind,
    TraceSink, TrafficSnapshot,
};
use greenla_rapl::{Domain, RaplSim};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn wall<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Median wall of `Machine::run` alone over `reps` fresh machines (the
/// ledger demands monotonic clocks, so a machine runs once); the last
/// run's traffic rides along for the closed-form checks.
fn run_wall(
    reps: usize,
    build: impl Fn() -> Machine,
    body: impl Fn(&mut RankCtx) + Sync,
) -> (f64, TrafficSnapshot) {
    let mut traffic = None;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let machine = build();
            let (w, out) = wall(|| machine.run(&body));
            traffic = Some(out.traffic);
            w
        })
        .collect();
    (median(&samples), traffic.expect("reps >= 1"))
}

/// One collective call on a running rank.
type RankOp = fn(&mut RankCtx);

/// `(messages, elements)` as the closed forms count them.
type Traffic = (u64, u64);

struct Probes<'a> {
    seed: u64,
    scale: Scale,
    rec: &'a mut Recorder,
    out: BTreeMap<String, f64>,
    traffic_mismatches: u64,
}

impl Probes<'_> {
    fn put(&mut self, name: &str, v: f64) {
        self.out.insert(name.to_string(), v);
    }

    fn expect_traffic(&mut self, got: TrafficSnapshot, want: Traffic) {
        self.traffic_mismatches += u64::from((got.msgs, got.volume_elems()) != want);
    }

    fn quick(&self) -> bool {
        self.scale == Scale::Quick
    }

    /// Kernel rates at the shapes the workloads drive them with.
    fn linalg(&mut self) {
        let q = self.quick();
        let fill = |rows: usize, cols: usize, salt: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17 + salt) % 13) as f64 / 13.0 - 0.4
            })
        };
        // pdgesv's nb=32 trailing update: tall-skinny times short-wide.
        let (m, k) = if q { (192, 32) } else { (1536, 32) };
        let (a, b, mut c) = (fill(m, k, 1), fill(k, m, 2), Matrix::zeros(m, m));
        let t = median_wall(5, || dgemm(1.0, a.block(), b.block(), 0.0, c.block_mut()));
        self.put(
            "linalg.dgemm_thin_gflops",
            flops::dgemm(m, m, k) as f64 / t / 1e9,
        );
        let n = if q { 128 } else { 768 };
        let (a, b, mut c) = (fill(n, n, 3), fill(n, n, 4), Matrix::zeros(n, n));
        let t = median_wall(3, || dgemm(1.0, a.block(), b.block(), 0.0, c.block_mut()));
        self.put(
            "linalg.dgemm_square_gflops",
            flops::dgemm(n, n, n) as f64 / t / 1e9,
        );
        let rhs = fill(n, n, 5);
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut x = rhs.clone();
                wall(|| dtrsm_left_lower_unit(n, n, a.as_slice(), n, x.as_mut_slice(), n)).0
            })
            .collect();
        self.put(
            "linalg.dtrsm_gflops",
            flops::dtrsm(n, n) as f64 / median(&samples) / 1e9,
        );
        black_box(&c);

        // The same SpMV kernel at large_n's block (bandwidth-bound) and at
        // sparse_batched's (call-overhead-bound).
        for (name, grid, rows, reps) in [
            (
                "linalg.spmv_block_ns_per_nnz",
                96,
                576,
                if q { 50 } else { 2000 },
            ),
            (
                "linalg.spmv_tiny_ns_per_nnz",
                18,
                21,
                if q { 500 } else { 50_000 },
            ),
        ] {
            let a: CsrMatrix = laplace2d(grid).a;
            let block = a.row_block(0, rows);
            let x = vec![1.0; a.n()];
            let mut y = vec![0.0; rows];
            let (t, _) = wall(|| {
                for _ in 0..reps {
                    block.spmv_block(black_box(&x), &mut y);
                }
            });
            black_box(&y);
            self.put(name, t * 1e9 / (reps * block.nnz()) as f64);
        }
    }

    /// Point-to-point, scalar allreduce, spin-up and teardown at the
    /// solver workloads' scale: 16 ranks on one 16-core node, 64 on eight.
    fn mpi_small(&mut self) {
        let seed = self.seed;
        let rounds = if self.quick() { 50 } else { 2000 };
        let node16 = move |kind: SchedulerKind| {
            move || {
                build_machine(&RunConfig {
                    scheduler: kind,
                    ..machine_config(16, 8, seed)
                })
            }
        };
        // CG's halo shape: every rank trades 8 elements with its neighbour.
        let exchange = move |k: usize| {
            move |ctx: &mut RankCtx| {
                let world = ctx.world();
                let (me, p) = (ctx.rank(), ctx.size());
                ctx.barrier(&world);
                for round in 0..k {
                    ctx.send_f64(&world, (me + 1) % p, round as u64, &[me as f64; 8]);
                    black_box(ctx.recv_f64(&world, (me + p - 1) % p, round as u64));
                }
            }
        };
        for (name, kind) in [
            ("mpi.p2p_ns_per_msg", SchedulerKind::default()),
            ("mpi.p2p_ns_per_msg.event", SchedulerKind::EventDriven),
        ] {
            let (base, _) = run_wall(3, node16(kind), exchange(0));
            let (full, _) = run_wall(3, node16(kind), exchange(rounds));
            self.put(name, (full - base) * 1e9 / (rounds * 16) as f64);
        }
        let allreduce = move |k: usize| {
            move |ctx: &mut RankCtx| {
                let world = ctx.world();
                ctx.barrier(&world);
                for _ in 0..k {
                    black_box(ctx.allreduce_sum_f64(&world, &[1.0]));
                }
            }
        };
        let k = rounds / 2;
        let (base, _) = run_wall(3, node16(SchedulerKind::default()), allreduce(0));
        let (full, traffic) = run_wall(3, node16(SchedulerKind::default()), allreduce(k));
        self.put("mpi.allreduce_scalar_us", (full - base) * 1e6 / k as f64);
        let (msgs, elems) = allreduce_tree_traffic(16, 1);
        self.expect_traffic(traffic, (msgs * k as u64, elems * k as u64));

        // Spin-up and teardown of one 64-rank run on the default engine:
        // every rank reports when its body ended, the run when it returned.
        let mut spinup = Vec::new();
        let mut teardown = Vec::new();
        for _ in 0..5 {
            let machine = coll_machine(64, seed, SchedulerKind::default());
            let t0 = Instant::now();
            let out = machine.run(|ctx| {
                let world = ctx.world();
                ctx.barrier(&world);
                Instant::now()
            });
            let t1 = Instant::now();
            let last = out.results.into_iter().max().expect("64 ranks");
            spinup.push((t1 - t0).as_secs_f64());
            teardown.push(t1.saturating_duration_since(last).as_secs_f64());
        }
        self.put("mpi.spinup_us_per_rank", median(&spinup) * 1e6 / 64.0);
        self.put("mpi.run_teardown_s", median(&teardown));
    }

    /// The event engine at scale: fiber spin-up and per-collective cost at
    /// P in the thousands, then the large-message arms at P=64.
    fn mpi_scale(&mut self) {
        let seed = self.seed;
        let (p, k) = if self.quick() { (256, 2) } else { (4096, 8) };
        let big = move || coll_machine(p, seed, SchedulerKind::EventDriven);
        let rounds = |k: usize, op: RankOp| {
            move |ctx: &mut RankCtx| {
                let world = ctx.world();
                ctx.barrier(&world);
                for _ in 0..k {
                    op(ctx);
                }
            }
        };
        let (base, _) = run_wall(3, big, rounds(0, |_| {}));
        self.put("mpi.spinup_us_per_rank.p4096", base * 1e6 / p as f64);
        let ops: [(&str, RankOp); 3] = [
            ("mpi.barrier_ns_per_rank.p4096", |ctx| {
                let world = ctx.world();
                ctx.barrier(&world);
            }),
            ("mpi.bcast_1kib_ns_per_rank.p4096", |ctx| {
                let world = ctx.world();
                let root = (ctx.rank() == 0).then(|| vec![1.0; 128]);
                black_box(ctx.bcast_shared_f64(&world, 0, root));
            }),
            ("mpi.allreduce_1kib_ns_per_rank.p4096", |ctx| {
                let world = ctx.world();
                black_box(ctx.allreduce_sum_owned_f64(&world, vec![1.0; 128]));
            }),
        ];
        for (name, op) in ops {
            let (full, _) = run_wall(3, big, rounds(k, op));
            self.put(name, (full - base) * 1e9 / (k * p) as f64);
        }

        let (p, elems) = if self.quick() {
            (16, 1 << 12)
        } else {
            (64, 1 << 20)
        };
        let mid = move || coll_machine(p, seed, SchedulerKind::EventDriven);
        let (base, _) = run_wall(3, mid, rounds(0, |_| {}));
        let pu = p as u64;
        self.large_collective(
            "mpi.bcast_8mib_p64_s",
            base,
            mid,
            (pu - 1, (pu - 1) * elems as u64),
            |ctx| {
                let world = ctx.world();
                ctx.barrier(&world);
                let root = (ctx.rank() == 0).then(|| vec![1.0; elems]);
                black_box(ctx.bcast_shared_f64(&world, 0, root));
            },
        );
        self.large_collective(
            "mpi.allreduce_8mib_p64_s",
            base,
            mid,
            allreduce_rd_traffic(p, elems as u64),
            |ctx| {
                let world = ctx.world();
                ctx.barrier(&world);
                black_box(ctx.allreduce_sum_owned_f64(&world, vec![1.0; elems]));
            },
        );
        self.large_collective(
            "mpi.allgather_8mib_p64_s",
            base,
            mid,
            allgather_ring_traffic(p, elems as u64),
            |ctx| {
                let world = ctx.world();
                ctx.barrier(&world);
                black_box(ctx.allgather_f64(&world, &vec![ctx.rank() as f64; elems / p]));
            },
        );
    }

    /// One large-message collective on a fresh machine: wall above the
    /// spin-up `base`, and its traffic against the closed form.
    fn large_collective(
        &mut self,
        name: &str,
        base: f64,
        build: impl Fn() -> Machine,
        want: Traffic,
        op: impl Fn(&mut RankCtx) + Sync,
    ) {
        let (full, traffic) = run_wall(1, build, op);
        self.put(name, (full - base).max(0.0));
        self.expect_traffic(traffic, want);
    }

    /// Thread ÷ event wall on `sparse_batched`'s CG point.
    fn engine_ratio(&mut self) {
        let cg = sparse_configs(self.seed, self.scale).remove(0);
        let on = |kind| {
            let cfg = RunConfig {
                scheduler: kind,
                ..cg.clone()
            };
            wall(|| black_box(run_once(&cfg))).0
        };
        let ratio = on(SchedulerKind::ThreadPerRank) / on(SchedulerKind::EventDriven);
        self.put("mpi.engine_ratio", ratio);
    }

    /// The monitor protocol's host cost (monitored no-op minus a barrier),
    /// its virtual overhead (the paper's E-O1), and the cost of one RAPL
    /// read and one ledger record.
    fn monitor_rapl_cluster(&mut self) {
        let seed = self.seed;
        for (name, ranks, cps) in [
            ("monitor.protocol_s.p16", 16, 8),
            ("monitor.protocol_s.p64", 64, 4),
        ] {
            let cfg = machine_config(ranks, cps, seed);
            let (base, _) = run_wall(
                5,
                || build_machine(&cfg),
                |ctx| {
                    let world = ctx.world();
                    ctx.barrier(&world);
                },
            );
            let mon_cfg = MonitorConfig::default();
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let machine = build_machine(&cfg);
                    let rapl = Arc::new(RaplSim::new(
                        machine.ledger(),
                        machine.power().clone(),
                        seed,
                    ));
                    wall(|| {
                        machine.run(|ctx| {
                            monitored_run(ctx, &rapl, &mon_cfg, |_, _| ())
                                .expect("monitoring protocol")
                                .report
                        })
                    })
                    .0
                })
                .collect();
            self.put(name, (median(&samples) - base).max(0.0));
        }
        let cfg = machine_config(16, 8, seed);
        let report = measure_overhead(
            || build_machine(&cfg),
            |ctx| ctx.compute(1_000_000 * (1 + ctx.rank() as u64), 0),
        );
        self.put("monitor.overhead_frac_virtual", report.overhead_fraction());

        // Reads against the ledger of a finished dense run.
        let cfg = sink_probe_config(seed, self.scale);
        let inputs = Inputs {
            dense: cfg.system.generate(cfg.n, 1),
            sparse: None,
        };
        let machine = build_machine(&cfg);
        let makespan = machine.run(|ctx| solve(ctx, &cfg, &inputs).0).makespan;
        let rapl = RaplSim::new(machine.ledger(), machine.power().clone(), seed);
        let reads = if self.quick() { 200 } else { 2000 };
        let (t, _) = wall(|| {
            for i in 0..reads {
                let at = makespan * (i + 1) as f64 / reads as f64;
                black_box(
                    rapl.energy_uj(0, 0, Domain::Package, at)
                        .expect("powercap read"),
                );
            }
        });
        self.put("rapl.read_ns", t * 1e9 / reads as f64);

        let records = if self.quick() { 10_000 } else { 200_000 };
        let ledger = Ledger::new(NodeSpec::test_node(4), 1);
        let core = CoreId::new(0, 0, 0);
        let (t, _) = wall(|| {
            for i in 0..records {
                let start = i as f64 * 1e-6;
                ledger.record(
                    core,
                    Interval {
                        start,
                        end: start + 5e-7,
                        kind: ActivityKind::Compute,
                        flops: 1000,
                    },
                );
            }
        });
        black_box(ledger.total_flops());
        self.put("cluster.ledger_record_ns", t * 1e9 / records as f64);
    }

    /// Simulator vs closed forms: the ±30 % bands of the sparse campaign's
    /// CG checks, and exact traffic of bare IMe and CG solves.
    fn model(&mut self) {
        let grid = SparseGrid {
            dims: vec![if self.quick() { 64 } else { 196 }],
            reps: 1,
            base_seed: self.seed,
            ..SparseGrid::default()
        };
        let (_, report) = sparse::campaign(&grid, |_| {});
        let dev = report
            .checks
            .iter()
            .flat_map(|c| [c.wall_ratio, c.energy_ratio])
            .map(|model_over_sim| (1.0 / model_over_sim - 1.0).abs())
            .fold(0.0, f64::max);
        self.put("model.max_band_dev", dev);

        let n = grid.dims[0];
        for solver in [SolverChoice::ime_optimized(), SolverChoice::cg()] {
            let cfg = one_node_config(n, 16, solver, SystemKind::Poisson2d, 1, self.seed);
            let dense = cfg.system.generate(cfg.n, 1);
            let sparse = SparseSystem {
                a: CsrMatrix::from_dense(&dense.a),
                b: dense.b.clone(),
                x_ref: dense.x_ref.clone().unwrap_or_default(),
            };
            let inputs = Inputs {
                dense,
                sparse: Some(sparse),
            };
            let out = build_machine(&cfg).run(|ctx| solve(ctx, &cfg, &inputs).1);
            let want = match out.results[0] {
                Some((iters, refreshes)) => {
                    let a = &inputs.sparse.as_ref().expect("built above").a;
                    cg_predicted_traffic(&cfg, a, iters, refreshes)
                }
                None => predict_traffic(n, cfg.ranks, solver.imep_options().expect("IMe")),
            };
            self.expect_traffic(out.traffic, want);
        }
    }

    /// The observer sinks' enabled paths against the disabled one, on a
    /// bare ScaLAPACK solve. Sinks are off in all four workloads; this is
    /// the before/after record for work on the enabled path.
    fn sinks(&mut self) {
        let cfg = sink_probe_config(self.seed, self.scale);
        let inputs = Inputs {
            dense: cfg.system.generate(cfg.n, 1),
            sparse: None,
        };
        let run = |machine: Machine| {
            let (w, _) = wall(|| machine.run(|ctx| black_box(solve(ctx, &cfg, &inputs).0.len())));
            (w, machine)
        };
        let timed = |arm: &dyn Fn(Machine) -> Machine| {
            let samples: Vec<f64> = (0..3).map(|_| run(arm(build_machine(&cfg))).0).collect();
            median(&samples)
        };
        let off = timed(&|m| m);
        let harmless = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: 0.0 },
            }],
            ..FaultPlan::default()
        };
        let arms: [(&str, &dyn Fn(Machine) -> Machine); 3] = [
            ("trace.overhead_frac", &|m| {
                m.with_trace(TraceSink::enabled())
            }),
            ("check.overhead_frac", &|m| {
                m.with_check(CheckSink::enabled())
            }),
            ("faults.overhead_frac", &|m| {
                m.with_faults(FaultSink::with_plan(harmless.clone()))
            }),
        ];
        for (name, arm) in arms {
            self.put(name, timed(arm) / off - 1.0);
        }
        let (_, traced) = run(build_machine(&cfg).with_trace(TraceSink::enabled()));
        self.put("trace.events", traced.trace().drain().len() as f64);
    }

    fn group(&mut self, span: &str, f: fn(&mut Self)) {
        let t0 = Instant::now();
        f(self);
        self.rec.push(span, t0, Instant::now(), None);
    }
}

/// The ScaLAPACK datapoint the sink and RAPL-read probes run: four (quick:
/// two) 8-core nodes.
fn sink_probe_config(seed: u64, scale: Scale) -> RunConfig {
    let (n, ranks) = match scale {
        Scale::Full => (480, 32),
        Scale::Quick => (96, 16),
    };
    RunConfig {
        n,
        solver: SolverChoice::scalapack(),
        system: SystemKind::DiagDominant,
        ..machine_config(ranks, 4, seed)
    }
}

/// A configuration that only describes a machine: `ranks` full-load ranks
/// on nodes of 2 × `cores_per_socket` cores, default engine.
fn machine_config(ranks: usize, cores_per_socket: usize, seed: u64) -> RunConfig {
    RunConfig {
        cores_per_socket,
        ..one_node_config(0, ranks, SolverChoice::cg(), SystemKind::Poisson2d, 1, seed)
    }
}

/// Run every probe; one span per group goes into `rec`.
pub fn run_probes(seed: u64, scale: Scale, rec: &mut Recorder) -> BTreeMap<String, f64> {
    let mut p = Probes {
        seed,
        scale,
        rec,
        out: BTreeMap::new(),
        traffic_mismatches: 0,
    };
    p.group("probe.linalg", Probes::linalg);
    p.group("probe.mpi_small", Probes::mpi_small);
    p.group("probe.mpi_scale", Probes::mpi_scale);
    p.group("probe.mpi_engine_ratio", Probes::engine_ratio);
    p.group("probe.monitor_rapl_cluster", Probes::monitor_rapl_cluster);
    p.group("probe.model", Probes::model);
    p.group("probe.sinks", Probes::sinks);
    let mismatches = p.traffic_mismatches as f64;
    p.put("model.traffic_mismatches", mismatches);
    p.out
}
