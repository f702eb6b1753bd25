//! Bit-identity battery for the seeded dense input.
//!
//! A `pdgesv` run on `DiagDominant` never builds the matrix: each rank draws
//! its own block-cyclic share from the seed (`DistMatrix::from_columns` over
//! a `DiagDominantStream`), and `b` and the residual are streamed. Every
//! value must still be the stored generator's bit for bit: the columns, the
//! diagonal, `b` and the residual against the generator as it drew before
//! it could seek (one sequential draw per entry), the local blocks against
//! `from_global` of the stored matrix on every grid, size and block size
//! below, and `pdgesv`'s solution, clocks and traffic against the stored
//! run's.

use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_linalg::generate::{self, ColumnSource, DiagDominantStream, LinearSystem};
use greenla_linalg::{norms, Matrix};
use greenla_mpi::{Machine, RankCtx};
use greenla_scalapack::distribute::DistMatrix;
use greenla_scalapack::pdgesv::{pdgesv, pdgesv_columns, pdgesv_on_grid};
use greenla_scalapack::{BlockDesc, ProcessGrid};
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SIZES: [usize; 4] = [1, 7, 64, 130];
const BLOCKS: [usize; 4] = [1, 5, 32, 64];
const GRIDS: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)];
const SEEDS: [u64; 3] = [0, 3, 0x5eed];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn machine(ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(4, 4);
    let placement = Placement::packed(&spec.node, ranks).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 5).unwrap()
}

/// `diag_dominant` as it was written before it could seek: every entry one
/// sequential draw, column-major, then each row's off-diagonal sum in
/// ascending `j`, then `b = A·x_ref` through `Matrix::matvec`.
fn sequential_oracle(n: usize, seed: u64, x_ref: &[f64]) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(-1.0, 1.0);
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for v in a.col_mut(j) {
            *v = dist.sample(&mut rng);
        }
    }
    for i in 0..n {
        let mut off = 0.0;
        for j in (0..n).filter(|&j| j != i) {
            off += a[(i, j)].abs();
        }
        let sign = if a[(i, i)] >= 0.0 { 1.0 } else { -1.0 };
        a[(i, i)] = sign * (off + 1.0);
    }
    let b = a.matvec(x_ref);
    (a, b)
}

/// Trial solutions: the reference, a perturbed one, a random one, and ones
/// holding a `NaN` and an infinity (no solution: the residual is `NaN`).
fn trial_solutions(n: usize, x_ref: &[f64], seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e57);
    let mut nan = x_ref.to_vec();
    nan[n / 2] = f64::NAN;
    let mut inf = x_ref.to_vec();
    inf[n - 1] = f64::NEG_INFINITY;
    vec![
        ("x_ref", x_ref.to_vec()),
        (
            "perturbed",
            x_ref.iter().map(|v| v * (1.0 + 1e-9)).collect(),
        ),
        ("random", (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect()),
        ("NaN", nan),
        ("-inf", inf),
    ]
}

#[test]
fn the_stream_is_the_sequential_generator_bit_for_bit() {
    for n in SIZES {
        for seed in SEEDS {
            let stream = DiagDominantStream::new(n, seed);
            let (a, b) = sequential_oracle(n, seed, &stream.x_ref);
            let what = format!("n={n} seed={seed}");
            // Whole columns, diagonal included.
            let mut col = vec![0.0; n];
            for j in 0..n {
                stream.fill_column(j, std::slice::from_ref(&(0..n)), &mut col);
                assert_eq!(bits(&col), bits(a.col(j)), "{what} column {j}");
            }
            assert_eq!(bits(&stream.b), bits(&b), "{what} b");
            let stored = generate::diag_dominant(n, seed);
            assert_eq!(bits(stored.a.as_slice()), bits(a.as_slice()), "{what} A");
            assert_eq!(bits(&stored.b), bits(&b), "{what} stored b");
            for (label, x) in trial_solutions(n, &stream.x_ref, seed) {
                let (got, want) = (stream.residual(&x), norms::scaled_residual(&a, &x, &b));
                assert_eq!(got.to_bits(), want.to_bits(), "{what} residual at {label}");
                assert_eq!(
                    got.is_nan(),
                    !x.iter().all(|v| v.is_finite()),
                    "{what} {label}"
                );
            }
        }
    }
}

/// Ragged runs of every column, as a rank of an `nprow`-row grid asks for
/// them, equal the same rows of the full column.
#[test]
fn any_runs_of_a_column_are_its_rows() {
    let n = 130;
    let stream = DiagDominantStream::new(n, 11);
    let stored = generate::diag_dominant(n, 11);
    for (mb, nprow) in [(1, 3), (5, 2), (7, 1), (32, 3), (64, 2), (200, 1)] {
        for myrow in 0..nprow {
            let runs: Vec<_> = (0..n)
                .step_by(mb * nprow)
                .map(|g| g + myrow * mb)
                .filter(|&g0| g0 < n)
                .map(|g0| g0..(g0 + mb).min(n))
                .collect();
            let len = runs.iter().map(|r| r.len()).sum();
            for j in 0..n {
                let mut got = vec![f64::NAN; len];
                stream.fill_column(j, &runs, &mut got);
                let want: Vec<f64> = runs
                    .iter()
                    .flat_map(|r| stored.a.col(j)[r.clone()].iter().copied())
                    .collect();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "mb={mb} row {myrow}/{nprow} col {j}"
                );
            }
        }
    }
}

/// Every rank's local blocks for every `(n, nb)`, and the clocks the
/// distribution leaves behind.
fn distribute(
    (nprow, npcol): (usize, usize),
    systems: &[(LinearSystem, DiagDominantStream)],
    seeded: bool,
) -> (Vec<Vec<Vec<u64>>>, Vec<f64>) {
    let out = machine(nprow * npcol).run(|ctx: &mut RankCtx| {
        let world = ctx.world();
        let grid = ProcessGrid::new(ctx, &world, nprow, npcol);
        let mut locals = Vec::new();
        for (stored, stream) in systems {
            for nb in BLOCKS {
                let desc = BlockDesc::square(stored.n(), nb, nprow, npcol);
                let dm = if seeded {
                    DistMatrix::from_columns(ctx, &grid, desc, stream)
                } else {
                    DistMatrix::from_global(ctx, &grid, desc, &stored.a)
                };
                locals.push(bits(dm.local.as_slice()));
            }
        }
        locals
    });
    (out.results, out.final_clocks)
}

#[test]
fn local_blocks_are_from_global_bit_for_bit_on_every_grid() {
    let systems: Vec<_> = SIZES
        .iter()
        .map(|&n| {
            (
                generate::diag_dominant(n, n as u64),
                DiagDominantStream::new(n, n as u64),
            )
        })
        .collect();
    for grid in GRIDS {
        let (stored, stored_clocks) = distribute(grid, &systems, false);
        let (seeded, seeded_clocks) = distribute(grid, &systems, true);
        for (rank, (s, d)) in stored.iter().zip(&seeded).enumerate() {
            for (k, (s, d)) in s.iter().zip(d).enumerate() {
                let (n, nb) = (SIZES[k / BLOCKS.len()], BLOCKS[k % BLOCKS.len()]);
                assert_eq!(s, d, "grid {grid:?} rank {rank} n={n} nb={nb}");
            }
        }
        // One allocation charge per matrix either way: the same clocks.
        assert_eq!(bits(&stored_clocks), bits(&seeded_clocks), "grid {grid:?}");
    }
}

#[test]
fn pdgesv_solves_the_seeded_system_to_the_same_bits() {
    for (nprow, npcol) in [(1, 1), (2, 2), (2, 3)] {
        for n in [7, 64, 130] {
            let stored = generate::diag_dominant(n, 21);
            let stream = DiagDominantStream::new(n, 21);
            for nb in [5, 32] {
                let solve = |seeded: bool| {
                    machine(nprow * npcol).run(|ctx| {
                        let world = ctx.world();
                        let grid = ProcessGrid::new(ctx, &world, nprow, npcol);
                        let x = if seeded {
                            pdgesv_on_grid(ctx, &grid, &stream, &stream.b, nb)
                        } else {
                            pdgesv_on_grid(ctx, &grid, &stored.a, &stored.b, nb)
                        };
                        bits(&x.unwrap())
                    })
                };
                let (s, d) = (solve(false), solve(true));
                let what = format!("grid {nprow}x{npcol} n={n} nb={nb}");
                assert_eq!(s.results, d.results, "{what}");
                assert_eq!(s.makespan.to_bits(), d.makespan.to_bits(), "{what}");
                assert_eq!(s.traffic.msgs, d.traffic.msgs, "{what}");
                assert_eq!(s.traffic.volume_elems(), d.traffic.volume_elems(), "{what}");
            }
        }
    }
    // The comm-level entry points agree the same way.
    let (stored, stream) = (
        generate::diag_dominant(48, 2),
        DiagDominantStream::new(48, 2),
    );
    let s = machine(4).run(|ctx| bits(&pdgesv(ctx, &ctx.world(), &stored, 8).unwrap()));
    let d = machine(4)
        .run(|ctx| bits(&pdgesv_columns(ctx, &ctx.world(), &stream, &stream.b, 8).unwrap()));
    assert_eq!(s.results, d.results);
}

/// The release-size case: `large_n`'s pdgesv, n = 2048 on a 2×2 grid with
/// nb = 32. Local blocks, `b` and the residual of the reference solution
/// equal the stored system's.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-size case; run with --release")]
fn release_size_case_matches_the_stored_system() {
    let (n, nb, seed) = (2048, 32, 2048 << 32 | 4);
    let stored = generate::diag_dominant(n, seed);
    let stream = DiagDominantStream::new(n, seed);
    assert_eq!(bits(&stream.b), bits(&stored.b));
    let x = stream.x_ref.clone();
    assert_eq!(stream.residual(&x).to_bits(), stored.residual(&x).to_bits());
    let systems = [(stored, stream)];
    let blocks = |seeded| {
        machine(4)
            .run(|ctx| {
                let world = ctx.world();
                let grid = ProcessGrid::new(ctx, &world, 2, 2);
                let (stored, stream) = &systems[0];
                let desc = BlockDesc::square(n, nb, 2, 2);
                let dm = if seeded {
                    DistMatrix::from_columns(ctx, &grid, desc, stream)
                } else {
                    DistMatrix::from_global(ctx, &grid, desc, &stored.a)
                };
                bits(dm.local.as_slice())
            })
            .results
    };
    assert_eq!(blocks(false), blocks(true));
}
