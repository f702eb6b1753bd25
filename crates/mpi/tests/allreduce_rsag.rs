//! The large-message allreduce arm (Rabenseifner's reduce-scatter +
//! allgather) end to end on both carriers: exact sums and bit-identical
//! results for every rank count up to 40 and for lengths that halve
//! evenly and unevenly, traffic equal to the closed form message for
//! message, and ranks that disagree on the length — so that they select
//! different algorithms — aborting with a typed cause instead of hanging.

mod common;

use common::{abort_of, carriers, machine};
use greenla_mpi::coll::{COLL_LARGE_BYTES, COLL_SMALL_BYTES};
use greenla_mpi::{AbortKind, Rule};

/// First element count the large-message arm takes.
const LARGE: usize = (COLL_LARGE_BYTES / 8) as usize;

/// Closed-form `(messages, elements)` of one `len ≥ LARGE` allreduce over
/// `p` ranks: `r = p − p₂` fold and unfold messages of the whole vector,
/// then `log₂p₂` full-vector rounds per participant below four
/// participants (recursive doubling), and above that `2·log₂p₂` rounds
/// that move each vector `2·(p₂ − 1)` times in pieces.
fn large_allreduce_traffic(p: usize, len: usize) -> (u64, u64) {
    let p2 = 1u64 << p.ilog2();
    let (r, steps, len) = (p as u64 - p2, p2.ilog2() as u64, len as u64);
    if p2 < 4 {
        (2 * r + p2 * steps, (2 * r + p2 * steps) * len)
    } else {
        (2 * r + 2 * p2 * steps, 2 * r * len + 2 * len * (p2 - 1))
    }
}

#[test]
fn sums_are_exact_and_traffic_matches_for_every_rank_count() {
    for kind in carriers() {
        for p in 1..=40usize {
            for len in [LARGE, 16411, 20001] {
                // The collective runs over the first `p` ranks of a
                // full-node world, so the fold carries real messages
                // (splits are registry-based and send nothing).
                let out = machine(p.next_multiple_of(8), kind).run(move |ctx| {
                    let world = ctx.world();
                    let member = ctx.rank() < p;
                    let sub = ctx.split(&world, member as u64, ctx.rank() as u64);
                    member.then(|| {
                        let scale = (ctx.rank() + 1) as f64;
                        let mine = (0..len).map(|j| scale * (j % 7 + 1) as f64).collect();
                        ctx.allreduce_sum_owned_f64(&sub, mine)
                    })
                });
                let leg = format!("{kind} engine, p={p}, len={len}");
                let first = out.results[0].as_ref().expect("rank 0 is a member");
                assert_eq!(first.len(), len, "{leg}");
                let ranks_sum = (p * (p + 1) / 2) as f64;
                for (j, &v) in first.iter().enumerate() {
                    assert_eq!(v, ranks_sum * (j % 7 + 1) as f64, "{leg}: element {j}");
                }
                for (rank, got) in out.results.iter().enumerate().take(p) {
                    let got = got.as_ref().expect("member");
                    assert!(
                        got.len() == len
                            && got
                                .iter()
                                .zip(first)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{leg}: rank {rank} differs from rank 0"
                    );
                }
                let (msgs, elems) = large_allreduce_traffic(p, len);
                assert_eq!(out.traffic.msgs, msgs, "{leg}: messages");
                assert_eq!(out.traffic.volume_elems(), elems, "{leg}: elements");
            }
        }
    }
}

#[test]
fn lengths_straddling_a_threshold_abort_instead_of_hanging() {
    // One rank contributes the last length of the arm below a threshold
    // while its peers contribute the first length of the arm above: the
    // two sides run different message schedules. The run must end in a
    // typed abort, and the checker must name the mismatch.
    const SMALL: usize = (COLL_SMALL_BYTES / 8) as usize;
    let cases = [
        ("small threshold", SMALL, SMALL + 1),
        ("large threshold", LARGE - 1, LARGE),
    ];
    // Two genuine causes may race — a rank combining the odd buffer, a
    // rank left waiting by the mismatched schedules — and the first one
    // recorded wins.
    use AbortKind::{CollectiveContract, Deadlock};
    for kind in carriers() {
        for checked in [false, true] {
            for (name, odd_one_out, everyone_else) in cases {
                let (abort, violations) = abort_of(8, kind, checked, None, move |ctx| {
                    let world = ctx.world();
                    let len = if ctx.rank() == 3 {
                        odd_one_out
                    } else {
                        everyone_else
                    };
                    ctx.allreduce_sum_owned_f64(&world, vec![1.0; len]);
                });
                let leg = format!("{name}, {kind}, checked={checked}: {abort}");
                assert!(matches!(abort.kind, CollectiveContract | Deadlock), "{leg}");
                if checked {
                    assert!(
                        violations
                            .iter()
                            .any(|v| v.rule == Rule::CollectiveMismatch),
                        "{leg}: COLL001 must name the mismatch: {violations:#?}"
                    );
                }
            }
        }
    }
}
