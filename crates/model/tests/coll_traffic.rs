//! The closed-form α+β traffic formulas in `model::comm` must count
//! exactly the messages the simulated runtime sends: each test runs the
//! real collective on a simulated machine and compares the machine's
//! traffic tally against the formula, message for message and element for
//! element. (Communicator splits are registry-based and send nothing, so
//! a run's total traffic is the collective's alone.)

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_model::comm;
use greenla_mpi::{Machine, TrafficSnapshot};

fn machine(ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 9).unwrap()
}

/// Elements above the 512-byte switch and below the 128 KiB one, so the
/// sum-allreduce takes the recursive-doubling path.
const BIG: usize = 100;

fn run_traffic(ranks: usize, f: impl Fn(&mut greenla_mpi::RankCtx) + Sync) -> TrafficSnapshot {
    machine(ranks).run(f).traffic
}

#[test]
fn recursive_doubling_traffic_matches_the_closed_form_power_of_two() {
    let t = run_traffic(8, |ctx| {
        let world = ctx.world();
        ctx.allreduce_sum_f64(&world, &vec![1.0; BIG]);
    });
    let (msgs, elems) = comm::allreduce_rd_traffic(8, BIG as u64);
    assert_eq!(t.msgs, msgs, "messages");
    assert_eq!(t.volume_elems(), elems, "elements");
}

#[test]
fn recursive_doubling_traffic_matches_the_closed_form_with_fold() {
    // World of 8, collective over a split communicator of 6: p₂ = 4,
    // r = 2, so the fold and unfold phases carry real messages.
    let t = run_traffic(8, |ctx| {
        let world = ctx.world();
        let in_six = (ctx.rank() < 6) as u64;
        let sub = ctx.split(&world, in_six, ctx.rank() as u64);
        if in_six == 1 {
            ctx.allreduce_sum_f64(&sub, &vec![1.0; BIG]);
        }
    });
    let (msgs, elems) = comm::allreduce_rd_traffic(6, BIG as u64);
    assert_eq!(t.msgs, msgs, "messages");
    assert_eq!(t.volume_elems(), elems, "elements");
}

#[test]
fn small_allreduce_keeps_the_tree_pair_counts() {
    // At or below the switch the runtime composes reduce + bcast trees:
    // P − 1 messages each, full payload per hop — the counts the paper's
    // formulas assume.
    let t = run_traffic(8, |ctx| {
        let world = ctx.world();
        ctx.allreduce_sum_f64(&world, &[1.0, 2.0]);
    });
    assert_eq!(t.msgs, 2 * 7, "reduce tree + bcast tree");
    assert_eq!(t.volume_elems(), 2 * 7 * 2);
}

#[test]
fn ring_allgather_traffic_matches_the_closed_form() {
    // Variable chunk lengths (rank r contributes r + 1 elements): the
    // formula depends only on the combined element count.
    let total: u64 = (1..=8).sum();
    let t = run_traffic(8, |ctx| {
        let world = ctx.world();
        let mine = vec![ctx.rank() as f64; ctx.rank() + 1];
        ctx.allgather_f64(&world, &mine);
    });
    let (msgs, elems) = comm::allgather_ring_traffic(8, total);
    assert_eq!(t.msgs, msgs, "messages");
    assert_eq!(t.volume_elems(), elems, "elements");
}

#[test]
fn allreduce_traffic_follows_the_runtime_size_rule() {
    // Both sides of both thresholds, power-of-two and folded rank counts,
    // even and uneven halvings. The collective runs over the first `p`
    // ranks of a full-node world, so the fold carries real messages.
    for p in [2usize, 3, 4, 6, 8, 16, 40] {
        for elems in [1usize, 64, 65, 100, 16383, 16384, 16385, 40000] {
            let t = run_traffic(p.next_multiple_of(8), |ctx| {
                let world = ctx.world();
                let member = (ctx.rank() < p) as u64;
                let sub = ctx.split(&world, member, ctx.rank() as u64);
                if member == 1 {
                    ctx.allreduce_sum_owned_f64(&sub, vec![1.0; elems]);
                }
            });
            let (msgs, volume) = comm::allreduce_traffic(p, elems as u64);
            assert_eq!(t.msgs, msgs, "messages at p={p}, elems={elems}");
            assert_eq!(t.volume_elems(), volume, "elements at p={p}, elems={elems}");
        }
    }
}
