//! The α+β *time* forms in `model::comm` against the simulator's virtual
//! makespan — `coll_traffic.rs` pins message and element counts, this file
//! the seconds — and the allreduce selection rule against the forms it is
//! derived from.
//!
//! The model prices every hop at the inter-node parameters, so it is
//! compared on two placements: one rank per node, where every hop *is*
//! inter-node and the form must match the simulator to rounding, and full
//! 8-core nodes, where the low butterfly bits and most ring hops stay
//! inside a node and the makespan must land between the all-intra-node
//! and the all-inter-node price.

use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_model::comm;
use greenla_model::params::MachineParams;
use greenla_mpi::{Machine, RankCtx};

/// Relative band around the stated bounds. On the one-rank-per-node
/// placement the closed forms are exact at power-of-two rank counts (every
/// rank enters at t = 0 and every round is one synchronised exchange); the
/// band only absorbs the different order in which the two sides add the
/// same terms.
const BAND: f64 = 1e-9;

/// The runtime's large-payload allreduce threshold, in bytes.
const LARGE: f64 = greenla_mpi::coll::COLL_LARGE_BYTES as f64;

fn params() -> (MachineParams, MachineParams) {
    let inter = MachineParams::from_spec(&ClusterSpec::test_cluster(1, 4));
    let intra = MachineParams {
        alpha: inter.alpha_intra,
        beta: inter.beta_intra,
        ..inter
    };
    (inter, intra)
}

/// Makespan of `body` over `p` ranks placed `per_node` to a node.
fn makespan(p: usize, per_node: usize, body: impl Fn(&mut RankCtx) + Sync) -> f64 {
    let spec = ClusterSpec::test_cluster(p.div_ceil(per_node), 4);
    let placement = if per_node == 1 {
        Placement::explicit(&spec.node, p, &[1, 0]).unwrap()
    } else {
        Placement::packed(&spec.node, p).unwrap()
    };
    Machine::new(spec, placement, PowerModel::deterministic(), 3)
        .unwrap()
        .run(body)
        .makespan
}

/// `undercut` is how far below the form the simulator may land (seconds,
/// priced on the given parameters); nothing may land above it.
fn assert_priced(
    what: &str,
    p: usize,
    body: impl Fn(&mut RankCtx) + Sync,
    form: impl Fn(&MachineParams) -> f64,
    undercut: impl Fn(&MachineParams) -> f64,
) {
    let (inter, intra) = params();
    let spread = makespan(p, 1, &body);
    let (want, least) = (form(&inter), form(&inter) - undercut(&inter));
    assert!(
        least * (1.0 - BAND) <= spread && spread <= want * (1.0 + BAND),
        "{what}, one rank per node: simulated {spread:e} s outside [{least:e}, {want:e}] s"
    );
    let packed = makespan(p, 8, &body);
    let floor = form(&intra) - undercut(&intra);
    assert!(
        floor * (1.0 - BAND) <= packed && packed <= want * (1.0 + BAND),
        "{what}, 8 ranks per node: simulated {packed:e} s outside [{floor:e}, {want:e}] s"
    );
}

#[test]
fn allreduce_makespan_matches_the_selected_form() {
    // 1 KiB rides recursive doubling, 256 KiB and 8 MiB the reduce-scatter
    // + allgather (recursive doubling again at P = 2…3, not sampled here).
    // 8 MiB × 64 ranks is left out: a GiB of inputs and results for a
    // shape 256 KiB × 64 already covers.
    //
    // P = 6 adds the fold, which the forms price as a full-payload round
    // trip on top of the butterfly. The two ranks that skip the fold start
    // their butterfly one hop early, and recursive doubling pairs them
    // with the folded survivors in its *last* round, where the survivors
    // no longer wait for them — so it may finish up to one full-payload
    // hop under its form. The reduce-scatter pairs them first and is exact.
    for p in [6usize, 8, 64] {
        for (elems, size) in [
            (128usize, "1 KiB"),
            (32 << 10, "256 KiB"),
            (1 << 20, "8 MiB"),
        ] {
            if p * elems > 8 << 20 {
                continue;
            }
            let bytes = 8.0 * elems as f64;
            let folded_rd = !p.is_power_of_two() && bytes < LARGE;
            assert_priced(
                &format!("allreduce of {size} over {p} ranks"),
                p,
                |ctx| {
                    let world = ctx.world();
                    ctx.allreduce_sum_owned_f64(&world, vec![1.0; elems]);
                },
                |m| comm::allreduce(p, bytes, m),
                |m| if folded_rd { m.p2p(bytes) } else { 0.0 },
            );
        }
    }
}

#[test]
fn ring_allgather_makespan_matches_the_form() {
    for p in [6usize, 8, 64] {
        // 1 KiB, 256 KiB and 8 MiB combined, cut evenly over the ranks.
        for total in [128usize, 32 << 10, 1 << 20] {
            let per = total.div_ceil(p);
            assert_priced(
                &format!("ring allgather of {per} elems × {p} ranks"),
                p,
                |ctx| {
                    let world = ctx.world();
                    ctx.allgather_f64(&world, &vec![ctx.rank() as f64; per]);
                },
                |m| comm::allgather_ring(p, 8.0 * (per * p) as f64, m),
                |_| 0.0,
            );
        }
    }
}

#[test]
fn the_large_arm_never_loses_where_it_is_selected() {
    // `COLL_LARGE_BYTES` is the smallest payload the rule hands to the
    // reduce-scatter + allgather; its advantage only grows with size, so
    // winning at the threshold for every rank count — each power of two
    // from 4 to 4096 and every folded size between — is winning
    // everywhere, on either set of network parameters.
    let (inter, intra) = params();
    for p in 4..=4096usize {
        for (name, m) in [("inter-node", &inter), ("intra-node", &intra)] {
            let rsag = comm::allreduce_rsag(p, LARGE, m);
            let rd = comm::allreduce_rd(p, LARGE, m);
            assert!(rsag <= rd, "p={p}, {name}: rsag {rsag:e} s > rd {rd:e} s");
        }
    }
    // And the threshold is not slack by a power of two: at half the size
    // four inter-node participants are still better off doubling.
    let half = LARGE / 2.0;
    assert!(comm::allreduce_rsag(4, half, &inter) > comm::allreduce_rd(4, half, &inter));
}
