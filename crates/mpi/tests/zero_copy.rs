//! Proof that the collectives never copy a buffer: the process-global
//! `copy_audit` counter (bumped only when `Payload::expect_f64` has to
//! clone a still-shared allocation) stays at zero across broadcast
//! fan-out, pipelined streaming, gathers, the ring allgather and the
//! large-message allreduce, and the returned handles are pointer-identical
//! across ranks. Unwrapping an inline (at most four-word) payload is not
//! a copy of a shared buffer and is not counted either.
//!
//! Everything lives in ONE test function: the audit counter is global to
//! the process, so concurrently running `#[test]`s would see each other's
//! copies.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_mpi::{copy_audit, Machine};
use std::sync::Arc;

fn machine(ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 5).unwrap()
}

#[test]
fn shared_collectives_never_copy_a_payload() {
    const P: usize = 8;

    // --- binomial broadcast fan-out: one allocation for all P ranks ---
    copy_audit::reset();
    let out = machine(P).run(|ctx| {
        let world = ctx.world();
        let data = (ctx.rank() == 2).then(|| vec![0.5; 10_000]);
        ctx.bcast_shared_f64(&world, 2, data)
    });
    assert_eq!(
        copy_audit::count(),
        0,
        "broadcast fan-out must not copy the payload"
    );
    let root = &out.results[2];
    for (r, got) in out.results.iter().enumerate() {
        assert!(
            Arc::ptr_eq(root, got),
            "rank {r} must hold the root's allocation, not a copy"
        );
        assert_eq!(got.len(), 10_000);
    }

    // --- pipelined broadcast: chunks stream as borrows + Arc bumps ---
    copy_audit::reset();
    let out = machine(P).run(|ctx| {
        let world = ctx.world();
        let data = (ctx.rank() == 0).then(|| (0..4096).map(|i| i as f64).collect());
        ctx.bcast_pipelined_shared_f64(&world, 0, data, 512)
    });
    assert_eq!(
        copy_audit::count(),
        0,
        "pipelined chunks must be appended from borrows and forwarded shared"
    );
    for got in &out.results {
        assert_eq!(got.len(), 4096);
        assert_eq!(got[4095], 4095.0);
    }

    // --- single-chunk pipelined broadcast: the root's allocation itself
    // travels down the tree, so every rank holds it ---
    copy_audit::reset();
    let out = machine(P).run(|ctx| {
        let world = ctx.world();
        let data = (ctx.rank() == 3).then(|| vec![1.5; 600]);
        ctx.bcast_pipelined_shared_f64(&world, 3, data, 1024)
    });
    assert_eq!(
        copy_audit::count(),
        0,
        "a single-chunk pipelined broadcast must not copy the payload"
    );
    let root = &out.results[3];
    for (r, got) in out.results.iter().enumerate() {
        assert!(
            Arc::ptr_eq(root, got),
            "rank {r} must hold the root's allocation, not a copy"
        );
        assert_eq!(**got, vec![1.5; 600]);
    }

    // --- gather: the root borrows every sender's allocation ---
    copy_audit::reset();
    machine(P).run(|ctx| {
        let world = ctx.world();
        let mine = vec![ctx.rank() as f64; 100 * (1 + ctx.rank() % 3)];
        if let Some(chunks) = ctx.gather_f64(&world, 1, &mine) {
            for (src, c) in chunks.iter().enumerate() {
                assert!(c.iter().all(|&v| v == src as f64));
            }
        }
    });
    assert_eq!(copy_audit::count(), 0, "gather must hand over, not copy");

    // --- ring allgather: every rank ends up holding every originator's
    // allocation (the same Arc travelled the whole ring) ---
    copy_audit::reset();
    let out = machine(P).run(|ctx| {
        let world = ctx.world();
        let mine = vec![ctx.rank() as f64; 2000];
        ctx.allgather_f64(&world, &mine)
    });
    assert_eq!(
        copy_audit::count(),
        0,
        "ring forwarding must be an Arc bump per hop"
    );
    for j in 0..P {
        let origin = &out.results[j][j];
        for (r, res) in out.results.iter().enumerate() {
            assert!(
                Arc::ptr_eq(origin, &res[j]),
                "rank {r}'s chunk {j} must share the originator's allocation"
            );
        }
    }

    // --- large-message allreduce: halves move into their messages,
    // allgather pieces travel shared, and the last merge is each rank's
    // own, so unwrapping the result never copies ---
    copy_audit::reset();
    let len = (greenla_mpi::coll::COLL_LARGE_BYTES / 8) as usize + 3;
    let out = machine(P).run(move |ctx| {
        let world = ctx.world();
        ctx.allreduce_sum_owned_f64(&world, vec![ctx.rank() as f64; len])
    });
    assert_eq!(
        copy_audit::count(),
        0,
        "reduce-scatter + allgather must not unwrap a shared piece"
    );
    for got in &out.results {
        assert_eq!(got, &vec![28.0; len]);
    }

    // --- control: unwrapping a still-shared payload IS counted, so the
    // zero assertions above actually prove something ---
    copy_audit::reset();
    let p = greenla_mpi::Payload::f64(vec![1.0; 8]);
    let q = p.clone();
    assert_eq!(q.expect_f64(), vec![1.0; 8]);
    drop(p);
    assert_eq!(copy_audit::count(), 1, "the audit counter must be live");

    // --- an inline payload has no shared buffer: unwrapping a clone of
    // one is not a copy the audit counts ---
    copy_audit::reset();
    let p = greenla_mpi::Payload::copy_f64(&[1.0, 2.0]);
    let q = p.clone();
    assert_eq!(q.expect_f64(), vec![1.0, 2.0]);
    assert_eq!(p.expect_f64(), vec![1.0, 2.0]);
    assert_eq!(copy_audit::count(), 0, "inline payloads are never audited");
}
