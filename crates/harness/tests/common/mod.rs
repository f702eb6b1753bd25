//! Shared by the test files that pin exported event streams.

use greenla_harness::chrome_trace::TracedSolve;

/// What a golden pins of one traced run: the number of recorded events and
/// the 64-bit FNV-1a hash of the compact Chrome Trace JSON. The document
/// is a pure function of the run's virtual clocks, so the pair is the same
/// on every carrier and under every `GREENLA_KERNEL` path.
pub fn trace_fingerprint(traced: &TracedSolve) -> (usize, u64) {
    let text = serde_json::to_string(&traced.trace).expect("serialise trace");
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (traced.event_count, hash)
}
