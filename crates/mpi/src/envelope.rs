//! Message payloads and in-flight envelopes.

use std::sync::Arc;

/// Global audit of deep payload-buffer copies (see [`Payload`]). The
/// collectives are designed so that fan-out — a binomial tree re-sending
/// one broadcast buffer to several children, the pipelined broadcast
/// streaming a chunk down two subtrees, a ring allgather forwarding a
/// neighbour's chunk, a fault-injected duplicate crossing the wire twice —
/// shares a single allocation. The only place a buffer may be duplicated
/// is [`Payload::expect_f64`] unwrapping a heap payload that is still
/// shared, and tests pin the hot paths to zero such copies. Reading
/// an inline payload out into a `Vec` is not counted: nothing was shared.
pub mod copy_audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    static COPIES: AtomicU64 = AtomicU64::new(0);

    /// Record one deep copy of a payload buffer.
    pub(crate) fn note() {
        COPIES.fetch_add(1, Ordering::Relaxed);
    }

    /// Reset the global copy counter (tests only; the counter is
    /// process-global, so tests asserting exact counts must run in their
    /// own process — see `crates/mpi/tests/zero_copy.rs`).
    pub fn reset() {
        COPIES.store(0, Ordering::Relaxed);
    }

    /// Deep payload copies since the last [`reset`].
    pub fn count() -> u64 {
        COPIES.load(Ordering::Relaxed)
    }
}

/// Payloads of at most this many words travel inline in their envelope:
/// scalar and dot-pair allreduces, maxloc pairs and pipelined-broadcast
/// headers cost no allocation and no reference count.
pub const INLINE_WORDS: usize = 4;

/// Typed message payload. The solvers exchange `f64` matrix data and `u64`
/// index/pivot metadata.
///
/// A payload built from at most [`INLINE_WORDS`] words is stored inline
/// (cloning it copies those words). A longer one is an `Arc`-shared heap
/// buffer: cloning it (tree fan-out, duplicate faults, retries) bumps a
/// reference count instead of copying the data. `Arc<Vec<T>>` rather than
/// `Arc<[T]>` so that a *uniquely held* buffer unwraps back into its `Vec`
/// for free (`Arc::try_unwrap`) — the common point-to-point case pays no
/// copy, and only receivers of a still-shared buffer that need ownership
/// pay a copy-on-unwrap. Read-only consumers use the borrowing accessors
/// ([`Payload::as_f64`] and friends) and never copy at all. A buffer that
/// is already shared ([`Payload::shared_f64`]) stays on the heap whatever
/// its length, so every holder keeps the one allocation.
#[derive(Clone, Debug)]
pub struct Payload(Repr);

/// An inline variant keeps its length beside the enum's tag, so a payload
/// is 40 bytes.
#[derive(Clone, Debug)]
enum Repr {
    F64(Arc<Vec<f64>>),
    U64(Arc<Vec<u64>>),
    InlineF64(u8, [f64; INLINE_WORDS]),
    InlineU64(u8, [u64; INLINE_WORDS]),
}

/// `data` as an inline `(len, words)` pair; `None` when it is too long.
fn inline<T: Copy + Default>(data: &[T]) -> Option<(u8, [T; INLINE_WORDS])> {
    (data.len() <= INLINE_WORDS).then(|| {
        let mut words = [T::default(); INLINE_WORDS];
        words[..data.len()].copy_from_slice(data);
        (data.len() as u8, words)
    })
}

impl Payload {
    /// Wrap an owned buffer: a short one is copied inline (and its `Vec`
    /// dropped), a longer one moves into the `Arc` with no copy.
    pub fn f64(v: Vec<f64>) -> Self {
        Payload(match inline(&v) {
            Some((len, words)) => Repr::InlineF64(len, words),
            None => Repr::F64(Arc::new(v)),
        })
    }

    /// Copy borrowed data into a payload: inline when short, so a scalar
    /// send allocates nothing.
    pub fn copy_f64(data: &[f64]) -> Self {
        Payload(match inline(data) {
            Some((len, words)) => Repr::InlineF64(len, words),
            None => Repr::F64(Arc::new(data.to_vec())),
        })
    }

    /// Copy borrowed data into a payload (inline when short).
    pub fn copy_u64(data: &[u64]) -> Self {
        Payload(match inline(data) {
            Some((len, words)) => Repr::InlineU64(len, words),
            None => Repr::U64(Arc::new(data.to_vec())),
        })
    }

    /// Send an already shared buffer as it is, whatever its length: every
    /// receiver gets this allocation back from [`Payload::into_shared_f64`].
    pub fn shared_f64(v: Arc<Vec<f64>>) -> Self {
        Payload(Repr::F64(v))
    }

    /// Send an already shared buffer as it is (see [`Self::shared_f64`]).
    pub fn shared_u64(v: Arc<Vec<u64>>) -> Self {
        Payload(Repr::U64(v))
    }

    /// Payload size in bytes (what the network transfers).
    pub fn size_bytes(&self) -> u64 {
        let len = match &self.0 {
            Repr::F64(v) => v.len(),
            Repr::U64(v) => v.len(),
            Repr::InlineF64(len, _) | Repr::InlineU64(len, _) => *len as usize,
        };
        8 * len as u64
    }

    /// Borrow the payload data without copying (read-only consumers).
    pub fn as_f64(&self) -> &[f64] {
        match &self.0 {
            Repr::F64(v) => v,
            Repr::InlineF64(len, words) => &words[..*len as usize],
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Borrow the payload data without copying (read-only consumers).
    pub fn as_u64(&self) -> &[u64] {
        match &self.0 {
            Repr::U64(v) => v,
            Repr::InlineU64(len, words) => &words[..*len as usize],
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Take the shared buffer without copying (keeps the allocation
    /// shared with any in-flight clones). An inline payload gets a fresh
    /// allocation of its few words.
    pub fn into_shared_f64(self) -> Arc<Vec<f64>> {
        match self.0 {
            Repr::F64(v) => v,
            Repr::InlineF64(len, words) => Arc::new(words[..len as usize].to_vec()),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Take the shared buffer without copying (see [`Self::into_shared_f64`]).
    pub fn into_shared_u64(self) -> Arc<Vec<u64>> {
        match self.0 {
            Repr::U64(v) => v,
            Repr::InlineU64(len, words) => Arc::new(words[..len as usize].to_vec()),
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Unwrap into an owned `Vec`, copying a heap buffer only if it is
    /// still shared (copy-on-unwrap). Receivers that mutate use this;
    /// read-only receivers should borrow via [`Payload::as_f64`] instead.
    pub fn expect_f64(self) -> Vec<f64> {
        match self.0 {
            // The buffer itself when this was its last holder, else an
            // audited copy.
            Repr::F64(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| {
                copy_audit::note();
                shared.as_ref().clone()
            }),
            Repr::InlineF64(len, words) => words[..len as usize].to_vec(),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }
}

/// A message travelling between ranks.
#[derive(Debug)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src: usize,
    /// Communicator the message was sent on.
    pub comm_id: u64,
    /// User or collective tag.
    pub tag: u64,
    /// Virtual time at which the message is fully available at the receiver.
    pub arrival: f64,
    pub payload: Payload,
    /// Injected-fault marker: this envelope is a spurious duplicate of one
    /// already delivered; the receiver must discard it.
    pub dup: bool,
    /// Injected-fault marker: this envelope's arrival was pushed into the
    /// future by a planned delay (receivers record the observation).
    pub delayed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_ptr(p: &Payload) -> Option<*const Vec<f64>> {
        match &p.0 {
            Repr::F64(v) => Some(Arc::as_ptr(v)),
            _ => None,
        }
    }

    #[test]
    fn sizes() {
        // Up to `INLINE_WORDS` words travel inline, longer payloads on the
        // heap; the wire size is the same either way.
        for len in [0, 1, 4, 5] {
            let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let words: Vec<u64> = (0..len as u64).collect();
            for p in [Payload::f64(data.clone()), Payload::copy_f64(&data)] {
                assert_eq!(p.size_bytes(), 8 * len as u64);
                assert_eq!(heap_ptr(&p).is_none(), len <= INLINE_WORDS, "len {len}");
                assert_eq!(p.as_f64(), &data[..]);
            }
            let p = Payload::copy_u64(&words);
            assert_eq!(p.size_bytes(), 8 * len as u64);
            assert_eq!(matches!(p.0, Repr::InlineU64(..)), len <= INLINE_WORDS);
            assert_eq!(p.as_u64(), &words[..]);
            // A shared buffer stays shared, however short.
            assert!(heap_ptr(&Payload::shared_f64(Arc::new(data.clone()))).is_some());
            assert!(matches!(
                Payload::shared_u64(Arc::new(words)).0,
                Repr::U64(_)
            ));
        }
    }

    #[test]
    fn every_accessor_reads_both_representations() {
        for len in [2, 9] {
            let data: Vec<f64> = (0..len).map(|i| 0.5 * i as f64).collect();
            let words: Vec<u64> = (0..len as u64).map(|i| 3 * i).collect();
            let f = Payload::copy_f64(&data);
            let u = Payload::copy_u64(&words);
            assert_eq!(f.clone().expect_f64(), data);
            assert_eq!(*f.into_shared_f64(), data);
            assert_eq!(*u.into_shared_u64(), words);
        }
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn type_confusion_panics() {
        Payload::copy_u64(&[0; 8]).expect_f64();
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn inline_u64_is_not_f64() {
        Payload::copy_u64(&[1]).as_f64();
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn inline_u64_does_not_share_as_f64() {
        Payload::copy_u64(&[]).into_shared_f64();
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn inline_f64_does_not_borrow_as_u64() {
        Payload::f64(vec![1.0]).as_u64();
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn inline_f64_does_not_share_as_u64() {
        Payload::f64(vec![]).into_shared_u64();
    }

    #[test]
    fn unique_payload_unwraps_without_copy() {
        // A fresh heap payload round-trips its Vec through the Arc untouched.
        let v = vec![1.0; 8];
        let at = v.as_ptr();
        let back = Payload::f64(v).expect_f64();
        assert_eq!(back.as_ptr(), at, "a unique buffer must unwrap in place");
    }

    #[test]
    fn clone_shares_the_allocation() {
        let p = Payload::f64(vec![7.0; 64]);
        let q = p.clone();
        assert_eq!(heap_ptr(&p), heap_ptr(&q), "clone must share, not copy");
        // Unwrapping the shared handle copies; the original stays intact.
        assert_eq!(q.expect_f64(), vec![7.0; 64]);
        assert_eq!(p.as_f64(), &[7.0; 64][..]);
    }
}
