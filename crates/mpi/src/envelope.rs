//! Message payloads and in-flight envelopes.

use std::sync::Arc;

/// Global audit of deep payload-buffer copies (see [`Payload`]). The
/// collectives are designed so that fan-out — a binomial tree re-sending
/// one broadcast buffer to several children, the pipelined broadcast
/// streaming a chunk down two subtrees, a ring allgather forwarding a
/// neighbour's chunk, a fault-injected duplicate crossing the wire twice —
/// shares a single allocation. The only place a buffer may be duplicated
/// is [`Payload::expect_f64`]-style unwrapping of a payload that is still
/// shared, and tests pin the hot paths to zero such copies.
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

/// Typed message payload. The solvers exchange `f64` matrix data and `u64`
/// index/pivot metadata.
///
/// Buffers are `Arc`-shared: cloning a payload (tree fan-out, duplicate
/// faults, retries) bumps a reference count instead of copying the data.
/// `Arc<Vec<T>>` rather than `Arc<[T]>` so that a *uniquely held* payload
/// unwraps back into its `Vec` for free (`Arc::try_unwrap`) — the common
/// point-to-point case pays exactly the copies it paid before the sharing
/// existed, and only receivers of a still-shared buffer that need ownership
/// pay a copy-on-unwrap. Read-only consumers use the borrowing accessors
/// ([`Payload::as_f64`] and friends) and never copy at all.
#[derive(Clone, Debug)]
pub enum Payload {
    F64(Arc<Vec<f64>>),
    U64(Arc<Vec<u64>>),
}

impl Payload {
    /// Wrap an owned buffer (no copy: the `Vec` moves into the `Arc`).
    pub fn f64(v: Vec<f64>) -> Self {
        Payload::F64(Arc::new(v))
    }

    /// Wrap an owned buffer (no copy).
    pub fn u64(v: Vec<u64>) -> Self {
        Payload::U64(Arc::new(v))
    }

    /// Payload size in bytes (what the network transfers).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U64(v) => 8 * v.len() as u64,
        }
    }

    /// Borrow the payload data without copying (read-only consumers).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Borrow the payload data without copying (read-only consumers).
    pub fn as_u64(&self) -> &[u64] {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Take the shared buffer without copying (keeps the allocation
    /// shared with any in-flight clones).
    pub fn into_shared_f64(self) -> Arc<Vec<f64>> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Take the shared buffer without copying.
    pub fn into_shared_u64(self) -> Arc<Vec<u64>> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Unwrap into an owned `Vec`, copying only if the buffer is still
    /// shared (copy-on-unwrap). Receivers that mutate use this; read-only
    /// receivers should borrow via [`Payload::as_f64`] instead.
    pub fn expect_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| {
                copy_audit::note();
                shared.as_ref().clone()
            }),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwrap into an owned `Vec`, copying only if the buffer is shared.
    pub fn expect_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| {
                copy_audit::note();
                shared.as_ref().clone()
            }),
            other => panic!("expected U64 payload, got {other:?}"),
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

    #[test]
    fn sizes() {
        assert_eq!(Payload::f64(vec![0.0; 3]).size_bytes(), 24);
        assert_eq!(Payload::u64(vec![0; 2]).size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn type_confusion_panics() {
        Payload::u64(vec![]).expect_f64();
    }

    #[test]
    fn unique_payload_unwraps_without_copy() {
        // A fresh payload round-trips its Vec through the Arc untouched.
        let p = Payload::f64(vec![1.0, 2.0]);
        assert_eq!(p.expect_f64(), vec![1.0, 2.0]);
    }

    #[test]
    fn clone_shares_the_allocation() {
        let p = Payload::f64(vec![7.0; 64]);
        let q = p.clone();
        let (a, b) = match (&p, &q) {
            (Payload::F64(a), Payload::F64(b)) => (Arc::as_ptr(a), Arc::as_ptr(b)),
            _ => unreachable!(),
        };
        assert_eq!(a, b, "clone must share, not copy");
        // Unwrapping the shared handle copies; the original stays intact.
        assert_eq!(q.expect_f64(), vec![7.0; 64]);
        assert_eq!(p.as_f64(), &[7.0; 64][..]);
    }
}
