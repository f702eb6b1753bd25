//! The collective tag bit-layout the runtime packs into `u64` message
//! tags, and the overflow predicates the checker (and the runtime's debug
//! assertions) enforce.
//!
//! ```text
//! bit 63       bits 62..20        bits 19..0
//! COLL_TAG     sequence number    chunk id
//! ```
//!
//! The two highest chunk ids are reserved markers (plain collectives and
//! pipelined-broadcast headers), so pipelined data chunks must stay below
//! them.

/// The tag bit that separates collective-internal messages from user tags
/// (the runtime's `greenla_mpi::context::COLL_TAG` is defined as this bit).
pub const COLL_TAG_BIT: u64 = 1 << 63;

/// Bits reserved for the chunk id (low field).
pub const CHUNK_BITS: u32 = 20;

/// Bits available for the per-communicator sequence number (between the
/// chunk field and the `COLL_TAG` bit).
pub const SEQ_BITS: u32 = 63 - CHUNK_BITS;

/// Largest sequence number that fits without touching the `COLL_TAG` bit.
pub const MAX_SEQ: u64 = (1 << SEQ_BITS) - 1;

/// Largest chunk id.
pub const MAX_CHUNK: u64 = (1 << CHUNK_BITS) - 1;

/// Largest number of *data* chunks a pipelined collective may use: the two
/// top chunk ids are the plain/header markers.
pub const MAX_PIPELINE_CHUNKS: u64 = (1 << CHUNK_BITS) - 2;

/// Does a sequence number fit its bit-field?
#[inline]
pub fn seq_fits(seq: u64) -> bool {
    seq <= MAX_SEQ
}

/// Does a chunk id fit its bit-field?
#[inline]
pub fn chunk_fits(chunk: u64) -> bool {
    chunk <= MAX_CHUNK
}

/// Human-readable rendering of a message tag for diagnostics: collective
/// tags are decomposed into their fields, user tags print as-is.
pub fn describe_tag(tag: u64) -> String {
    if tag & COLL_TAG_BIT != 0 {
        let seq = (tag & !COLL_TAG_BIT) >> CHUNK_BITS;
        let chunk = tag & MAX_CHUNK;
        format!("coll(seq={seq}, chunk={chunk:#x})")
    } else {
        tag.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_boundaries() {
        assert!(seq_fits(0) && seq_fits(MAX_SEQ));
        assert!(!seq_fits(MAX_SEQ + 1));
        assert!(chunk_fits(MAX_CHUNK) && !chunk_fits(MAX_CHUNK + 1));
        assert_eq!(SEQ_BITS, 43);
        // The full layout exactly fills the u64 below the COLL_TAG bit.
        assert_eq!(COLL_TAG_BIT | (MAX_SEQ << CHUNK_BITS) | MAX_CHUNK, u64::MAX);
    }

    #[test]
    fn tags_describe_themselves() {
        assert_eq!(describe_tag(42), "42");
        let tag = COLL_TAG_BIT | (7 << CHUNK_BITS) | 0xfffff;
        assert_eq!(describe_tag(tag), "coll(seq=7, chunk=0xfffff)");
    }
}
