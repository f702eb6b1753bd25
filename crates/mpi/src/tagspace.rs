//! The bit layout of collective message tags, in one place: the
//! runtime packs tags with it (`coll::compose_coll_tag`) and renders them
//! for diagnostics with [`describe_tag`].
//!
//! ```text
//! bit 63       bits 62..20        bits 19..0
//! COLL_TAG     sequence number    chunk id
//! ```
//!
//! The two highest chunk ids are reserved markers (plain collectives and
//! pipelined-broadcast headers), so a collective may use at most
//! [`MAX_PIPELINE_CHUNKS`] data chunks; one that needs more dies as
//! `AbortKind::CollectiveContract` before it sends anything.

/// Tag bit reserved for collective-internal messages; user tags must stay
/// below it.
pub const COLL_TAG: u64 = 1 << 63;

/// Bits reserved for the chunk id (low field).
pub(crate) const CHUNK_BITS: u32 = 20;

/// Largest per-communicator sequence number: the field between the chunk
/// id and the `COLL_TAG` bit.
pub(crate) const MAX_SEQ: u64 = (1 << (63 - CHUNK_BITS)) - 1;

/// Largest chunk id.
pub(crate) const MAX_CHUNK: u64 = (1 << CHUNK_BITS) - 1;

/// Chunk id of unchunked collective messages (keeps plain and pipelined
/// tags disjoint under one sequence number).
pub(crate) const PLAIN_CHUNK: u64 = MAX_CHUNK;

/// Chunk id of the pipelined-broadcast header message.
pub(crate) const HEADER_CHUNK: u64 = MAX_CHUNK - 1;

/// Largest number of *data* chunks one collective may use: the chunk ids
/// below the two markers.
pub(crate) const MAX_PIPELINE_CHUNKS: u64 = HEADER_CHUNK;

/// Human-readable rendering of a message tag for diagnostics: collective
/// tags are decomposed into their fields, user tags print as-is.
pub(crate) fn describe_tag(tag: u64) -> String {
    if tag & COLL_TAG != 0 {
        let seq = (tag & !COLL_TAG) >> CHUNK_BITS;
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
        assert_eq!(MAX_SEQ, (1 << 43) - 1);
        assert_eq!((PLAIN_CHUNK, HEADER_CHUNK), (0xfffff, 0xffffe));
        // The full layout exactly fills the u64 below the COLL_TAG bit.
        assert_eq!(COLL_TAG | (MAX_SEQ << CHUNK_BITS) | MAX_CHUNK, u64::MAX);
    }

    #[test]
    fn tags_describe_themselves() {
        assert_eq!(describe_tag(42), "42");
        let tag = COLL_TAG | (7 << CHUNK_BITS) | 0xfffff;
        assert_eq!(describe_tag(tag), "coll(seq=7, chunk=0xfffff)");
    }
}
