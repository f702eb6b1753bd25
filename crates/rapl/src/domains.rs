//! RAPL power domains.

/// One measurable RAPL domain on a socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Whole package (cores + uncore).
    Package,
    /// Core domain (power plane 0).
    Pp0,
    /// Graphics domain (power plane 1) — absent on server CPUs.
    Pp1,
    /// Memory domain.
    Dram,
}
