//! RAPL power domains.

use crate::msr::{
    MSR_DRAM_ENERGY_STATUS, MSR_PKG_ENERGY_STATUS, MSR_PP0_ENERGY_STATUS, MSR_PP1_ENERGY_STATUS,
};

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

impl Domain {
    /// The energy-status MSR backing this domain.
    pub fn msr(&self) -> u32 {
        match self {
            Domain::Package => MSR_PKG_ENERGY_STATUS,
            Domain::Pp0 => MSR_PP0_ENERGY_STATUS,
            Domain::Pp1 => MSR_PP1_ENERGY_STATUS,
            Domain::Dram => MSR_DRAM_ENERGY_STATUS,
        }
    }

    /// Domain measured by a given energy-status MSR address.
    pub fn from_msr(addr: u32) -> Option<Domain> {
        match addr {
            MSR_PKG_ENERGY_STATUS => Some(Domain::Package),
            MSR_PP0_ENERGY_STATUS => Some(Domain::Pp0),
            MSR_PP1_ENERGY_STATUS => Some(Domain::Pp1),
            MSR_DRAM_ENERGY_STATUS => Some(Domain::Dram),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msr_roundtrip() {
        for d in [Domain::Package, Domain::Pp0, Domain::Pp1, Domain::Dram] {
            assert_eq!(Domain::from_msr(d.msr()), Some(d));
        }
        assert_eq!(Domain::from_msr(0x123), None);
    }
}
