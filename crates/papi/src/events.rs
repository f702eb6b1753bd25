//! Event names and codes.
//!
//! The paper monitors "all the powercap event set displayed by PAPI" and
//! translates names to codes with `papi_event_name_to_code`. Event names
//! follow the powercap component's convention:
//!
//! ```text
//! powercap:::ENERGY_UJ:ZONE0            package 0 energy (µJ)
//! powercap:::ENERGY_UJ:ZONE1            package 1 energy
//! powercap:::ENERGY_UJ:ZONE0_SUBZONE0   package 0 core (PP0) energy
//! powercap:::ENERGY_UJ:ZONE0_SUBZONE1   package 0 DRAM energy
//! powercap:::MAX_ENERGY_RANGE_UJ:ZONE0  wrap range of the package-0 counter
//! ```

use crate::error::PapiError;
use greenla_rapl::Domain;

/// What an event measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Cumulative energy in microjoules.
    EnergyUj,
    /// Static counter range (reads as a constant).
    MaxEnergyRangeUj,
}

/// A decoded powercap event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventCode {
    pub kind: EventKind,
    pub socket: usize,
    pub domain: Domain,
}

impl EventCode {
    /// The canonical event name.
    pub fn name(&self) -> String {
        let kind = match self.kind {
            EventKind::EnergyUj => "ENERGY_UJ",
            EventKind::MaxEnergyRangeUj => "MAX_ENERGY_RANGE_UJ",
        };
        let zone = match self.domain {
            Domain::Package => format!("ZONE{}", self.socket),
            Domain::Pp0 => format!("ZONE{}_SUBZONE0", self.socket),
            Domain::Dram => format!("ZONE{}_SUBZONE1", self.socket),
            Domain::Pp1 => format!("ZONE{}_SUBZONE2", self.socket),
        };
        format!("powercap:::{kind}:{zone}")
    }
}

/// `PAPI_event_name_to_code` for the powercap component.
pub fn event_name_to_code(name: &str) -> Result<EventCode, PapiError> {
    let rest = name
        .strip_prefix("powercap:::")
        .ok_or(PapiError::NoSuchEvent)?;
    let (kind_s, zone_s) = rest.split_once(':').ok_or(PapiError::NoSuchEvent)?;
    let kind = match kind_s {
        "ENERGY_UJ" => EventKind::EnergyUj,
        "MAX_ENERGY_RANGE_UJ" => EventKind::MaxEnergyRangeUj,
        _ => return Err(PapiError::NoSuchEvent),
    };
    let zone_rest = zone_s.strip_prefix("ZONE").ok_or(PapiError::NoSuchEvent)?;
    let (socket_s, sub) = match zone_rest.split_once("_SUBZONE") {
        Some((s, sub)) => (s, Some(sub)),
        None => (zone_rest, None),
    };
    let socket: usize = socket_s.parse().map_err(|_| PapiError::NoSuchEvent)?;
    let domain = match sub {
        None => Domain::Package,
        Some("0") => Domain::Pp0,
        Some("1") => Domain::Dram,
        Some("2") => Domain::Pp1,
        Some(_) => return Err(PapiError::NoSuchEvent),
    };
    Ok(EventCode {
        kind,
        socket,
        domain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for socket in 0..2 {
            for domain in [Domain::Package, Domain::Pp0, Domain::Dram] {
                for kind in [EventKind::EnergyUj, EventKind::MaxEnergyRangeUj] {
                    let ev = EventCode {
                        kind,
                        socket,
                        domain,
                    };
                    let back = event_name_to_code(&ev.name()).unwrap();
                    assert_eq!(back, ev, "roundtrip failed for {}", ev.name());
                }
            }
        }
    }

    #[test]
    fn paper_event_names_parse() {
        let e = event_name_to_code("powercap:::ENERGY_UJ:ZONE0").unwrap();
        assert_eq!(e.domain, Domain::Package);
        assert_eq!(e.socket, 0);
        let e = event_name_to_code("powercap:::ENERGY_UJ:ZONE1_SUBZONE1").unwrap();
        assert_eq!(e.domain, Domain::Dram);
        assert_eq!(e.socket, 1);
    }

    #[test]
    fn garbage_names_rejected() {
        for bad in [
            "rapl:::ENERGY_UJ:ZONE0",
            "powercap:::WATTS:ZONE0",
            "powercap:::ENERGY_UJ:REGION0",
            "powercap:::ENERGY_UJ:ZONEx",
            "powercap:::ENERGY_UJ:ZONE0_SUBZONE9",
            "",
        ] {
            assert_eq!(
                event_name_to_code(bad),
                Err(PapiError::NoSuchEvent),
                "{bad}"
            );
        }
    }
}
