//! The powercap events the framework reads, and their names.
//!
//! The paper monitors "CPU packages 0 and 1, as well as DRAM 0 and 1"
//! through PAPI's powercap component. The component's event names are the
//! reports' key, on disk and in serde, so they are kept byte for byte:
//!
//! ```text
//! powercap:::ENERGY_UJ:ZONE0            package 0 energy (µJ)
//! powercap:::ENERGY_UJ:ZONE1            package 1 energy
//! powercap:::ENERGY_UJ:ZONE0_SUBZONE0   package 0 core (PP0) energy
//! powercap:::ENERGY_UJ:ZONE0_SUBZONE1   package 0 DRAM energy
//! ```

use greenla_rapl::{Domain, MsrError, RaplSim};

const PREFIX: &str = "powercap:::ENERGY_UJ:ZONE";

/// One energy counter of a node: a RAPL domain on a socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EventCode {
    pub(crate) socket: usize,
    pub(crate) domain: Domain,
}

impl EventCode {
    /// The powercap event name.
    pub(crate) fn name(&self) -> String {
        let subzone = match self.domain {
            Domain::Package => "",
            Domain::Pp0 => "_SUBZONE0",
            Domain::Dram => "_SUBZONE1",
            Domain::Pp1 => "_SUBZONE2",
        };
        format!("{PREFIX}{}{subzone}", self.socket)
    }
}

/// The event a powercap name denotes; `None` for any other string.
pub(crate) fn parse(name: &str) -> Option<EventCode> {
    let zone = name.strip_prefix(PREFIX)?;
    let (socket, domain) = match zone.split_once("_SUBZONE") {
        None => (zone, Domain::Package),
        Some((s, "0")) => (s, Domain::Pp0),
        Some((s, "1")) => (s, Domain::Dram),
        Some((s, "2")) => (s, Domain::Pp1),
        Some(_) => return None,
    };
    Some(EventCode {
        socket: socket.parse().ok()?,
        domain,
    })
}

/// The paper's events for a node with `sockets` sockets: every package,
/// then every DRAM — PKG0, PKG1, DRAM0, DRAM1 on the paper's nodes. Reads
/// and sums follow this order.
pub(crate) fn paper_events(sockets: usize) -> Vec<EventCode> {
    [Domain::Package, Domain::Dram]
        .into_iter()
        .flat_map(|domain| (0..sockets).map(move |socket| EventCode { socket, domain }))
        .collect()
}

/// Read every event of `node` at virtual time `t`, in order: the one
/// counter read path of both monitoring modes.
pub(crate) fn read_all(
    rapl: &RaplSim,
    node: usize,
    events: &[EventCode],
    t: f64,
) -> Result<Vec<u64>, MsrError> {
    events
        .iter()
        .map(|e| rapl.energy_uj(node, e.socket, e.domain, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for socket in 0..2 {
            for domain in [Domain::Package, Domain::Pp0, Domain::Pp1, Domain::Dram] {
                let ev = EventCode { socket, domain };
                assert_eq!(
                    parse(&ev.name()),
                    Some(ev),
                    "roundtrip failed for {}",
                    ev.name()
                );
            }
        }
    }

    #[test]
    fn paper_event_names_parse() {
        let e = parse("powercap:::ENERGY_UJ:ZONE0").unwrap();
        assert_eq!((e.socket, e.domain), (0, Domain::Package));
        let e = parse("powercap:::ENERGY_UJ:ZONE1_SUBZONE1").unwrap();
        assert_eq!((e.socket, e.domain), (1, Domain::Dram));
    }

    #[test]
    fn paper_events_are_pkg01_dram01() {
        let names: Vec<_> = paper_events(2).iter().map(EventCode::name).collect();
        assert_eq!(
            names,
            [
                "powercap:::ENERGY_UJ:ZONE0",
                "powercap:::ENERGY_UJ:ZONE1",
                "powercap:::ENERGY_UJ:ZONE0_SUBZONE1",
                "powercap:::ENERGY_UJ:ZONE1_SUBZONE1",
            ]
        );
    }

    #[test]
    fn garbage_names_rejected() {
        for bad in [
            "rapl:::ENERGY_UJ:ZONE0",
            "powercap:::WATTS:ZONE0",
            "powercap:::MAX_ENERGY_RANGE_UJ:ZONE0",
            "powercap:::ENERGY_UJ:REGION0",
            "powercap:::ENERGY_UJ:ZONEx",
            "powercap:::ENERGY_UJ:ZONE0_SUBZONE9",
            "",
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }
}
