//! The powercap component's event names.
//!
//! The paper's `papi_monitoring.h` keeps an `event_names` array holding
//! the powercap events its framework monitors; this module produces that
//! list for a node.

use crate::events::{EventCode, EventKind};
use greenla_rapl::Domain;

/// The energy events the paper's framework monitors: "CPU packages 0 and 1,
/// as well as DRAM 0 and 1" — package and DRAM energies for every socket.
pub fn paper_event_names(sockets: usize) -> Vec<String> {
    let mut names = Vec::new();
    for socket in 0..sockets {
        names.push(
            EventCode {
                kind: EventKind::EnergyUj,
                socket,
                domain: Domain::Package,
            }
            .name(),
        );
    }
    for socket in 0..sockets {
        names.push(
            EventCode {
                kind: EventKind::EnergyUj,
                socket,
                domain: Domain::Dram,
            }
            .name(),
        );
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_events_are_pkg01_dram01() {
        let names = paper_event_names(2);
        assert_eq!(
            names,
            vec![
                "powercap:::ENERGY_UJ:ZONE0",
                "powercap:::ENERGY_UJ:ZONE1",
                "powercap:::ENERGY_UJ:ZONE0_SUBZONE1",
                "powercap:::ENERGY_UJ:ZONE1_SUBZONE1",
            ]
        );
    }
}
