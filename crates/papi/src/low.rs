//! The low-level PAPI API: library/thread initialisation, event sets, and
//! the start/stop/read/reset state machine with the C library's error
//! behaviour.

use crate::error::PapiError;
use crate::events::{event_name_to_code, EventCode, EventKind};
use crate::reader::EnergyReader;
use greenla_rapl::Domain;

/// Current library version; `library_init` rejects anything else, as the C
/// API does.
pub const PAPI_VER_CURRENT: u32 = 0x07_01_00_00;

/// Handle to an event set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventSetId(usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetState {
    Stopped,
    Running,
}

struct EventSet {
    events: Vec<EventCode>,
    state: SetState,
    /// µJ values latched at `start`, same order as `events`.
    start_uj: Vec<u64>,
}

/// An initialised PAPI library instance for one node, parameterised by its
/// machine-specific counter access.
pub struct Papi<R: EnergyReader> {
    reader: R,
    sets: Vec<Option<EventSet>>,
}

impl<R: EnergyReader> Papi<R> {
    /// `PAPI_library_init`: checks the version and that the platform has a
    /// usable energy component.
    pub fn library_init(version: u32, reader: R) -> Result<Self, PapiError> {
        if version != PAPI_VER_CURRENT {
            return Err(PapiError::Version);
        }
        if !reader.supports_energy() {
            return Err(PapiError::Component);
        }
        Ok(Self {
            reader,
            sets: Vec::new(),
        })
    }

    /// `PAPI_thread_init`. Every simulated rank reads its own node's
    /// counters, so there is no per-thread state to set up.
    pub fn thread_init(&mut self) -> Result<(), PapiError> {
        Ok(())
    }

    /// `PAPI_create_eventset`.
    pub fn create_eventset(&mut self) -> Result<EventSetId, PapiError> {
        let id = self.sets.len();
        self.sets.push(Some(EventSet {
            events: Vec::new(),
            state: SetState::Stopped,
            start_uj: Vec::new(),
        }));
        Ok(EventSetId(id))
    }

    fn set_mut(&mut self, id: EventSetId) -> Result<&mut EventSet, PapiError> {
        self.sets
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .ok_or(PapiError::NoSuchEventSet)
    }

    fn set_ref(&self, id: EventSetId) -> Result<&EventSet, PapiError> {
        self.sets
            .get(id.0)
            .and_then(|s| s.as_ref())
            .ok_or(PapiError::NoSuchEventSet)
    }

    /// `PAPI_add_named_event`: translate and add. Fails on unknown names,
    /// events for sockets the node does not have, domains the CPU lacks,
    /// duplicates, and running sets.
    pub fn add_named_event(&mut self, id: EventSetId, name: &str) -> Result<(), PapiError> {
        let code = event_name_to_code(name)?;
        self.add_event(id, code)
    }

    /// `PAPI_add_event` by code.
    pub fn add_event(&mut self, id: EventSetId, code: EventCode) -> Result<(), PapiError> {
        if code.socket >= self.reader.sockets() {
            return Err(PapiError::NoSuchEvent);
        }
        if code.domain == Domain::Pp1 {
            // Server CPUs have no PP1 plane; the component rejects it.
            return Err(PapiError::NoSuchEvent);
        }
        let set = self.set_mut(id)?;
        if set.state == SetState::Running {
            return Err(PapiError::IsRunning);
        }
        if set.events.contains(&code) {
            return Err(PapiError::Conflict);
        }
        set.events.push(code);
        Ok(())
    }

    fn sample(&self, events: &[EventCode], t: f64) -> Result<Vec<u64>, PapiError> {
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::EnergyUj => self
                    .reader
                    .energy_uj(e.socket, e.domain, t)
                    .map_err(|_| PapiError::Component),
                EventKind::MaxEnergyRangeUj => Ok(self.reader.max_energy_range_uj(e.domain)),
            })
            .collect()
    }

    /// `PAPI_start` at virtual time `t`.
    pub fn start(&mut self, id: EventSetId, t: f64) -> Result<(), PapiError> {
        let events = {
            let set = self.set_ref(id)?;
            if set.state == SetState::Running {
                return Err(PapiError::IsRunning);
            }
            if set.events.is_empty() {
                return Err(PapiError::InvalidArgument);
            }
            set.events.clone()
        };
        let baseline = self.sample(&events, t)?;
        let set = self.set_mut(id)?;
        set.start_uj = baseline;
        set.state = SetState::Running;
        Ok(())
    }

    fn counts_since_start(&self, set: &EventSet, t: f64) -> Result<Vec<i64>, PapiError> {
        let now = self.sample(&set.events, t)?;
        Ok(now
            .iter()
            .zip(&set.start_uj)
            .zip(&set.events)
            .map(|((&cur, &base), ev)| match ev.kind {
                // Energy counters accumulate since start.
                EventKind::EnergyUj => cur.wrapping_sub(base) as i64,
                // Static info events read as their absolute value.
                EventKind::MaxEnergyRangeUj => cur as i64,
            })
            .collect())
    }

    /// `PAPI_read` at virtual time `t`: counts accumulated since `start`.
    pub fn read(&self, id: EventSetId, t: f64) -> Result<Vec<i64>, PapiError> {
        let set = self.set_ref(id)?;
        if set.state != SetState::Running {
            return Err(PapiError::NotRunning);
        }
        self.counts_since_start(set, t)
    }

    /// `PAPI_stop` at virtual time `t`: final counts, set returns to
    /// stopped.
    pub fn stop(&mut self, id: EventSetId, t: f64) -> Result<Vec<i64>, PapiError> {
        let values = {
            let set = self.set_ref(id)?;
            if set.state != SetState::Running {
                return Err(PapiError::NotRunning);
            }
            self.counts_since_start(set, t)?
        };
        self.set_mut(id)?.state = SetState::Stopped;
        Ok(values)
    }

    /// `PAPI_cleanup_eventset`: remove all events (set must be stopped).
    pub fn cleanup_eventset(&mut self, id: EventSetId) -> Result<(), PapiError> {
        let set = self.set_mut(id)?;
        if set.state == SetState::Running {
            return Err(PapiError::IsRunning);
        }
        set.events.clear();
        set.start_uj.clear();
        Ok(())
    }

    /// `PAPI_destroy_eventset`: the handle becomes invalid.
    pub fn destroy_eventset(&mut self, id: EventSetId) -> Result<(), PapiError> {
        {
            let set = self.set_mut(id)?;
            if set.state == SetState::Running {
                return Err(PapiError::IsRunning);
            }
            if !set.events.is_empty() {
                return Err(PapiError::InvalidArgument); // must cleanup first
            }
        }
        self.sets[id.0] = None;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use greenla_rapl::MsrError;

    /// Linear-power mock: package draws `100·(socket+1)` W, DRAM 10 W.
    pub struct MockReader {
        pub sockets: usize,
        pub supports: bool,
    }

    impl EnergyReader for MockReader {
        fn sockets(&self) -> usize {
            self.sockets
        }

        fn supports_energy(&self) -> bool {
            self.supports
        }

        fn energy_uj(&self, socket: usize, domain: Domain, t: f64) -> Result<u64, MsrError> {
            if socket >= self.sockets {
                return Err(MsrError::NoSuchSocket(socket));
            }
            let w = match domain {
                Domain::Package => 100.0 * (socket + 1) as f64,
                Domain::Pp0 => 60.0,
                Domain::Dram => 10.0,
                Domain::Pp1 => return Err(MsrError::UnsupportedDomain(domain)),
            };
            Ok((w * t * 1e6) as u64)
        }

        fn max_energy_range_uj(&self, _domain: Domain) -> u64 {
            262_143_328_850
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::MockReader;
    use super::*;

    fn papi() -> Papi<MockReader> {
        Papi::library_init(
            PAPI_VER_CURRENT,
            MockReader {
                sockets: 2,
                supports: true,
            },
        )
        .unwrap()
    }

    #[test]
    fn init_rejects_wrong_version() {
        let r = Papi::library_init(
            0x06000000,
            MockReader {
                sockets: 2,
                supports: true,
            },
        );
        assert!(matches!(r, Err(PapiError::Version)));
    }

    #[test]
    fn init_rejects_unsupported_platform() {
        let r = Papi::library_init(
            PAPI_VER_CURRENT,
            MockReader {
                sockets: 2,
                supports: false,
            },
        );
        assert!(matches!(r, Err(PapiError::Component)));
    }

    #[test]
    fn full_lifecycle_measures_energy() {
        let mut p = papi();
        p.thread_init().unwrap();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE1")
            .unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0_SUBZONE1")
            .unwrap();
        p.start(set, 1.0).unwrap();
        let vals = p.stop(set, 3.0).unwrap();
        // 2 s at 100 W, 200 W, 10 W.
        assert_eq!(vals, vec![200_000_000, 400_000_000, 20_000_000]);
    }

    #[test]
    fn read_without_start_errors() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        assert_eq!(p.read(set, 1.0), Err(PapiError::NotRunning));
        assert_eq!(p.stop(set, 1.0), Err(PapiError::NotRunning));
    }

    #[test]
    fn double_start_errors() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        p.start(set, 0.0).unwrap();
        assert_eq!(p.start(set, 1.0), Err(PapiError::IsRunning));
    }

    #[test]
    fn add_while_running_errors() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        p.start(set, 0.0).unwrap();
        assert_eq!(
            p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE1"),
            Err(PapiError::IsRunning)
        );
    }

    #[test]
    fn duplicate_event_conflicts() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        assert_eq!(
            p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0"),
            Err(PapiError::Conflict)
        );
    }

    #[test]
    fn start_empty_set_is_invalid() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        assert_eq!(p.start(set, 0.0), Err(PapiError::InvalidArgument));
    }

    #[test]
    fn event_for_missing_socket_rejected() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        assert_eq!(
            p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE5"),
            Err(PapiError::NoSuchEvent)
        );
    }

    #[test]
    fn read_is_cumulative_and_monotone() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        p.start(set, 0.0).unwrap();
        let v1 = p.read(set, 1.0).unwrap()[0];
        let v2 = p.read(set, 2.0).unwrap()[0];
        assert!(v2 > v1);
    }

    #[test]
    fn destroy_requires_cleanup() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::ENERGY_UJ:ZONE0")
            .unwrap();
        assert_eq!(p.destroy_eventset(set), Err(PapiError::InvalidArgument));
        p.cleanup_eventset(set).unwrap();
        p.destroy_eventset(set).unwrap();
        assert_eq!(p.read(set, 0.0), Err(PapiError::NoSuchEventSet));
    }

    #[test]
    fn max_range_event_reads_constant() {
        let mut p = papi();
        let set = p.create_eventset().unwrap();
        p.add_named_event(set, "powercap:::MAX_ENERGY_RANGE_UJ:ZONE0")
            .unwrap();
        p.start(set, 0.0).unwrap();
        let v = p.read(set, 5.0).unwrap();
        assert_eq!(v, vec![262_143_328_850]);
    }
}
