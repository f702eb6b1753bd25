//! The simulated RAPL device: counters backed by the power model and the
//! activity ledger.

use crate::counter::{joules_to_count, quantize_read_time, UPDATE_PERIOD_S};
use crate::cpuid::CpuModel;
use crate::domains::Domain;
use crate::msr::{
    MsrAccess, MsrError, MSR_DRAM_ENERGY_STATUS, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT,
    MSR_PP0_ENERGY_STATUS, MSR_PP1_ENERGY_STATUS, MSR_RAPL_POWER_UNIT,
};
use crate::units::{RaplUnits, SKX_RAPL_POWER_UNIT};
use greenla_cluster::ledger::Ledger;
use greenla_cluster::PowerModel;
use greenla_faults::{CounterFaultKind, FaultSink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// RAPL for one simulated job: one logical MSR file per `(node, socket)`.
///
/// Reads are time-indexed: the caller supplies the *virtual* time of the
/// read (its rank clock), and the device reports the energy accumulated in
/// `[0, t]` — quantised to the counter's ~1 ms update grid and wrapped to 32
/// bits, exactly like hardware.
pub struct RaplSim {
    ledger: Arc<Ledger>,
    power: PowerModel,
    seed: u64,
    access: MsrAccess,
    cpu: CpuModel,
    /// Programmed `MSR_PKG_POWER_LIMIT` values per (node, socket). Writes
    /// are stored and read back; on real hardware the PCU then throttles —
    /// in this virtual-time simulation throttling must be configured at
    /// machine construction via [`PowerModel::with_power_cap`], because a
    /// run's timing cannot be re-derived retroactively.
    power_limits: Mutex<HashMap<(usize, usize), u64>>,
    /// Planned measurement faults (wrap storms, stuck counters, failing
    /// reads). Disabled by default; the ground-truth path never consults
    /// it, so external-meter comparisons stay exact even in faulted runs.
    faults: FaultSink,
}

fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl RaplSim {
    /// Build with full msr access (the configuration on the paper's
    /// testbed).
    pub fn new(ledger: Arc<Ledger>, power: PowerModel, seed: u64) -> Self {
        let cpu = CpuModel::detect(&ledger.node_spec().cpu);
        Self {
            ledger,
            power,
            seed,
            access: MsrAccess::permitted(),
            cpu,
            power_limits: Mutex::new(HashMap::new()),
            faults: FaultSink::disabled(),
        }
    }

    /// Build with explicit access state (to exercise failure paths).
    pub fn with_access(
        ledger: Arc<Ledger>,
        power: PowerModel,
        seed: u64,
        access: MsrAccess,
    ) -> Self {
        let cpu = CpuModel::detect(&ledger.node_spec().cpu);
        Self {
            ledger,
            power,
            seed,
            access,
            cpu,
            power_limits: Mutex::new(HashMap::new()),
            faults: FaultSink::disabled(),
        }
    }

    /// Attach a fault-injection sink (shared with the machine running the
    /// job, so one `FaultReport` covers runtime and measurement faults).
    pub fn with_faults(mut self, sink: FaultSink) -> Self {
        self.faults = sink;
        self
    }

    pub fn cpu(&self) -> CpuModel {
        self.cpu
    }

    pub fn nodes(&self) -> usize {
        self.ledger.nodes()
    }

    pub fn sockets_per_node(&self) -> usize {
        self.ledger.node_spec().sockets
    }

    /// Decoded units for this CPU.
    pub fn units(&self) -> RaplUnits {
        RaplUnits::decode(SKX_RAPL_POWER_UNIT, self.cpu)
    }

    fn check_location(&self, node: usize, socket: usize) -> Result<(), MsrError> {
        if node >= self.nodes() {
            return Err(MsrError::NoSuchNode(node));
        }
        if socket >= self.sockets_per_node() {
            return Err(MsrError::NoSuchSocket(socket));
        }
        Ok(())
    }

    /// Per-domain counter-update phase in `[0, 1 ms)`.
    fn phase(&self, node: usize, socket: usize, domain: Domain) -> f64 {
        let d = match domain {
            Domain::Package => 0u64,
            Domain::Pp0 => 1,
            Domain::Pp1 => 2,
            Domain::Dram => 3,
        };
        let h = mix(self.seed ^ (node as u64) << 32 ^ (socket as u64) << 8 ^ d);
        (h >> 11) as f64 / (1u64 << 53) as f64 * UPDATE_PERIOD_S
    }

    /// Continuous (un-quantised, un-wrapped) model energy — the "external
    /// power meter" ground truth the paper plans to integrate in future
    /// work.
    pub fn ground_truth_j(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        t: f64,
    ) -> Result<f64, MsrError> {
        self.check_location(node, socket)?;
        match domain {
            Domain::Package => {
                Ok(self
                    .power
                    .pkg_energy_j(&self.ledger, node, socket, t, self.seed))
            }
            Domain::Pp0 => Ok(self
                .power
                .pp0_energy_j(&self.ledger, node, socket, t, self.seed)),
            Domain::Dram => Ok(self
                .power
                .dram_energy_j(&self.ledger, node, socket, t, self.seed)),
            Domain::Pp1 => {
                if self.cpu.has_pp1() {
                    Ok(0.0)
                } else {
                    Err(MsrError::UnsupportedRegister(MSR_PP1_ENERGY_STATUS))
                }
            }
        }
    }

    /// Counter energy as the *register* reports it at the (already
    /// quantised) read time `tq`: ground truth, unless a planned
    /// measurement fault covers this `(node, socket)` — a stuck counter
    /// freezes at its onset value, a wrap storm piles phantom joules on
    /// top (wrapping the 32-bit register many times between reads), and a
    /// glitch fails the read outright.
    fn register_energy_j(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        tq: f64,
    ) -> Result<f64, MsrError> {
        match self.faults.counter_fault(node, socket, tq) {
            None => self.ground_truth_j(node, socket, domain, tq),
            Some((CounterFaultKind::Glitch, _)) => Err(MsrError::Faulted),
            Some((CounterFaultKind::Stuck, from_s)) => {
                let tf = quantize_read_time(from_s, self.phase(node, socket, domain));
                self.ground_truth_j(node, socket, domain, tf)
            }
            Some((CounterFaultKind::WrapStorm { extra_w }, from_s)) => {
                let truth = self.ground_truth_j(node, socket, domain, tq)?;
                Ok(truth + extra_w * (tq - from_s).max(0.0))
            }
        }
    }

    /// Read an MSR of `(node, socket)` at virtual time `t` — the full
    /// hardware path: access check, quantisation, unit conversion, 32-bit
    /// wrap.
    pub fn read_msr(&self, node: usize, socket: usize, addr: u32, t: f64) -> Result<u64, MsrError> {
        self.access.check()?;
        self.check_location(node, socket)?;
        match addr {
            MSR_RAPL_POWER_UNIT => Ok(SKX_RAPL_POWER_UNIT),
            MSR_PKG_POWER_LIMIT => Ok(self
                .power_limits
                .lock()
                .get(&(node, socket))
                .copied()
                .unwrap_or(0)),
            MSR_PKG_ENERGY_STATUS
            | MSR_PP0_ENERGY_STATUS
            | MSR_DRAM_ENERGY_STATUS
            | MSR_PP1_ENERGY_STATUS => {
                let domain = Domain::from_msr(addr).expect("energy MSR");
                if domain == Domain::Pp1 && !self.cpu.has_pp1() {
                    return Err(MsrError::UnsupportedRegister(addr));
                }
                let tq = quantize_read_time(t, self.phase(node, socket, domain));
                let joules = self.register_energy_j(node, socket, domain, tq)?;
                let units = self.units();
                let unit_j = if domain == Domain::Dram {
                    units.dram_energy_j
                } else {
                    units.energy_j
                };
                Ok(joules_to_count(joules, unit_j))
            }
            other => Err(MsrError::UnsupportedRegister(other)),
        }
    }

    /// Write an MSR. Only `MSR_PKG_POWER_LIMIT` is writable (the paper's
    /// future-work power-capping hook); everything else is read-only, as on
    /// hardware.
    pub fn write_msr(
        &self,
        node: usize,
        socket: usize,
        addr: u32,
        value: u64,
    ) -> Result<(), MsrError> {
        self.access.check()?;
        self.check_location(node, socket)?;
        match addr {
            MSR_PKG_POWER_LIMIT => {
                self.power_limits.lock().insert((node, socket), value);
                Ok(())
            }
            other => Err(MsrError::UnsupportedRegister(other)),
        }
    }

    /// Convenience used by the powercap layer: energy in microjoules, with
    /// the counter quantisation applied but the wrap undone as long as the
    /// cumulative energy stays below one wrap (the powercap sysfs daemon
    /// accumulates wraps; we model a reader that has been attached since
    /// t = 0).
    pub fn energy_uj(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        t: f64,
    ) -> Result<u64, MsrError> {
        self.access.check()?;
        self.check_location(node, socket)?;
        if domain == Domain::Pp1 && !self.cpu.has_pp1() {
            return Err(MsrError::UnsupportedRegister(MSR_PP1_ENERGY_STATUS));
        }
        let tq = quantize_read_time(t, self.phase(node, socket, domain));
        let joules = self.register_energy_j(node, socket, domain, tq)?;
        Ok((joules * 1e6) as u64)
    }

    /// powercap's advertised wrap range for a domain, in µJ.
    pub fn max_energy_range_uj(&self, domain: Domain) -> u64 {
        let units = self.units();
        let unit_j = if domain == Domain::Dram {
            units.dram_energy_j
        } else {
            units.energy_j
        };
        (unit_j * 4.294967296e9 * 1e6) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::ledger::{ActivityKind, Interval};
    use greenla_cluster::spec::NodeSpec;
    use greenla_cluster::topology::CoreId;

    fn sim_with_activity() -> RaplSim {
        let ledger = Arc::new(Ledger::new(NodeSpec::marconi_a3(), 2));
        for c in 0..24 {
            ledger.record(
                CoreId::new(0, 0, c),
                Interval {
                    start: 0.0,
                    end: 10.0,
                    kind: ActivityKind::Compute,
                    flops: 1000,
                },
            );
        }
        ledger.record_dram(0, 0, 1.0, 5_000_000_000);
        RaplSim::new(ledger, PowerModel::deterministic(), 0)
    }

    #[test]
    fn full_read_path_matches_ground_truth() {
        let sim = sim_with_activity();
        let t = 10.0;
        let raw = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, t).unwrap();
        let decoded = raw as f64 * sim.units().energy_j;
        let truth = sim.ground_truth_j(0, 0, Domain::Package, t).unwrap();
        // Quantisation may lose up to 1 ms of energy (< 0.2 J at ~150 W)
        // plus one counter unit.
        assert!(
            (decoded - truth).abs() < 0.2,
            "decoded {decoded} truth {truth}"
        );
        assert!(truth > 1000.0, "10 s of a loaded socket should exceed 1 kJ");
    }

    #[test]
    fn dram_counter_uses_fixed_unit() {
        let sim = sim_with_activity();
        let raw = sim.read_msr(0, 0, MSR_DRAM_ENERGY_STATUS, 10.0).unwrap();
        let truth = sim.ground_truth_j(0, 0, Domain::Dram, 10.0).unwrap();
        let with_dram_unit = raw as f64 * sim.units().dram_energy_j;
        let with_pkg_unit = raw as f64 * sim.units().energy_j;
        assert!((with_dram_unit - truth).abs() < 0.1);
        assert!(
            (with_pkg_unit - truth).abs() > truth,
            "pkg unit must be badly wrong for DRAM"
        );
    }

    #[test]
    fn counters_are_monotone_before_wrap() {
        let sim = sim_with_activity();
        let mut last = 0;
        for i in 1..=10 {
            let t = i as f64;
            let c = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, t).unwrap();
            assert!(c >= last, "counter regressed at t={t}");
            last = c;
        }
    }

    #[test]
    fn immediate_rereads_can_be_equal() {
        let sim = sim_with_activity();
        let a = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 5.0001).unwrap();
        let b = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 5.0002).unwrap();
        // Reads 0.1 ms apart usually land in the same update slot.
        // (This can only differ if an update boundary falls between them;
        // with the deterministic phase for this seed it does not.)
        assert_eq!(a, b);
    }

    #[test]
    fn pp1_unsupported_on_skylake() {
        let sim = sim_with_activity();
        assert_eq!(
            sim.read_msr(0, 0, MSR_PP1_ENERGY_STATUS, 1.0),
            Err(MsrError::UnsupportedRegister(MSR_PP1_ENERGY_STATUS))
        );
    }

    #[test]
    fn access_control_enforced() {
        let ledger = Arc::new(Ledger::new(NodeSpec::marconi_a3(), 1));
        let sim = RaplSim::with_access(
            ledger,
            PowerModel::deterministic(),
            0,
            MsrAccess {
                driver_loaded: true,
                read_permitted: false,
            },
        );
        assert_eq!(
            sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 1.0),
            Err(MsrError::PermissionDenied)
        );
    }

    #[test]
    fn bad_locations_rejected() {
        let sim = sim_with_activity();
        assert_eq!(
            sim.read_msr(5, 0, MSR_PKG_ENERGY_STATUS, 1.0),
            Err(MsrError::NoSuchNode(5))
        );
        assert_eq!(
            sim.read_msr(0, 7, MSR_PKG_ENERGY_STATUS, 1.0),
            Err(MsrError::NoSuchSocket(7))
        );
    }

    #[test]
    fn unknown_msr_rejected() {
        let sim = sim_with_activity();
        assert_eq!(
            sim.read_msr(0, 0, 0x1234, 1.0),
            Err(MsrError::UnsupportedRegister(0x1234))
        );
    }

    #[test]
    fn idle_socket_energy_is_half_ish_of_loaded() {
        let sim = sim_with_activity();
        let loaded = sim.ground_truth_j(0, 0, Domain::Package, 10.0).unwrap();
        let idle = sim.ground_truth_j(0, 1, Domain::Package, 10.0).unwrap();
        let ratio = idle / loaded;
        assert!((0.35..0.65).contains(&ratio), "idle/loaded = {ratio}");
    }

    #[test]
    fn stuck_counter_freezes_at_onset() {
        use greenla_faults::{CounterFault, FaultPlan};
        let plan = FaultPlan {
            counters: vec![CounterFault {
                node: 0,
                socket: 0,
                from_s: 2.0,
                kind: greenla_faults::CounterFaultKind::Stuck,
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let sim = sim_with_activity().with_faults(sink.clone());
        let before = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 1.0).unwrap();
        let at_onset = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 2.0).unwrap();
        let later = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 8.0).unwrap();
        assert!(before < at_onset, "counter lives until the onset");
        assert_eq!(at_onset, later, "stuck counter must not advance");
        // The untouched socket keeps counting.
        let other = sim.read_msr(0, 1, MSR_PKG_ENERGY_STATUS, 8.0).unwrap();
        assert!(other > 0);
        let rep = sink.report();
        assert_eq!(rep.injected.counter, 1);
    }

    #[test]
    fn glitched_counter_fails_reads_after_onset() {
        use greenla_faults::{CounterFault, FaultPlan};
        let plan = FaultPlan {
            counters: vec![CounterFault {
                node: 0,
                socket: 0,
                from_s: 2.0,
                kind: greenla_faults::CounterFaultKind::Glitch,
            }],
            ..Default::default()
        };
        let sim = sim_with_activity().with_faults(FaultSink::with_plan(plan));
        assert!(sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 1.0).is_ok());
        assert_eq!(
            sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, 3.0),
            Err(MsrError::Faulted)
        );
        assert_eq!(
            sim.energy_uj(0, 0, Domain::Package, 3.0),
            Err(MsrError::Faulted)
        );
    }

    #[test]
    fn wrap_storm_is_recovered_by_hinted_delta() {
        use crate::counter::{delta_joules, delta_joules_with_hint, wrap_range_j};
        use greenla_faults::{CounterFault, FaultPlan};
        // ~1e8 W of phantom power wraps the 32-bit register several times
        // between two reads 8 s apart.
        let extra_w = 1.0e8;
        let plan = FaultPlan {
            counters: vec![CounterFault {
                node: 0,
                socket: 0,
                from_s: 0.0,
                kind: greenla_faults::CounterFaultKind::WrapStorm { extra_w },
            }],
            ..Default::default()
        };
        let sim = sim_with_activity().with_faults(FaultSink::with_plan(plan));
        let unit = sim.units().energy_j;
        let t1 = 1.0;
        let t2 = 9.0;
        let c1 = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, t1).unwrap();
        let c2 = sim.read_msr(0, 0, MSR_PKG_ENERGY_STATUS, t2).unwrap();
        let expected = extra_w * (t2 - t1); // dominates the real ~150 W
        assert!(
            expected > 2.0 * wrap_range_j(unit),
            "storm must span multiple wraps for this test to bite"
        );
        let naive = delta_joules(c1, c2, unit);
        let hinted = delta_joules_with_hint(c1, c2, unit, expected);
        assert!(
            (hinted - expected).abs() / expected < 0.01,
            "hinted {hinted} vs expected {expected}"
        );
        assert!(
            (naive - expected).abs() / expected > 0.5,
            "naive reconstruction must be badly wrong under a storm: {naive}"
        );
    }

    #[test]
    fn energy_uj_is_microjoules() {
        let sim = sim_with_activity();
        let uj = sim.energy_uj(0, 0, Domain::Package, 10.0).unwrap();
        let truth = sim.ground_truth_j(0, 0, Domain::Package, 10.0).unwrap();
        assert!((uj as f64 / 1e6 - truth).abs() < 0.2);
    }
}
