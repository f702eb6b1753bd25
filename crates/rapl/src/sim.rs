//! The simulated RAPL device: counters backed by the power model and the
//! activity ledger.

use crate::counter::{quantize_read_time, UPDATE_PERIOD_S};
use crate::cpuid::CpuModel;
use crate::domains::Domain;
use greenla_cluster::ledger::Ledger;
use greenla_cluster::PowerModel;
use greenla_faults::{CounterFaultKind, FaultSink};
use std::sync::Arc;

/// Failures of a simulated RAPL counter read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsrError {
    /// The CPU model predates RAPL (anything before Sandy Bridge): there
    /// are no energy counters to read.
    NoRapl(CpuModel),
    /// The domain does not exist on this CPU model (e.g. PP1 on
    /// Skylake-SP).
    UnsupportedDomain(Domain),
    /// Socket index out of range for the node.
    NoSuchSocket(usize),
    /// Node index out of range for the job.
    NoSuchNode(usize),
    /// An injected measurement fault: the counter read failed outright
    /// (models a dead powercap sysfs node mid-run).
    Faulted,
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::NoRapl(cpu) => write!(
                f,
                "CPU family {} model {:#x} has no RAPL energy counters",
                cpu.family, cpu.model
            ),
            MsrError::UnsupportedDomain(d) => write!(f, "unsupported RAPL domain {d:?}"),
            MsrError::NoSuchSocket(s) => write!(f, "no such socket {s}"),
            MsrError::NoSuchNode(n) => write!(f, "no such node {n}"),
            MsrError::Faulted => write!(f, "injected measurement fault"),
        }
    }
}

impl std::error::Error for MsrError {}

/// RAPL for one simulated job: one set of domain counters per
/// `(node, socket)`.
///
/// Reads are time-indexed: the caller supplies the *virtual* time of the
/// read (its rank clock), and the device reports the energy accumulated in
/// `[0, t]`, quantised to the counter's ~1 ms update grid, exactly like
/// hardware.
pub struct RaplSim {
    ledger: Arc<Ledger>,
    power: PowerModel,
    seed: u64,
    cpu: CpuModel,
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
    /// The counters of the job whose activity `ledger` records, integrated
    /// under `power`; `seed` fixes the per-domain update phases.
    pub fn new(ledger: Arc<Ledger>, power: PowerModel, seed: u64) -> Self {
        let cpu = CpuModel::detect(&ledger.node_spec().cpu);
        Self {
            ledger,
            power,
            seed,
            cpu,
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

    /// Does `(node, socket, domain)` exist on this machine?
    fn check(&self, node: usize, socket: usize, domain: Domain) -> Result<(), MsrError> {
        if node >= self.nodes() {
            return Err(MsrError::NoSuchNode(node));
        }
        if socket >= self.sockets_per_node() {
            return Err(MsrError::NoSuchSocket(socket));
        }
        if domain == Domain::Pp1 && !self.cpu.has_pp1() {
            return Err(MsrError::UnsupportedDomain(domain));
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

    /// Model energy of a checked location in `[0, t]`.
    fn model_energy_j(&self, node: usize, socket: usize, domain: Domain, t: f64) -> f64 {
        let (ledger, seed) = (&self.ledger, self.seed);
        match domain {
            Domain::Package => self.power.pkg_energy_j(ledger, node, socket, t, seed),
            Domain::Pp0 => self.power.pp0_energy_j(ledger, node, socket, t, seed),
            Domain::Dram => self.power.dram_energy_j(ledger, node, socket, t, seed),
            Domain::Pp1 => 0.0,
        }
    }

    /// Continuous (un-quantised, fault-free) model energy — the "external
    /// power meter" ground truth the paper plans to integrate in future
    /// work.
    pub fn ground_truth_j(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        t: f64,
    ) -> Result<f64, MsrError> {
        self.check(node, socket, domain)?;
        Ok(self.model_energy_j(node, socket, domain, t))
    }

    /// Counter energy as the device reports it at the (already quantised)
    /// read time `tq`: ground truth, unless a planned measurement fault
    /// covers this `(node, socket)` — a stuck counter freezes at its onset
    /// value, a wrap storm piles `extra_w × (tq − from_s)` phantom joules
    /// on top, and a glitch fails the read outright.
    fn register_energy_j(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        tq: f64,
    ) -> Result<f64, MsrError> {
        let truth_at = |t| self.model_energy_j(node, socket, domain, t);
        match self.faults.counter_fault(node, socket, tq) {
            None => Ok(truth_at(tq)),
            Some((CounterFaultKind::Glitch, _)) => Err(MsrError::Faulted),
            Some((CounterFaultKind::Stuck, from_s)) => Ok(truth_at(quantize_read_time(
                from_s,
                self.phase(node, socket, domain),
            ))),
            Some((CounterFaultKind::WrapStorm { extra_w }, from_s)) => {
                Ok(truth_at(tq) + extra_w * (tq - from_s).max(0.0))
            }
        }
    }

    /// Cumulative energy of `(node, socket, domain)` in µJ at virtual time
    /// `t`, as powercap's `energy_uj` reports it: quantised to the
    /// counter's update grid and never wrapped (the powercap reader
    /// accumulates wraps; we model one attached since t = 0). This is the
    /// device's only counter read, and a CPU without RAPL refuses it.
    pub fn energy_uj(
        &self,
        node: usize,
        socket: usize,
        domain: Domain,
        t: f64,
    ) -> Result<u64, MsrError> {
        if !self.cpu.supports_rapl() {
            return Err(MsrError::NoRapl(self.cpu));
        }
        self.check(node, socket, domain)?;
        let tq = quantize_read_time(t, self.phase(node, socket, domain));
        let joules = self.register_energy_j(node, socket, domain, tq)?;
        Ok((joules * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::ledger::{ActivityKind, Interval};
    use greenla_cluster::spec::NodeSpec;
    use greenla_cluster::topology::CoreId;
    use greenla_faults::{CounterFault, FaultPlan};

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
        ledger.record_dram(CoreId::new(0, 0, 0), 1.0, 5_000_000_000);
        RaplSim::new(ledger, PowerModel::deterministic(), 0)
    }

    /// `sim_with_activity` with one counter fault on node 0, socket 0.
    fn faulted(from_s: f64, kind: CounterFaultKind) -> (RaplSim, FaultSink) {
        let plan = FaultPlan {
            counters: vec![CounterFault {
                node: 0,
                socket: 0,
                from_s,
                kind,
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        (sim_with_activity().with_faults(sink.clone()), sink)
    }

    fn pkg_uj(sim: &RaplSim, socket: usize, t: f64) -> Result<u64, MsrError> {
        sim.energy_uj(0, socket, Domain::Package, t)
    }

    #[test]
    fn counters_are_monotone_before_wrap() {
        let sim = sim_with_activity();
        let mut last = 0;
        for i in 1..=10 {
            let t = i as f64;
            let uj = pkg_uj(&sim, 0, t).unwrap();
            assert!(uj >= last, "counter regressed at t={t}");
            last = uj;
        }
    }

    #[test]
    fn immediate_rereads_can_be_equal() {
        let sim = sim_with_activity();
        let a = pkg_uj(&sim, 0, 5.0001).unwrap();
        let b = pkg_uj(&sim, 0, 5.0002).unwrap();
        // Reads 0.1 ms apart usually land in the same update slot.
        // (This can only differ if an update boundary falls between them;
        // with the deterministic phase for this seed it does not.)
        assert_eq!(a, b);
    }

    #[test]
    fn pp1_unsupported_on_skylake() {
        let sim = sim_with_activity();
        assert_eq!(
            sim.energy_uj(0, 0, Domain::Pp1, 1.0),
            Err(MsrError::UnsupportedDomain(Domain::Pp1))
        );
    }

    #[test]
    fn cpu_without_rapl_refuses_reads_but_not_the_meter() {
        let mut spec = NodeSpec::marconi_a3();
        spec.cpu.model = 0x1a; // Nehalem
        let sim = RaplSim::new(
            Arc::new(Ledger::new(spec, 1)),
            PowerModel::deterministic(),
            0,
        );
        assert_eq!(pkg_uj(&sim, 0, 1.0), Err(MsrError::NoRapl(sim.cpu())));
        assert!(sim.ground_truth_j(0, 0, Domain::Package, 1.0).unwrap() > 0.0);
    }

    #[test]
    fn bad_locations_rejected() {
        let sim = sim_with_activity();
        assert_eq!(
            sim.energy_uj(5, 0, Domain::Package, 1.0),
            Err(MsrError::NoSuchNode(5))
        );
        assert_eq!(pkg_uj(&sim, 7, 1.0), Err(MsrError::NoSuchSocket(7)));
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
        let (sim, sink) = faulted(2.0, CounterFaultKind::Stuck);
        let before = pkg_uj(&sim, 0, 1.0).unwrap();
        let at_onset = pkg_uj(&sim, 0, 2.0).unwrap();
        let later = pkg_uj(&sim, 0, 8.0).unwrap();
        assert!(before < at_onset, "counter lives until the onset");
        assert_eq!(at_onset, later, "stuck counter must not advance");
        // The untouched socket keeps counting.
        assert!(pkg_uj(&sim, 1, 8.0).unwrap() > 0);
        let rep = sink.report();
        assert_eq!(rep.injected.counter, 1);
    }

    #[test]
    fn glitched_counter_fails_reads_after_onset() {
        let (sim, _) = faulted(2.0, CounterFaultKind::Glitch);
        assert!(pkg_uj(&sim, 0, 1.0).is_ok());
        assert_eq!(pkg_uj(&sim, 0, 3.0), Err(MsrError::Faulted));
    }

    #[test]
    fn wrap_storm_adds_phantom_joules_to_every_read() {
        // Nothing reconstructs a storm: each read after the onset carries
        // `extra_w × (t − from_s)` joules the socket never drew.
        let extra_w = 1.0e3;
        let (sim, sink) = faulted(1.0, CounterFaultKind::WrapStorm { extra_w });
        let clean = sim_with_activity();
        for t in [0.5, 4.0, 9.0] {
            let phantom_j =
                (pkg_uj(&sim, 0, t).unwrap() as f64 - pkg_uj(&clean, 0, t).unwrap() as f64) / 1e6;
            let want = extra_w * (t - 1.0f64).max(0.0);
            assert!((phantom_j - want).abs() < 2.0, "t={t}: {phantom_j} J");
        }
        assert_eq!(pkg_uj(&sim, 1, 9.0), pkg_uj(&clean, 1, 9.0));
        assert_eq!(sink.report().recovered.counter, 0);
    }

    #[test]
    fn energy_uj_is_microjoules() {
        let sim = sim_with_activity();
        let uj = pkg_uj(&sim, 0, 10.0).unwrap();
        let truth = sim.ground_truth_j(0, 0, Domain::Package, 10.0).unwrap();
        assert!((uj as f64 / 1e6 - truth).abs() < 0.2);
    }
}
