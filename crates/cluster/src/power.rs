//! The power model behind the simulated RAPL counters.
//!
//! Package power is modelled as a fixed uncore component, a per-core idle
//! floor, and per-core dynamic increments that depend on what the core is
//! doing; DRAM power is a static rail plus an energy-per-byte dynamic term.
//! Energy is the integral of those powers over the activity recorded in the
//! [`Ledger`].
//!
//! Calibration targets (the paper's qualitative findings that must emerge):
//!
//! * an *idle* socket draws 40–50 % of a fully loaded one (§5.3 reports the
//!   second socket "50–60 % lower" than the first);
//! * a loaded Skylake 8160 socket stays near its 150 W TDP;
//! * DRAM power is workload-sensitive enough that IMe's larger working set
//!   (2n² table vs n² matrix) produces a visible DRAM gap (12–42 %).

use crate::jitter;
use crate::ledger::Ledger;
use serde::{Deserialize, Serialize};

/// Power/energy coefficients for one node type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Package power that exists as soon as the socket is powered (uncore,
    /// mesh, LLC, memory controllers), watts.
    pub pkg_uncore_w: f64,
    /// Per-core power when idle/parked, watts.
    pub core_idle_w: f64,
    /// Additional per-core power while executing floating-point work, watts.
    pub core_compute_w: f64,
    /// Additional per-core power while progressing communication (spinning
    /// in MPI, memcpy), watts; lower than compute but well above idle.
    pub core_comm_w: f64,
    /// Static power of one DRAM domain (one socket's DIMMs), watts.
    pub dram_static_w: f64,
    /// Dynamic DRAM energy per byte moved, joules/byte.
    pub dram_energy_per_byte_j: f64,
    /// Relative sigma of per-node performance variation.
    pub perf_sigma: f64,
    /// Relative sigma of per-node power variation.
    pub power_sigma: f64,
    /// DVFS frequency scale in (0, 1] applied by a RAPL power cap
    /// (`1.0` = uncapped). Compute slows by `1/freq_scale`; dynamic core
    /// power scales by `freq_scale³` (frequency × voltage²), so energy per
    /// flop drops quadratically — the trade-off the paper's future-work
    /// power-cap study targets. Produced by [`PowerModel::with_power_cap`].
    #[serde(default = "one")]
    pub freq_scale: f64,
}

fn one() -> f64 {
    1.0
}

impl PowerModel {
    /// Calibrated for the Marconi A3 Xeon 8160 node (see module docs).
    /// Loaded socket: 42 + 24·(1.05 + 3.1) ≈ 141.6 W (≈ TDP);
    /// idle socket: 42 + 24·1.05 ≈ 67.2 W ≈ 47 % of loaded.
    pub fn marconi_a3() -> Self {
        Self {
            pkg_uncore_w: 42.0,
            core_idle_w: 1.05,
            core_compute_w: 3.10,
            core_comm_w: 1.80,
            dram_static_w: 4.5,
            dram_energy_per_byte_j: 150.0e-12,
            perf_sigma: 0.03,
            power_sigma: 0.04,
            freq_scale: 1.0,
        }
    }

    /// Apply a RAPL package power cap of `cap_w` watts per socket,
    /// assuming `active_cores` cores busy per socket (the worst-case draw
    /// the governor must fit under the cap). Returns a model whose
    /// `freq_scale` makes a fully-busy socket's power meet the cap:
    /// dynamic core power scales with `f³`, so
    /// `uncore + cores·idle + active·compute·f³ = cap`. Caps at or above
    /// the uncapped draw return the model unchanged; caps below the static
    /// floor clamp to the minimum frequency (0.2).
    pub fn with_power_cap(
        &self,
        node: &crate::spec::NodeSpec,
        active_cores: usize,
        cap_w: f64,
    ) -> PowerModel {
        let cps = node.cpu.cores_per_socket as f64;
        let floor = self.pkg_uncore_w + cps * self.core_idle_w;
        let full_dynamic = active_cores as f64 * self.core_compute_w;
        let f = if full_dynamic <= 0.0 {
            1.0
        } else {
            ((cap_w - floor) / full_dynamic).max(0.0).cbrt()
        };
        PowerModel {
            freq_scale: f.clamp(0.2, 1.0),
            ..self.clone()
        }
    }

    /// Instantaneous power of a fully busy socket under this model
    /// (respecting any cap).
    pub fn loaded_socket_power_w(&self, node: &crate::spec::NodeSpec) -> f64 {
        let cps = node.cpu.cores_per_socket as f64;
        self.pkg_uncore_w
            + cps * self.core_idle_w
            + cps * self.core_compute_w * self.freq_scale.powi(3)
    }

    /// Noise-free variant for deterministic unit tests.
    pub fn deterministic() -> Self {
        Self {
            perf_sigma: 0.0,
            power_sigma: 0.0,
            ..Self::marconi_a3()
        }
    }

    /// Marconi-calibrated model rescaled to a node's socket size: uncore
    /// power scales with the die's core count so scaled-down test nodes
    /// keep the same loaded-vs-idle socket ratio as the 24-core part. Keeps
    /// the qualitative findings (idle socket ≈ half a loaded one)
    /// size-independent.
    pub fn scaled_for(node: &crate::spec::NodeSpec) -> Self {
        let base = Self::marconi_a3();
        let scale = node.cpu.cores_per_socket as f64 / 24.0;
        Self {
            pkg_uncore_w: base.pkg_uncore_w * scale,
            dram_static_w: base.dram_static_w * scale,
            ..base
        }
    }

    /// Noise-free [`PowerModel::scaled_for`].
    pub fn scaled_deterministic(node: &crate::spec::NodeSpec) -> Self {
        Self {
            perf_sigma: 0.0,
            power_sigma: 0.0,
            ..Self::scaled_for(node)
        }
    }

    /// Instantaneous package power for a socket with `cores` total cores of
    /// which `computing` are executing flops and `comming` are in
    /// communication.
    pub fn pkg_power_w(&self, cores: usize, computing: usize, comming: usize) -> f64 {
        debug_assert!(computing + comming <= cores);
        let f3 = self.freq_scale.powi(3);
        self.pkg_uncore_w
            + cores as f64 * self.core_idle_w
            + computing as f64 * self.core_compute_w * f3
            + comming as f64 * self.core_comm_w * f3
    }

    /// Dynamic core energy of `(node, socket)` up to `t` before jitter: one socket read.
    fn core_dynamic_j(&self, ledger: &Ledger, node: usize, socket: usize, t: f64) -> f64 {
        let [compute_s, comm_s] = ledger.socket_busy_until(node, socket, t);
        let f3 = self.freq_scale.powi(3);
        compute_s * self.core_compute_w * f3 + comm_s * self.core_comm_w * f3
    }

    /// Energy consumed by package `(node, socket)` from virtual time 0 to
    /// `t`, in joules, for run `seed`.
    pub fn pkg_energy_j(
        &self,
        ledger: &Ledger,
        node: usize,
        socket: usize,
        t: f64,
        seed: u64,
    ) -> f64 {
        let cores = ledger.node_spec().cpu.cores_per_socket as f64;
        let base = (self.pkg_uncore_w + cores * self.core_idle_w) * t;
        (base + self.core_dynamic_j(ledger, node, socket, t))
            * jitter::node_power(seed, node, self.power_sigma)
    }

    /// Energy consumed by the *core* (PP0) domain of `(node, socket)` up to
    /// `t`: the package energy minus the uncore component — what the
    /// `PP0_ENERGY_STATUS` MSR reports.
    pub fn pp0_energy_j(
        &self,
        ledger: &Ledger,
        node: usize,
        socket: usize,
        t: f64,
        seed: u64,
    ) -> f64 {
        let cores = ledger.node_spec().cpu.cores_per_socket as f64;
        let base = cores * self.core_idle_w * t;
        (base + self.core_dynamic_j(ledger, node, socket, t))
            * jitter::node_power(seed, node, self.power_sigma)
    }

    /// Energy consumed by the DRAM domain of `(node, socket)` up to `t`.
    pub fn dram_energy_j(
        &self,
        ledger: &Ledger,
        node: usize,
        socket: usize,
        t: f64,
        seed: u64,
    ) -> f64 {
        let stat = self.dram_static_w * t;
        let dynamic = ledger.dram_bytes_until(node, socket, t) as f64 * self.dram_energy_per_byte_j;
        (stat + dynamic) * jitter::node_power(seed, node, self.power_sigma)
    }

    /// Per-node performance multiplier (applied by the MPI engine when
    /// charging compute time).
    pub fn perf_multiplier(&self, seed: u64, node: usize) -> f64 {
        jitter::node_perf(seed, node, self.perf_sigma) * self.freq_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{ActivityKind, Interval, Ledger};
    use crate::spec::NodeSpec;
    use crate::topology::CoreId;

    #[test]
    fn loaded_socket_near_tdp_idle_socket_around_half() {
        let pm = PowerModel::marconi_a3();
        let loaded = pm.pkg_power_w(24, 24, 0);
        let idle = pm.pkg_power_w(24, 0, 0);
        assert!(loaded > 130.0 && loaded < 155.0, "loaded = {loaded}");
        let ratio = idle / loaded;
        assert!(
            (0.40..=0.55).contains(&ratio),
            "idle/loaded = {ratio:.2}, paper expects the idle socket 50-60% lower"
        );
    }

    #[test]
    fn energy_is_power_times_time_for_constant_activity() {
        let pm = PowerModel::deterministic();
        let spec = NodeSpec::marconi_a3();
        let ledger = Ledger::new(spec.clone(), 1);
        // All 24 cores of socket 0 compute for exactly 2 seconds.
        for c in 0..24 {
            ledger.record(
                CoreId::new(0, 0, c),
                Interval {
                    start: 0.0,
                    end: 2.0,
                    kind: ActivityKind::Compute,
                    flops: 0,
                },
            );
        }
        let e = pm.pkg_energy_j(&ledger, 0, 0, 2.0, 0);
        let expected = pm.pkg_power_w(24, 24, 0) * 2.0;
        assert!((e - expected).abs() < 1e-9, "{e} vs {expected}");
    }

    #[test]
    fn idle_energy_grows_with_time_even_without_activity() {
        let pm = PowerModel::deterministic();
        let ledger = Ledger::new(NodeSpec::marconi_a3(), 1);
        let e1 = pm.pkg_energy_j(&ledger, 0, 1, 1.0, 0);
        let e2 = pm.pkg_energy_j(&ledger, 0, 1, 2.0, 0);
        assert!(e2 > e1 && e1 > 0.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn comm_draws_less_than_compute() {
        let pm = PowerModel::deterministic();
        let spec = NodeSpec::marconi_a3();
        let mk = |kind| {
            let ledger = Ledger::new(spec.clone(), 1);
            ledger.record(
                CoreId::new(0, 0, 0),
                Interval {
                    start: 0.0,
                    end: 1.0,
                    kind,
                    flops: 0,
                },
            );
            pm.pkg_energy_j(&ledger, 0, 0, 1.0, 0)
        };
        assert!(mk(ActivityKind::Compute) > mk(ActivityKind::Comm));
    }

    #[test]
    fn pp0_is_the_package_less_its_uncore() {
        // Compute and comm spans on one socket of a jittered node: PP0 is
        // the idle floor plus both kinds' dynamic energy, and the package
        // adds exactly the uncore.
        let pm = PowerModel::marconi_a3();
        let ledger = Ledger::new(NodeSpec::marconi_a3(), 2);
        let (node, socket, t, seed) = (1, 0, 3.0, 1);
        for (c, end, kind) in [
            (0, 2.0, ActivityKind::Compute),
            (1, 2.25, ActivityKind::Comm),
            (2, 2.5, ActivityKind::Compute),
        ] {
            let span = Interval {
                start: 0.5,
                end,
                kind,
                flops: 0,
            };
            ledger.record(CoreId::new(node, socket, c), span);
        }
        let pkg = pm.pkg_energy_j(&ledger, node, socket, t, seed);
        let pp0 = pm.pp0_energy_j(&ledger, node, socket, t, seed);
        let power = jitter::node_power(seed, node, pm.power_sigma);
        assert_ne!(power, 1.0);
        let uncore = pm.pkg_uncore_w * t * power;
        assert!(
            ((pkg - pp0) / uncore - 1.0).abs() < 1e-12,
            "{pkg} − {pp0} vs {uncore}"
        );
        let cores = 24.0 * pm.core_idle_w * t;
        let dynamic = 3.5 * pm.core_compute_w + 1.75 * pm.core_comm_w;
        let expected = (cores + dynamic) * power;
        assert!((pp0 / expected - 1.0).abs() < 1e-12, "{pp0} vs {expected}");
        assert!(pp0 < pkg);
    }

    #[test]
    fn dram_energy_includes_traffic() {
        let pm = PowerModel::deterministic();
        let ledger = Ledger::new(NodeSpec::marconi_a3(), 1);
        let static_only = pm.dram_energy_j(&ledger, 0, 0, 1.0, 0);
        ledger.record_dram(CoreId::new(0, 0, 0), 0.5, 1_000_000_000); // 1 GB
        let with_traffic = pm.dram_energy_j(&ledger, 0, 0, 1.0, 0);
        assert!((static_only - pm.dram_static_w).abs() < 1e-12);
        assert!((with_traffic - static_only - 1.0e9 * pm.dram_energy_per_byte_j).abs() < 1e-9);
    }

    #[test]
    fn jitter_perturbs_but_deterministically() {
        let pm = PowerModel::marconi_a3();
        let ledger = Ledger::new(NodeSpec::marconi_a3(), 2);
        let a = pm.pkg_energy_j(&ledger, 0, 0, 1.0, 1);
        let b = pm.pkg_energy_j(&ledger, 0, 0, 1.0, 1);
        let c = pm.pkg_energy_j(&ledger, 0, 0, 1.0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // within ±20 %
        let nominal = pm.pkg_power_w(24, 0, 0);
        assert!((a / nominal - 1.0).abs() < 0.2);
    }
}
