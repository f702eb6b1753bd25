//! RAPL unit decoding: the energy unit behind each domain's wrap range.
//!
//! The power-unit register (`MSR_RAPL_POWER_UNIT` on hardware) packs three
//! fields:
//!
//! * bits 3:0 — power unit, `1 / 2^PU` watts;
//! * bits 12:8 — energy status unit, `1 / 2^ESU` joules;
//! * bits 19:16 — time unit, `1 / 2^TU` seconds.
//!
//! Skylake-SP reports `ESU = 14` (≈ 61 µJ) but its **DRAM** domain counts in
//! a fixed `2⁻¹⁶ J` (≈ 15.3 µJ) unit regardless — readers that skip this
//! quirk report DRAM energy 4× too high, a classic RAPL bug this simulation
//! deliberately lets tests exercise.

use crate::cpuid::CpuModel;

/// Skylake-SP's `MSR_RAPL_POWER_UNIT` value: PU=3 (1/8 W), ESU=14
/// (2⁻¹⁴ J), TU=10 (976 µs).
pub const SKX_RAPL_POWER_UNIT: u64 = (10 << 16) | (14 << 8) | 3;

/// Decoded RAPL units for one CPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaplUnits {
    /// Watts per power count.
    pub power_w: f64,
    /// Joules per energy count (PKG and PP0 domains).
    pub energy_j: f64,
    /// Seconds per time count.
    pub time_s: f64,
    /// Joules per energy count in the DRAM domain (differs on servers).
    pub dram_energy_j: f64,
}

impl RaplUnits {
    /// Decode the raw `MSR_RAPL_POWER_UNIT` value for a given CPU model.
    pub fn decode(raw: u64, cpu: CpuModel) -> Self {
        let pu = (raw & 0xf) as i32;
        let esu = ((raw >> 8) & 0x1f) as i32;
        let tu = ((raw >> 16) & 0xf) as i32;
        let energy_j = 0.5f64.powi(esu);
        let dram_energy_j = if cpu.has_fixed_dram_unit() {
            0.5f64.powi(16)
        } else {
            energy_j
        };
        Self {
            power_w: 0.5f64.powi(pu),
            energy_j,
            time_s: 0.5f64.powi(tu),
            dram_energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuid::CpuModel;

    #[test]
    fn skylake_units() {
        let u = RaplUnits::decode(SKX_RAPL_POWER_UNIT, CpuModel::skylake_sp());
        assert!((u.power_w - 0.125).abs() < 1e-15);
        assert!((u.energy_j - 6.103515625e-5).abs() < 1e-15); // 2^-14
        assert!((u.dram_energy_j - 1.52587890625e-5).abs() < 1e-15); // 2^-16
        assert!((u.time_s - 9.765625e-4).abs() < 1e-12); // 2^-10
    }

    #[test]
    fn dram_quirk_only_on_servers() {
        // A hypothetical client CPU model: DRAM unit equals the general ESU.
        let client = CpuModel {
            family: 6,
            model: 0x9e,
        }; // Kaby Lake
        let u = RaplUnits::decode(SKX_RAPL_POWER_UNIT, client);
        assert_eq!(u.dram_energy_j, u.energy_j);
    }

    #[test]
    fn naive_dram_reading_is_4x_off_on_skylake() {
        // The bug the module docs describe: using the ESU for DRAM counts.
        let u = RaplUnits::decode(SKX_RAPL_POWER_UNIT, CpuModel::skylake_sp());
        let counts = 1_000_000u64;
        let correct = counts as f64 * u.dram_energy_j;
        let naive = counts as f64 * u.energy_j;
        assert!((naive / correct - 4.0).abs() < 1e-12);
    }
}
