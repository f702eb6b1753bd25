//! Roofline model: per-kernel attainable GFLOP/s and energy from machine
//! ceilings and closed-form kernel profiles.
//!
//! A [`Roofline`] is a set of machine ceilings — in-core flop rates for the
//! code classes the linear-algebra crate actually ships and a per-core DRAM
//! bandwidth. A [`KernelProfile`] is the matching closed-form description
//! of one kernel invocation on one core: how many flops it executes in each
//! code class and how many DRAM bytes it moves (`greenla_linalg::flops`
//! provides the closed forms). [`Roofline::predict`] combines the two the
//! classic way:
//!
//! ```text
//! time = max( Σ_class flops_class / rate_class ,  bytes / bandwidth )
//! ```
//!
//! Two calibrations exist. [`Roofline::from_spec`] reads the ceilings off a
//! [`ClusterSpec`] — this models the *simulated* machine, whose virtual
//! clock charges every flop at one sustained rate, so all the class rates
//! collapse to `sustained_flops_per_core`; the harness validates its
//! predictions against the simulator's RAPL readings. The harness also
//! builds a second, *measured* roofline from short host probes
//! (`greenla_harness::roofline`) and validates that one against the
//! wall-clock GFLOP/s of the single-threaded kernels the solvers run.
//!
//! Energy prediction reuses [`crate::energy::energy`] — the same power
//! coefficients the simulated RAPL integrates — on the roofline-predicted
//! compute time.

use crate::energy::{energy, EnergyPrediction};
use crate::solvers::TimeBreakdown;
use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::PowerModel;

/// Machine ceilings for [`predict`](Roofline::predict): five in-core flop
/// rates (one per code class in `greenla-linalg`) and a per-core memory
/// bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Roofline {
    /// In-core flop/s of one core running the dispatched packed
    /// microkernel on square-ish panels (the `dgemm_packed_*` regime).
    pub simd_flops: f64,
    /// In-core flop/s of the dispatched microkernel on thin
    /// `k = TRSM_BLOCK` panels — packing overhead per flop is higher, so
    /// the trailing updates of the triangular solves run measurably below
    /// [`Self::simd_flops`].
    pub thin_simd_flops: f64,
    /// In-core flop/s of the packed loop nest pinned to the scalar
    /// microkernel (`GREENLA_KERNEL=scalar`).
    pub packed_scalar_flops: f64,
    /// In-core flop/s of the unpacked reference loop nest
    /// (`dgemm_reference`).
    pub reference_flops: f64,
    /// In-core flop/s of the triangular solves' substitution loops —
    /// short, loop-carried dependent runs that no code path vectorizes
    /// well, far below [`Self::reference_flops`].
    pub subst_flops: f64,
    /// DRAM bytes/s available to one core.
    pub mem_bw: f64,
}

/// Closed-form description of one kernel invocation, split by code class.
/// Classes the kernel does not use stay at zero flops.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelProfile {
    /// Flops through the dispatched microkernel on square-ish panels.
    pub simd_flops: f64,
    /// Flops through the dispatched microkernel on thin (`TRSM_BLOCK`-deep)
    /// panels.
    pub thin_simd_flops: f64,
    /// Flops through the scalar-microkernel packed loop nest.
    pub packed_scalar_flops: f64,
    /// Flops through the reference loop nest.
    pub reference_flops: f64,
    /// Flops through triangular-substitution loops.
    pub subst_flops: f64,
    /// DRAM-level bytes moved.
    pub bytes: f64,
}

impl KernelProfile {
    /// Profile of a kernel whose flops all go through the dispatched
    /// microkernel on square-ish panels.
    pub fn simd(flops: f64, bytes: f64) -> Self {
        Self {
            simd_flops: flops,
            bytes,
            ..Self::default()
        }
    }

    /// Profile of a scalar-microkernel packed run.
    pub fn packed_scalar(flops: f64, bytes: f64) -> Self {
        Self {
            packed_scalar_flops: flops,
            bytes,
            ..Self::default()
        }
    }

    /// Profile of a reference-loop run.
    pub fn reference(flops: f64, bytes: f64) -> Self {
        Self {
            reference_flops: flops,
            bytes,
            ..Self::default()
        }
    }

    /// Profile of a sparse-workload sweep (CSR SpMV plus BLAS1 traffic —
    /// the per-rank flop/byte totals come from `greenla_cg::formulas`).
    /// The kernels are plain scalar loops, so the flops ride the
    /// reference-class ceiling; at SpMV's ~1/6 flop-per-byte arithmetic
    /// intensity the prediction pins to the memory ceiling on every
    /// machine this workspace models — the inversion the sparse campaign
    /// demonstrates.
    pub fn sparse(flops: u64, bytes: u64) -> Self {
        Self {
            reference_flops: flops as f64,
            bytes: bytes as f64,
            ..Self::default()
        }
    }

    /// Flops over every code class.
    pub fn total_flops(&self) -> f64 {
        self.simd_flops
            + self.thin_simd_flops
            + self.packed_scalar_flops
            + self.reference_flops
            + self.subst_flops
    }
}

/// What [`Roofline::predict`] derives for one kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflinePrediction {
    /// Predicted wall (or virtual) time of the invocation.
    pub time_s: f64,
    /// Attainable rate: total flops over [`Self::time_s`], in GFLOP/s.
    pub gflops: f64,
    /// Arithmetic intensity, flops per DRAM byte (∞ when `bytes = 0`).
    pub ai: f64,
    /// Whether the in-core term (rather than the bandwidth term) set the
    /// predicted time.
    pub compute_bound: bool,
}

impl Roofline {
    /// Ceilings of the *simulated* machine described by `spec`. The
    /// simulator's virtual clock charges every flop at
    /// `sustained_flops_per_core` regardless of code class, so every
    /// class rate collapses to that figure; bandwidth is a core's share of
    /// its *socket's* DRAM bandwidth (`dram_bw_bytes_per_s` is per socket,
    /// see [`greenla_cluster::spec::NodeSpec`]), exactly what the
    /// simulator's `compute` charge uses. Dividing by the whole node's
    /// cores instead — an easy slip — halves the ceiling and only shows
    /// up on memory-bound profiles, where it overpredicts wall time ~2×.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        let rate = spec.node.cpu.sustained_flops_per_core;
        Self {
            simd_flops: rate,
            thin_simd_flops: rate,
            packed_scalar_flops: rate,
            reference_flops: rate,
            subst_flops: rate,
            mem_bw: spec.node.dram_bw_bytes_per_s / spec.node.cpu.cores_per_socket as f64,
        }
    }

    /// Panics unless every ceiling is positive and finite — a zero rate
    /// would silently predict infinite time.
    pub fn validate(&self) {
        for (name, v) in [
            ("simd_flops", self.simd_flops),
            ("thin_simd_flops", self.thin_simd_flops),
            ("packed_scalar_flops", self.packed_scalar_flops),
            ("reference_flops", self.reference_flops),
            ("subst_flops", self.subst_flops),
            ("mem_bw", self.mem_bw),
        ] {
            assert!(v.is_finite() && v > 0.0, "roofline ceiling {name} = {v}");
        }
    }

    /// Predicted time/rate for one kernel invocation: the slower of the
    /// in-core term (each flop class at its own ceiling) and the memory
    /// term.
    pub fn predict(&self, p: &KernelProfile) -> RooflinePrediction {
        self.validate();
        let in_core = p.simd_flops / self.simd_flops
            + p.thin_simd_flops / self.thin_simd_flops
            + p.packed_scalar_flops / self.packed_scalar_flops
            + p.reference_flops / self.reference_flops
            + p.subst_flops / self.subst_flops;
        let mem = p.bytes / self.mem_bw;
        let time_s = in_core.max(mem);
        let flops = p.total_flops();
        RooflinePrediction {
            time_s,
            gflops: if time_s > 0.0 {
                flops / time_s / 1e9
            } else {
                0.0
            },
            ai: if p.bytes > 0.0 {
                flops / p.bytes
            } else {
                f64::INFINITY
            },
            compute_bound: in_core >= mem,
        }
    }

    /// Communication seconds one overlapped exchange hides under the
    /// interior compute: `min(halo_s, interior)`. An overlapped SpMV phase
    /// posts the halo exchange, computes the interior rows while the
    /// payloads are in flight and the boundary rows after the drain, so it
    /// costs `max(halo_s, interior) + boundary`: the blocking
    /// `halo_s + interior + boundary` minus this credit. A whole-solve
    /// makespan prediction subtracts the credit once per exchange from the
    /// blocking-model wall time — the harness's sparse `model_check` does
    /// exactly that, and feeds the reduced communication share into
    /// [`Self::predict_energy`] so the predicted joules drop with the
    /// hidden seconds.
    pub fn overlap_credit(&self, interior: &KernelProfile, halo_s: f64) -> f64 {
        halo_s.min(self.predict(interior).time_s)
    }

    /// Predicted energy of a job whose per-rank work is `per_rank` and
    /// whose non-compute (communication) share of the makespan is
    /// `comm_s`: the roofline supplies the compute time, and
    /// [`crate::energy::energy`] — the same coefficients the simulated
    /// RAPL integrates — turns the breakdown into joules.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per axis of a datapoint; a struct would only rename them"
    )]
    pub fn predict_energy(
        &self,
        node: &NodeSpec,
        power: &PowerModel,
        layout: LoadLayout,
        ranks: usize,
        per_rank: &KernelProfile,
        comm_s: f64,
        bytes_total: f64,
    ) -> EnergyPrediction {
        let compute_s = self.predict(per_rank).time_s;
        energy(
            node,
            power,
            layout,
            ranks,
            &TimeBreakdown { compute_s, comm_s },
            bytes_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf() -> Roofline {
        Roofline {
            simd_flops: 40e9,
            thin_simd_flops: 25e9,
            packed_scalar_flops: 12e9,
            reference_flops: 6e9,
            subst_flops: 3e9,
            mem_bw: 20e9,
        }
    }

    #[test]
    fn from_spec_collapses_to_sustained_rate() {
        let spec = ClusterSpec::test_cluster(2, 8);
        let r = Roofline::from_spec(&spec);
        r.validate();
        let sustained = spec.node.cpu.sustained_flops_per_core;
        assert_eq!(r.simd_flops, sustained);
        assert_eq!(r.reference_flops, sustained);
        // Per-core bandwidth is the *socket* share — the same figure the
        // simulator's `compute` charge divides by, not the node total.
        assert_eq!(
            r.mem_bw,
            spec.node.dram_bw_bytes_per_s / spec.node.cpu.cores_per_socket as f64
        );
    }

    #[test]
    fn compute_bound_kernel_hits_its_class_ceiling() {
        // High AI: the in-core term dominates and the attainable rate is
        // exactly the class ceiling.
        let p = KernelProfile::simd(4e9, 1e6);
        let out = rf().predict(&p);
        assert!(out.compute_bound);
        assert!((out.gflops - 40.0).abs() < 1e-9, "gflops {}", out.gflops);
        assert!((out.time_s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_kernel_hits_the_bandwidth_ceiling() {
        // AI = 0.1 flop/byte on a 2 flop/byte machine balance: bandwidth
        // bound, attainable = AI × bw.
        let p = KernelProfile::simd(1e8, 1e9);
        let out = rf().predict(&p);
        assert!(!out.compute_bound);
        assert!((out.time_s - 0.05).abs() < 1e-12);
        assert!((out.gflops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_classes_sum_their_in_core_terms() {
        let p = KernelProfile {
            thin_simd_flops: 25e9,
            subst_flops: 3e9,
            bytes: 1.0,
            ..KernelProfile::default()
        };
        // One second per class.
        let out = rf().predict(&p);
        assert!((out.time_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_predicts_zero_time_without_nan() {
        let out = rf().predict(&KernelProfile::default());
        assert_eq!(out.time_s, 0.0);
        assert_eq!(out.gflops, 0.0);
        assert!(out.ai.is_infinite());
    }

    #[test]
    #[should_panic(expected = "roofline ceiling")]
    fn zero_ceiling_rejected() {
        let mut r = rf();
        r.mem_bw = 0.0;
        r.predict(&KernelProfile::default());
    }

    #[test]
    fn overlapped_phase_hides_the_smaller_of_halo_and_interior() {
        let r = rf();
        // Memory-bound slices: 1e9 bytes interior (0.05 s), 4e8 boundary
        // (0.02 s) at 20 GB/s.
        let interior = KernelProfile::sparse(1_000_000, 1_000_000_000);
        let boundary = KernelProfile::sparse(400_000, 400_000_000);
        let (ti, tb) = (0.05, 0.02);
        assert!((r.predict(&interior).time_s - ti).abs() < 1e-12);
        assert!((r.predict(&boundary).time_s - tb).abs() < 1e-12);
        // Halo shorter than the interior: fully hidden.
        assert!((r.overlap_credit(&interior, 0.01) - 0.01).abs() < 1e-15);
        // Halo longer: the exchange sets the pace, credit caps at interior.
        assert!((r.overlap_credit(&interior, 0.09) - ti).abs() < 1e-12);
        // Identity: blocking time minus the credit is the overlapped time.
        for halo in [0.0, 0.01, 0.05, 0.09] {
            let blocking = halo + ti + tb;
            let overlapped = f64::max(halo, ti) + tb;
            let credit = r.overlap_credit(&interior, halo);
            assert!(
                (blocking - credit - overlapped).abs() < 1e-12,
                "halo {halo}"
            );
        }
    }

    #[test]
    fn predicted_energy_matches_energy_model_on_predicted_time() {
        let spec = ClusterSpec::test_cluster(1, 8);
        let r = Roofline::from_spec(&spec);
        let power = PowerModel::scaled_for(&spec.node);
        let per_rank = KernelProfile::simd(8e9, 1e8);
        let ranks = spec.node.cores();
        let e = r.predict_energy(
            &spec.node,
            &power,
            LoadLayout::FullLoad,
            ranks,
            &per_rank,
            0.25,
            1e9,
        );
        let t = r.predict(&per_rank).time_s;
        let want = energy(
            &spec.node,
            &power,
            LoadLayout::FullLoad,
            ranks,
            &TimeBreakdown {
                compute_s: t,
                comm_s: 0.25,
            },
            1e9,
        );
        assert_eq!(e, want);
        assert!(e.total_j > 0.0);
        assert!((e.duration_s - (t + 0.25)).abs() < 1e-12);
    }
}
