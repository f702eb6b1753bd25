//! Roofline acceptance against the measured kernels: the calibrated host
//! roofline must predict every pinned kernel's attainable GFLOP/s within
//! ±30%. Host wall-clock at full size, so release only.

use greenla_harness::bench::retry::BestRatios;
use greenla_harness::roofline::{self, RooflineCheck, REL_TOL};

/// The pinned kernel set, in measurement order. A kernel is added or
/// dropped only by editing this list.
const KERNELS: [&str; 11] = [
    "dgemm_packed_128",
    "dgemm_packed_256",
    "dgemm_packed_512",
    "dgemm_seq_1024",
    "dgemm_scalar_512",
    "dgemm_packed_scalar_512",
    "dtrsm_lower_512x256",
    "dtrsm_upper_512x256",
    "spmv_2d_6m",
    "cg_iter_2d_6m",
    "cg_overlap_iter",
];

fn run_attempt() -> Vec<RooflineCheck> {
    let checks = roofline::measure_kernels(&roofline::calibrate());
    let ids: Vec<&str> = checks.iter().map(|c| c.id).collect();
    assert_eq!(ids, KERNELS, "pinned kernel set changed");
    // The sparse kernels (the last three) must exercise the *memory*
    // ceiling — the roofline classifying them as compute-bound means the
    // bandwidth calibration (or the byte model) is broken, whatever their
    // ratios say.
    for c in &checks[8..] {
        assert!(!c.compute_bound, "{} must sit on the memory ceiling", c.id);
    }
    checks
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "host wall-clock band; CI's roofline job runs it in release"
)]
fn roofline_predicts_measured_kernel_rates() {
    // Calibration and measurement are a cross-window comparison on a
    // shared machine: a sustained background-load burst during either
    // side skews the ratios of whichever kernels it overlapped. Each
    // attempt recalibrates and remeasures from scratch, and a kernel
    // passes if ANY attempt lands it in the band — a burst moves around
    // between attempts, while a genuine model error misses every time.
    const ATTEMPTS: usize = 3;
    let mut best = BestRatios::new();
    for attempt in 1..=ATTEMPTS {
        for c in &run_attempt() {
            println!(
                "attempt {attempt}: {:26} predicted {:7.2} GF/s  measured {:7.2} GF/s  ratio {:5.3}  ({})",
                c.id,
                c.predicted_gflops,
                c.measured_gflops,
                c.ratio,
                if c.compute_bound { "compute" } else { "memory" },
            );
            best.absorb(c.id, c.ratio);
        }
        if best.all_within(REL_TOL) {
            return;
        }
        println!(
            "after attempt {attempt}/{ATTEMPTS}, outside ±{:.0}%: {:?}",
            REL_TOL * 100.0,
            best.failures(REL_TOL)
        );
    }
    panic!(
        "roofline misses persisted across {ATTEMPTS} attempts: {:?}",
        best.failures(REL_TOL)
    );
}
