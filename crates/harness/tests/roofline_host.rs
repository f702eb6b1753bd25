//! Roofline acceptance against the measured kernels: the calibrated host
//! roofline must predict every pinned kernel's attainable GFLOP/s within
//! ±30% (one-sided for kernels on more than one worker). Host wall-clock
//! at full size, so release only.

use greenla_harness::bench::retry::BestRatios;
use greenla_harness::roofline::{self, RooflineCheck, REL_TOL};

fn run_attempt() -> Vec<RooflineCheck> {
    let checks = roofline::measure_kernels(&roofline::calibrate());
    assert!(
        checks.len() >= 13,
        "kernel set shrank to {} entries",
        checks.len()
    );
    let find = |id: &str| checks.iter().find(|c| c.id == id).expect(id);
    // The sparse kernels must exercise the *memory* ceiling — the roofline
    // classifying them as compute-bound means the bandwidth calibration
    // (or the byte model) is broken, whatever their ratios say.
    for id in [
        "spmv_2d_6m",
        "spmv_par_2d_6m",
        "cg_iter_2d_6m",
        "cg_overlap_iter",
    ] {
        assert!(
            !find(id).compute_bound,
            "{id} must sit on the memory ceiling"
        );
    }
    // Thread-scaling acceptance: on a genuinely multi-core runner the
    // parallel SpMV must deliver ≥ 2.5× the serial kernel's rate (same
    // byte model, so the rate ratio is the GB/s ratio).
    let workers = greenla_linalg::sparse::default_spmv_workers()
        .min(std::thread::available_parallelism().map_or(1, |p| p.get()));
    if workers >= 4 {
        let speedup = find("spmv_par_2d_6m").measured_gflops / find("spmv_2d_6m").measured_gflops;
        assert!(
            speedup >= 2.5,
            "parallel SpMV speedup {speedup:.2}× < 2.5× at {workers} workers"
        );
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
                "attempt {attempt}: {:26} w{} predicted {:7.2} GF/s  measured {:7.2} GF/s  ratio {:5.3}  ({})",
                c.id,
                c.workers,
                c.predicted_gflops,
                c.measured_gflops,
                c.ratio,
                if c.compute_bound { "compute" } else { "memory" },
            );
            best.absorb(c.id, c.banded_ratio());
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
