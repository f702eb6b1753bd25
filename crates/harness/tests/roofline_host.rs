//! Roofline acceptance against the measured kernel suite: the calibrated
//! host roofline must predict every pinned entry's attainable GFLOP/s
//! within the documented tolerance band (±30% in release — the acceptance
//! figure — and a wider smoke band in debug, where unoptimized codegen
//! disperses the per-class rates and the full-size suite is too slow to
//! run at all).

use greenla_harness::bench;
use greenla_harness::bench::retry::{median_wall, BestRatios};
use greenla_harness::roofline::{self, RooflineCheck};
use greenla_linalg::blas3::{
    dgemm_blocked, dgemm_blocked_path, dgemm_reference, dtrsm_left_lower_unit,
};
use greenla_linalg::flops;
use greenla_linalg::simd::KernelPath;
use greenla_linalg::tune::Blocking;
use greenla_linalg::Matrix;
use greenla_model::roofline::KernelProfile;

fn mat(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * (7 + salt) + j * 13) % 17) as f64 - 8.0
    })
}

/// Debug-mode measurement set: the same code classes as the pinned suite,
/// at sizes `cargo test` can afford. Ids are local to this test; profiles
/// are built from the same closed forms `entry_profile` uses.
fn debug_checks(host: &roofline::HostRoofline) -> Vec<RooflineCheck> {
    let tune = Blocking::default_blocking();
    let n = 96;
    let a = mat(n, n, 0);
    let b = mat(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let reps = 5;
    let fl = flops::dgemm(n, n, n) as f64;

    let mut checks = Vec::new();
    let mut push = |id: &str, profile: KernelProfile, measured_flops: f64, wall: f64| {
        let pred = host.rf.predict(&profile);
        let measured = measured_flops / wall / 1e9;
        checks.push(RooflineCheck {
            id: id.into(),
            predicted_gflops: pred.gflops,
            measured_gflops: measured,
            ratio: pred.gflops / measured,
            compute_bound: pred.compute_bound,
        });
    };

    let wall = median_wall(reps, || {
        dgemm_blocked(1.0, a.block(), b.block(), 0.0, c.block_mut(), &tune);
    });
    push(
        "debug_packed_96",
        KernelProfile::simd(fl, flops::dgemm_packed_bytes(n, n, n, &tune) as f64, 1),
        fl,
        wall,
    );

    let wall = median_wall(reps, || {
        dgemm_blocked_path(
            KernelPath::Scalar,
            1.0,
            a.block(),
            b.block(),
            0.0,
            c.block_mut(),
            &tune,
        );
    });
    push(
        "debug_packed_scalar_96",
        KernelProfile::packed_scalar(fl, flops::dgemm_packed_bytes(n, n, n, &tune) as f64),
        fl,
        wall,
    );

    let wall = median_wall(reps, || {
        dgemm_reference(1.0, a.block(), b.block(), 0.0, c.block_mut());
    });
    push(
        "debug_reference_96",
        KernelProfile::reference(fl, flops::dgemm_reference_bytes(n, n, n) as f64),
        fl,
        wall,
    );

    let (m, nrhs) = (96, 48);
    let l = Matrix::from_fn(m, m, |i, j| {
        use std::cmp::Ordering::*;
        match i.cmp(&j) {
            Equal => 1.0,
            Greater => ((i * 3 + j * 7) % 5) as f64 * 0.01 - 0.02,
            Less => 0.0,
        }
    });
    let rhs = mat(m, nrhs, 4);
    let mut x = vec![0.0f64; m * nrhs];
    let wall = median_wall(reps, || {
        x.copy_from_slice(rhs.as_slice());
        dtrsm_left_lower_unit(m, nrhs, l.as_slice(), m, &mut x, m);
    });
    let p = flops::dtrsm_packed_profile(m, nrhs, &tune);
    push(
        "debug_trsm_96x48",
        KernelProfile {
            thin_simd_flops: p.dgemm_flops as f64,
            subst_flops: p.subst_flops as f64,
            bytes: p.bytes as f64,
            workers: 1,
            ..KernelProfile::default()
        },
        flops::dtrsm(m, nrhs) as f64,
        wall,
    );
    checks
}

fn run_attempt() -> (Vec<RooflineCheck>, f64) {
    let host = roofline::calibrate();
    let tol = roofline::rel_tol();
    let checks = if cfg!(debug_assertions) {
        debug_checks(&host)
    } else {
        // Release: the real pinned suite, every entry — the acceptance
        // check behind the ±30% figure.
        let suite = bench::kernel_suite(true);
        let mut checks = roofline::validate_suite(&host, &suite);
        assert!(
            checks.len() >= 13,
            "suite shrank to {} measured entries",
            checks.len()
        );
        // The sparse entries must exercise the *memory* ceiling — the
        // roofline classifying them as compute-bound means the bandwidth
        // calibration (or the byte model) is broken, whatever their
        // ratios say.
        for id in [
            "spmv_2d_6m",
            "spmv_par_2d_6m",
            "cg_iter_2d_6m",
            "cg_overlap_iter",
        ] {
            let c = checks.iter().find(|c| c.id == id).expect("sparse entry");
            assert!(!c.compute_bound, "{id} must sit on the memory ceiling");
        }
        // The parallel SpMV's ceiling is `workers ×` a *single-thread*
        // bandwidth calibration. Workers cannot beat that ceiling (the
        // lower side of the band stands), but a saturated memory
        // controller legitimately delivers less than linear scaling, so
        // the upper side is not a model error — drop the entry from the
        // two-sided band and gate its scaling via the speedup acceptance
        // below instead.
        let par = checks
            .iter()
            .position(|c| c.id == "spmv_par_2d_6m")
            .expect("parallel SpMV entry");
        let c = checks.swap_remove(par);
        assert!(
            c.ratio >= 1.0 / (1.0 + tol),
            "spmv_par_2d_6m beat the memory ceiling by >{:.0}%: ratio {:.3}",
            tol * 100.0,
            c.ratio
        );
        // Thread-scaling acceptance: on a genuinely multi-core runner the
        // parallel SpMV must deliver ≥ 2.5× the serial entry's GB/s (same
        // byte model, so the wall-clock ratio is the GB/s ratio).
        let workers = greenla_linalg::sparse::default_spmv_workers()
            .min(std::thread::available_parallelism().map_or(1, |p| p.get()));
        if workers >= 4 {
            let speedup = suite
                .entries
                .iter()
                .find(|e| e.id == "spmv_2d_6m")
                .map(|e| e.median_wall_s)
                .expect("serial entry")
                / suite
                    .entries
                    .iter()
                    .find(|e| e.id == "spmv_par_2d_6m")
                    .map(|e| e.median_wall_s)
                    .expect("parallel entry");
            assert!(
                speedup >= 2.5,
                "parallel SpMV speedup {speedup:.2}× < 2.5× at {workers} workers"
            );
        }
        checks
    };
    (checks, tol)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "host wall-clock band; CI's bench job runs it in release"
)]
fn roofline_predicts_measured_kernel_rates() {
    // Calibration and measurement are a cross-window comparison on a
    // shared machine: a sustained background-load burst during either
    // side skews the ratios of whichever entries it overlapped. Each
    // attempt recalibrates and remeasures from scratch, and an entry
    // passes if ANY attempt lands it in the band — a burst moves around
    // between attempts, while a genuine model error misses every time.
    const ATTEMPTS: usize = 3;
    let mut best = BestRatios::new();
    let mut tol = roofline::rel_tol();
    for attempt in 1..=ATTEMPTS {
        let (checks, t) = run_attempt();
        tol = t;
        for c in &checks {
            println!(
                "attempt {attempt}: {:26} predicted {:7.2} GF/s  measured {:7.2} GF/s  ratio {:5.3}  ({})",
                c.id,
                c.predicted_gflops,
                c.measured_gflops,
                c.ratio,
                if c.compute_bound { "compute" } else { "memory" },
            );
            best.absorb(&c.id, c.ratio);
        }
        if best.all_within(tol) {
            return;
        }
        println!(
            "after attempt {attempt}/{ATTEMPTS}, outside ±{:.0}%: {:?}",
            tol * 100.0,
            best.failures(tol)
        );
    }
    panic!(
        "roofline misses persisted across {ATTEMPTS} attempts: {:?}",
        best.failures(tol)
    );
}
