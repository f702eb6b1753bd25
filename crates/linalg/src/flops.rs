//! Closed-form floating-point operation counts for every kernel in this
//! crate, used by the solvers to charge virtual compute time on the
//! simulated cluster and by tests that verify the paper's complexity claims
//! (Gaussian elimination ≈ 2/3·n³, IMe ≈ 3/2·n³).
//!
//! Counts follow the usual LAPACK convention: one multiply-add pair counts
//! as two flops, divisions and square roots count as one.

/// Flops for `ddot` of length `n`.
pub fn ddot(n: usize) -> u64 {
    2 * n as u64
}

/// Flops for `daxpy` of length `n`.
pub fn daxpy(n: usize) -> u64 {
    2 * n as u64
}

/// Flops for `dgemv` on an `m × n` block.
pub fn dgemv(m: usize, n: usize) -> u64 {
    2 * (m as u64) * (n as u64)
}

/// Flops for `dgemm` with shape `(m, n, k)`.
pub fn dgemm(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Flops for a triangular solve with an `m × m` triangle and `n` right-hand
/// sides.
pub fn dtrsm(m: usize, n: usize) -> u64 {
    (m as u64) * (m as u64) * (n as u64)
}

/// Flops for LU factorisation of an `n × n` matrix with partial pivoting
/// (`dgetrf`): `2/3·n³ − 1/2·n² + 5/6·n`, rounded from the exact sum.
pub fn getrf(n: usize) -> u64 {
    let n = n as f64;
    ((2.0 / 3.0) * n * n * n - 0.5 * n * n + (5.0 / 6.0) * n)
        .round()
        .max(0.0) as u64
}

/// Flops for the two triangular solves of `dgetrs` with one right-hand side:
/// `2·n²` (n² for L-solve with unit diagonal, n² for U-solve incl. the
/// divisions).
pub fn getrs(n: usize) -> u64 {
    2 * (n as u64) * (n as u64)
}

/// Leading-order model of the Inhibition Method's arithmetic complexity as
/// stated by the paper: `3/2·n³ + O(n²)`.
pub fn ime_paper_model(n: usize) -> u64 {
    let n = n as f64;
    (1.5 * n * n * n).round() as u64
}

/// Leading-order model of Gaussian elimination as stated by the paper:
/// `2/3·n³ + O(n²)`.
pub fn ge_paper_model(n: usize) -> u64 {
    let n = n as f64;
    ((2.0 / 3.0) * n * n * n).round() as u64
}

/// Bytes touched by a kernel that streams `elems` doubles once.
pub fn bytes_f64(elems: usize) -> u64 {
    8 * elems as u64
}

/// Flops for a CSR SpMV with `nnz` stored entries: one multiply-add pair
/// per entry.
pub fn spmv(nnz: usize) -> u64 {
    2 * nnz as u64
}

/// DRAM traffic of one CSR SpMV (`y = A·x`) in bytes, for the layout
/// [`crate::sparse::CsrMatrix`] stores: `f64` values plus `u32` column
/// indices (12 bytes per stored entry), the `usize` row-pointer array
/// (8·(n+1)), one streaming read of `x` and one write of `y` (16·n).
/// The gather into `x` is counted as a single stream — the generators'
/// stencil and near-diagonal patterns keep it cache-resident, which is
/// what pins SpMV's arithmetic intensity at `2·nnz / spmv_csr_bytes`
/// ≈ 1/6 flop per byte, far left of every machine's ridge point.
pub fn spmv_csr_bytes(n: usize, nnz: usize) -> u64 {
    12 * nnz as u64 + 8 * (n as u64 + 1) + 16 * n as u64
}

/// DRAM-level traffic of the packed [`crate::blas3`] dgemm under `tune`
/// blocking, in bytes. Counts every packing round trip and `C` update round
/// at cache-line granularity, assuming the packed buffers themselves stay
/// cache-resident (that is the point of the blocking):
///
/// * `A` is packed once per `nc`-wide slab of `C` — `⌈n/nc⌉ · m·k` read
///   plus the same written into the packed buffer;
/// * `B` is packed exactly once — `k·n` read + written;
/// * `C` is read and written once per `kc`-deep panel — `⌈k/kc⌉ · 2·m·n`
///   (the `β` pass rides the first round).
///
/// The roofline model divides [`dgemm`] by this to get the kernel's
/// arithmetic intensity.
pub fn dgemm_packed_bytes(m: usize, n: usize, k: usize, tune: &crate::tune::Blocking) -> u64 {
    if m == 0 || n == 0 {
        return 0;
    }
    let (m, n, k) = (m as u64, n as u64, k as u64);
    let jc_slabs = n.div_ceil(tune.nc as u64);
    let pc_panels = k.div_ceil(tune.kc as u64).max(1);
    8 * (2 * m * k * jc_slabs + 2 * k * n + 2 * m * n * pc_panels)
}

/// DRAM-level traffic of [`crate::blas3::dgemm_reference`] (the unpacked
/// `BC = 64` blocked loop nest), in bytes. With each `BC³` working set
/// cache-resident, every element of `A` reaches DRAM once per `jc` slab,
/// every element of `B` once per `ic` slab, and `C` round-trips once per
/// `pc` slab.
pub fn dgemm_reference_bytes(m: usize, n: usize, k: usize) -> u64 {
    const BC: u64 = 64; // mirrors dgemm_reference's block size
    if m == 0 || n == 0 {
        return 0;
    }
    let (m, n, k) = (m as u64, n as u64, k as u64);
    8 * (m * k * n.div_ceil(BC) + k * n * m.div_ceil(BC) + 2 * m * n * k.div_ceil(BC).max(1))
}

/// Work profile of the blocked triangular solves in [`crate::blas3`],
/// split by the code class that executes each part — the roofline model
/// charges each class at a different in-core rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrsmProfile {
    /// Flops routed through the packed dgemm trailing updates (thin
    /// `k = TRSM_BLOCK` panels, microkernel path).
    pub dgemm_flops: u64,
    /// Flops in the scalar substitution over the diagonal blocks.
    pub subst_flops: u64,
    /// DRAM-level bytes for the whole solve (substitution traffic plus the
    /// packed traffic of every trailing update).
    pub bytes: u64,
}

/// Closed-form [`TrsmProfile`] for `dtrsm_left_lower_unit` /
/// `dtrsm_left_upper` on an `m × m` triangle with `n` right-hand sides,
/// mirroring the implementation's `TRSM_BLOCK` loop: both variants do the
/// same block sequence (forward vs backward), so one profile serves both.
pub fn dtrsm_packed_profile(m: usize, n: usize, tune: &crate::tune::Blocking) -> TrsmProfile {
    let tb = crate::blas3::TRSM_BLOCK;
    let mut p = TrsmProfile {
        dgemm_flops: 0,
        subst_flops: 0,
        bytes: 0,
    };
    let mut k0 = 0;
    while k0 < m {
        let kb = tb.min(m - k0);
        // kb² flops per column: kb(kb−1) multiply-adds + kb divisions (the
        // unit-diagonal solve skips the divisions but gains nothing else;
        // the difference is below the model's resolution).
        p.subst_flops += (kb * kb * n) as u64;
        // Substitution streams the B block twice (read + write) and the
        // diagonal half-triangle of A once.
        p.bytes += 8 * (2 * kb * n + kb * kb / 2) as u64;
        let rest = m - k0 - kb;
        if rest > 0 {
            p.dgemm_flops += dgemm(rest, n, kb);
            // Copy-out of the solved rows (read + write) feeds the update.
            p.bytes += 8 * (2 * kb * n) as u64 + dgemm_packed_bytes(rest, n, kb, tune);
        }
        k0 += kb;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_count() {
        assert_eq!(dgemm(2, 3, 4), 48);
    }

    #[test]
    fn getrf_leading_term() {
        // For large n the exact count approaches 2/3 n^3.
        let n = 1000usize;
        let exact = getrf(n) as f64;
        let model = ge_paper_model(n) as f64;
        assert!((exact - model).abs() / model < 0.01);
    }

    #[test]
    fn ime_model_is_2_25x_ge_model() {
        // 3/2 / (2/3) = 2.25: the paper's flop ratio between IMe and GE.
        let n = 512;
        let ratio = ime_paper_model(n) as f64 / ge_paper_model(n) as f64;
        assert!((ratio - 2.25).abs() < 1e-6);
    }

    #[test]
    fn zero_sizes_are_zero() {
        assert_eq!(dgemm(0, 5, 5), 0);
        assert_eq!(getrf(0), 0);
        assert_eq!(getrs(0), 0);
        let tune = crate::tune::Blocking::default_blocking();
        assert_eq!(dgemm_packed_bytes(0, 5, 5, &tune), 0);
        assert_eq!(dgemm_reference_bytes(5, 0, 5), 0);
    }

    #[test]
    fn packed_traffic_beats_reference_traffic_at_scale() {
        // The whole point of packing: far fewer DRAM round trips per flop.
        let tune = crate::tune::Blocking::default_blocking();
        let n = 1024;
        assert!(dgemm_packed_bytes(n, n, n, &tune) < dgemm_reference_bytes(n, n, n) / 4);
    }

    #[test]
    fn packed_bytes_single_slab_closed_form() {
        // m = n = k = 512 with default blocking {nc: 512, kc: 256}: one jc
        // slab, two pc panels. A read+write of packed A and B per panel
        // (2mk + 2kn, one slab each) plus a C read+write per panel
        // (2mn × ⌈k/kc⌉ = 2 panels) = 8·(2 + 2 + 4)·512² bytes.
        let tune = crate::tune::Blocking::default_blocking();
        let e = 512u64 * 512;
        assert_eq!(dgemm_packed_bytes(512, 512, 512, &tune), 8 * 8 * e);
    }

    #[test]
    fn trsm_profile_sums_to_m2n() {
        // dgemm + substitution flops must reproduce the m²n total the
        // LAPACK-convention dtrsm() count promises, exactly.
        let tune = crate::tune::Blocking::default_blocking();
        for (m, n) in [(512usize, 256usize), (192, 64), (64, 16), (37, 5)] {
            let p = dtrsm_packed_profile(m, n, &tune);
            assert_eq!(p.dgemm_flops + p.subst_flops, dtrsm(m, n), "m={m} n={n}");
            assert!(p.bytes > 0);
        }
    }

    #[test]
    fn spmv_intensity_is_memory_bound() {
        // 5-point stencil at k = 100: AI = 2·nnz / bytes ≈ 0.16 flop/byte,
        // an order of magnitude left of any x86 ridge point.
        let k = 100;
        let (n, nnz) = (k * k, 5 * k * k - 4 * k);
        let ai = spmv(nnz) as f64 / spmv_csr_bytes(n, nnz) as f64;
        assert!((0.1..0.2).contains(&ai), "AI {ai}");
    }

    #[test]
    fn trsm_flops_are_mostly_packed_dgemm() {
        // The blocked solve routes ~1 − TRSM_BLOCK/m of the work through
        // the microkernel; at m = 512 that is ~7/8.
        let tune = crate::tune::Blocking::default_blocking();
        let p = dtrsm_packed_profile(512, 256, &tune);
        let frac = p.dgemm_flops as f64 / (p.dgemm_flops + p.subst_flops) as f64;
        assert!((0.85..0.92).contains(&frac), "dgemm fraction {frac}");
    }
}
