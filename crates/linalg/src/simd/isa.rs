//! The `#[target_feature]` kernels, and nothing else. The module is
//! private to [`super`], so nothing here can be named from outside the
//! dispatch module whatever its own visibility says: the only way to a
//! kernel is the table [`super::kernels`] builds after verifying CPU
//! support.

use crate::tune::{MR, NR};

/// How many entries ahead of the current position the unrolled kernel
/// prefetches the gathered `x` operand. The stencil systems gather with
/// large strides (`±k` for a `k×k` grid), so the hardware prefetcher never
/// sees the pattern; 64 entries ≈ 8 cache lines of the value stream keeps
/// the gather line fetch ahead of the ~100 ns DRAM latency at memory-bound
/// throughput.
const SPMV_PREFETCH_DIST: usize = 64;

/// Unrolled + software-prefetch SpMV body shared by the AVX2 and AVX-512
/// entries (the win is the prefetch of the irregular gather plus the
/// 4-way unroll, not ISA-specific arithmetic — the `#[target_feature]`
/// wrappers exist so the dispatch legs stay meaningful and LLVM may use
/// the wider encodings). Accumulation is strictly left to right, exactly
/// [`super::spmv_range_scalar`]'s order, so results are bit-identical to it.
#[inline(always)]
fn spmv_range_unrolled_body(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    assert_eq!(row_ptr.len(), y.len() + 1, "row_ptr spans the output rows");
    let last = row_ptr[y.len()].saturating_sub(1);
    for (i, yi) in y.iter_mut().enumerate() {
        let (s, e) = (row_ptr[i], row_ptr[i + 1]);
        let mut acc = 0.0;
        let mut k = s;
        while k + 4 <= e {
            let ahead = col_idx[(k + SPMV_PREFETCH_DIST).min(last)] as usize;
            // SAFETY: prefetch is a hint — it never dereferences
            // architecturally and cannot fault, and `wrapping_add` keeps
            // the address computation defined even if `ahead` were out of
            // bounds for `x` (it is in range for every valid CSR matrix;
            // the arithmetic below still bounds-checks the real loads).
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(x.as_ptr().wrapping_add(ahead) as *const i8);
            }
            acc += values[k] * x[col_idx[k] as usize];
            acc += values[k + 1] * x[col_idx[k + 1] as usize];
            acc += values[k + 2] * x[col_idx[k + 2] as usize];
            acc += values[k + 3] * x[col_idx[k + 3] as usize];
            k += 4;
        }
        while k < e {
            acc += values[k] * x[col_idx[k] as usize];
            k += 1;
        }
        *yi = acc;
    }
}

/// AVX2-compiled unrolled + prefetch SpMV range kernel (see
/// [`spmv_range_unrolled_body`] — bit-identical to the scalar oracle).
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx2` and `fma` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). All memory accesses in the body are bounds-checked slice
/// indexing; the only raw-pointer use is the never-faulting prefetch hint.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn spmv_range_avx2(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    spmv_range_unrolled_body(row_ptr, col_idx, values, x, y);
}

/// AVX-512F-compiled unrolled + prefetch SpMV range kernel (see
/// [`spmv_range_unrolled_body`] — bit-identical to the scalar oracle).
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx512f` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). All memory accesses in the body are bounds-checked slice
/// indexing; the only raw-pointer use is the never-faulting prefetch hint.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn spmv_range_avx512(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    spmv_range_unrolled_body(row_ptr, col_idx, values, x, y);
}

/// AVX2 chained axpy ([`super::DaxpyChainKernel`]): sixteen rows of `y`
/// live in four `ymm` registers while every level's term is added, so a
/// strip of `y` is loaded and stored once however many levels there are;
/// a four-row strip and the scalar loop take the ragged end. Multiply and
/// add stay separate instructions (no FMA) and a zero `α` skips its level,
/// so the result is [`super::daxpy_chain_scalar`]'s bit for bit.
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx2` and `fma` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). Every `x` must be as long as `y` — asserted below, so the
/// raw loads stay in bounds.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn daxpy_chain_avx2(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    use std::arch::x86_64::*;
    super::assert_chain_shapes(alphas, xs, y);
    let len = y.len();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    // SAFETY: each strip covers rows `i..i + 16` (or `i..i + 4`) with its
    // end ≤ `len`, so every pointer stays inside `y` and inside each `x`
    // (all as long as `y`, asserted above). Unaligned load/store
    // intrinsics are used throughout, so no alignment obligation exists.
    unsafe {
        while i + 16 <= len {
            let mut acc = [_mm256_setzero_pd(); 4];
            for (r, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_loadu_pd(yp.add(i + 4 * r));
            }
            for (&a, x) in alphas.iter().zip(xs) {
                if a == 0.0 {
                    continue;
                }
                let (av, xp) = (_mm256_set1_pd(a), x.as_ptr().add(i));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let t = _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(4 * r)));
                    *acc = _mm256_add_pd(*acc, t);
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_pd(yp.add(i + 4 * r), *acc);
            }
            i += 16;
        }
        while i + 4 <= len {
            let mut acc = _mm256_loadu_pd(yp.add(i));
            for (&a, x) in alphas.iter().zip(xs) {
                if a != 0.0 {
                    let t = _mm256_mul_pd(_mm256_set1_pd(a), _mm256_loadu_pd(x.as_ptr().add(i)));
                    acc = _mm256_add_pd(acc, t);
                }
            }
            _mm256_storeu_pd(yp.add(i), acc);
            i += 4;
        }
    }
    super::daxpy_chain_rows(alphas, xs, &mut y[i..], i);
}

/// AVX-512F chained axpy: [`daxpy_chain_avx2`]'s shape at twice the width
/// — 32 rows of `y` in four `zmm` registers, then an eight-row strip, then
/// the scalar loop. Bit-identical to [`super::daxpy_chain_scalar`] for the
/// same reasons (separate multiply and add, zero `α` skipped).
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx512f` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). Every `x` must be as long as `y` — asserted below, so the
/// raw loads stay in bounds.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn daxpy_chain_avx512(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    use std::arch::x86_64::*;
    super::assert_chain_shapes(alphas, xs, y);
    let len = y.len();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    // SAFETY: each strip covers rows `i..i + 32` (or `i..i + 8`) with its
    // end ≤ `len`, so every pointer stays inside `y` and inside each `x`
    // (all as long as `y`, asserted above). Unaligned load/store
    // intrinsics are used throughout, so no alignment obligation exists.
    unsafe {
        while i + 32 <= len {
            let mut acc = [_mm512_setzero_pd(); 4];
            for (r, acc) in acc.iter_mut().enumerate() {
                *acc = _mm512_loadu_pd(yp.add(i + 8 * r));
            }
            for (&a, x) in alphas.iter().zip(xs) {
                if a == 0.0 {
                    continue;
                }
                let (av, xp) = (_mm512_set1_pd(a), x.as_ptr().add(i));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let t = _mm512_mul_pd(av, _mm512_loadu_pd(xp.add(8 * r)));
                    *acc = _mm512_add_pd(*acc, t);
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm512_storeu_pd(yp.add(i + 8 * r), *acc);
            }
            i += 32;
        }
        while i + 8 <= len {
            let mut acc = _mm512_loadu_pd(yp.add(i));
            for (&a, x) in alphas.iter().zip(xs) {
                if a != 0.0 {
                    let t = _mm512_mul_pd(_mm512_set1_pd(a), _mm512_loadu_pd(x.as_ptr().add(i)));
                    acc = _mm512_add_pd(acc, t);
                }
            }
            _mm512_storeu_pd(yp.add(i), acc);
            i += 8;
        }
    }
    super::daxpy_chain_rows(alphas, xs, &mut y[i..], i);
}

/// AVX2 + FMA microkernel. The 8×8 `f64` accumulator tile would need all
/// sixteen `ymm` registers by itself, starving the operand loads, so the
/// tile is computed as two 8×4 half-tiles: eight accumulator `ymm`s, two
/// `A`-sliver loads and one broadcast live at a time (11 of 16
/// registers), with the `A` panel re-read once per half from L1.
///
/// Unlike the scalar oracle this contracts multiply-add into FMA, so
/// results differ from [`super::microkernel_scalar`] by at most the documented
/// ulp tolerance (see `tests/kernel_dispatch.rs`), never bit-exactly.
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx2` and `fma` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). `apan`/`bpan` must hold at least `kb·MR` / `kb·NR` elements
/// — asserted below, so the raw loads stay in bounds.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn microkernel_avx2(
    kb: usize,
    apan: &[f64],
    bpan: &[f64],
    acc: &mut [f64; MR * NR],
) {
    use std::arch::x86_64::*;
    assert!(apan.len() >= kb * MR && bpan.len() >= kb * NR);
    // SAFETY: every pointer below stays inside `apan[..kb*MR]`,
    // `bpan[..kb*NR]` or `acc[..MR*NR]` (asserted above; `boff + j < NR`
    // and the store columns cover `(boff+j)*MR + 0..8` with
    // `boff + j ≤ 7`). Unaligned load/store intrinsics are used
    // throughout, so no alignment obligation exists.
    unsafe {
        let ap = apan.as_ptr();
        let bp = bpan.as_ptr();
        for half in 0..2 {
            let boff = half * 4;
            let mut cc = [_mm256_setzero_pd(); 8];
            for p in 0..kb {
                let a0 = _mm256_loadu_pd(ap.add(p * MR));
                let a1 = _mm256_loadu_pd(ap.add(p * MR + 4));
                for j in 0..4 {
                    let b = _mm256_broadcast_sd(&*bp.add(p * NR + boff + j));
                    cc[2 * j] = _mm256_fmadd_pd(a0, b, cc[2 * j]);
                    cc[2 * j + 1] = _mm256_fmadd_pd(a1, b, cc[2 * j + 1]);
                }
            }
            for j in 0..4 {
                let col = acc.as_mut_ptr().add((boff + j) * MR);
                _mm256_storeu_pd(col, _mm256_add_pd(_mm256_loadu_pd(col), cc[2 * j]));
                let hi = col.add(4);
                _mm256_storeu_pd(hi, _mm256_add_pd(_mm256_loadu_pd(hi), cc[2 * j + 1]));
            }
        }
    }
}

/// AVX-512F microkernel: one `zmm` register holds a full `MR = 8` column
/// of the accumulator tile, so the whole 8×8 tile is eight `zmm`
/// accumulators — eight independent FMA chains, enough to cover the FMA
/// latency on two 512-bit ports — plus one `A`-sliver load and one
/// broadcast per column update (10 of 32 registers).
///
/// Same FMA-contraction caveat as the AVX2 kernel: agreement with the
/// scalar oracle is within the documented ulp tolerance, not bit-exact.
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx512f` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). `apan`/`bpan` must hold at least `kb·MR` / `kb·NR` elements
/// — asserted below, so the raw loads stay in bounds.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn microkernel_avx512(
    kb: usize,
    apan: &[f64],
    bpan: &[f64],
    acc: &mut [f64; MR * NR],
) {
    use std::arch::x86_64::*;
    assert!(apan.len() >= kb * MR && bpan.len() >= kb * NR);
    // SAFETY: every pointer below stays inside `apan[..kb*MR]`,
    // `bpan[..kb*NR]` or `acc[..MR*NR]` (asserted above; `j < NR = 8` and
    // each store covers `j*MR + 0..8`). Unaligned load/store intrinsics
    // are used throughout, so no alignment obligation exists.
    unsafe {
        let ap = apan.as_ptr();
        let bp = bpan.as_ptr();
        let mut cc = [_mm512_setzero_pd(); NR];
        for p in 0..kb {
            let a = _mm512_loadu_pd(ap.add(p * MR));
            for (j, c) in cc.iter_mut().enumerate() {
                let b = _mm512_set1_pd(*bp.add(p * NR + j));
                *c = _mm512_fmadd_pd(a, b, *c);
            }
        }
        for (j, &c) in cc.iter().enumerate() {
            let col = acc.as_mut_ptr().add(j * MR);
            _mm512_storeu_pd(col, _mm512_add_pd(_mm512_loadu_pd(col), c));
        }
    }
}

/// Two-panel AVX-512F microkernel (see [`super::Microkernel2`]): a 16×8 tile as
/// sixteen `zmm` accumulators, fed by two `A`-sliver loads and eight
/// broadcasts per `p` — 16 FMAs per 10 loads, so the FMA ports rather than
/// the load ports bound throughput. Per element, the FMA chain order is
/// exactly [`microkernel_avx512`]'s, keeping the avx512 path's results
/// independent of whether the pair variant ran.
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx512f` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). `apan2`/`bpan` must hold at least `2·kb·MR` / `kb·NR`
/// elements — asserted below, so the raw loads stay in bounds.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn microkernel_avx512_x2(
    kb: usize,
    apan2: &[f64],
    bpan: &[f64],
    acc0: &mut [f64; MR * NR],
    acc1: &mut [f64; MR * NR],
) {
    use std::arch::x86_64::*;
    assert!(apan2.len() >= 2 * kb * MR && bpan.len() >= kb * NR);
    // SAFETY: every pointer below stays inside `apan2[..2·kb·MR]`,
    // `bpan[..kb·NR]` or the two accumulator tiles (asserted above;
    // `j < NR = 8` and each store covers `j*MR + 0..8`). Unaligned
    // load/store intrinsics are used throughout, so no alignment
    // obligation exists.
    unsafe {
        let ap0 = apan2.as_ptr();
        let ap1 = apan2.as_ptr().add(kb * MR);
        let bp = bpan.as_ptr();
        let mut c0 = [_mm512_setzero_pd(); NR];
        let mut c1 = [_mm512_setzero_pd(); NR];
        for p in 0..kb {
            let a0 = _mm512_loadu_pd(ap0.add(p * MR));
            let a1 = _mm512_loadu_pd(ap1.add(p * MR));
            for j in 0..NR {
                let b = _mm512_set1_pd(*bp.add(p * NR + j));
                c0[j] = _mm512_fmadd_pd(a0, b, c0[j]);
                c1[j] = _mm512_fmadd_pd(a1, b, c1[j]);
            }
        }
        for j in 0..NR {
            let col = acc0.as_mut_ptr().add(j * MR);
            _mm512_storeu_pd(col, _mm512_add_pd(_mm512_loadu_pd(col), c0[j]));
            let col = acc1.as_mut_ptr().add(j * MR);
            _mm512_storeu_pd(col, _mm512_add_pd(_mm512_loadu_pd(col), c1[j]));
        }
    }
}

/// AVX2 ChaCha8 block kernel ([`super::Chacha8Kernel`]): eight blocks per
/// pass, block `l` of the pass in lane `l` of sixteen `ymm` state rows, so
/// each quarter-round step is one instruction for all eight. The 16- and
/// 8-bit rotations are byte shuffles, the 12- and 7-bit ones shift pairs.
/// Two 8×8 transposes turn the rows back into blocks. A pass with fewer
/// than eight counters left computes its spare lanes on counter 0 and
/// writes only the lanes it owes. Integer-only, so the result is
/// [`super::chacha8_blocks_scalar`]'s bit for bit.
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx2` and `fma` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). `counters` and `out` must have the same length — asserted
/// below, so every store stays inside `out`.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn chacha8_blocks_avx2(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
    use std::arch::x86_64::*;
    assert_eq!(counters.len(), out.len(), "one counter per block");
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
        14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
        15, 12, 13, 14,
    );
    let qr = |x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize| {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    };
    for (ctrs, blocks) in counters.chunks(8).zip(out.chunks_mut(8)) {
        let lane = |l: usize, shift: u32| ctrs.get(l).map_or(0, |&c| (c >> shift) as u32 as i32);
        let mut x = [_mm256_setzero_si256(); 16];
        for (row, &w) in x.iter_mut().zip(rand_chacha::CONSTANTS.iter().chain(key)) {
            *row = _mm256_set1_epi32(w as i32);
        }
        for (row, shift) in [(12, 0), (13, 32)] {
            x[row] = _mm256_setr_epi32(
                lane(0, shift),
                lane(1, shift),
                lane(2, shift),
                lane(3, shift),
                lane(4, shift),
                lane(5, shift),
                lane(6, shift),
                lane(7, shift),
            );
        }
        let input = x;
        for _ in 0..4 {
            qr(&mut x, 0, 4, 8, 12);
            qr(&mut x, 1, 5, 9, 13);
            qr(&mut x, 2, 6, 10, 14);
            qr(&mut x, 3, 7, 11, 15);
            qr(&mut x, 0, 5, 10, 15);
            qr(&mut x, 1, 6, 11, 12);
            qr(&mut x, 2, 7, 8, 13);
            qr(&mut x, 3, 4, 9, 14);
        }
        for (row, inp) in x.iter_mut().zip(input) {
            *row = _mm256_add_epi32(*row, inp);
        }
        // Rows 0–7 and 8–15 transpose separately: `half[h][l]` holds words
        // `8h..8h + 8` of lane `l`'s block.
        let mut half = [[_mm256_setzero_si256(); 8]; 2];
        for (h, cols) in half.iter_mut().enumerate() {
            let r = &x[8 * h..8 * h + 8];
            let t: [__m256i; 8] = std::array::from_fn(|k| {
                let (a, b) = (r[k & !1], r[k | 1]);
                if k % 2 == 0 {
                    _mm256_unpacklo_epi32(a, b)
                } else {
                    _mm256_unpackhi_epi32(a, b)
                }
            });
            // `u[q]` holds rows 0–3 (q < 4) or 4–7 of lanes q%4 and q%4 + 4.
            let u: [__m256i; 8] = std::array::from_fn(|q| {
                let g = 4 * (q / 4);
                let (a, b) = (t[g + (q % 4) / 2], t[g + 2 + (q % 4) / 2]);
                if q % 2 == 0 {
                    _mm256_unpacklo_epi64(a, b)
                } else {
                    _mm256_unpackhi_epi64(a, b)
                }
            });
            for m in 0..4 {
                cols[m] = _mm256_permute2x128_si256::<0x20>(u[m], u[m + 4]);
                cols[m + 4] = _mm256_permute2x128_si256::<0x31>(u[m], u[m + 4]);
            }
        }
        for (l, block) in blocks.iter_mut().enumerate() {
            let p = block.as_mut_ptr().cast::<__m256i>();
            // SAFETY: `block` is a `[u32; 16]`, 64 bytes: the two unaligned
            // 32-byte stores cover exactly its words 0–7 and 8–15.
            unsafe {
                _mm256_storeu_si256(p, half[0][l]);
                _mm256_storeu_si256(p.add(1), half[1][l]);
            }
        }
    }
}

/// AVX-512F ChaCha8 block kernel: [`chacha8_blocks_avx2`]'s shape at
/// sixteen blocks per pass, with native 32-bit rotations and one 16×16
/// transpose (32-bit and 64-bit unpacks, then two rounds of 128-bit lane
/// shuffles). Bit-identical to [`super::chacha8_blocks_scalar`].
///
/// # Safety
///
/// Dispatch contract: the caller must have verified `avx512f` via
/// `is_x86_feature_detected!` (the one caller, [`super::kernels`], asserts
/// exactly that). `counters` and `out` must have the same length — asserted
/// below, so every store stays inside `out`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn chacha8_blocks_avx512(
    key: &[u32; 8],
    counters: &[u64],
    out: &mut [[u32; 16]],
) {
    use std::arch::x86_64::*;
    assert_eq!(counters.len(), out.len(), "one counter per block");
    let qr = |x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize| {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    };
    for (ctrs, blocks) in counters.chunks(16).zip(out.chunks_mut(16)) {
        let lane = |l: usize, shift: u32| ctrs.get(l).map_or(0, |&c| (c >> shift) as u32 as i32);
        let mut x = [_mm512_setzero_si512(); 16];
        for (row, &w) in x.iter_mut().zip(rand_chacha::CONSTANTS.iter().chain(key)) {
            *row = _mm512_set1_epi32(w as i32);
        }
        for (row, shift) in [(12, 0), (13, 32)] {
            x[row] = _mm512_setr_epi32(
                lane(0, shift),
                lane(1, shift),
                lane(2, shift),
                lane(3, shift),
                lane(4, shift),
                lane(5, shift),
                lane(6, shift),
                lane(7, shift),
                lane(8, shift),
                lane(9, shift),
                lane(10, shift),
                lane(11, shift),
                lane(12, shift),
                lane(13, shift),
                lane(14, shift),
                lane(15, shift),
            );
        }
        let input = x;
        for _ in 0..4 {
            qr(&mut x, 0, 4, 8, 12);
            qr(&mut x, 1, 5, 9, 13);
            qr(&mut x, 2, 6, 10, 14);
            qr(&mut x, 3, 7, 11, 15);
            qr(&mut x, 0, 5, 10, 15);
            qr(&mut x, 1, 6, 11, 12);
            qr(&mut x, 2, 7, 8, 13);
            qr(&mut x, 3, 4, 9, 14);
        }
        for (row, inp) in x.iter_mut().zip(input) {
            *row = _mm512_add_epi32(*row, inp);
        }
        // Within each 128-bit lane q: `a` pairs rows, `b[4i + m]` holds
        // rows 4i..4i + 4 of block 4q + m.
        let a: [__m512i; 16] = std::array::from_fn(|k| {
            let (r0, r1) = (x[k & !1], x[k | 1]);
            if k % 2 == 0 {
                _mm512_unpacklo_epi32(r0, r1)
            } else {
                _mm512_unpackhi_epi32(r0, r1)
            }
        });
        let b: [__m512i; 16] = std::array::from_fn(|k| {
            let (i, m) = (k / 4, k % 4);
            let (p, q) = (a[4 * i + m / 2], a[4 * i + 2 + m / 2]);
            if m % 2 == 0 {
                _mm512_unpacklo_epi64(p, q)
            } else {
                _mm512_unpackhi_epi64(p, q)
            }
        });
        // A 4×4 transpose of 128-bit lanes per `m` gathers block 4q + m.
        let mut cols = [_mm512_setzero_si512(); 16];
        for m in 0..4 {
            let s0 = _mm512_shuffle_i32x4::<0x88>(b[m], b[4 + m]);
            let s1 = _mm512_shuffle_i32x4::<0xDD>(b[m], b[4 + m]);
            let s2 = _mm512_shuffle_i32x4::<0x88>(b[8 + m], b[12 + m]);
            let s3 = _mm512_shuffle_i32x4::<0xDD>(b[8 + m], b[12 + m]);
            cols[m] = _mm512_shuffle_i32x4::<0x88>(s0, s2);
            cols[4 + m] = _mm512_shuffle_i32x4::<0x88>(s1, s3);
            cols[8 + m] = _mm512_shuffle_i32x4::<0xDD>(s0, s2);
            cols[12 + m] = _mm512_shuffle_i32x4::<0xDD>(s1, s3);
        }
        for (block, col) in blocks.iter_mut().zip(cols) {
            // SAFETY: `block` is a `[u32; 16]`, exactly the 64 bytes one
            // unaligned store writes.
            unsafe { _mm512_storeu_si512(block.as_mut_ptr().cast(), col) };
        }
    }
}
