//! Runtime-dispatched SIMD microkernels for the packed Level-3 BLAS.
//!
//! The packed [`crate::blas3`] loop nest is ISA-agnostic: all arithmetic
//! funnels through one `MR×NR` register microkernel operating on the
//! packed micro-panels. This module owns every implementation of that
//! microkernel — the portable scalar loop (the bit-exact oracle the
//! property tests compare against), an explicit AVX2+FMA kernel, and an
//! AVX-512F kernel — plus the **dispatch** that picks one at runtime.
//! The same dispatch serves three kernels whose paths must agree bit for
//! bit: the CSR SpMV row kernel ([`SpmvKernel`]), the chained axpy IMe's
//! table update runs on ([`DaxpyChainKernel`]) and the ChaCha8 block
//! kernel the seeded input generators draw their keystream from
//! ([`Chacha8Kernel`]).
//!
//! Dispatch is resolved **once per process** (cached in a [`OnceLock`])
//! from the `GREENLA_KERNEL` environment variable:
//!
//! | value                | effect |
//! |----------------------|--------|
//! | `auto` *(or unset)*  | best path the CPU supports (AVX-512F → AVX2+FMA → scalar) |
//! | `scalar`             | force the portable scalar microkernel |
//! | `avx2`               | force AVX2+FMA; **panics** if the CPU lacks it |
//! | `avx512`             | force AVX-512F; **panics** if the CPU lacks it |
//!
//! Forcing an unsupported path panics instead of silently falling back so
//! a CI matrix job that requests `avx2` can never green-light the scalar
//! path by accident. Every kernel is also reachable explicitly through
//! [`microkernel`] (used by `dgemm_blocked_path` and the cross-path
//! property tests), which performs the same support check.
//!
//! The `#[target_feature]` functions themselves are `unsafe fn`s in the
//! private submodule `isa`, which the compiler keeps inside this module:
//! the only way to obtain one is through the dispatch functions here,
//! which verify CPU support first — that verification is the safety
//! argument the safe wrapper entries rely on.

use crate::tune::{MR, NR};
use std::fmt;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod isa;

/// A microkernel: `acc[j·MR + i] += Ap[p·MR + i] · Bp[p·NR + j]` over `kb`
/// packed sliver pairs. All implementations share this exact contract —
/// zero-padded partial panels included — so the surrounding loop nest
/// never branches on the active ISA.
pub type Microkernel = fn(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]);

/// A two-panel microkernel: consumes two *adjacent* packed `A`
/// micro-panels (`apan2[..kb·MR]` and `apan2[kb·MR..2·kb·MR]`) against one
/// `B` micro-panel, updating both accumulator tiles in a single pass over
/// the `B` sliver. On AVX-512 the 16×8 tile fits in 16 of the 32 `zmm`
/// registers and halves the `B`-broadcast traffic per flop, turning the
/// load-bound 8×8 kernel FMA-bound. Each element's FMA chain is identical
/// to the single-panel kernel's, so results are bit-identical to two
/// consecutive [`Microkernel`] calls on the same path.
pub type Microkernel2 = fn(
    kb: usize,
    apan2: &[f64],
    bpan: &[f64],
    acc0: &mut [f64; MR * NR],
    acc1: &mut [f64; MR * NR],
);

/// The kernels one dispatched path provides: the mandatory single-panel
/// microkernel plus an optional two-panel variant the loop nest prefers
/// for full panel pairs. Paths without a profitable pair variant (scalar —
/// LLVM already keeps the 8×8 tile in registers; AVX2 — 16 `ymm`s cannot
/// hold a 16×8 tile) leave it `None`.
#[derive(Clone, Copy)]
pub struct KernelSet {
    pub ukr: Microkernel,
    pub ukr2: Option<Microkernel2>,
}

/// The selectable microkernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Portable scalar loop; LLVM autovectorises it, and it is the
    /// bit-exact oracle (no FMA contraction) for the property tests.
    Scalar,
    /// Explicit AVX2 + FMA: the 8×8 tile as two 8×4 half-tiles of eight
    /// `ymm` accumulators each.
    Avx2,
    /// Explicit AVX-512F: eight `zmm` accumulators, one full column each.
    Avx512,
}

impl KernelPath {
    /// Stable lowercase label (`scalar` / `avx2` / `avx512`) — the same
    /// spelling `GREENLA_KERNEL` accepts and the benchmark's
    /// `manifest.kernel_path` records.
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
            KernelPath::Avx512 => "avx512",
        }
    }

    /// Parse a label back into a path (`auto` is not a path; it is
    /// resolved by [`resolved`]).
    pub fn parse(s: &str) -> Option<KernelPath> {
        match s {
            "scalar" => Some(KernelPath::Scalar),
            "avx2" => Some(KernelPath::Avx2),
            "avx512" => Some(KernelPath::Avx512),
            _ => None,
        }
    }

    /// Does the executing CPU support this path?
    pub fn supported(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Is this a vector (non-scalar) path?
    pub fn is_simd(self) -> bool {
        self != KernelPath::Scalar
    }
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Best path the executing CPU supports (what `auto` resolves to).
pub fn best_supported() -> KernelPath {
    [KernelPath::Avx512, KernelPath::Avx2]
        .into_iter()
        .find(|p| p.supported())
        .unwrap_or(KernelPath::Scalar)
}

/// The dispatched kernel path for this process: `GREENLA_KERNEL` if set,
/// otherwise the best supported path. Resolved once and cached; a forced
/// path the CPU cannot execute panics with a diagnostic naming both.
pub fn resolved() -> KernelPath {
    static RESOLVED: OnceLock<KernelPath> = OnceLock::new();
    *RESOLVED.get_or_init(|| match std::env::var("GREENLA_KERNEL") {
        Err(_) => best_supported(),
        Ok(v) if v == "auto" || v.is_empty() => best_supported(),
        Ok(v) => {
            let path = KernelPath::parse(&v).unwrap_or_else(|| {
                panic!("GREENLA_KERNEL must be scalar|avx2|avx512|auto, got `{v}`")
            });
            assert!(
                path.supported(),
                "GREENLA_KERNEL={v} forced, but this CPU does not support the {v} \
                 microkernel (use `auto` to pick the best supported path)"
            );
            path
        }
    })
}

/// The microkernel for `path`. Panics when the CPU cannot execute it —
/// this check is what makes the returned function pointer safe to call.
pub fn microkernel(path: KernelPath) -> Microkernel {
    assert!(
        path.supported(),
        "kernel path {path} is not supported by this CPU"
    );
    match path {
        KernelPath::Scalar => microkernel_scalar,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => microkernel_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => microkernel_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar paths are never supported off x86_64"),
    }
}

/// The full kernel set for `path` (same support check as [`microkernel`]).
pub fn kernel_set(path: KernelPath) -> KernelSet {
    let ukr = microkernel(path);
    let ukr2 = match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => Some(microkernel_avx512_x2_entry as Microkernel2),
        _ => None,
    };
    KernelSet { ukr, ukr2 }
}

/// The kernel set the dispatcher picked for this process.
pub fn active_kernel_set() -> KernelSet {
    kernel_set(resolved())
}

/// A CSR row-range SpMV kernel: for each local row `i`,
/// `y[i] = Σ values[k]·x[col_idx[k]]` over `k ∈ row_ptr[i]..row_ptr[i+1]`.
/// `row_ptr` holds `y.len() + 1` offsets indexing `col_idx`/`values`
/// directly, so a contiguous sub-range of a larger matrix is expressed by
/// slicing `row_ptr` alone and passing the full entry streams.
///
/// Unlike the dgemm microkernels (whose SIMD paths contract into FMA),
/// **every** SpMV path accumulates each row strictly left to right with
/// separate multiply and add, so all paths are bit-identical: the
/// non-scalar paths differ only in unrolling and software prefetch of the
/// irregular `x` gather stream, never in arithmetic order.
pub type SpmvKernel =
    fn(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]);

/// The SpMV row-range kernel for `path`. Panics when the CPU cannot
/// execute it — the same refused-dispatch contract as [`microkernel`]:
/// a CI job forcing `avx2` can never green-light the scalar loop.
pub fn spmv_kernel(path: KernelPath) -> SpmvKernel {
    assert!(
        path.supported(),
        "kernel path {path} is not supported by this CPU"
    );
    match path {
        KernelPath::Scalar => spmv_range_scalar,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => spmv_range_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => spmv_range_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar paths are never supported off x86_64"),
    }
}

/// The SpMV kernel the dispatcher picked for this process.
pub fn active_spmv_kernel() -> SpmvKernel {
    spmv_kernel(resolved())
}

/// The portable scalar SpMV row-range kernel — the bit-exact oracle the
/// property tests compare against (and, because no path contracts into
/// FMA, also the exact result of every other path).
pub fn spmv_range_scalar(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(row_ptr.len(), y.len() + 1, "row_ptr spans the output rows");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * x[col_idx[k] as usize];
        }
        *yi = acc;
    }
}

/// Safe entry for the AVX2 SpMV kernel, handed out only by
/// [`spmv_kernel`].
#[cfg(target_arch = "x86_64")]
fn spmv_range_avx2_entry(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert!(KernelPath::Avx2.supported());
    // SAFETY: this entry is only reachable through `spmv_kernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx2+fma; the
    // kernel body uses bounds-checked indexing throughout.
    unsafe { isa::spmv_range_avx2(row_ptr, col_idx, values, x, y) }
}

/// Safe entry for the AVX-512F SpMV kernel, handed out only by
/// [`spmv_kernel`].
#[cfg(target_arch = "x86_64")]
fn spmv_range_avx512_entry(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert!(KernelPath::Avx512.supported());
    // SAFETY: this entry is only reachable through `spmv_kernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx512f; the
    // kernel body uses bounds-checked indexing throughout.
    unsafe { isa::spmv_range_avx512(row_ptr, col_idx, values, x, y) }
}

/// Rows per pass of a chained axpy: the `y` chunk and the matching chunk
/// of every `x` (eight levels × 2 KiB) stay in L1 while the levels run
/// over them. IMe's fused table sweep cuts its rows at the same size.
pub const DAXPY_CHAIN_CHUNK: usize = 256;

/// A chained axpy, `y ← (((y + α₀·x₀) + α₁·x₁) + …)`: one
/// `blas1::daxpy(alphas[k], xs[k], y)` per `k`, in order, with every
/// `xs[k]` as long as `y`. IMe's fused table update applies a block of
/// levels to one column with it, so `y` travels to memory once per block
/// instead of once per level.
///
/// Like the SpMV kernels, **every** path multiplies and adds separately
/// and keeps each element's terms in `k` order, and each skips a term
/// whose `α` is zero exactly as `daxpy`'s quick return does (a `NaN` or
/// `Inf` in that `x` never reaches `y`, and a `−0.0` in `y` survives). All
/// paths therefore equal the `daxpy` sequence bit for bit; they differ only
/// in how many rows they hold in registers.
pub type DaxpyChainKernel = fn(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]);

/// The chained-axpy kernel for `path`. Panics when the CPU cannot execute
/// it — the same refused-dispatch contract as [`microkernel`].
pub fn daxpy_chain_kernel(path: KernelPath) -> DaxpyChainKernel {
    assert!(
        path.supported(),
        "kernel path {path} is not supported by this CPU"
    );
    match path {
        KernelPath::Scalar => daxpy_chain_scalar,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => daxpy_chain_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => daxpy_chain_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar paths are never supported off x86_64"),
    }
}

/// The chained-axpy kernel the dispatcher picked for this process.
pub fn active_daxpy_chain_kernel() -> DaxpyChainKernel {
    daxpy_chain_kernel(resolved())
}

/// The portable scalar chained axpy — the oracle of the other paths. Rows
/// go in [`DAXPY_CHAIN_CHUNK`]s, the outer loop, and every level sweeps
/// the chunk before the next one starts.
pub fn daxpy_chain_scalar(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    assert_chain_shapes(alphas, xs, y);
    for (c, yc) in y.chunks_mut(DAXPY_CHAIN_CHUNK).enumerate() {
        daxpy_chain_rows(alphas, xs, yc, c * DAXPY_CHAIN_CHUNK);
    }
}

/// The shape contract every chained-axpy path checks first: one `α` per
/// `x`, and every `x` as long as `y`.
fn assert_chain_shapes(alphas: &[f64], xs: &[&[f64]], y: &[f64]) {
    assert_eq!(alphas.len(), xs.len(), "one alpha per x");
    assert!(
        xs.iter().all(|x| x.len() == y.len()),
        "daxpy_chain length mismatch"
    );
}

/// `y[j] ← y[j] + α_k·x_k[from + j]`, level by level, skipping a zero
/// `α`: the scalar oracle's chunk body and the vector paths' ragged end.
#[inline(always)]
fn daxpy_chain_rows(alphas: &[f64], xs: &[&[f64]], y: &mut [f64], from: usize) {
    let rows = from..from + y.len();
    for (&a, x) in alphas.iter().zip(xs) {
        if a == 0.0 {
            continue;
        }
        for (yi, xi) in y.iter_mut().zip(&x[rows.clone()]) {
            *yi += a * xi;
        }
    }
}

/// Safe entry for the AVX2 chained axpy, handed out only by
/// [`daxpy_chain_kernel`].
#[cfg(target_arch = "x86_64")]
fn daxpy_chain_avx2_entry(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    debug_assert!(KernelPath::Avx2.supported());
    // SAFETY: this entry is only reachable through `daxpy_chain_kernel`,
    // which panics unless `is_x86_feature_detected!` confirmed avx2+fma;
    // the kernel's own shape contract is asserted inside.
    unsafe { isa::daxpy_chain_avx2(alphas, xs, y) }
}

/// Safe entry for the AVX-512F chained axpy, handed out only by
/// [`daxpy_chain_kernel`].
#[cfg(target_arch = "x86_64")]
fn daxpy_chain_avx512_entry(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    debug_assert!(KernelPath::Avx512.supported());
    // SAFETY: this entry is only reachable through `daxpy_chain_kernel`,
    // which panics unless `is_x86_feature_detected!` confirmed avx512f;
    // the kernel's own shape contract is asserted inside.
    unsafe { isa::daxpy_chain_avx512(alphas, xs, y) }
}

/// A ChaCha8 block kernel: `out[k]` becomes keystream block `counters[k]`
/// of `key`, i.e. [`rand_chacha::chacha8_block`]`(key, counters[k])`, for
/// every `k`. The seeded input generators draw whole columns through it:
/// the vector paths compute eight (AVX2) or sixteen (AVX-512) blocks per
/// pass, one block per lane, so a run of `r` matrix entries costs
/// `⌈r/8⌉ + 1` blocks at most instead of `r` sequential draws.
///
/// The kernel is integer-only (wrapping adds, xors, rotations), so every
/// path equals the scalar block function bit for bit, not within an ulp
/// bound.
pub type Chacha8Kernel = fn(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]);

/// The ChaCha8 block kernel for `path`. Panics when the CPU cannot execute
/// it — the same refused-dispatch contract as [`microkernel`].
pub fn chacha8_kernel(path: KernelPath) -> Chacha8Kernel {
    assert!(
        path.supported(),
        "kernel path {path} is not supported by this CPU"
    );
    match path {
        KernelPath::Scalar => chacha8_blocks_scalar,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => chacha8_blocks_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => chacha8_blocks_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar paths are never supported off x86_64"),
    }
}

/// The ChaCha8 block kernel the dispatcher picked for this process.
pub fn active_chacha8_kernel() -> Chacha8Kernel {
    chacha8_kernel(resolved())
}

/// The scalar ChaCha8 block kernel: the vendored block function once per
/// counter — the oracle of the vector paths.
pub fn chacha8_blocks_scalar(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
    assert_eq!(counters.len(), out.len(), "one counter per block");
    for (block, &counter) in out.iter_mut().zip(counters) {
        *block = rand_chacha::chacha8_block(key, counter);
    }
}

/// Safe entry for the AVX2 ChaCha8 block kernel, handed out only by
/// [`chacha8_kernel`].
#[cfg(target_arch = "x86_64")]
fn chacha8_blocks_avx2_entry(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
    debug_assert!(KernelPath::Avx2.supported());
    // SAFETY: this entry is only reachable through `chacha8_kernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx2+fma; the
    // kernel's own shape contract is asserted inside.
    unsafe { isa::chacha8_blocks_avx2(key, counters, out) }
}

/// Safe entry for the AVX-512F ChaCha8 block kernel, handed out only by
/// [`chacha8_kernel`].
#[cfg(target_arch = "x86_64")]
fn chacha8_blocks_avx512_entry(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
    debug_assert!(KernelPath::Avx512.supported());
    // SAFETY: this entry is only reachable through `chacha8_kernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx512f; the
    // kernel's own shape contract is asserted inside.
    unsafe { isa::chacha8_blocks_avx512(key, counters, out) }
}

/// The portable scalar microkernel: `MR`/`NR` are compile-time constants
/// and the panel rows are fixed-size arrays, so LLVM fully unrolls the
/// tile and vectorises the row dimension. Kept as the bit-exact oracle:
/// it performs separate multiply and add (no FMA contraction), so its
/// results are reproducible on every ISA and toolchain.
///
/// The tile is summed in a local copy and written back once. Updated in
/// place through `acc`, all sixteen vectors were stored every `p` (the
/// slice bounds checks may panic, and `acc` outlives the unwind), so the
/// kernel's speed hung on where the caller's stack put the tile: 13–21
/// GF/s at n = 512 on an AVX-512 host by call depth alone, ~25 now.
pub fn microkernel_scalar(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
    debug_assert!(apan.len() >= kb * MR && bpan.len() >= kb * NR);
    let mut tile = *acc;
    for p in 0..kb {
        let av: &[f64; MR] = apan[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f64; NR] = bpan[p * NR..p * NR + NR].try_into().unwrap();
        for j in 0..NR {
            let bj = bv[j];
            for i in 0..MR {
                tile[j * MR + i] += av[i] * bj;
            }
        }
    }
    *acc = tile;
}

/// Safe entry for the AVX2 kernel, handed out only by [`microkernel`].
#[cfg(target_arch = "x86_64")]
fn microkernel_avx2_entry(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
    debug_assert!(KernelPath::Avx2.supported());
    // SAFETY: this entry is only reachable through `microkernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx2+fma; the
    // kernel's own slice-bounds contract is asserted inside.
    unsafe { isa::microkernel_avx2(kb, apan, bpan, acc) }
}

/// Safe entry for the AVX-512F kernel, handed out only by [`microkernel`].
#[cfg(target_arch = "x86_64")]
fn microkernel_avx512_entry(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
    debug_assert!(KernelPath::Avx512.supported());
    // SAFETY: this entry is only reachable through `microkernel`, which
    // panics unless `is_x86_feature_detected!` confirmed avx512f; the
    // kernel's own slice-bounds contract is asserted inside.
    unsafe { isa::microkernel_avx512(kb, apan, bpan, acc) }
}

/// Safe entry for the two-panel AVX-512F kernel, handed out only by
/// [`kernel_set`].
#[cfg(target_arch = "x86_64")]
fn microkernel_avx512_x2_entry(
    kb: usize,
    apan2: &[f64],
    bpan: &[f64],
    acc0: &mut [f64; MR * NR],
    acc1: &mut [f64; MR * NR],
) {
    debug_assert!(KernelPath::Avx512.supported());
    // SAFETY: this entry is only reachable through `kernel_set`, which
    // goes through `microkernel`'s support panic for the same path first;
    // the kernel's own slice-bounds contract is asserted inside.
    unsafe { isa::microkernel_avx512_x2(kb, apan2, bpan, acc0, acc1) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kb: usize) -> (Vec<f64>, Vec<f64>) {
        let apan: Vec<f64> = (0..kb * MR).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let bpan: Vec<f64> = (0..kb * NR).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        (apan, bpan)
    }

    fn run(path: KernelPath, kb: usize) -> [f64; MR * NR] {
        let (apan, bpan) = panels(kb);
        let mut acc = [0.0; MR * NR];
        microkernel(path)(kb, &apan, &bpan, &mut acc);
        acc
    }

    #[test]
    fn scalar_is_always_supported_and_correct() {
        let kb = 17;
        let (apan, bpan) = panels(kb);
        let acc = run(KernelPath::Scalar, kb);
        for j in 0..NR {
            for i in 0..MR {
                let want: f64 = (0..kb).map(|p| apan[p * MR + i] * bpan[p * NR + j]).sum();
                assert_eq!(acc[j * MR + i], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn simd_paths_match_scalar_within_ulp_tolerance() {
        // Integer-valued panels: products and partial sums stay exactly
        // representable, so supported SIMD paths must agree exactly here;
        // the fractional-input ulp bound lives in tests/kernel_dispatch.rs.
        for kb in [1, 2, 7, 64] {
            let want = run(KernelPath::Scalar, kb);
            for path in [KernelPath::Avx2, KernelPath::Avx512] {
                if !path.supported() {
                    continue;
                }
                assert_eq!(run(path, kb), want, "{path} kb={kb}");
            }
        }
    }

    #[test]
    fn kb_zero_accumulates_nothing() {
        for path in [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512] {
            if !path.supported() {
                continue;
            }
            let mut acc = [3.5; MR * NR];
            microkernel(path)(0, &[], &[], &mut acc);
            assert!(acc.iter().all(|&v| v == 3.5), "{path}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for path in [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512] {
            assert_eq!(KernelPath::parse(path.label()), Some(path));
        }
        assert_eq!(KernelPath::parse("auto"), None);
        assert_eq!(KernelPath::parse("neon"), None);
    }

    #[test]
    fn resolved_is_a_supported_path() {
        let path = resolved();
        assert!(path.supported());
        // Cached: a second call answers identically.
        assert_eq!(resolved(), path);
    }

    /// A ragged CSR-shaped pattern: row `i` holds `i % 7` entries at
    /// pseudo-random columns — exercises empty rows, short tails and the
    /// unrolled body in one sweep.
    fn csr_pattern(rows: usize, n: usize) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            for e in 0..i % 7 {
                col_idx.push(((i * 31 + e * 17) % n) as u32);
                values.push(((i * 13 + e * 5) % 11) as f64 * 0.25 - 1.25);
            }
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx, values)
    }

    #[test]
    fn spmv_paths_are_bit_identical_to_the_scalar_oracle() {
        let (rows, n) = (123, 64);
        let (row_ptr, col_idx, values) = csr_pattern(rows, n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut want = vec![0.0; rows];
        spmv_range_scalar(&row_ptr, &col_idx, &values, &x, &mut want);
        for path in [KernelPath::Avx2, KernelPath::Avx512] {
            if !path.supported() {
                continue;
            }
            let mut got = vec![f64::NAN; rows];
            spmv_kernel(path)(&row_ptr, &col_idx, &values, &x, &mut got);
            assert_eq!(got, want, "{path}");
        }
    }

    #[test]
    fn spmv_kernel_handles_empty_ranges() {
        for path in [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512] {
            if !path.supported() {
                continue;
            }
            let mut y: Vec<f64> = Vec::new();
            spmv_kernel(path)(&[0], &[], &[], &[], &mut y);
            assert!(y.is_empty(), "{path}");
        }
    }

    #[test]
    fn active_spmv_kernel_matches_the_resolved_path() {
        assert_eq!(
            active_spmv_kernel() as usize,
            spmv_kernel(resolved()) as usize
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn requesting_an_unsupported_spmv_kernel_panics() {
        if KernelPath::Avx512.supported() {
            panic!("kernel path avx512 is not supported (skip: CPU has avx512f)");
        }
        spmv_kernel(KernelPath::Avx512);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn requesting_an_unsupported_kernel_panics() {
        // avx512 requires avx512f; when this CPU has it, fall back to
        // exercising the message through a pretend-unsupported arch path.
        if KernelPath::Avx512.supported() {
            panic!("kernel path avx512 is not supported (skip: CPU has avx512f)");
        }
        microkernel(KernelPath::Avx512);
    }
}
