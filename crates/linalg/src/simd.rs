//! Runtime-dispatched SIMD kernels: one table of kernels per ISA path.
//!
//! Every piece of host arithmetic the solvers and the seeded input
//! generators do goes through four kernel families. Each has a portable
//! scalar oracle, an explicit AVX2+FMA implementation and an AVX-512F one:
//!
//! | [`Kernels`] field | kernel | paths agree |
//! |-------------------|--------|-------------|
//! | `gemm`, `gemm2`   | the packed `MR×NR` register microkernel of [`crate::blas3`], and AVX-512's two-panel variant | within the FMA ulp tolerance |
//! | `spmv`            | the CSR row-range SpMV | bit for bit |
//! | `daxpy_chain`     | the chained axpy IMe's table update runs on | bit for bit |
//! | `chacha8`         | the ChaCha8 block kernel the seeded generators draw from | bit for bit |
//!
//! [`kernels`]`(path)` is a path's whole table. It asserts once that the
//! CPU supports the path and panics otherwise, so a CI job that requests
//! `avx2` can never green-light the scalar path by accident; the scalar
//! oracles are reached as `kernels(KernelPath::Scalar)`. [`active`] is the
//! table of the [`resolved`] path, built once per process.
//!
//! The path is resolved **once per process** (cached in a [`OnceLock`])
//! from the `GREENLA_KERNEL` environment variable:
//!
//! | value                | effect |
//! |----------------------|--------|
//! | `auto` *(or unset)*  | best path the CPU supports (AVX-512F → AVX2+FMA → scalar) |
//! | `scalar`             | force the portable scalar kernels |
//! | `avx2`               | force AVX2+FMA; **panics** if the CPU lacks it |
//! | `avx512`             | force AVX-512F; **panics** if the CPU lacks it |
//!
//! The `#[target_feature]` functions themselves are `unsafe fn`s in the
//! private submodule `isa`, which the compiler keeps inside this module.
//! Each has one safe entry, and [`kernels`] is the one place that names the
//! entries, right below its support assertion: that assertion is the
//! safety argument of every entry in a table.

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

/// Every kernel one [`KernelPath`] provides. Obtained only from
/// [`kernels`] (or [`active`]), which has checked that the CPU supports
/// the path, so every pointer in it is safe to call.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// The single-panel dgemm microkernel.
    pub gemm: Microkernel,
    /// The two-panel variant the loop nest prefers for full panel pairs.
    /// Paths without a profitable one leave it `None`: scalar (LLVM already
    /// keeps the 8×8 tile in registers) and AVX2 (16 `ymm`s cannot hold a
    /// 16×8 tile).
    pub gemm2: Option<Microkernel2>,
    /// The CSR row-range SpMV.
    pub spmv: SpmvKernel,
    /// The chained axpy.
    pub daxpy_chain: DaxpyChainKernel,
    /// The ChaCha8 block kernel.
    pub chacha8: Chacha8Kernel,
}

/// The selectable kernel paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Portable scalar loops; LLVM autovectorises them, and they are the
    /// bit-exact oracles (no FMA contraction) for the property tests.
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
        Ok(v) => match KernelPath::parse(&v) {
            Some(path) if path.supported() => path,
            Some(_) => panic!(
                "GREENLA_KERNEL={v} forced, but this CPU does not support the {v} \
                 microkernel (use `auto` to pick the best supported path)"
            ),
            None => panic!("GREENLA_KERNEL must be scalar|avx2|avx512|auto, got `{v}`"),
        },
    })
}

/// The kernel table of `path`. Panics when the CPU cannot execute the
/// path — this one check is what makes every pointer in the table safe to
/// call.
pub fn kernels(path: KernelPath) -> Kernels {
    assert!(
        path.supported(),
        "kernel path {path} is not supported by this CPU"
    );
    match path {
        KernelPath::Scalar => Kernels {
            gemm: microkernel_scalar,
            gemm2: None,
            spmv: spmv_range_scalar,
            daxpy_chain: daxpy_chain_scalar,
            chacha8: chacha8_blocks_scalar,
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => Kernels {
            gemm: entry::gemm_avx2,
            gemm2: None,
            spmv: entry::spmv_avx2,
            daxpy_chain: entry::daxpy_chain_avx2,
            chacha8: entry::chacha8_avx2,
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => Kernels {
            gemm: entry::gemm_avx512,
            gemm2: Some(entry::gemm2_avx512),
            spmv: entry::spmv_avx512,
            daxpy_chain: entry::daxpy_chain_avx512,
            chacha8: entry::chacha8_avx512,
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar paths are never supported off x86_64"),
    }
}

/// The kernel table of the [`resolved`] path, built once per process.
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| kernels(resolved()))
}

/// The safe entries of the `isa` kernels. Each is named only in the
/// [`kernels`] table of its own path, below the assertion that the CPU
/// supports that path; each kernel asserts (or bounds-checks) its own slice
/// contract.
#[cfg(target_arch = "x86_64")]
mod entry {
    use super::isa;
    use crate::tune::{MR, NR};

    pub(super) fn gemm_avx2(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
        // SAFETY: named only in the avx2 table of `kernels`, which asserted avx2+fma.
        unsafe { isa::microkernel_avx2(kb, apan, bpan, acc) }
    }

    pub(super) fn spmv_avx2(rp: &[usize], ci: &[u32], v: &[f64], x: &[f64], y: &mut [f64]) {
        // SAFETY: named only in the avx2 table of `kernels`, which asserted avx2+fma.
        unsafe { isa::spmv_range_avx2(rp, ci, v, x, y) }
    }

    pub(super) fn daxpy_chain_avx2(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
        // SAFETY: named only in the avx2 table of `kernels`, which asserted avx2+fma.
        unsafe { isa::daxpy_chain_avx2(alphas, xs, y) }
    }

    pub(super) fn chacha8_avx2(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
        // SAFETY: named only in the avx2 table of `kernels`, which asserted avx2+fma.
        unsafe { isa::chacha8_blocks_avx2(key, counters, out) }
    }

    pub(super) fn gemm_avx512(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
        // SAFETY: named only in the avx512 table of `kernels`, which asserted avx512f.
        unsafe { isa::microkernel_avx512(kb, apan, bpan, acc) }
    }

    pub(super) fn gemm2_avx512(
        kb: usize,
        apan2: &[f64],
        bpan: &[f64],
        acc0: &mut [f64; MR * NR],
        acc1: &mut [f64; MR * NR],
    ) {
        // SAFETY: named only in the avx512 table of `kernels`, which asserted avx512f.
        unsafe { isa::microkernel_avx512_x2(kb, apan2, bpan, acc0, acc1) }
    }

    pub(super) fn spmv_avx512(rp: &[usize], ci: &[u32], v: &[f64], x: &[f64], y: &mut [f64]) {
        // SAFETY: named only in the avx512 table of `kernels`, which asserted avx512f.
        unsafe { isa::spmv_range_avx512(rp, ci, v, x, y) }
    }

    pub(super) fn daxpy_chain_avx512(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
        // SAFETY: named only in the avx512 table of `kernels`, which asserted avx512f.
        unsafe { isa::daxpy_chain_avx512(alphas, xs, y) }
    }

    pub(super) fn chacha8_avx512(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
        // SAFETY: named only in the avx512 table of `kernels`, which asserted avx512f.
        unsafe { isa::chacha8_blocks_avx512(key, counters, out) }
    }
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
fn microkernel_scalar(kb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
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

/// The portable scalar SpMV row-range kernel — the bit-exact oracle the
/// property tests compare against (and, because no path contracts into
/// FMA, also the exact result of every other path).
fn spmv_range_scalar(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(row_ptr.len(), y.len() + 1, "row_ptr spans the output rows");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * x[col_idx[k] as usize];
        }
        *yi = acc;
    }
}

/// The portable scalar chained axpy — the oracle of the other paths. Rows
/// go in [`DAXPY_CHAIN_CHUNK`]s, the outer loop, and every level sweeps
/// the chunk before the next one starts.
fn daxpy_chain_scalar(alphas: &[f64], xs: &[&[f64]], y: &mut [f64]) {
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

/// The scalar ChaCha8 block kernel: the vendored block function once per
/// counter — the oracle of the vector paths.
fn chacha8_blocks_scalar(key: &[u32; 8], counters: &[u64], out: &mut [[u32; 16]]) {
    assert_eq!(counters.len(), out.len(), "one counter per block");
    for (block, &counter) in out.iter_mut().zip(counters) {
        *block = rand_chacha::chacha8_block(key, counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATHS: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512];

    fn panels(kb: usize) -> (Vec<f64>, Vec<f64>) {
        let apan: Vec<f64> = (0..kb * MR).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let bpan: Vec<f64> = (0..kb * NR).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        (apan, bpan)
    }

    fn run(path: KernelPath, kb: usize) -> [f64; MR * NR] {
        let (apan, bpan) = panels(kb);
        let mut acc = [0.0; MR * NR];
        (kernels(path).gemm)(kb, &apan, &bpan, &mut acc);
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
        for path in PATHS.into_iter().filter(|p| p.supported()) {
            let mut acc = [3.5; MR * NR];
            (kernels(path).gemm)(0, &[], &[], &mut acc);
            assert!(acc.iter().all(|&v| v == 3.5), "{path}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for path in PATHS {
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

    #[test]
    fn active_is_the_resolved_paths_table() {
        let addrs = |k: &Kernels| {
            [
                k.gemm as usize,
                k.gemm2.map_or(0, |f| f as usize),
                k.spmv as usize,
                k.daxpy_chain as usize,
                k.chacha8 as usize,
            ]
        };
        assert_eq!(addrs(active()), addrs(&kernels(resolved())));
    }

    #[test]
    fn an_unsupported_path_is_refused() {
        // Only a host that lacks a path can show the refusal; where every
        // path is supported there is nothing to request.
        for path in PATHS.into_iter().filter(|p| !p.supported()) {
            let err = std::panic::catch_unwind(|| kernels(path)).err();
            let msg = err.as_ref().and_then(|e| e.downcast_ref::<String>());
            assert!(
                msg.is_some_and(|m| m.contains("is not supported by this CPU")),
                "{path} unsupported but handed out: {msg:?}"
            );
        }
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
            (kernels(path).spmv)(&row_ptr, &col_idx, &values, &x, &mut got);
            assert_eq!(got, want, "{path}");
        }
    }

    #[test]
    fn spmv_handles_empty_ranges() {
        for path in PATHS.into_iter().filter(|p| p.supported()) {
            let mut y: Vec<f64> = Vec::new();
            (kernels(path).spmv)(&[0], &[], &[], &[], &mut y);
            assert!(y.is_empty(), "{path}");
        }
    }
}
