//! Level-3 BLAS over column-major buffers with explicit leading dimension.
//!
//! `dgemm` is a packed, register-blocked implementation in the classic
//! GotoBLAS/BLIS shape: the operands are repacked once per cache block into
//! contiguous microkernel-ordered buffers (`A` as `MR`-row micro-panels
//! scaled by `α`, `B` as `NR`-column micro-panels), and all arithmetic
//! happens in an unrolled [`crate::tune::MR`]`×`[`crate::tune::NR`]
//! microkernel. Block sizes come from [`crate::tune::Blocking`]; the
//! microkernel shape is fixed at compile time, but the microkernel *body*
//! is runtime-dispatched by [`crate::simd`] (scalar / AVX2+FMA / AVX-512F,
//! overridable via `GREENLA_KERNEL`); [`dgemm_blocked_path`] pins an
//! explicit path for tests and benchmarks.
//!
//! `dtrsm` is blocked the same way: small diagonal blocks are solved with a
//! short substitution loop and the (dominant) trailing updates are routed
//! through the packed `dgemm`, so the triangular solves inherit the GEMM
//! throughput. [`dgemm_reference`] preserves the pre-packing scalar loop
//! nest as the correctness oracle and benchmark baseline.
//!
//! Unlike its predecessor, the inner loops have no `x == 0.0` early-skip:
//! reference BLAS propagates `0 × NaN = NaN` and `0 × ∞ = NaN` from the
//! `A`/`B` operands, and the branch was a mispredicted load-dependent jump
//! in the hottest loop of the workspace.

use crate::block::{BlockMut, BlockRef};
use crate::simd::{self, KernelPath, Kernels};
use crate::tune::{Blocking, MR, NR};
use std::cell::RefCell;

/// `C ← α·A·B + β·C` with `A: m×k`, `B: k×n`, `C: m×n` column-major views
/// (see [`crate::block`]), using the default [`Blocking`].
pub fn dgemm(alpha: f64, a: BlockRef, b: BlockRef, beta: f64, c: BlockMut) {
    dgemm_blocked(alpha, a, b, beta, c, &Blocking::default_blocking());
}

/// [`dgemm`] with explicit cache-blocking parameters (benchmark sweeps and
/// autotuning go through here). The microkernel is the process-wide
/// dispatched one ([`crate::simd::active`]).
pub fn dgemm_blocked(
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    c: BlockMut,
    tune: &Blocking,
) {
    dgemm_with(simd::active(), alpha, a, b, beta, c, tune);
}

/// [`dgemm_blocked`] pinned to an explicit [`KernelPath`], bypassing the
/// `GREENLA_KERNEL` dispatch — the cross-path property tests and the bench
/// suite exercise every path in one process through here. Panics when the
/// CPU cannot execute `path`.
pub fn dgemm_blocked_path(
    path: KernelPath,
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    c: BlockMut,
    tune: &Blocking,
) {
    dgemm_with(&simd::kernels(path), alpha, a, b, beta, c, tune);
}

/// The packed loop nest, generic over the dispatched kernel table;
/// everything above is a thin wrapper choosing `kernels`.
fn dgemm_with(
    kernels: &Kernels,
    alpha: f64,
    a: BlockRef,
    b: BlockRef,
    beta: f64,
    mut c: BlockMut,
    tune: &Blocking,
) {
    tune.validate();
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    assert!(
        a.rows() == m && b.rows() == k && b.cols() == n,
        "dgemm shape mismatch: ({}×{k}) · ({}×{}) → ({m}×{n})",
        a.rows(),
        b.rows(),
        b.cols(),
    );
    let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
    let (a, b) = (a.data(), b.data());
    let c = c.data_mut();
    if m == 0 || n == 0 {
        return;
    }
    scale_columns(c, m, n, ldc, beta);
    if alpha == 0.0 || k == 0 {
        return;
    }
    // Clamp block sizes to the problem so the packing scratch stays
    // proportional to the actual working set (solver call sites hand us
    // many small panel updates).
    let mc = tune.mc.min(m.next_multiple_of(MR));
    let nc = tune.nc.min(n.next_multiple_of(NR));
    let kc = tune.kc.min(k);
    with_pack_scratch(mc * kc, kc * nc, |ap, bp| {
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                pack_b(bp, b, ldb, pc, jc, kb, nb);
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    pack_a(ap, &a[pc * lda + ic..], lda, mb, kb, alpha);
                    for jr in (0..nb).step_by(NR) {
                        let w = NR.min(nb - jr);
                        let bpan = &bp[(jr / NR) * NR * kb..][..NR * kb];
                        let col0 = (jc + jr) * ldc + ic;
                        let mut ir = 0;
                        // Full panel pairs prefer the two-panel kernel when
                        // the path has one (bit-identical to two single
                        // calls — see `simd::Microkernel2`); partial bottom
                        // panels always take the single-panel kernel.
                        while ir + 2 * MR <= mb {
                            let Some(gemm2) = kernels.gemm2 else { break };
                            let apan2 = &ap[(ir / MR) * MR * kb..][..2 * MR * kb];
                            let mut acc0 = [0.0f64; MR * NR];
                            let mut acc1 = [0.0f64; MR * NR];
                            gemm2(kb, apan2, bpan, &mut acc0, &mut acc1);
                            add_tile(c, col0 + ir, ldc, w, MR, &acc0);
                            add_tile(c, col0 + ir + MR, ldc, w, MR, &acc1);
                            ir += 2 * MR;
                        }
                        while ir < mb {
                            let h = MR.min(mb - ir);
                            let apan = &ap[(ir / MR) * MR * kb..][..MR * kb];
                            let mut acc = [0.0f64; MR * NR];
                            (kernels.gemm)(kb, apan, bpan, &mut acc);
                            add_tile(c, col0 + ir, ldc, w, h, &acc);
                            ir += MR;
                        }
                    }
                }
            }
        }
    });
}

/// Add the valid `h×w` corner of an accumulator tile into `C` at linear
/// offset `c0` (the microkernels compute full zero-padded tiles; this
/// write-back clips to the real rows/columns).
#[inline]
fn add_tile(c: &mut [f64], c0: usize, ldc: usize, w: usize, h: usize, acc: &[f64; MR * NR]) {
    for j in 0..w {
        let ccol = &mut c[c0 + j * ldc..][..h];
        let atile = &acc[j * MR..][..h];
        for i in 0..h {
            ccol[i] += atile[i];
        }
    }
}

/// `C ← β·C` over an `m×n` block (the β = 0 case writes zeros without
/// reading `C`, per BLAS convention).
fn scale_columns(c: &mut [f64], m: usize, n: usize, ldc: usize, beta: f64) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// Pack the `mb×kb` block of `A` whose top-left corner is `a[0]` (the
/// caller offsets the slice to `(ic, pc)`) into `MR`-row micro-panels,
/// folding `α` in (each element of `A` is packed once per `NC` slab, so the
/// scale comes out of the microkernel entirely). Partial bottom panels are
/// zero-padded: the microkernel then computes full tiles unconditionally
/// and the write-back simply clips to the valid rows.
fn pack_a(ap: &mut [f64], a: &[f64], lda: usize, mb: usize, kb: usize, alpha: f64) {
    for pr in 0..mb.div_ceil(MR) {
        let r0 = pr * MR;
        let h = MR.min(mb - r0);
        let dst = &mut ap[pr * MR * kb..(pr + 1) * MR * kb];
        for p in 0..kb {
            let src = &a[p * lda + r0..][..h];
            let d = &mut dst[p * MR..p * MR + MR];
            for r in 0..h {
                d[r] = alpha * src[r];
            }
            d[h..].fill(0.0);
        }
    }
}

/// Pack the `kb×nb` panel of `B` at `(pc, jc)` into `NR`-column
/// micro-panels (row-major within a panel: the microkernel reads one
/// `NR`-wide sliver per `p`). Partial right panels are zero-padded.
fn pack_b(bp: &mut [f64], b: &[f64], ldb: usize, pc: usize, jc: usize, kb: usize, nb: usize) {
    for pn in 0..nb.div_ceil(NR) {
        let c0 = pn * NR;
        let w = NR.min(nb - c0);
        let dst = &mut bp[pn * NR * kb..(pn + 1) * NR * kb];
        for p in 0..kb {
            let d = &mut dst[p * NR..p * NR + NR];
            for cc in 0..w {
                d[cc] = b[(jc + c0 + cc) * ldb + pc + p];
            }
            d[w..].fill(0.0);
        }
    }
}

thread_local! {
    /// Per-thread packing scratch, reused across calls so the hot path
    /// performs no steady-state allocation. On the fiber carrier every rank
    /// homed on a worker thread shares that worker's buffers. That is sound
    /// because no kernel blocks or yields while the `RefCell` is borrowed,
    /// so a pack is finished before another rank can run on the thread; a
    /// kernel that broke this would panic on the second borrow, not corrupt
    /// a pack.
    static PACK_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Slack kept at the head of each pack buffer so the panels can start on
/// a cache-line boundary, in doubles. A `Vec<f64>` is only guaranteed
/// 16-byte alignment, and a packed micro-panel row is `MR = 8` doubles =
/// exactly one 64-byte line — so with an unaligned base every panel load
/// straddles two lines, which measured as a stable ~1.6× throughput swing
/// (allocation-dependent, so it flipped between whole process runs).
const PACK_ALIGN: usize = 8;

/// Elements to skip from `p` to the next 64-byte boundary.
fn cache_align_offset(p: *const f64) -> usize {
    let off = p.align_offset(64);
    debug_assert!(off < PACK_ALIGN);
    off
}

fn with_pack_scratch(a_len: usize, b_len: usize, f: impl FnOnce(&mut [f64], &mut [f64])) {
    PACK_SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        let (ap, bp) = &mut *s;
        if ap.len() < a_len + PACK_ALIGN {
            ap.resize(a_len + PACK_ALIGN, 0.0);
        }
        if bp.len() < b_len + PACK_ALIGN {
            bp.resize(b_len + PACK_ALIGN, 0.0);
        }
        let a_off = cache_align_offset(ap.as_ptr());
        let b_off = cache_align_offset(bp.as_ptr());
        f(&mut ap[a_off..a_off + a_len], &mut bp[b_off..b_off + b_len]);
    });
}

/// The pre-packing cache-blocked scalar `dgemm` loop nest, kept as the
/// correctness oracle for the property tests and the baseline the bench
/// trajectory measures speedups against. (The historical `α·b == 0`
/// inner-loop skip is gone here too: it broke `0 × NaN`/`0 × ∞`
/// propagation.)
pub fn dgemm_reference(alpha: f64, a: BlockRef, b: BlockRef, beta: f64, mut c: BlockMut) {
    const BC: usize = 64;
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    assert!(
        a.rows() == m && b.rows() == k && b.cols() == n,
        "dgemm_reference shape mismatch"
    );
    let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
    let (a, b) = (a.data(), b.data());
    let c = c.data_mut();
    if m == 0 || n == 0 {
        return;
    }
    scale_columns(c, m, n, ldc, beta);
    if alpha == 0.0 || k == 0 {
        return;
    }
    for jc in (0..n).step_by(BC) {
        let nb = BC.min(n - jc);
        for pc in (0..k).step_by(BC) {
            let kb = BC.min(k - pc);
            for ic in (0..m).step_by(BC) {
                let mb = BC.min(m - ic);
                for j in 0..nb {
                    let bcol = &b[(jc + j) * ldb + pc..(jc + j) * ldb + pc + kb];
                    let ccol_off = (jc + j) * ldc + ic;
                    for (p, &bv) in bcol.iter().enumerate() {
                        let abv = alpha * bv;
                        let acol = &a[(pc + p) * lda + ic..(pc + p) * lda + ic + mb];
                        let ccol = &mut c[ccol_off..ccol_off + mb];
                        for i in 0..mb {
                            ccol[i] += acol[i] * abv;
                        }
                    }
                }
            }
        }
    }
}

/// Diagonal-block edge for the blocked triangular solves: the substitution
/// runs on `TRSM_BLOCK`-row diagonal blocks and everything below/above is a
/// packed-GEMM update, so ~`1 − TRSM_BLOCK/m` of the flops go through the
/// microkernel.
pub const TRSM_BLOCK: usize = 64;

/// `B ← L⁻¹·B` where `L` is the unit lower triangle of the leading `m × m`
/// block of `a`; `B` is `m × n`. (LAPACK `dtrsm('L','L','N','U')`.)
pub fn dtrsm_left_lower_unit(m: usize, n: usize, a: &[f64], lda: usize, b: &mut [f64], ldb: usize) {
    assert!(lda >= m.max(1) && ldb >= m.max(1));
    if m == 0 || n == 0 {
        return;
    }
    let mut tmp = vec![0.0f64; TRSM_BLOCK.min(m) * n];
    let mut k0 = 0;
    while k0 < m {
        let kb = TRSM_BLOCK.min(m - k0);
        // Forward substitution inside the diagonal block.
        for j in 0..n {
            let bcol = &mut b[j * ldb + k0..j * ldb + k0 + kb];
            for kk in 0..kb {
                let bk = bcol[kk];
                let acol = &a[(k0 + kk) * lda + k0..][..kb];
                for i in kk + 1..kb {
                    bcol[i] -= bk * acol[i];
                }
            }
        }
        let rest = k0 + kb;
        if rest < m {
            // Trailing update B[rest.., :] −= L[rest.., k0..rest] · B[k0..rest, :]
            // through the packed GEMM; the solved rows are copied out first
            // because source and destination interleave within B's columns.
            let t = &mut tmp[..kb * n];
            for j in 0..n {
                t[j * kb..(j + 1) * kb].copy_from_slice(&b[j * ldb + k0..j * ldb + k0 + kb]);
            }
            dgemm(
                -1.0,
                BlockRef::new(&a[k0 * lda + rest..], m - rest, kb, lda),
                BlockRef::new(t, kb, n, kb),
                1.0,
                BlockMut::new(&mut b[rest..], m - rest, n, ldb),
            );
        }
        k0 = rest;
    }
}

/// `B ← U⁻¹·B` where `U` is the non-unit upper triangle of the leading
/// `m × m` block of `a`; `B` is `m × n`. (LAPACK `dtrsm('L','U','N','N')`.)
/// Panics on a zero diagonal.
pub fn dtrsm_left_upper(m: usize, n: usize, a: &[f64], lda: usize, b: &mut [f64], ldb: usize) {
    assert!(lda >= m.max(1) && ldb >= m.max(1));
    if m == 0 || n == 0 {
        return;
    }
    let mut tmp = vec![0.0f64; TRSM_BLOCK.min(m) * n];
    let mut k1 = m;
    while k1 > 0 {
        let kb = TRSM_BLOCK.min(k1);
        let k0 = k1 - kb;
        // Backward substitution inside the diagonal block.
        for j in 0..n {
            let bcol = &mut b[j * ldb + k0..j * ldb + k1];
            for kk in (0..kb).rev() {
                let g = k0 + kk;
                let d = a[g + g * lda];
                assert!(d != 0.0, "singular upper triangle at {g}");
                bcol[kk] /= d;
                let bk = bcol[kk];
                let acol = &a[g * lda + k0..][..kk];
                for i in 0..kk {
                    bcol[i] -= bk * acol[i];
                }
            }
        }
        if k0 > 0 {
            // Update above: B[..k0, :] −= U[..k0, k0..k1] · B[k0..k1, :].
            let t = &mut tmp[..kb * n];
            for j in 0..n {
                t[j * kb..(j + 1) * kb].copy_from_slice(&b[j * ldb + k0..j * ldb + k1]);
            }
            dgemm(
                -1.0,
                BlockRef::new(&a[k0 * lda..], k0, kb, lda),
                BlockRef::new(t, kb, n, kb),
                1.0,
                BlockMut::new(&mut b[..], k0, n, ldb),
            );
        }
        k1 = k0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn approx_mat(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    fn naive_mm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_small() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64) - (j as f64) * 0.5);
        let mut c = Matrix::zeros(3, 2);
        dgemm(1.0, a.block(), b.block(), 0.0, c.block_mut());
        approx_mat(&c, &naive_mm(&a, &b), 1e-12);
    }

    #[test]
    fn gemm_matches_naive_beyond_cache_blocks() {
        let n = 97; // > MR/NR tiles and not a multiple of any block size
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let mut c = Matrix::zeros(n, n);
        dgemm(1.0, a.block(), b.block(), 0.0, c.block_mut());
        approx_mat(&c, &naive_mm(&a, &b), 1e-9);
    }

    #[test]
    fn gemm_matches_reference_across_blocking_choices() {
        let n = 150; // larger than mc=MR, spans several microtiles
        let a = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 11 + j * 2) % 19) as f64 - 9.0);
        let mut want = Matrix::zeros(n, n);
        dgemm_reference(0.75, a.block(), b.block(), 0.0, want.block_mut());
        for tune in [
            Blocking {
                mc: 8,
                nc: 8,
                kc: 1,
            },
            Blocking {
                mc: 16,
                nc: 24,
                kc: 7,
            },
            Blocking::default_blocking(),
        ] {
            let mut c = Matrix::zeros(n, n);
            dgemm_blocked(0.75, a.block(), b.block(), 0.0, c.block_mut(), &tune);
            approx_mat(&c, &want, 1e-9);
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Matrix::from_rows(&[&[10.0, 10.0], &[10.0, 10.0]]);
        dgemm(2.0, a.block(), b.block(), 0.5, c.block_mut());
        assert_eq!(c[(0, 0)], 7.0);
        assert_eq!(c[(1, 1)], 13.0);
    }

    #[test]
    fn gemm_submatrix_with_ld() {
        // Multiply 2x2 sub-blocks embedded in 4x4 buffers.
        let big_a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let big_b = Matrix::identity(4);
        let mut c = Matrix::zeros(2, 2);
        // A block at (1,1), B block at (0,0)
        let a_off = 1 + 4; // (1,1) col-major in 4x4
        dgemm(
            1.0,
            BlockRef::new(&big_a.as_slice()[a_off..], 2, 2, 4),
            BlockRef::new(big_b.as_slice(), 2, 2, 4),
            0.0,
            c.block_mut(),
        );
        assert_eq!(c[(0, 0)], big_a[(1, 1)]);
        assert_eq!(c[(1, 1)], big_a[(2, 2)]);
    }

    #[test]
    fn gemm_propagates_nan_and_inf_through_zero_operands() {
        // 0 × NaN and 0 × ∞ must produce NaN in the accumulation, as
        // reference BLAS does — the old kernel's `α·b == 0` skip dropped
        // these contributions silently.
        let a = Matrix::from_rows(&[&[f64::NAN, 1.0], &[f64::INFINITY, 2.0]]);
        let b = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let mut c = Matrix::zeros(2, 2);
        dgemm(1.0, a.block(), b.block(), 0.0, c.block_mut());
        for j in 0..2 {
            for i in 0..2 {
                assert!(c[(i, j)].is_nan(), "({i},{j}) = {} must be NaN", c[(i, j)]);
            }
        }
    }

    #[test]
    fn trsm_lower_unit_inverts() {
        let l = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[2.0, 1.0, 0.0], &[3.0, 4.0, 1.0]]);
        let rhs = Matrix::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        let mut b = naive_mm(&l, &rhs);
        dtrsm_left_lower_unit(3, 2, l.as_slice(), 3, b.as_mut_slice(), 3);
        approx_mat(&b, &rhs, 1e-12);
    }

    #[test]
    fn trsm_upper_inverts() {
        let u = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[0.0, 3.0, 2.0], &[0.0, 0.0, 4.0]]);
        let rhs = Matrix::from_fn(3, 2, |i, j| (2 * i + j) as f64 - 1.5);
        let mut b = naive_mm(&u, &rhs);
        dtrsm_left_upper(3, 2, u.as_slice(), 3, b.as_mut_slice(), 3);
        approx_mat(&b, &rhs, 1e-12);
    }

    #[test]
    fn trsm_blocked_inverts_beyond_diagonal_block() {
        // m > TRSM_BLOCK exercises the packed-GEMM trailing updates.
        let m = TRSM_BLOCK + 37;
        let l = Matrix::from_fn(m, m, |i, j| {
            use std::cmp::Ordering::*;
            match i.cmp(&j) {
                Equal => 1.0,
                Greater => ((i * 3 + j * 7) % 5) as f64 * 0.01 - 0.02,
                Less => 0.0,
            }
        });
        let u = Matrix::from_fn(m, m, |i, j| {
            use std::cmp::Ordering::*;
            match i.cmp(&j) {
                Equal => 2.0 + ((i * 7) % 3) as f64,
                Less => ((i + 2 * j) % 7) as f64 * 0.01 - 0.03,
                Greater => 0.0,
            }
        });
        let rhs = Matrix::from_fn(m, 9, |i, j| ((i * 13 + j * 29) % 31) as f64 - 15.0);
        let mut b = naive_mm(&l, &rhs);
        dtrsm_left_lower_unit(m, 9, l.as_slice(), m, b.as_mut_slice(), m);
        approx_mat(&b, &rhs, 1e-8);
        let mut b = naive_mm(&u, &rhs);
        dtrsm_left_upper(m, 9, u.as_slice(), m, b.as_mut_slice(), m);
        approx_mat(&b, &rhs, 1e-8);
    }
}
