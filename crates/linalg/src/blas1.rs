//! Level-1 BLAS on `f64` slices.
//!
//! Strides are always 1 (greenla stores matrices column-major and only ever
//! needs contiguous-column vector ops); that keeps every kernel
//! auto-vectorisable. Flop costs are in [`crate::flops`].

/// `x · y`.
#[inline]
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "ddot length mismatch");
    // Accumulate in 4 lanes so LLVM can vectorise without reassociation flags.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        for l in 0..4 {
            acc[l] += x[b + l] * y[b + l];
        }
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y ← α·x + y`.
#[inline]
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "daxpy length mismatch");
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Index of the element with the largest absolute value (first on ties),
/// the LAPACK pivot-search primitive. Panics on an empty slice.
#[inline]
pub fn idamax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "idamax on empty slice");
    let mut best = 0;
    let mut bv = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > bv {
            bv = a;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddot_basic() {
        assert_eq!(ddot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn ddot_long_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| i as f64 * 0.25).collect();
        let y: Vec<f64> = (0..103).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((ddot(&x, &y) - naive).abs() < 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn daxpy_updates() {
        let mut y = vec![1.0, 1.0];
        daxpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn daxpy_alpha_zero_is_noop() {
        let mut y = vec![1.0, 2.0];
        daxpy(0.0, &[f64::NAN, f64::NAN], &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn idamax_finds_largest_abs() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), 1);
        assert_eq!(idamax(&[2.0]), 0);
    }

    #[test]
    fn idamax_first_on_tie() {
        assert_eq!(idamax(&[-4.0, 4.0]), 0);
    }
}
