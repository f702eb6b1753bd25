//! Pivot bookkeeping shared by the sequential and distributed LU codes.
//!
//! `ipiv` follows the LAPACK convention: `ipiv[k] = p` means rows `k` and
//! `p` (`p ≥ k`) were swapped at elimination step `k`.

/// Apply an LAPACK-style pivot sequence to a vector (forward direction, as
/// needed before the L-solve in `getrs`).
pub fn apply_ipiv_forward(ipiv: &[usize], x: &mut [f64]) {
    for (k, &p) in ipiv.iter().enumerate() {
        assert!(p >= k && p < x.len(), "invalid pivot {p} at step {k}");
        x.swap(k, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_backward_roundtrips() {
        let ipiv = vec![2, 3, 2, 3];
        let mut x = vec![0.0, 1.0, 2.0, 3.0];
        let orig = x.clone();
        apply_ipiv_forward(&ipiv, &mut x);
        assert_ne!(x, orig);
        // The same swaps in reverse order undo it.
        for (k, &p) in ipiv.iter().enumerate().rev() {
            x.swap(k, p);
        }
        assert_eq!(x, orig);
    }

    #[test]
    fn identity_pivots_are_noop() {
        let ipiv: Vec<usize> = (0..4).collect();
        let mut x = vec![9.0, 8.0, 7.0, 6.0];
        apply_ipiv_forward(&ipiv, &mut x);
        assert_eq!(x, vec![9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn permutation_expansion_matches_application() {
        let ipiv = vec![1, 2, 2];
        let n = 3;
        // `perm[i]`: the original index of the row that ends up at `i`.
        let mut perm: Vec<usize> = (0..n).collect();
        for (k, &p) in ipiv.iter().enumerate() {
            perm.swap(k, p);
        }
        let mut x = vec![10.0, 20.0, 30.0];
        apply_ipiv_forward(&ipiv, &mut x);
        for i in 0..n {
            assert_eq!(x[i], (perm[i] as f64 + 1.0) * 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid pivot")]
    fn rejects_pivot_below_step() {
        let ipiv = vec![1, 0];
        let mut x = vec![1.0, 2.0];
        apply_ipiv_forward(&ipiv, &mut x);
    }
}
