//! Energy-status counter behaviour: the ~1 ms update quantisation.

/// Counters are updated "approximately once a millisecond (due to jitter)"
/// (paper §2.3). We quantise reads onto a 1 ms grid shifted by a per-domain
/// phase, so immediate re-reads can observe an unchanged value.
pub const UPDATE_PERIOD_S: f64 = 1.0e-3;

/// Quantise a read at time `t` to the last counter-update instant, given the
/// domain's phase offset in `[0, UPDATE_PERIOD_S)`.
pub fn quantize_read_time(t: f64, phase: f64) -> f64 {
    debug_assert!((0.0..UPDATE_PERIOD_S).contains(&phase));
    if t <= phase {
        return 0.0;
    }
    let ticks = ((t - phase) / UPDATE_PERIOD_S).floor();
    (ticks * UPDATE_PERIOD_S + phase).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_steps() {
        let phase = 0.0002;
        // Just before the first update instant → 0.
        assert_eq!(quantize_read_time(0.0001, phase), 0.0);
        // Right after an update.
        let q = quantize_read_time(0.00121, phase);
        assert!((q - 0.0012).abs() < 1e-12);
        // Two reads within one period see the same instant.
        let a = quantize_read_time(0.00540, 0.0);
        let b = quantize_read_time(0.00599, 0.0);
        assert_eq!(a, b);
    }
}
