//! Deflaking statistics shared by the roofline acceptance, the sparse
//! campaign's model check and `benchmark/`: the outlier-resistant median
//! behind every timed kernel, the
//! symmetric ratio band every predicted-vs-measured comparison gates on,
//! and the best-of-N envelope that re-measures a whole check set when a
//! shared runner's background load bursts through one attempt.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `reps` timed runs of `f` (wall seconds), preceded by one
/// untimed warm-up (first-touch page faults and cold caches belong to no
/// repetition). Even counts take the lower middle so one fast outlier
/// can't mask a regression.
pub fn median_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0);
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the kernel probes time the host, not the simulation"
            )]
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median_lower(times)
}

/// The lower-middle median of a sample (see [`median_wall`]).
fn median_lower(mut times: Vec<f64>) -> f64 {
    assert!(!times.is_empty());
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[(times.len() - 1) / 2]
}

/// Whether a predicted/measured ratio sits inside the symmetric band
/// `[1/(1+tol), 1+tol]`. Non-finite ratios (a zero or NaN measurement)
/// never pass.
pub fn within_band(ratio: f64, rel_tol: f64) -> bool {
    ratio.is_finite() && (1.0 / (1.0 + rel_tol)..=1.0 + rel_tol).contains(&ratio)
}

/// Best-of-N envelope over repeated measurement attempts, keyed by check
/// id. A background-load burst skews whichever checks it overlapped, and
/// moves around between attempts; a genuine model error misses every
/// attempt. Keeping, per id, the ratio closest to 1 in log space makes
/// the envelope converge on the former and stay failed on the latter.
#[derive(Clone, Debug, Default)]
pub struct BestRatios {
    best: BTreeMap<String, f64>,
}

impl BestRatios {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one attempt's ratio for `id` into the envelope, keeping
    /// whichever ratio is closest to 1 in log space (so 0.8 and 1.25
    /// count as equally far off).
    pub fn absorb(&mut self, id: &str, ratio: f64) {
        let entry = self.best.entry(id.to_string()).or_insert(ratio);
        if ratio.ln().abs() < entry.ln().abs() {
            *entry = ratio;
        }
    }

    /// The ids whose best ratio still falls outside the band, formatted
    /// for a failure message.
    pub fn failures(&self, rel_tol: f64) -> Vec<String> {
        self.best
            .iter()
            .filter(|(_, &r)| !within_band(r, rel_tol))
            .map(|(id, r)| format!("{id}: best ratio {r:.3}"))
            .collect()
    }

    /// Whether every absorbed id has landed in the band on some attempt.
    pub fn all_within(&self, rel_tol: f64) -> bool {
        self.failures(rel_tol).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median_lower(vec![3.0, 1.0, 2.0]), 2.0);
        // Even count: the lower of the two middles, so one fast outlier
        // cannot drag the statistic down.
        assert_eq!(median_lower(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_lower(vec![5.0]), 5.0);
    }

    #[test]
    fn median_wall_times_the_body() {
        let mut calls = 0;
        let wall = median_wall(4, || calls += 1);
        assert_eq!(calls, 5, "4 timed reps + 1 warm-up");
        assert!(wall >= 0.0 && wall.is_finite());
    }

    #[test]
    fn band_is_symmetric_and_rejects_non_finite() {
        assert!(within_band(1.0, 0.30));
        assert!(within_band(1.29, 0.30) && within_band(1.0 / 1.29, 0.30));
        assert!(!within_band(1.31, 0.30) && !within_band(1.0 / 1.31, 0.30));
        assert!(!within_band(f64::NAN, 0.30));
        assert!(!within_band(f64::INFINITY, 0.30));
        assert!(!within_band(0.0, 0.30));
    }

    #[test]
    fn envelope_keeps_the_log_closest_ratio() {
        let mut best = BestRatios::new();
        best.absorb("a", 2.0);
        assert!(!best.all_within(0.30));
        // 0.6 is further from 1 in log space than 1.5; 1.1 beats both.
        best.absorb("a", 1.5);
        best.absorb("a", 0.6);
        best.absorb("a", 1.1);
        best.absorb("a", 3.0);
        assert!(best.all_within(0.30));
        assert!(best.failures(0.05) == vec!["a: best ratio 1.100".to_string()]);
    }

    #[test]
    fn envelope_reports_only_out_of_band_ids() {
        let mut best = BestRatios::new();
        best.absorb("ok", 1.05);
        best.absorb("bad", 1.9);
        assert_eq!(best.failures(0.30), vec!["bad: best ratio 1.900"]);
        assert!(!best.all_within(0.30));
    }
}
