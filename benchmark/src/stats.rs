//! Order statistics for the sample sets the benchmark reports.

use serde_json::Value;

/// Five-number summary of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive: the i-th cut sits at rank `i·(len+1)/4`, clamped to the
/// data), so a spread computed here reads the same as one computed by a
/// driver script over the same values. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Inter-quartile distance as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::Object(vec![
            ("value".into(), Value::F64(self.median)),
            ("unit".into(), Value::Str(unit.into())),
            ("n".into(), Value::U64(self.n as u64)),
            ("min".into(), Value::F64(self.min)),
            ("q1".into(), Value::F64(self.q1)),
            ("median".into(), Value::F64(self.median)),
            ("q3".into(), Value::F64(self.q3)),
            ("max".into(), Value::F64(self.max)),
        ])
    }

    /// Inverse of [`Summary::to_json`]; `None` on a malformed entry.
    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            n: v.get("n")?.as_u64()? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5,1,9,3,7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[4.2]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 4.2, 4.2, 4.2, 4.2, 4.2)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn median_is_order_independent_and_even_counts_average() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
        assert!((s.spread() - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }
}
