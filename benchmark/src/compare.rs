//! `compare A.json B.json`: hold every end-to-end metric of every workload
//! in B (the change) to its bound against A (the base).

use crate::metrics::{Better, Bound, END_TO_END};
use crate::stats::Summary;
use serde_json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides steady enough to say so.
    Unchanged,
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound, but a side's own quartile spread is wider than the
    /// bound: the runs cannot resolve a change of that size.
    Unresolved,
    /// Worse than the bound allows (or, for a fingerprint, different).
    Breach,
}

/// Verdict on one metric. `base` and `new` summarise the samples of the
/// two result files.
pub fn judge(bound: Bound, better: Better, base: &Summary, new: &Summary) -> Verdict {
    let (a, b) = (base.median, new.median);
    match bound {
        Bound::Exact => {
            let fixed = |s: &Summary| s.min.to_bits() == s.max.to_bits();
            if a.to_bits() == b.to_bits() && fixed(base) && fixed(new) {
                Verdict::Unchanged
            } else {
                Verdict::Breach
            }
        }
        Bound::Within(tol) => {
            let lo = base.min.min(new.min);
            let hi = base.max.max(new.max);
            if hi - lo <= tol * hi.abs() {
                Verdict::Unchanged
            } else {
                Verdict::Breach
            }
        }
        Bound::NoIncrease => {
            if b > a {
                Verdict::Breach
            } else {
                Verdict::Unchanged
            }
        }
        Bound::Worse(share) => {
            // Positive = worse, as a share of the base median.
            let worse = match better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            if worse > share {
                Verdict::Breach
            } else if base.spread() > share || new.spread() > share {
                Verdict::Unresolved
            } else if worse < -share {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

pub struct Line {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

fn manifest_field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.get("manifest")?.get(key)
}

/// Compare two result documents. `Err` when they cannot be compared at
/// all: different core counts or kernel paths measure different machines.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Line>, String> {
    for key in ["nproc", "kernel_path"] {
        let (x, y) = (manifest_field(a, key), manifest_field(b, key));
        if x.is_none() || x != y {
            return Err(format!(
                "refusing to compare: manifest.{key} differs ({x:?} vs {y:?})"
            ));
        }
    }
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        doc.get("workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "no workloads object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    for (name, base) in &wa {
        let Some((_, new)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Value| {
                w.get("end_to_end")?
                    .get(m.name)
                    .and_then(Summary::from_json)
            };
            if let (Some(x), Some(y)) = (side(base), side(new)) {
                lines.push(Line {
                    workload: name.clone(),
                    metric: m.name,
                    base: x.median,
                    new: y.median,
                    verdict: judge(m.bound, m.better, &x, &y),
                });
            }
        }
    }
    if lines.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(v: f64) -> Summary {
        Summary::of(&[v * 0.995, v, v * 1.005])
    }

    const TEN: Bound = Bound::Worse(0.10);

    #[test]
    fn host_metrics_breach_only_past_the_bound_and_in_the_bad_direction() {
        assert_eq!(
            judge(TEN, Better::Lower, &tight(5.0), &tight(5.4)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(TEN, Better::Lower, &tight(5.0), &tight(5.6)),
            Verdict::Breach
        );
        assert_eq!(
            judge(TEN, Better::Lower, &tight(5.0), &tight(4.0)),
            Verdict::Improved
        );
        // Throughput: lower is the bad direction.
        assert_eq!(
            judge(TEN, Better::Higher, &tight(100.0), &tight(85.0)),
            Verdict::Breach
        );
        assert_eq!(
            judge(TEN, Better::Higher, &tight(100.0), &tight(95.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(TEN, Better::Higher, &tight(100.0), &tight(120.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Summary::of(&[4.0, 4.5, 5.0, 5.5, 6.0]);
        assert!(noisy.spread() > 0.10);
        assert_eq!(
            judge(TEN, Better::Lower, &noisy, &tight(5.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(TEN, Better::Lower, &tight(5.0), &noisy),
            Verdict::Unresolved
        );
        // Noise never excuses a breach.
        assert_eq!(
            judge(TEN, Better::Lower, &tight(4.0), &noisy),
            Verdict::Breach
        );
    }

    #[test]
    fn virtual_time_must_be_bit_identical_in_both_directions() {
        let v = 0.21598699999999996;
        let fixed = |x: f64| Summary::of(&[x, x, x]);
        assert_eq!(
            judge(Bound::Exact, Better::Lower, &fixed(v), &fixed(v)),
            Verdict::Unchanged
        );
        let next = f64::from_bits(v.to_bits() + 1);
        assert_eq!(
            judge(Bound::Exact, Better::Lower, &fixed(v), &fixed(next)),
            Verdict::Breach
        );
        let prev = f64::from_bits(v.to_bits() - 1);
        assert_eq!(
            judge(Bound::Exact, Better::Lower, &fixed(v), &fixed(prev)),
            Verdict::Breach
        );
        // Same median, but one side wobbled between its own passes.
        let wobbly = Summary::of(&[v, v, next]);
        assert_eq!(
            judge(Bound::Exact, Better::Lower, &fixed(v), &wobbly),
            Verdict::Breach
        );
    }

    #[test]
    fn energy_tolerates_the_known_drift_and_nothing_more() {
        let tol = Bound::Within(crate::metrics::ENERGY_TOL);
        // The drift the seed shows on `sparse_batched`.
        let a = Summary::of(&[4.840238, 4.84024, 4.840242]);
        let b = Summary::of(&[4.84024, 4.840241, 4.840242]);
        assert_eq!(judge(tol, Better::Lower, &a, &b), Verdict::Unchanged);
        let off = Summary::of(&[4.8403, 4.8403, 4.8403]);
        assert_eq!(judge(tol, Better::Lower, &a, &off), Verdict::Breach);
        assert_eq!(judge(tol, Better::Lower, &off, &a), Verdict::Breach);
        // No monitor, no energy: zero on both sides is agreement.
        let zero = Summary::of(&[0.0, 0.0]);
        assert_eq!(judge(tol, Better::Lower, &zero, &zero), Verdict::Unchanged);
    }

    #[test]
    fn any_new_failure_is_a_breach() {
        let none = Summary::of(&[0.0]);
        let some = Summary::of(&[0.001]);
        assert_eq!(
            judge(Bound::NoIncrease, Better::Lower, &none, &none),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Bound::NoIncrease, Better::Lower, &none, &some),
            Verdict::Breach
        );
        assert_eq!(
            judge(Bound::NoIncrease, Better::Lower, &some, &none),
            Verdict::Unchanged
        );
    }

    fn doc(nproc: u64, path: &str, wall: f64) -> Value {
        let e2e = Value::Object(vec![("wall_s".into(), tight(wall).to_json("s"))]);
        Value::Object(vec![
            (
                "manifest".into(),
                Value::Object(vec![
                    ("nproc".into(), Value::U64(nproc)),
                    ("kernel_path".into(), Value::Str(path.into())),
                ]),
            ),
            (
                "workloads".into(),
                Value::Object(vec![(
                    "large_n".into(),
                    Value::Object(vec![("end_to_end".into(), e2e)]),
                )]),
            ),
        ])
    }

    #[test]
    fn documents_from_different_machines_are_refused() {
        assert!(compare(&doc(2, "avx512", 1.0), &doc(4, "avx512", 1.0)).is_err());
        assert!(compare(&doc(2, "avx512", 1.0), &doc(2, "avx2", 1.0)).is_err());
        let lines = compare(&doc(2, "avx512", 1.0), &doc(2, "avx512", 1.5)).expect("comparable");
        assert_eq!(lines.len(), 1);
        assert_eq!(
            (lines[0].metric, lines[0].verdict),
            ("wall_s", Verdict::Breach)
        );
    }
}
