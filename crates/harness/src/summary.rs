//! Headline-claim checking (experiment E-S1): distil a dataset — measured,
//! or the paper-scale model tier — into the quantitative statements of
//! §5.3/§5.4 and compare each against the band the paper reports.

use crate::output::Table;
use crate::run::{DataPoint, Dataset};
use greenla_cluster::placement::LoadLayout;
use serde::{Deserialize, Serialize};

/// One checked claim.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClaimCheck {
    pub id: String,
    /// The paper's statement.
    pub claim: String,
    /// What we measured/predicted.
    pub measured: String,
    /// Does the measurement land in (or reasonably near) the paper's band?
    pub pass: bool,
}

fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Claims evaluated on the functional-tier dataset.
pub fn check_dataset(ds: &Dataset) -> Vec<ClaimCheck> {
    let mut out = Vec::new();

    // --- S1: ScaLAPACK consumes less total energy than IMe (gap 50-60%) ---
    // Compared over the paper's n/ranks regime (its most distributed
    // configuration is 8640/1296 ≈ 6.7): scaled-down points below that
    // ratio have no paper counterpart and sit at the latency floor.
    const PAPER_MIN_RATIO: f64 = 6.5;
    let mut gaps = Vec::new();
    let mut wins = 0usize;
    let mut total = 0usize;
    for p in &ds.points {
        if p.solver == "IMe" && p.n as f64 / p.ranks as f64 >= PAPER_MIN_RATIO {
            if let Some(q) = ds.get("ScaLAPACK", p.n, p.ranks, p.layout) {
                total += 1;
                let gap = 1.0 - q.agg.total_energy_j.mean / p.agg.total_energy_j.mean;
                gaps.push(gap);
                if gap > 0.0 {
                    wins += 1;
                }
            }
        }
    }
    let gap_lo = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
    let gap_hi = gaps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let gap_mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    out.push(ClaimCheck {
        id: "S1-energy-gap".into(),
        claim: "ScaLAPACK consumes less energy than IMe, gap 50–60% (§5.4)".into(),
        measured: format!(
            "ScaLAPACK wins {wins}/{total} configs; gap {}..{} (mean {})",
            pct(gap_lo),
            pct(gap_hi),
            pct(gap_mean)
        ),
        // The paper itself notes "except for a few cases where the values
        // are quite similar" — require a clear majority plus a solid mean.
        pass: wins * 4 >= total * 3 && gap_mean > 0.20,
    });

    // --- S2: power gap is much smaller, 12-18% (§5.4) ---
    let mut pgaps = Vec::new();
    for p in &ds.points {
        if p.solver == "IMe" {
            if let Some(q) = ds.get("ScaLAPACK", p.n, p.ranks, p.layout) {
                pgaps.push(1.0 - q.agg.mean_power_w.mean / p.agg.mean_power_w.mean);
            }
        }
    }
    let pgap_mean = pgaps.iter().sum::<f64>() / pgaps.len().max(1) as f64;
    out.push(ClaimCheck {
        id: "S2-power-gap".into(),
        claim: "power gap between IMe and ScaLAPACK reduces to 12–18% (§5.4)".into(),
        measured: format!(
            "mean power gap {} (energy gap {})",
            pct(pgap_mean),
            pct(gap_mean)
        ),
        pass: pgap_mean.abs() < gap_mean && pgap_mean.abs() < 0.35,
    });

    // --- S3: full load is the most energy-efficient layout (§5.3) ---
    let mut full_wins = 0usize;
    let mut full_total = 0usize;
    for p in &ds.points {
        if p.layout == LoadLayout::FullLoad {
            for other in [LoadLayout::HalfOneSocket, LoadLayout::HalfTwoSockets] {
                if let Some(q) = ds.get(&p.solver, p.n, p.ranks, other) {
                    full_total += 1;
                    if p.agg.total_energy_j.mean <= q.agg.total_energy_j.mean {
                        full_wins += 1;
                    }
                }
            }
        }
    }
    out.push(ClaimCheck {
        id: "S3-full-load".into(),
        claim: "full-load deployments consume less than half-load ones (§5.3)".into(),
        measured: format!("full load wins {full_wins}/{full_total} comparisons"),
        pass: full_wins * 10 >= full_total * 9,
    });

    // --- S4: one-socket vs two-socket half load are similar (§5.2) ---
    let mut ratios = Vec::new();
    for p in &ds.points {
        if p.layout == LoadLayout::HalfOneSocket {
            if let Some(q) = ds.get(&p.solver, p.n, p.ranks, LoadLayout::HalfTwoSockets) {
                ratios.push(p.agg.total_energy_j.mean / q.agg.total_energy_j.mean);
            }
        }
    }
    let worst = ratios
        .iter()
        .map(|r| (r - 1.0).abs())
        .fold(0.0f64, f64::max);
    out.push(ClaimCheck {
        id: "S4-socket-split".into(),
        claim: "one-socket and two-socket half-load overlap, no clear winner (§5.2)".into(),
        measured: format!("1-socket/2-socket energy within ±{}", pct(worst)),
        pass: worst < 0.15,
    });

    // --- S5: the idle socket draws 50-60% less, not ~100% less (§5.3) ---
    // The per-socket split comes from simulated RAPL counters, which
    // update on a ~1 ms grid: a monitored window shorter than a couple of
    // update periods measures a phase-dependent sliver, not the socket's
    // power ratio. Only trust points whose duration lets each counter tick
    // at least twice (real RAPL consumers apply the same rule); if the
    // whole dataset is below that scale, fall back to every point rather
    // than dividing by zero.
    const MIN_MONITORABLE_S: f64 = 2.0e-3;
    let drop_of = |p: &&DataPoint| {
        let loaded = p.agg.pkg0_j.mean;
        let idle = p.agg.pkg1_j.mean;
        (p.layout == LoadLayout::HalfOneSocket && loaded > 0.0).then(|| 1.0 - idle / loaded)
    };
    let mut drops: Vec<f64> = ds
        .points
        .iter()
        .filter(|p| p.agg.duration_s.mean >= MIN_MONITORABLE_S)
        .filter_map(|p| drop_of(&p))
        .collect();
    if drops.is_empty() {
        drops = ds.points.iter().filter_map(|p| drop_of(&p)).collect();
    }
    let drop_mean = drops.iter().sum::<f64>() / drops.len().max(1) as f64;
    out.push(ClaimCheck {
        id: "S5-idle-socket".into(),
        claim: "the idle socket consumes 50–60% less than the loaded one (§5.3)".into(),
        measured: format!("mean idle-socket reduction {}", pct(drop_mean)),
        pass: (0.35..=0.70).contains(&drop_mean),
    });

    // --- S6: duration crossover (§5.2) ---
    let (mut ime_fast, mut ge_fast) = (Vec::new(), Vec::new());
    for p in &ds.points {
        if p.solver == "IMe" && p.layout == LoadLayout::FullLoad {
            if let Some(q) = ds.get("ScaLAPACK", p.n, p.ranks, p.layout) {
                if p.agg.duration_s.mean < q.agg.duration_s.mean {
                    ime_fast.push((p.n, p.ranks));
                } else {
                    ge_fast.push((p.n, p.ranks));
                }
            }
        }
    }
    out.push(ClaimCheck {
        id: "S6-crossover".into(),
        claim: "ScaLAPACK faster on dense computations; IMe faster on distributed ones (§5.2)"
            .into(),
        measured: format!("IMe faster at {ime_fast:?}; ScaLAPACK faster at {ge_fast:?}"),
        // At functional scale, latency terms are tiny, so we only require
        // ScaLAPACK's dense-side win here; the crossover itself is checked
        // at paper scale (model tier, S6 below).
        pass: !ge_fast.is_empty(),
    });

    // --- S7: DRAM energy gap (§5.4: 12-42% depending on configuration) ---
    let mut dgaps = Vec::new();
    for p in &ds.points {
        if p.solver == "IMe" {
            if let Some(q) = ds.get("ScaLAPACK", p.n, p.ranks, p.layout) {
                let dp = p.agg.dram_energy_j.mean / p.agg.duration_s.mean;
                let dq = q.agg.dram_energy_j.mean / q.agg.duration_s.mean;
                dgaps.push(1.0 - dq / dp);
            }
        }
    }
    let dgap_mean = dgaps.iter().sum::<f64>() / dgaps.len().max(1) as f64;
    out.push(ClaimCheck {
        id: "S7-dram-gap".into(),
        claim: "DRAM power gap between IMe and ScaLAPACK is even more significant (§5.4)".into(),
        measured: format!("mean DRAM power gap {}", pct(dgap_mean)),
        pass: dgap_mean > 0.05,
    });

    out
}

/// Claims evaluated on the model tier at the paper's scale
/// (`experiments::paper_dataset`).
pub fn check_model(ds: &Dataset) -> Vec<ClaimCheck> {
    // Every full-load IMe point against its ScaLAPACK twin, in grid order.
    let pairs: Vec<(&DataPoint, &DataPoint)> = ds
        .points
        .iter()
        .filter(|p| p.solver == "IMe" && p.layout == LoadLayout::FullLoad)
        .filter_map(|p| Some((p, ds.get("ScaLAPACK", p.n, p.ranks, p.layout)?)))
        .collect();
    let mut out = Vec::new();

    // Energy gap at paper scale.
    let gaps: Vec<f64> = pairs
        .iter()
        .map(|(ime, ge)| 1.0 - ge.agg.total_energy_j.mean / ime.agg.total_energy_j.mean)
        .collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    out.push(ClaimCheck {
        id: "M1-energy-gap".into(),
        claim: "total energy gap 50–60% at paper scale (§5.4)".into(),
        measured: format!(
            "model gap {}..{} (mean {})",
            pct(gaps.iter().cloned().fold(f64::INFINITY, f64::min)),
            pct(gaps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
            pct(mean_gap)
        ),
        pass: (0.30..=0.75).contains(&mean_gap),
    });

    // Power gap at paper scale.
    let power = |solver: &str| {
        ds.get(solver, 17280, 144, LoadLayout::FullLoad)
            .expect("the paper grid has n=17280 at 144 ranks")
            .agg
            .mean_power_w
            .mean
    };
    let pgap = 1.0 - power("ScaLAPACK") / power("IMe");
    out.push(ClaimCheck {
        id: "M2-power-gap".into(),
        claim: "power gap 12–18% at paper scale (§5.4)".into(),
        measured: format!("model power gap {} at n=17280, 144 ranks", pct(pgap)),
        pass: (0.02..=0.30).contains(&pgap),
    });

    // Crossover at paper scale.
    let (ime_wins, ge_wins): (Vec<_>, Vec<_>) = pairs
        .iter()
        .partition(|(ime, ge)| ime.agg.duration_s.mean < ge.agg.duration_s.mean);
    let ime_wins: Vec<(usize, usize)> = ime_wins.iter().map(|(p, _)| (p.n, p.ranks)).collect();
    let ge_wins: Vec<(usize, usize)> = ge_wins.iter().map(|(p, _)| (p.n, p.ranks)).collect();
    let ime_wins_distributed = ime_wins.iter().any(|&(n, r)| n <= 17280 && r >= 576);
    let ge_wins_dense = ge_wins.iter().any(|&(n, r)| n >= 25920 && r == 144);
    out.push(ClaimCheck {
        id: "M3-crossover".into(),
        claim:
            "IMe faster for 576/1296 ranks at dims 8640/17280; ScaLAPACK faster when dense (§5.2)"
                .into(),
        measured: format!("IMe wins {ime_wins:?}; ScaLAPACK wins {ge_wins:?}"),
        pass: ime_wins_distributed && ge_wins_dense,
    });

    out
}

/// Render claim checks as a table.
pub fn claims_table(id: &str, title: &str, checks: &[ClaimCheck]) -> Table {
    Table {
        id: id.into(),
        title: title.into(),
        headers: ["id", "paper claim", "measured", "pass"]
            .map(String::from)
            .to_vec(),
        rows: checks
            .iter()
            .map(|c| {
                vec![
                    c.id.clone(),
                    c.claim.clone(),
                    c.measured.clone(),
                    if c.pass { "yes".into() } else { "NO".into() },
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::experiments::paper_dataset;

    #[test]
    fn model_claims_pass_at_paper_scale() {
        let checks = check_model(&paper_dataset());
        for c in &checks {
            assert!(c.pass, "claim {} failed: {}", c.id, c.measured);
        }
    }

    #[test]
    fn claims_render_as_table() {
        let t = claims_table("x", "claims", &check_model(&paper_dataset()));
        assert!(t.rows.len() >= 3);
        assert!(t.to_text().contains("claims"));
    }
}
