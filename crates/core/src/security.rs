//! Analytical security model of BreakHammer (§5 and Fig. 5 of the paper).
//!
//! The worst-case memory performance attacker operates *just below*
//! BreakHammer's outlier-detection bound. Expression 2 bounds the
//! RowHammer-preventive score an attack thread can accumulate before being
//! identified as a suspect, as a function of the fraction of hardware threads
//! the attacker controls and of `TH_outlier`:
//!
//! ```text
//! RS_atk_max < (Σ RS_atk + Σ RS_ben) / (N_atk + N_ben) · (1 + TH_outlier)
//! ```
//!
//! Assuming every attack thread pushes its score to the bound, the bound
//! normalised to the average benign score has the closed form implemented by
//! [`max_attacker_score_ratio`]; Fig. 5 plots it for a sweep of `TH_outlier`
//! values.

/// One point of the Fig. 5 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityPoint {
    /// Fraction of all hardware threads controlled by the attacker (0..1).
    pub attacker_fraction: f64,
    /// Outlier threshold `TH_outlier`.
    pub outlier_threshold: f64,
    /// Maximum attacker score normalised to the average benign score, or
    /// `None` when the bound diverges (the attacker controls enough threads to
    /// make its behaviour the norm).
    pub max_score_ratio: Option<f64>,
}

/// Maximum RowHammer-preventive score an attack thread can reach before being
/// identified, normalised to the average benign thread score (Expression 2
/// solved for the worst case where every attack thread sits at the bound).
///
/// Returns `None` when `attacker_fraction · (1 + TH_outlier) ≥ 1`, i.e. the
/// bound diverges because the attacker's behaviour dominates the mean.
///
/// # Panics
/// Panics if `attacker_fraction` is not in `[0, 1]` or `outlier_threshold` is
/// negative.
///
/// # Examples
/// ```
/// use bh_core::security::max_attacker_score_ratio;
/// // Paper §5.2: at TH_outlier = 0.65 and 50% attacker threads the attacker
/// // can trigger 4.71x the benign average before detection.
/// let r = max_attacker_score_ratio(0.5, 0.65).unwrap();
/// assert!((r - 4.71).abs() < 0.01);
/// ```
pub fn max_attacker_score_ratio(attacker_fraction: f64, outlier_threshold: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&attacker_fraction), "attacker fraction must be in [0, 1]");
    assert!(outlier_threshold >= 0.0, "TH_outlier must be non-negative");
    let amplification = 1.0 + outlier_threshold;
    let denom = 1.0 - attacker_fraction * amplification;
    if denom <= 0.0 {
        return None;
    }
    Some((1.0 - attacker_fraction) * amplification / denom)
}

/// Generates the full Fig. 5 data set: for each `TH_outlier` in
/// `outlier_thresholds` and each attacker-thread percentage in
/// `0..=100` step `step_percent`, the normalised maximum attacker score.
///
/// # Panics
/// Panics if `step_percent` is zero.
pub fn figure5_series(outlier_thresholds: &[f64], step_percent: usize) -> Vec<SecurityPoint> {
    assert!(step_percent > 0, "step must be positive");
    let mut out = Vec::new();
    for &th in outlier_thresholds {
        let mut pct = 0usize;
        while pct <= 100 {
            let fraction = pct as f64 / 100.0;
            out.push(SecurityPoint {
                attacker_fraction: fraction,
                outlier_threshold: th,
                max_score_ratio: max_attacker_score_ratio(fraction, th),
            });
            pct += step_percent;
        }
    }
    out
}

/// The `TH_outlier` values plotted in Fig. 5 (0.05 to 0.95 in steps of 0.10).
pub fn figure5_outlier_thresholds() -> Vec<f64> {
    (0..10).map(|i| 0.05 + 0.10 * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_points_hold() {
        // §5.2 observation 1: TH_outlier = 0.65, 50% attacker threads -> 4.71x.
        let r = max_attacker_score_ratio(0.5, 0.65).unwrap();
        assert!((r - 4.714).abs() < 0.01, "got {r}");
        // §5.2 observation 2: TH_outlier = 0.05, 90% attacker threads -> 1.90x.
        let r = max_attacker_score_ratio(0.9, 0.05).unwrap();
        assert!((r - 1.909).abs() < 0.01, "got {r}");
    }

    #[test]
    fn lone_attacker_is_tightly_bounded() {
        // With no co-conspirators the bound equals (1 + TH_outlier) at
        // fraction -> 0 (a single thread out of many).
        let r = max_attacker_score_ratio(0.0, 0.65).unwrap();
        assert!((r - 1.65).abs() < 1e-9);
        // One of four threads (the paper's quad-core system).
        let r = max_attacker_score_ratio(0.25, 0.65).unwrap();
        assert!(r < 2.2, "got {r}");
    }

    #[test]
    fn bound_diverges_when_attackers_dominate() {
        // f * (1 + TH) >= 1 -> unbounded.
        assert_eq!(max_attacker_score_ratio(0.7, 0.65), None);
        assert_eq!(max_attacker_score_ratio(1.0, 0.05), None);
        assert!(max_attacker_score_ratio(0.6, 0.65).is_some());
    }

    #[test]
    fn ratio_is_monotonic_in_attacker_fraction() {
        let mut prev = 0.0;
        for pct in 0..=55 {
            let f = pct as f64 / 100.0;
            let r = max_attacker_score_ratio(f, 0.65).unwrap();
            assert!(r >= prev, "ratio must not decrease (f={f})");
            prev = r;
        }
    }

    #[test]
    fn ratio_is_monotonic_in_outlier_threshold() {
        let loose = max_attacker_score_ratio(0.5, 0.95).unwrap();
        let strict = max_attacker_score_ratio(0.5, 0.05).unwrap();
        assert!(loose > strict);
    }

    #[test]
    fn figure5_series_covers_the_grid() {
        let ths = figure5_outlier_thresholds();
        assert_eq!(ths.len(), 10);
        assert!((ths[0] - 0.05).abs() < 1e-9);
        assert!((ths[9] - 0.95).abs() < 1e-9);
        let series = figure5_series(&ths, 10);
        assert_eq!(series.len(), 10 * 11);
        // Every defined point is at least 1 + TH_outlier.
        for p in &series {
            if let Some(r) = p.max_score_ratio {
                assert!(r >= 1.0 + p.outlier_threshold - 1e-9);
            }
        }
    }

    #[test]
    fn required_fraction_matches_paper_claim() {
        // "An attacker cannot trigger twice the preventive-action count of
        // benign applications unless it uses ~90% of all hardware threads"
        // (with a small TH_outlier): 85% of the threads stay below 2x.
        let r = max_attacker_score_ratio(0.85, 0.05).unwrap();
        assert!(r < 2.0, "got {r}");
        // With the default TH_outlier = 0.65, half the threads already double.
        let r = max_attacker_score_ratio(0.5, 0.65).unwrap();
        assert!(r > 2.0, "got {r}");
    }
}
