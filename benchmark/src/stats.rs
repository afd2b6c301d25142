//! The estimator's arithmetic — minimum, percentiles, ratios — and the
//! FNV-1a digest the fingerprints are made of.

/// Minimum of `samples`; 0 when empty. Every timing this benchmark reports
/// is a minimum over passes: host noise here is one-sided (a contended pass
/// is only ever slower), so the minimum repeats where the median does not.
pub fn best(samples: impl IntoIterator<Item = f64>) -> f64 {
    let best = samples.into_iter().fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// `bh_stats::percentile` (linear interpolation between order statistics),
/// reading 0 for an empty sample set instead of panicking.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        bh_stats::percentile(samples, p)
    }
}

/// FNV-1a-64, the digest `bh_bench::campaign::config_digest` uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `a / b`, or 0 when `b` is 0 (ratios of counts that may be absent).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_nothing_is_zero_and_the_median_interpolates() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[4.0, 1.0, 2.0, 3.0], 50.0), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 100.0), 3.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
