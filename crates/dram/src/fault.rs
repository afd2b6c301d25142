//! Fault-injection model: from disturbance counters to *actual* bit-flips.
//!
//! The classic tracker behaviour (and the default here) is a hard cliff:
//! a row that accumulates `N_RH` disturbance records exactly one would-be
//! bitflip event. Real DRAM is messier — per-cell retention varies die to
//! die and row to row, so the RowHammer threshold is a distribution, not a
//! constant, and crossing it flips a bit only with some probability
//! (ABACuS and the RowHammer characterization literature model exactly
//! this). [`FaultModel::Probabilistic`] reproduces that behaviour while
//! staying bit-deterministic: per-row thresholds are sampled at tracker
//! init from a seeded hash, and each threshold *crossing* draws one
//! Bernoulli flip from a hash of `(seed, channel, bank, row, crossing)`.
//! Because every draw is a pure function of those coordinates — no shared
//! PRNG stream — the flip set is independent of the order in which
//! channels (or epochs, under parallel stepping) advance.
//!
//! On top of the raw flips sits a SEC-DED ECC model
//! ([`EccMode::SecDed`], [`classify_flips`]): one flip per row is
//! corrected, two are detected (a machine-check event), three or more
//! escape silently. A mitigation is then judged by the paper's real
//! currency — *silent* corruption of victim data — rather than by proxy
//! action counts.

use crate::geometry::RowAddr;
use std::collections::BTreeMap;

/// How disturbance-threshold crossings turn into bit-flips.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum FaultModel {
    /// The legacy hard cliff: exactly one would-be flip event when a row's
    /// disturbance reaches `N_RH`. This is the default and is bit-identical
    /// to the pre-fault-model tracker (the classic goldens pin it).
    #[default]
    Threshold,
    /// Per-row probabilistic flips: each row's threshold is sampled from
    /// `N_RH × [1 - nrh_variation, 1 + nrh_variation]` (lazily, a page of
    /// rows at a time, by a pure hash of the row's coordinates), and every
    /// crossing of that per-row threshold draws one Bernoulli flip with
    /// `flip_probability`, from an order-independent hash of
    /// `(seed, channel, bank, row, crossing_count)`.
    Probabilistic {
        /// Probability that one threshold crossing flips a bit (0.0–1.0).
        flip_probability: f64,
        /// Half-width of the per-row threshold variation as a fraction of
        /// `N_RH` (0.0 = every row at exactly `N_RH`; must be < 1.0).
        nrh_variation: f64,
    },
}

/// The ECC scheme layered over the raw flips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EccMode {
    /// No ECC: every raw flip is silent corruption.
    #[default]
    None,
    /// SEC-DED per row: a single flip is corrected, a double flip is
    /// detected (machine check), triple-and-up escapes silently.
    SecDed,
}

/// The fault-injection knobs carried by the system configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// How threshold crossings turn into flips.
    pub model: FaultModel,
    /// The ECC scheme classifying the flips.
    pub ecc: EccMode,
}

impl FaultConfig {
    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if let FaultModel::Probabilistic { flip_probability, nrh_variation } = self.model {
            if !(0.0..=1.0).contains(&flip_probability) || flip_probability.is_nan() {
                return Err(format!(
                    "flip probability must be within [0, 1], got {flip_probability}"
                ));
            }
            if !(0.0..1.0).contains(&nrh_variation) || nrh_variation.is_nan() {
                return Err(format!(
                    "per-row N_RH variation must be within [0, 1), got {nrh_variation}"
                ));
            }
        }
        Ok(())
    }
}

/// What counts as a successful attack on the watched victim rows (declared
/// by a workload's victim layout; evaluated against the end-of-run flips).
///
/// With one variant it selects nothing. It stays, with
/// `System::with_success_criterion`, `WorkloadMix::success_criterion` and
/// `ComposedAttacker::success_criterion`, only because `benchmark/` calls
/// those names; they are inert names until the `benchmark` PR of ROADMAP
/// item 2 removes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SuccessCriterion {
    /// At least one watched victim row took a flip that escaped ECC — the
    /// key-table/page-table threat model: corrected or detected flips do
    /// not hand the attacker anything.
    #[default]
    AnySilentFlip,
}

// --- deterministic hashing ---------------------------------------------------

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer. All fault-model
/// randomness is derived by folding coordinates through this, so every draw
/// is a pure function of `(seed, channel, bank, row, …)` and therefore
/// independent of simulation order.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a coordinate tuple into one 64-bit hash.
#[inline]
pub(crate) fn hash_coords(seed: u64, channel: u64, bank: u64, row: u64, extra: u64) -> u64 {
    mix64(seed ^ mix64(channel ^ mix64(bank ^ mix64(row ^ mix64(extra)))))
}

/// Maps a 64-bit hash to a uniform `[0, 1)` double (53 mantissa bits).
#[inline]
pub(crate) fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// --- ECC classification ------------------------------------------------------

/// The ECC classification of one tracker's raw flip set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EccClassification {
    /// Raw flips, before ECC.
    pub flips_raw: u64,
    /// Flips corrected by ECC (rows with exactly one flip under SEC-DED).
    pub corrected: u64,
    /// Flips detected but not corrected (rows with exactly two flips under
    /// SEC-DED; each such row raises one machine-check event).
    pub detected: u64,
    /// Flips that escaped ECC silently (3+ flips per row under SEC-DED;
    /// every flip when no ECC is present).
    pub silent: u64,
    /// Machine-check events raised (one per detected-double row).
    pub machine_checks: u64,
    /// Rows that took at least one silent flip, with their silent-flip
    /// counts, in row order.
    pub silent_rows: Vec<(RowAddr, u64)>,
}

/// Classifies a tracker's raw flip events under `ecc`, grouping flips per
/// victim row (the model's ECC codeword granularity).
pub fn classify_flips(flips: &[crate::rowhammer::BitflipEvent], ecc: EccMode) -> EccClassification {
    let mut per_row: BTreeMap<RowAddr, u64> = BTreeMap::new();
    for flip in flips {
        *per_row.entry(flip.victim).or_insert(0) += 1;
    }
    let mut out = EccClassification::default();
    for (row, count) in per_row {
        out.flips_raw += count;
        match ecc {
            EccMode::None => {
                out.silent += count;
                out.silent_rows.push((row, count));
            }
            EccMode::SecDed => match count {
                1 => out.corrected += 1,
                2 => {
                    out.detected += 2;
                    out.machine_checks += 1;
                }
                n => {
                    out.silent += n;
                    out.silent_rows.push((row, n));
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankAddr;
    use crate::rowhammer::BitflipEvent;

    fn flip(bank: usize, row: usize) -> BitflipEvent {
        BitflipEvent {
            victim: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank }, row },
            cycle: 0,
            disturbance: 64,
        }
    }

    #[test]
    fn default_fault_config_is_the_legacy_hard_threshold() {
        let config = FaultConfig::default();
        assert_eq!(config.model, FaultModel::Threshold);
        assert_eq!(config.ecc, EccMode::None);
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn probabilistic_knobs_are_validated() {
        let good = FaultConfig {
            model: FaultModel::Probabilistic { flip_probability: 0.5, nrh_variation: 0.2 },
            ecc: EccMode::SecDed,
        };
        assert_eq!(good.validate(), Ok(()));
        for (p, v) in [(-0.1, 0.0), (1.5, 0.0), (0.5, 1.0), (0.5, -0.2), (f64::NAN, 0.0)] {
            let bad = FaultConfig {
                model: FaultModel::Probabilistic { flip_probability: p, nrh_variation: v },
                ecc: EccMode::None,
            };
            assert!(bad.validate().is_err(), "p={p} v={v}");
        }
    }

    #[test]
    fn hash_is_deterministic_and_coordinate_sensitive() {
        let a = hash_coords(1, 2, 3, 4, 5);
        assert_eq!(a, hash_coords(1, 2, 3, 4, 5));
        assert_ne!(a, hash_coords(1, 2, 3, 4, 6));
        assert_ne!(a, hash_coords(1, 2, 3, 5, 4));
        assert_ne!(a, hash_coords(2, 1, 3, 4, 5));
        let u = hash_unit(a);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn secded_classifies_per_row_multiplicity() {
        // Row A: 1 flip (corrected); row B: 2 (detected + machine check);
        // row C: 3 (silent).
        let flips =
            vec![flip(0, 10), flip(0, 20), flip(0, 20), flip(1, 30), flip(1, 30), flip(1, 30)];
        let c = classify_flips(&flips, EccMode::SecDed);
        assert_eq!(c.flips_raw, 6);
        assert_eq!(c.corrected, 1);
        assert_eq!(c.detected, 2);
        assert_eq!(c.silent, 3);
        assert_eq!(c.machine_checks, 1);
        assert_eq!(c.silent_rows.len(), 1);
        assert_eq!(c.silent_rows[0].0.row, 30);
        assert_eq!(c.silent_rows[0].1, 3);
    }

    #[test]
    fn no_ecc_leaves_every_flip_silent() {
        let flips = vec![flip(0, 10), flip(0, 20), flip(0, 20)];
        let c = classify_flips(&flips, EccMode::None);
        assert_eq!(c.flips_raw, 3);
        assert_eq!(c.corrected + c.detected, 0);
        assert_eq!(c.silent, 3);
        assert_eq!(c.machine_checks, 0);
        assert_eq!(c.silent_rows.len(), 2);
    }
}
