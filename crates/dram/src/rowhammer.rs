//! RowHammer victim-disturbance model.
//!
//! This module tracks, for every DRAM row, how much read disturbance it has
//! accumulated since it was last refreshed (either by a directed preventive
//! refresh or by the periodic refresh sweep). A row whose accumulated
//! disturbance reaches the RowHammer threshold `N_RH` would experience
//! bitflips on real hardware; the tracker records such events so tests can
//! assert that a mitigation mechanism — with or without BreakHammer attached —
//! never lets one happen (the paper's "BreakHammer preserves the security
//! guarantees of the mitigation it is paired with" claim, §5.1).
//!
//! The tracker also maintains per-aggressor activation counts, which the
//! device uses to model the in-DRAM preventive refreshes performed during RFM
//! windows (the RFM and PRAC mechanisms).
//!
//! Both stores sit on the simulator's per-activation hot path (every ACT
//! command lands here), so they are flat rather than `HashMap`-backed: the
//! disturbance store is a [`PagedRows`] indexed by flat row (bank-base plus
//! row index — a page-table load and two adjacent increments per activation
//! at blast radius 1, with pages allocated only where rows are disturbed),
//! and the aggressor store is a per-bank [`FlatMap`] because only RFM
//! servicing ever iterates it. Refreshes zero pages but keep them, so
//! steady-state activations perform no heap allocation.

use crate::fault::{hash_coords, hash_unit, FaultModel};
use crate::flat::FlatMap;
use crate::geometry::{DramGeometry, RowAddr};
use crate::paged::PagedRows;
use crate::types::Cycle;

/// Hash-domain tag separating per-row threshold sampling from flip draws.
const NRH_SAMPLE_TAG: u64 = 0x6e72_685f;

/// A (potential) RowHammer bitflip event: a victim row accumulated `N_RH`
/// disturbance before being refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitflipEvent {
    /// The victim row that would have flipped.
    pub victim: RowAddr,
    /// Cycle at which the threshold was crossed.
    pub cycle: Cycle,
    /// The disturbance count at the moment of the event.
    pub disturbance: u64,
}

/// Tracks read disturbance per victim row and activations per aggressor row.
#[derive(Debug, Clone)]
pub struct RowHammerTracker {
    geometry: DramGeometry,
    nrh: u64,
    /// `nrh` as `u32` for the per-row counters' equality check. Zero disables
    /// the check: thresholds at or above `u32::MAX` can never be crossed
    /// before the counters saturate, so they are "effectively infinite"
    /// (tests use such thresholds to assert no bitflip is possible).
    nrh_u32: u32,
    blast_radius: usize,
    /// Per-row disturbance since the row's last refresh, indexed by
    /// `flat_bank * rows_per_bank + row`.
    disturbance: PagedRows,
    /// Per flat bank: aggressor row -> activations since its victims were last
    /// preventively refreshed (used to service RFM windows).
    aggressor_acts: Vec<FlatMap<u64>>,
    /// The fault model turning threshold crossings into flip events.
    model: FaultModel,
    /// Seed for the probabilistic fault model's hash draws.
    fault_seed: u64,
    /// Channel index, a hash coordinate (per-channel trackers must draw
    /// independent flips even at the same bank/row).
    channel: u64,
    /// Per-row thresholds (probabilistic model only).
    row_nrh: Option<RowThresholds>,
    /// Cumulative threshold crossings per flat row since init (probabilistic
    /// model only; sparse — only hammered rows ever cross).
    crossings: FlatMap<u64>,
    /// Recorded would-be bitflips.
    bitflips: Vec<BitflipEvent>,
    /// Total activations observed.
    total_activations: u64,
    /// Reusable scratch for [`RowHammerTracker::service_rfm`]'s hottest-rows
    /// sort.
    rfm_scratch: Vec<(usize, u64)>,
    /// Reusable output buffer for [`RowHammerTracker::service_rfm`].
    refreshed_buf: Vec<RowAddr>,
    /// Reusable scratch for range removals in
    /// [`RowHammerTracker::on_periodic_refresh`].
    retain_scratch: Vec<u64>,
}

/// The probabilistic model's per-row thresholds, sampled one page at a time
/// when a row of the page is first disturbed.
#[derive(Debug, Clone)]
struct RowThresholds {
    /// Sampled thresholds by flat row; `0` marks a row whose sampled
    /// threshold exceeds the `u32` counter range and can therefore never be
    /// crossed.
    samples: PagedRows,
    landscape: ThresholdLandscape,
}

impl RowThresholds {
    /// The threshold of flat row `flat`, sampling its page on first use.
    #[inline]
    fn get(&mut self, flat: usize) -> u32 {
        let RowThresholds { samples, landscape } = self;
        *samples.get_mut_or_init(flat, |first, page| {
            for (i, threshold) in page.iter_mut().enumerate() {
                *threshold = landscape.sample(first + i);
            }
        })
    }
}

/// What a per-row threshold is drawn from. A sample is a pure function of
/// (seed, channel, bank, row), so every rebuild of the same configuration
/// sees the same per-row landscape, whatever order its pages are touched in.
#[derive(Debug, Clone, Copy)]
struct ThresholdLandscape {
    nrh: u64,
    nrh_variation: f64,
    seed: u64,
    channel: u64,
    rows_per_bank: usize,
}

impl ThresholdLandscape {
    /// The sampled threshold of flat row `flat` (`0`: never crossed).
    fn sample(&self, flat: usize) -> u32 {
        let (bank, row) = (flat / self.rows_per_bank, flat % self.rows_per_bank);
        let u = hash_unit(hash_coords(
            self.seed,
            self.channel,
            bank as u64,
            row as u64,
            NRH_SAMPLE_TAG,
        ));
        let factor = 1.0 - self.nrh_variation + 2.0 * self.nrh_variation * u;
        let sampled = (self.nrh as f64 * factor).round().max(1.0);
        // 0 disables the row, mirroring `nrh_u32`: a threshold past the
        // counter range can never be crossed.
        if sampled < u32::MAX as f64 {
            sampled as u32
        } else {
            0
        }
    }
}

impl RowHammerTracker {
    /// Creates a tracker for `geometry` with RowHammer threshold `nrh` and the
    /// given blast radius (how many physically adjacent rows an aggressor
    /// disturbs on each side; the paper and most defenses assume 1–2).
    ///
    /// # Panics
    /// Panics if `nrh` is zero or `blast_radius` is zero.
    pub fn new(geometry: DramGeometry, nrh: u64, blast_radius: usize) -> Self {
        Self::with_fault(geometry, nrh, blast_radius, FaultModel::Threshold, 0, 0)
    }

    /// Creates a tracker with an explicit [`FaultModel`]. `seed` and
    /// `channel` are hash coordinates for the probabilistic model's draws
    /// (ignored by [`FaultModel::Threshold`]); per-channel trackers must be
    /// given their channel index so they draw independent flips.
    ///
    /// # Panics
    /// Panics if `nrh` is zero or `blast_radius` is zero.
    pub fn with_fault(
        geometry: DramGeometry,
        nrh: u64,
        blast_radius: usize,
        model: FaultModel,
        seed: u64,
        channel: usize,
    ) -> Self {
        assert!(nrh > 0, "RowHammer threshold must be positive");
        assert!(blast_radius > 0, "blast radius must be positive");
        let banks = geometry.banks_per_channel();
        let rows = geometry.rows_per_channel();
        let row_nrh = match model {
            FaultModel::Threshold => None,
            FaultModel::Probabilistic { nrh_variation, .. } => Some(RowThresholds {
                samples: PagedRows::new(rows),
                landscape: ThresholdLandscape {
                    nrh,
                    nrh_variation,
                    seed,
                    channel: channel as u64,
                    rows_per_bank: geometry.rows_per_bank,
                },
            }),
        };
        RowHammerTracker {
            geometry,
            nrh,
            nrh_u32: if nrh < u64::from(u32::MAX) { nrh as u32 } else { 0 },
            blast_radius,
            disturbance: PagedRows::new(rows),
            aggressor_acts: (0..banks).map(|_| FlatMap::with_capacity(64)).collect(),
            model,
            fault_seed: seed,
            channel: channel as u64,
            row_nrh,
            crossings: FlatMap::with_capacity(64),
            bitflips: Vec::new(),
            total_activations: 0,
            rfm_scratch: Vec::new(),
            refreshed_buf: Vec::new(),
            retain_scratch: Vec::new(),
        }
    }

    /// Records an activation of `row` at `cycle`: the row's neighbours gain
    /// one unit of disturbance each, and the row's aggressor count grows.
    pub fn on_activate(&mut self, row: RowAddr, cycle: Cycle) {
        self.total_activations += 1;
        let flat_bank = self.geometry.flat_bank(row.bank);
        *self.aggressor_acts[flat_bank].or_insert(row.row as u64, 0) += 1;

        let base = flat_bank * self.geometry.rows_per_bank;
        // Same victim order as `DramGeometry::neighbors`: d below, d above.
        for d in 1..=self.blast_radius {
            if row.row >= d {
                self.disturb(base, row.bank, row.row - d, cycle);
            }
            if row.row + d < self.geometry.rows_per_bank {
                self.disturb(base, row.bank, row.row + d, cycle);
            }
        }
    }

    #[inline]
    fn disturb(
        &mut self,
        bank_base: usize,
        bank: crate::geometry::BankAddr,
        row: usize,
        cycle: Cycle,
    ) {
        let flat = bank_base + row;
        let entry = self.disturbance.get_mut(flat);
        *entry = entry.saturating_add(1);
        let entry = *entry;
        let Some(row_nrh) = &mut self.row_nrh else {
            // Hard-threshold cliff (the default): one event, exactly at N_RH.
            if entry == self.nrh_u32 {
                self.bitflips.push(BitflipEvent {
                    victim: RowAddr { bank, row },
                    cycle,
                    disturbance: self.nrh,
                });
            }
            return;
        };
        // Probabilistic model: every multiple of the row's sampled threshold
        // is a crossing (the saturated counter stops counting, so it can
        // never re-trigger). Each crossing draws one Bernoulli flip from a
        // hash of (seed, channel, bank, row, cumulative crossing count) —
        // a pure function of coordinates, independent of simulation order.
        let threshold = row_nrh.get(flat);
        if threshold == 0 || entry == u32::MAX || !entry.is_multiple_of(threshold) {
            return;
        }
        let disturbance = u64::from(entry);
        let crossing = self.crossings.or_insert(flat as u64, 0);
        *crossing += 1;
        let FaultModel::Probabilistic { flip_probability, .. } = self.model else {
            unreachable!("row_nrh is only sampled for the probabilistic model")
        };
        let draw = hash_unit(hash_coords(
            self.fault_seed,
            self.channel,
            (flat / self.geometry.rows_per_bank) as u64,
            row as u64,
            *crossing,
        ));
        if draw < flip_probability {
            self.bitflips.push(BitflipEvent { victim: RowAddr { bank, row }, cycle, disturbance });
        }
    }

    /// Records that `row` was refreshed (directed preventive refresh): its
    /// accumulated disturbance is cleared.
    pub fn on_row_refreshed(&mut self, row: RowAddr) {
        let flat_bank = self.geometry.flat_bank(row.bank);
        self.disturbance.zero(flat_bank * self.geometry.rows_per_bank + row.row);
        // Refreshing a row also clears the "pending preventive work" of the
        // aggressors for which this row was the victim only partially; we keep
        // the aggressor counters untouched so RFM servicing stays conservative.
    }

    /// Records a periodic-refresh sweep covering rows `[row_start, row_end)`
    /// of every bank in `rank`: those rows are restored, so their accumulated
    /// disturbance is cleared.
    pub fn on_periodic_refresh(&mut self, rank: usize, row_start: usize, row_end: usize) {
        let rows_per_bank = self.geometry.rows_per_bank;
        let start = row_start.min(rows_per_bank);
        let end = row_end.min(rows_per_bank);
        for flat in self.geometry.rank_flat_range(rank) {
            let base = flat * rows_per_bank;
            self.disturbance.zero_range(base + start..base + end);
            if end - start <= self.aggressor_acts[flat].len() {
                // A sweep covers a handful of rows while the map holds every
                // row activated since its own sweep: ask for those rows.
                for row in start..end {
                    self.aggressor_acts[flat].remove(row as u64);
                }
                continue;
            }
            self.retain_scratch.clear();
            for (row, _) in self.aggressor_acts[flat].iter() {
                if (row as usize) >= start && (row as usize) < end {
                    self.retain_scratch.push(row);
                }
            }
            for i in 0..self.retain_scratch.len() {
                self.aggressor_acts[flat].remove(self.retain_scratch[i]);
            }
        }
    }

    /// Models the in-DRAM preventive refreshes performed during one RFM (or
    /// PRAC back-off) window on `bank`: the `aggressors` most-activated rows
    /// have their neighbours refreshed and their counters reset.
    ///
    /// Returns the victim rows that were refreshed. The slice borrows an
    /// internal buffer that the next `service_rfm` call reuses.
    pub fn service_rfm(
        &mut self,
        bank: crate::geometry::BankAddr,
        aggressors: usize,
    ) -> &[RowAddr] {
        let flat = self.geometry.flat_bank(bank);
        self.rfm_scratch.clear();
        for (row, count) in self.aggressor_acts[flat].iter() {
            self.rfm_scratch.push((row as usize, count));
        }
        self.rfm_scratch.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.rfm_scratch.truncate(aggressors);

        self.refreshed_buf.clear();
        let base = flat * self.geometry.rows_per_bank;
        for i in 0..self.rfm_scratch.len() {
            let row = self.rfm_scratch[i].0;
            self.aggressor_acts[flat].remove(row as u64);
            for d in 1..=self.blast_radius {
                if row >= d {
                    self.disturbance.zero(base + row - d);
                    self.refreshed_buf.push(RowAddr { bank, row: row - d });
                }
                if row + d < self.geometry.rows_per_bank {
                    self.disturbance.zero(base + row + d);
                    self.refreshed_buf.push(RowAddr { bank, row: row + d });
                }
            }
        }
        &self.refreshed_buf
    }

    /// Current disturbance of a specific row.
    pub fn disturbance_of(&self, row: RowAddr) -> u64 {
        let flat = self.geometry.flat_bank(row.bank);
        u64::from(self.disturbance.get(flat * self.geometry.rows_per_bank + row.row))
    }

    /// The largest disturbance currently accumulated by any row.
    pub fn max_disturbance(&self) -> u64 {
        u64::from(self.disturbance.max())
    }

    /// Pages of per-row state allocated so far (disturbance counters plus,
    /// under the probabilistic model, sampled thresholds). A read-only
    /// footprint probe: a run touches a few pages per bank, far below the
    /// geometry's full row count.
    pub fn resident_pages(&self) -> usize {
        self.disturbance.resident_pages()
            + self.row_nrh.as_ref().map_or(0, |t| t.samples.resident_pages())
    }

    /// All recorded would-be bitflips.
    pub fn bitflips(&self) -> &[BitflipEvent] {
        &self.bitflips
    }

    /// Number of recorded would-be bitflips.
    pub fn bitflip_count(&self) -> usize {
        self.bitflips.len()
    }

    /// Total number of activations observed.
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankAddr;
    use crate::paged::PAGE_ROWS;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tracker(nrh: u64) -> RowHammerTracker {
        RowHammerTracker::new(DramGeometry::tiny(), nrh, 1)
    }

    fn row(bank: usize, r: usize) -> RowAddr {
        RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank }, row: r }
    }

    /// Activation count of an aggressor row since its last RFM service.
    fn aggressor_activations(t: &RowHammerTracker, row: RowAddr) -> u64 {
        t.aggressor_acts[t.geometry.flat_bank(row.bank)].get(row.row as u64).unwrap_or(0)
    }

    /// The sampled threshold of a row (`None` beyond the countable range).
    fn row_threshold(t: &mut RowHammerTracker, row: RowAddr) -> Option<u64> {
        match &mut t.row_nrh {
            None => Some(t.nrh),
            Some(thresholds) => {
                let flat = t.geometry.flat_bank(row.bank);
                match thresholds.get(flat * t.geometry.rows_per_bank + row.row) {
                    0 => None,
                    threshold => Some(u64::from(threshold)),
                }
            }
        }
    }

    #[test]
    fn activations_disturb_neighbors() {
        let mut t = tracker(100);
        t.on_activate(row(0, 10), 0);
        assert_eq!(t.disturbance_of(row(0, 9)), 1);
        assert_eq!(t.disturbance_of(row(0, 11)), 1);
        assert_eq!(t.disturbance_of(row(0, 10)), 0);
        assert_eq!(aggressor_activations(&t, row(0, 10)), 1);
        assert_eq!(t.total_activations(), 1);
    }

    #[test]
    fn bitflip_recorded_exactly_at_threshold() {
        let mut t = tracker(8);
        for c in 0..7 {
            t.on_activate(row(0, 20), c);
        }
        assert_eq!(t.bitflip_count(), 0);
        t.on_activate(row(0, 20), 7);
        // Both neighbours (19 and 21) cross the threshold at the same time.
        assert_eq!(t.bitflip_count(), 2);
        assert_eq!(t.max_disturbance(), 8);
        assert!(t.bitflips().iter().all(|b| b.disturbance == 8));
    }

    #[test]
    fn directed_refresh_clears_disturbance() {
        let mut t = tracker(8);
        for c in 0..5 {
            t.on_activate(row(0, 20), c);
        }
        t.on_row_refreshed(row(0, 19));
        assert_eq!(t.disturbance_of(row(0, 19)), 0);
        assert_eq!(t.disturbance_of(row(0, 21)), 5);
        // Hammering can resume without flipping 19 until another N_RH acts.
        for c in 5..12 {
            t.on_activate(row(0, 20), c);
        }
        // Row 21 flipped (5+7=12 >= 8), row 19 did not (7 < 8).
        assert_eq!(t.bitflip_count(), 1);
        assert_eq!(t.bitflips()[0].victim, row(0, 21));
    }

    #[test]
    fn periodic_refresh_sweep_clears_covered_rows_of_the_rank() {
        let mut t = tracker(1000);
        t.on_activate(row(0, 20), 0);
        t.on_activate(row(1, 20), 0);
        // Row 20's victims are 19 and 21; sweep rows [0, 32) of rank 0.
        t.on_periodic_refresh(0, 0, 32);
        assert_eq!(t.disturbance_of(row(0, 19)), 0);
        assert_eq!(t.disturbance_of(row(1, 21)), 0);
        // A row outside the sweep keeps its disturbance.
        t.on_activate(row(0, 100), 1);
        t.on_periodic_refresh(0, 0, 32);
        assert_eq!(t.disturbance_of(row(0, 99)), 1);
    }

    /// A sweep drops exactly the aggressors it covers, both when it covers
    /// more rows than the bank has aggressors (the map is scanned) and when it
    /// covers fewer (the covered rows are looked up).
    #[test]
    fn periodic_refresh_clears_swept_aggressor_counters() {
        for other_aggressors in [0, 60] {
            let mut t = tracker(1000);
            for c in 0..9 {
                t.on_activate(row(0, 20), c);
            }
            for r in 0..other_aggressors {
                t.on_activate(row(0, 100 + r), 9);
            }
            t.on_activate(row(0, 31), 9);
            t.on_activate(row(0, 32), 9);
            t.on_periodic_refresh(0, 0, 32);
            assert_eq!(aggressor_activations(&t, row(0, 20)), 0);
            assert_eq!(aggressor_activations(&t, row(0, 31)), 0);
            assert_eq!(aggressor_activations(&t, row(0, 32)), 1);
            for r in 0..other_aggressors {
                assert_eq!(aggressor_activations(&t, row(0, 100 + r)), 1);
            }
        }
    }

    #[test]
    fn rfm_service_targets_hottest_aggressors() {
        let mut t = tracker(1000);
        for c in 0..50 {
            t.on_activate(row(0, 40), c);
        }
        for c in 0..10 {
            t.on_activate(row(0, 80), c);
        }
        let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let refreshed: Vec<RowAddr> = t.service_rfm(bank, 1).to_vec();
        // The hotter aggressor (row 40) is serviced: victims 39 and 41.
        assert_eq!(refreshed.len(), 2);
        assert!(refreshed.iter().all(|r| r.row == 39 || r.row == 41));
        assert_eq!(t.disturbance_of(row(0, 39)), 0);
        assert_eq!(aggressor_activations(&t, row(0, 40)), 0);
        // The cooler aggressor is untouched.
        assert_eq!(t.disturbance_of(row(0, 79)), 10);
        assert_eq!(aggressor_activations(&t, row(0, 80)), 10);
    }

    #[test]
    fn rfm_service_breaks_count_ties_by_lowest_row() {
        let mut t = tracker(1000);
        for c in 0..10 {
            t.on_activate(row(0, 80), c);
            t.on_activate(row(0, 40), c);
        }
        let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let refreshed: Vec<RowAddr> = t.service_rfm(bank, 1).to_vec();
        assert!(refreshed.iter().all(|r| r.row == 39 || r.row == 41), "{refreshed:?}");
    }

    #[test]
    fn blast_radius_two_disturbs_four_neighbors() {
        let mut t = RowHammerTracker::new(DramGeometry::tiny(), 100, 2);
        t.on_activate(row(0, 50), 0);
        for r in [48, 49, 51, 52] {
            assert_eq!(t.disturbance_of(row(0, r)), 1, "row {r}");
        }
        assert_eq!(t.disturbance_of(row(0, 47)), 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_is_rejected() {
        let _ = RowHammerTracker::new(DramGeometry::tiny(), 0, 1);
    }

    fn probabilistic(
        nrh: u64,
        p: f64,
        variation: f64,
        seed: u64,
        channel: usize,
    ) -> RowHammerTracker {
        RowHammerTracker::with_fault(
            DramGeometry::tiny(),
            nrh,
            1,
            FaultModel::Probabilistic { flip_probability: p, nrh_variation: variation },
            seed,
            channel,
        )
    }

    #[test]
    fn probability_one_flips_at_every_crossing() {
        let mut t = probabilistic(8, 1.0, 0.0, 42, 0);
        assert_eq!(row_threshold(&mut t, row(0, 19)), Some(8));
        for c in 0..16 {
            t.on_activate(row(0, 20), c);
        }
        // Two crossings (at 8 and 16) of both neighbours, every draw flips.
        assert_eq!(t.bitflip_count(), 4);
        assert!(t.bitflips().iter().any(|b| b.disturbance == 8));
        assert!(t.bitflips().iter().any(|b| b.disturbance == 16));
    }

    #[test]
    fn probability_zero_never_flips() {
        let mut t = probabilistic(4, 0.0, 0.0, 42, 0);
        for c in 0..64 {
            t.on_activate(row(0, 20), c);
        }
        assert_eq!(t.bitflip_count(), 0);
        assert!(t.max_disturbance() >= 16, "crossings did occur");
    }

    #[test]
    fn probabilistic_flips_are_deterministic_per_seed_and_channel() {
        let run = |seed, channel| {
            let mut t = probabilistic(4, 0.5, 0.2, seed, channel);
            for c in 0..200 {
                t.on_activate(row(0, 20), c);
                t.on_activate(row(1, 50), c);
            }
            t.bitflips().to_vec()
        };
        assert_eq!(run(7, 0), run(7, 0), "same coordinates, same flips");
        assert_ne!(run(7, 0), run(8, 0), "the seed matters");
        assert_ne!(run(7, 0), run(7, 1), "the channel matters");
        assert!(!run(7, 0).is_empty(), "p=0.5 over 100 crossings must flip");
    }

    #[test]
    fn nrh_variation_spreads_per_row_thresholds() {
        let mut t = probabilistic(100, 1.0, 0.3, 42, 0);
        let thresholds: std::collections::BTreeSet<u64> =
            (0..64).map(|r| row_threshold(&mut t, row(0, r)).expect("in range")).collect();
        assert!(thresholds.len() > 4, "variation must spread the samples: {thresholds:?}");
        assert!(thresholds.iter().all(|&v| (70..=130).contains(&v)), "{thresholds:?}");
        // Without variation every row sits exactly at N_RH.
        let mut flat = probabilistic(100, 1.0, 0.0, 42, 0);
        assert!((0..64).all(|r| row_threshold(&mut flat, row(0, r)) == Some(100)));
    }

    #[test]
    fn default_constructor_keeps_the_hard_threshold_model() {
        let mut t = tracker(8);
        assert_eq!(row_threshold(&mut t, row(0, 5)), Some(8));
    }

    /// The tracker as it was before paging: one dense `u32` per row, every
    /// row's threshold sampled up front, ordered maps for the aggressors. It
    /// exists only to hold the paged tracker to it.
    struct DenseTracker {
        geometry: DramGeometry,
        nrh: u64,
        blast_radius: usize,
        disturbance: Vec<u32>,
        thresholds: Option<Vec<u32>>,
        flip_probability: f64,
        seed: u64,
        channel: u64,
        aggressors: Vec<BTreeMap<usize, u64>>,
        crossings: BTreeMap<usize, u64>,
        bitflips: Vec<BitflipEvent>,
        /// Pages holding a row that was ever disturbed.
        touched_pages: BTreeSet<usize>,
    }

    impl DenseTracker {
        fn new(t: &RowHammerTracker) -> Self {
            let rows = t.geometry.rows_per_channel();
            let (thresholds, flip_probability) = match (&t.row_nrh, t.model) {
                (Some(thresholds), FaultModel::Probabilistic { flip_probability, .. }) => (
                    Some((0..rows).map(|flat| thresholds.landscape.sample(flat)).collect()),
                    flip_probability,
                ),
                _ => (None, 0.0),
            };
            DenseTracker {
                geometry: t.geometry.clone(),
                nrh: t.nrh,
                blast_radius: t.blast_radius,
                disturbance: vec![0; rows],
                thresholds,
                flip_probability,
                seed: t.fault_seed,
                channel: t.channel,
                aggressors: vec![BTreeMap::new(); t.geometry.banks_per_channel()],
                crossings: BTreeMap::new(),
                bitflips: Vec::new(),
                touched_pages: BTreeSet::new(),
            }
        }

        fn flat(&self, row: RowAddr) -> usize {
            self.geometry.flat_bank(row.bank) * self.geometry.rows_per_bank + row.row
        }

        fn on_activate(&mut self, row: RowAddr, cycle: Cycle) {
            *self.aggressors[self.geometry.flat_bank(row.bank)].entry(row.row).or_insert(0) += 1;
            for victim in self.geometry.neighbors(row, self.blast_radius) {
                let flat = self.flat(victim);
                self.touched_pages.insert(flat / PAGE_ROWS);
                let count = self.disturbance[flat].saturating_add(1);
                self.disturbance[flat] = count;
                let flipped = match &self.thresholds {
                    None => count == self.nrh as u32,
                    Some(thresholds) => {
                        let threshold = thresholds[flat];
                        if threshold == 0 || count == u32::MAX || !count.is_multiple_of(threshold) {
                            continue;
                        }
                        let crossing = self.crossings.entry(flat).or_insert(0);
                        *crossing += 1;
                        let bank = (flat / self.geometry.rows_per_bank) as u64;
                        let draw = hash_coords(
                            self.seed,
                            self.channel,
                            bank,
                            victim.row as u64,
                            *crossing,
                        );
                        hash_unit(draw) < self.flip_probability
                    }
                };
                if flipped {
                    let disturbance = u64::from(count);
                    self.bitflips.push(BitflipEvent { victim, cycle, disturbance });
                }
            }
        }

        fn on_periodic_refresh(&mut self, rank: usize, start: usize, end: usize) {
            let rows_per_bank = self.geometry.rows_per_bank;
            let (start, end) = (start.min(rows_per_bank), end.min(rows_per_bank));
            for flat in self.geometry.rank_flat_range(rank) {
                let base = flat * rows_per_bank;
                self.disturbance[base + start..base + end].fill(0);
                self.aggressors[flat].retain(|row, _| !(start..end).contains(row));
            }
        }

        fn service_rfm(&mut self, bank: BankAddr, aggressors: usize) -> Vec<RowAddr> {
            let flat = self.geometry.flat_bank(bank);
            let mut hottest: Vec<(usize, u64)> =
                self.aggressors[flat].iter().map(|(&row, &count)| (row, count)).collect();
            hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            hottest.truncate(aggressors);
            let mut refreshed = Vec::new();
            for (row, _) in hottest {
                self.aggressors[flat].remove(&row);
                for victim in self.geometry.neighbors(RowAddr { bank, row }, self.blast_radius) {
                    let victim_flat = self.flat(victim);
                    self.disturbance[victim_flat] = 0;
                    refreshed.push(victim);
                }
            }
            refreshed
        }
    }

    /// Two ranks of two banks, four pages per bank.
    fn paged_geometry() -> DramGeometry {
        DramGeometry { bank_groups: 1, rows_per_bank: 4 * PAGE_ROWS, ..DramGeometry::tiny() }
    }

    /// A row within a few rows of a page edge of its bank (or of the bank's
    /// first or last row when the bank is smaller than a page), so that
    /// activations repeat, cross thresholds and disturb victims on both
    /// sides of an edge.
    fn near_page_edge(rows_per_bank: usize, pos: usize) -> usize {
        let anchors = rows_per_bank.div_ceil(PAGE_ROWS) + 1;
        let anchor = ((pos % anchors) * PAGE_ROWS).min(rows_per_bank);
        (anchor + (pos / anchors) % 8).saturating_sub(4).min(rows_per_bank - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The paged tracker and the dense reference agree on every
        /// disturbance, every bitflip, every RFM service and the aggressor
        /// counters, over random streams of activations, directed refreshes,
        /// periodic sweeps straddling page edges and RFM windows, under both
        /// fault models, on a geometry whose channel is one page and on one
        /// with four pages per bank. The paged store holds exactly the pages
        /// the stream disturbed: refreshes zero pages but keep them.
        #[test]
        fn paged_tracker_matches_the_dense_reference(
            paged in any::<bool>(),
            probabilistic in any::<bool>(),
            nrh in 3u64..24,
            blast_radius in 1usize..3,
            seed in 0u64..1_000,
            ops in proptest::collection::vec(
                (0u8..16, 0usize..64, 0usize..4_096, 0usize..48),
                1..400,
            ),
        ) {
            let geometry = if paged { paged_geometry() } else { DramGeometry::tiny() };
            let model = if probabilistic {
                FaultModel::Probabilistic { flip_probability: 0.5, nrh_variation: 0.3 }
            } else {
                FaultModel::Threshold
            };
            let rows_per_bank = geometry.rows_per_bank;
            let banks = geometry.banks_per_channel();
            let mut t = RowHammerTracker::with_fault(
                geometry.clone(),
                nrh,
                blast_radius,
                model,
                seed,
                (seed % 2) as usize,
            );
            let mut dense = DenseTracker::new(&t);
            for (i, &(op, bank, pos, len)) in ops.iter().enumerate() {
                let bank = geometry.bank_from_flat(bank % banks);
                let row = RowAddr { bank, row: near_page_edge(rows_per_bank, pos) };
                let cycle = i as Cycle;
                match op {
                    0..=9 => {
                        t.on_activate(row, cycle);
                        dense.on_activate(row, cycle);
                    }
                    10 => {
                        t.on_row_refreshed(row);
                        let flat = dense.flat(row);
                        dense.disturbance[flat] = 0;
                    }
                    11 | 12 => {
                        let (start, end) = (row.row, row.row + len);
                        t.on_periodic_refresh(bank.rank, start, end);
                        dense.on_periodic_refresh(bank.rank, start, end);
                    }
                    13 => {
                        let refreshed = t.service_rfm(bank, len % 4).to_vec();
                        prop_assert_eq!(refreshed, dense.service_rfm(bank, len % 4), "op {}", i);
                    }
                    _ => {}
                }
                for victim in geometry.neighbors(row, blast_radius).chain([row]) {
                    prop_assert_eq!(
                        t.disturbance_of(victim),
                        u64::from(dense.disturbance[dense.flat(victim)]),
                        "disturbance of {:?} after op {}",
                        victim,
                        i
                    );
                }
                let dense_max = dense.disturbance.iter().copied().max().unwrap_or(0);
                prop_assert_eq!(t.max_disturbance(), u64::from(dense_max), "op {}", i);
                prop_assert_eq!(t.bitflips(), &dense.bitflips[..], "op {}", i);
            }
            for flat in 0..geometry.rows_per_channel() {
                let row = RowAddr {
                    bank: geometry.bank_from_flat(flat / rows_per_bank),
                    row: flat % rows_per_bank,
                };
                prop_assert_eq!(t.disturbance_of(row), u64::from(dense.disturbance[flat]));
            }
            for (flat, rows) in dense.aggressors.iter().enumerate() {
                prop_assert_eq!(t.aggressor_acts[flat].len(), rows.len(), "bank {}", flat);
                for (&row, &count) in rows {
                    prop_assert_eq!(t.aggressor_acts[flat].get(row as u64), Some(count));
                }
            }
            prop_assert_eq!(t.disturbance.resident_pages(), dense.touched_pages.len());
        }
    }
}
