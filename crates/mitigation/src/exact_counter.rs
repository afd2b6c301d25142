//! An exact per-row activation counter, the reference Graphene and TWiCe
//! reduce to until the path that makes each of them that mechanism fires.
//!
//! The counter refreshes a row's neighbours when the row's activations since
//! its last trigger reach N_RH / 4, forgets that count on a trigger and
//! forgets every count when a tREFW window ends. Graphene is this counter
//! while no bank's Misra–Gries table meets more distinct rows than it holds;
//! TWiCe is this counter while no entry falls below the pruning rate. The
//! tests drive both mechanisms through `MechanismKind::build` against this
//! counter on streams where their own path cannot fire, and on one
//! constructed stream each where it must. Nothing here shares code with
//! `graphene.rs`, `twice.rs` or `misra_gries.rs`.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::MITIGATED_BLAST_RADIUS;
use bh_dram::{Cycle, DramGeometry, RowAddr, TimingParams};
use std::collections::BTreeMap;

/// Exact activation counts of every row activated in the current window.
#[derive(Debug)]
struct ExactCounter {
    geometry: DramGeometry,
    threshold: u64,
    window_len: Cycle,
    /// Index of the tREFW window the counts belong to.
    window: u64,
    counts: BTreeMap<RowAddr, u64>,
}

impl ExactCounter {
    fn new(geometry: DramGeometry, timing: &TimingParams, nrh: u64) -> Self {
        let threshold = (nrh / 4).max(1);
        ExactCounter {
            geometry,
            threshold,
            window_len: timing.t_refw,
            window: 0,
            counts: BTreeMap::new(),
        }
    }

    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        let window = event.cycle / self.window_len;
        if window != self.window {
            self.window = window;
            self.counts.clear();
        }
        let count = self.counts.entry(event.row).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            self.counts.remove(&event.row);
            sink.push_refresh_rows(self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS));
        }
    }
}

mod tests {
    use super::*;
    use crate::mechanism::{Mechanism, MechanismKind};
    use bh_dram::{BankAddr, ThreadId};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn activation(bank: usize, row: usize, cycle: Cycle) -> ActivationEvent {
        let bank = BankAddr { rank: 0, bank_group: 0, bank };
        ActivationEvent { row: RowAddr { bank, row }, thread: ThreadId(0), cycle }
    }

    /// The index of the first activation of `events` after which `kind`
    /// queues other actions than the exact counter, and how many refreshes
    /// the exact counter queued before it.
    fn first_disagreement(
        kind: MechanismKind,
        nrh: u64,
        events: &[ActivationEvent],
    ) -> (Option<usize>, usize) {
        let (geometry, timing) = (DramGeometry::tiny(), TimingParams::fast_test());
        let mut mechanism: Mechanism = kind.build(&geometry, &timing, nrh, 0);
        let mut exact = ExactCounter::new(geometry, &timing, nrh);
        let (mut got, mut want) = (ActionSink::default(), ActionSink::default());
        let mut refreshes = 0;
        for (i, event) in events.iter().enumerate() {
            got.clear();
            want.clear();
            mechanism.on_activation(event, &mut got);
            exact.on_activation(event, &mut want);
            if !got.iter().eq(want.iter()) {
                return (Some(i), refreshes);
            }
            refreshes += want.len();
        }
        (None, refreshes)
    }

    /// Graphene's table size on `fast_test` timing, from the sizing rule of
    /// its paper: every row that can reach the threshold within a window
    /// fits, tREFW / tRC / threshold + 1 rows a bank.
    fn graphene_rows_per_bank(nrh: u64) -> usize {
        let timing = TimingParams::fast_test();
        (timing.t_refw / timing.t_rc / (nrh / 4)) as usize + 1
    }

    /// While every bank activates no more distinct rows than its table
    /// holds, Graphene is the exact counter: 40 seeded streams of 4 000
    /// activations at each of four thresholds (tables of 342, 86, 22 and 6
    /// rows, the tiny geometry's 128 rows capping the first), over two banks,
    /// half of them to one hot row, with gaps that roll the window about
    /// every 1 000 activations.
    #[test]
    fn graphene_counts_exactly_while_no_table_fills() {
        let t_refw = TimingParams::fast_test().t_refw;
        for nrh in [16, 64, 256, 1024] {
            let rows = graphene_rows_per_bank(nrh).min(128);
            let mut refreshes = 0;
            for seed in 0..40 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cycle = 0;
                let events: Vec<_> = (0..4000)
                    .map(|_| {
                        cycle +=
                            if rng.gen_range(0..500) == 0 { rng.gen_range(0..t_refw) } else { 1 };
                        let row = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(0..rows) };
                        activation(rng.gen_range(0..2), row, cycle)
                    })
                    .collect();
                let (first, seen) = first_disagreement(MechanismKind::Graphene, nrh, &events);
                assert_eq!(first, None, "N_RH {nrh}, seed {seed}");
                refreshes += seen;
            }
            assert!(refreshes >= 40, "N_RH {nrh}: {refreshes} refreshes");
        }
    }

    /// At N_RH 4096 on `fast_test` timing Graphene's table holds 2 rows a
    /// bank (1 365 activations a window / 1 024 + 1). Cycling one bank's 128
    /// rows overflows it: the spillover climbs until a row enters the table
    /// at the threshold and is refreshed after 24 activations of its own,
    /// where the exact counter refreshes nothing.
    #[test]
    fn graphene_leaves_the_exact_counter_when_a_table_fills() {
        assert_eq!(graphene_rows_per_bank(4096), 2);
        let events: Vec<_> = (0..4096).map(|i| activation(0, i as usize % 128, i)).collect();
        // Row 125's 24th activation: 23 · 128 + 125.
        assert_eq!(first_disagreement(MechanismKind::Graphene, 4096, &events), (Some(3069), 0));
    }

    /// While every row is activated again within a tREFI of its last
    /// activation, it meets every pruning interval and the rate (at most one
    /// activation a tREFI up to N_RH 256) never prunes it, so TWiCe is the
    /// exact counter: 40 seeded streams of 4 000 activations at each of four
    /// thresholds, rounds that visit 1–8 rows of two banks in a random order,
    /// and gaps short enough that a row's next visit comes within a tREFI.
    #[test]
    fn twice_counts_exactly_while_no_row_goes_stale() {
        let t_refi = TimingParams::fast_test().t_refi;
        for nrh in [8, 16, 64, 256] {
            let mut refreshes = 0;
            for seed in 0..40 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut rows: Vec<_> = (0..rng.gen_range(1..9)).map(|i| (i % 2, 5 * i)).collect();
                // Visits of a row are at most 2·rows − 1 activations apart.
                let max_gap = (t_refi - 1) / (2 * rows.len() as Cycle - 1);
                let (mut events, mut cycle) = (Vec::new(), 0);
                while events.len() < 4000 {
                    rows.shuffle(&mut rng);
                    for &(bank, row) in &rows {
                        cycle += rng.gen_range(0..=max_gap);
                        events.push(activation(bank, row, cycle));
                    }
                }
                let (first, seen) = first_disagreement(MechanismKind::Twice, nrh, &events);
                assert_eq!(first, None, "N_RH {nrh}, seed {seed}");
                refreshes += seen;
            }
            assert!(refreshes >= 40, "N_RH {nrh}: {refreshes} refreshes");
        }
    }

    /// At N_RH 64 (threshold 16, rate 1/4 a tREFI) a row activated 15 times
    /// and back after 61 tREFI has been pruned: the exact counter refreshes
    /// on that 16th activation, TWiCe counts it as the first.
    #[test]
    fn twice_leaves_the_exact_counter_when_a_cold_row_returns() {
        let t_refi = TimingParams::fast_test().t_refi;
        let mut events: Vec<_> = (0..15).map(|i| activation(0, 40, i)).collect();
        events.push(activation(0, 40, 61 * t_refi));
        assert_eq!(first_disagreement(MechanismKind::Twice, 64, &events), (Some(15), 0));
    }
}
