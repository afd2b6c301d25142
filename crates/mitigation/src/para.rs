//! PARA: Probabilistic Adjacent Row Activation [Kim et al., ISCA 2014].
//!
//! PARA is stateless: on every row activation it flips a biased coin and, with
//! probability `p`, preventively refreshes one randomly chosen neighbour of
//! the activated row. `p` is scaled to the RowHammer threshold so that the
//! probability of an aggressor reaching `N_RH` activations without any of its
//! victims being refreshed is negligible. As `N_RH` drops, `p` approaches 1
//! and PARA refreshes a neighbour on almost every activation — which is why
//! the paper finds PARA degrades performance below the no-defense baseline at
//! very low thresholds even when the attacker is throttled (§8.1).

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::{MechanismKind, TriggerMechanism};
use bh_dram::DramGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Target failure exponent: `p · N_RH ≈ 2·ln(10^15)`, i.e. the probability of
/// an aggressor escaping preventive refreshes over a full attack is ~1e-15.
const PROTECTION_CONSTANT: f64 = 69.0;

/// The PARA mechanism.
#[derive(Debug)]
pub struct Para {
    geometry: DramGeometry,
    probability: f64,
    blast_radius: usize,
    rng: StdRng,
    triggers: u64,
    activations: u64,
}

impl Para {
    /// Creates PARA configured to protect RowHammer threshold `nrh`.
    ///
    /// # Panics
    /// Panics if `nrh` is below [`MechanismKind::min_nrh`] or `blast_radius` is zero.
    pub(crate) fn new(geometry: DramGeometry, nrh: u64, blast_radius: usize, seed: u64) -> Self {
        assert!(nrh >= MechanismKind::Para.min_nrh(), "N_RH below the registry's minimum");
        assert!(blast_radius > 0, "blast radius must be positive");
        let probability = (PROTECTION_CONSTANT / nrh as f64).min(1.0);
        Para {
            geometry,
            probability,
            blast_radius,
            rng: StdRng::seed_from_u64(seed),
            triggers: 0,
            activations: 0,
        }
    }
}

impl TriggerMechanism for Para {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Para
    }

    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        self.activations += 1;
        if self.rng.gen::<f64>() >= self.probability {
            return;
        }
        let neighbors = self.geometry.neighbors(event.row, self.blast_radius);
        let candidates = neighbors.clone().count();
        if candidates == 0 {
            return;
        }
        let pick = self.rng.gen_range(0..candidates);
        self.triggers += 1;
        sink.push_refresh_rows(neighbors.skip(pick).take(1));
    }

    fn storage_bits(&self) -> u64 {
        // PARA keeps no per-row state; only a small PRNG (modelled as 32 bits).
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PreventiveAction;
    use bh_dram::{BankAddr, RowAddr, ThreadId};

    fn event(row: usize, cycle: u64) -> ActivationEvent {
        ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row },
            thread: ThreadId(0),
            cycle,
        }
    }

    #[test]
    fn probability_scales_inversely_with_nrh() {
        let g = DramGeometry::tiny();
        let hi = Para::new(g.clone(), 4096, 1, 1);
        let lo = Para::new(g.clone(), 64, 1, 1);
        assert!(hi.probability < lo.probability);
        assert!(lo.probability <= 1.0);
        assert!((hi.probability - 69.0 / 4096.0).abs() < 1e-12);
        // At N_RH = 64 the scaled probability saturates at 1.
        assert_eq!(lo.probability, 1.0);
    }

    #[test]
    fn trigger_rate_matches_probability_statistically() {
        let g = DramGeometry::tiny();
        let mut para = Para::new(g, 1024, 1, 42);
        let p = para.probability;
        let n = 40_000u64;
        let mut triggered = 0u64;
        for i in 0..n {
            if !para.on_activation_vec(&event(10, i)).is_empty() {
                triggered += 1;
            }
        }
        let rate = triggered as f64 / n as f64;
        assert!((rate - p).abs() < 0.015, "rate {rate} vs p {p}");
        assert_eq!(para.triggers, triggered);
    }

    #[test]
    fn refreshed_row_is_a_neighbor_of_the_aggressor() {
        let g = DramGeometry::tiny();
        let mut para = Para::new(g, 64, 1, 7); // p == 1, always triggers
        for i in 0..100 {
            let actions = para.on_activation_vec(&event(50, i));
            assert_eq!(actions.len(), 1);
            match &actions[0] {
                PreventiveAction::RefreshRows(rows) => {
                    assert_eq!(rows.len(), 1);
                    assert!(rows[0].row == 49 || rows[0].row == 51);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = DramGeometry::tiny();
        let run = |seed: u64| -> Vec<usize> {
            let mut para = Para::new(g.clone(), 512, 1, seed);
            (0..500)
                .filter_map(|i| {
                    let a = para.on_activation_vec(&event(20, i));
                    match a.first() {
                        Some(PreventiveAction::RefreshRows(rows)) => Some(rows[0].row),
                        _ => None,
                    }
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn metadata() {
        let para = Para::new(DramGeometry::tiny(), 1024, 1, 0);
        assert_eq!(para.name(), "PARA");
        assert_eq!(para.kind(), MechanismKind::Para);
        assert_eq!(para.storage_bits(), 32);
    }
}
