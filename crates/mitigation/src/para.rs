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
use crate::mechanism::{TriggerMechanism, MITIGATED_BLAST_RADIUS};
use bh_dram::DramGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Target failure exponent: `p · N_RH ≈ 2·ln(10^15)`, i.e. the probability of
/// an aggressor escaping preventive refreshes over a full attack is ~1e-15.
const PROTECTION_CONSTANT: f64 = 69.0;

/// The PARA mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Para {
    geometry: DramGeometry,
    probability: f64,
    rng: StdRng,
}

impl Para {
    /// Creates PARA configured to protect RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, nrh: u64, seed: u64) -> Self {
        let probability = (PROTECTION_CONSTANT / nrh as f64).min(1.0);
        Para { geometry, probability, rng: StdRng::seed_from_u64(seed) }
    }
}

impl TriggerMechanism for Para {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        if self.rng.gen::<f64>() >= self.probability {
            return;
        }
        let neighbors = self.geometry.neighbors(event.row, MITIGATED_BLAST_RADIUS);
        let candidates = neighbors.clone().count();
        if candidates == 0 {
            return;
        }
        let pick = self.rng.gen_range(0..candidates);
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
    use crate::action::ActionView;
    use crate::mechanism::testing::{actions, event};

    #[test]
    fn probability_scales_inversely_with_nrh() {
        let g = DramGeometry::tiny();
        let hi = Para::new(g.clone(), 4096, 1);
        let lo = Para::new(g.clone(), 64, 1);
        assert!(hi.probability < lo.probability);
        assert!(lo.probability <= 1.0);
        assert!((hi.probability - 69.0 / 4096.0).abs() < 1e-12);
        // At N_RH = 64 the scaled probability saturates at 1.
        assert_eq!(lo.probability, 1.0);
    }

    #[test]
    fn trigger_rate_matches_probability_statistically() {
        let g = DramGeometry::tiny();
        let mut para = Para::new(g, 1024, 42);
        let p = para.probability;
        let n = 40_000u64;
        let mut sink = ActionSink::default();
        for i in 0..n {
            para.on_activation(&event(10, i), &mut sink);
        }
        let rate = sink.len() as f64 / n as f64;
        assert!((rate - p).abs() < 0.015, "rate {rate} vs p {p}");
    }

    #[test]
    fn refreshed_row_is_a_neighbor_of_the_aggressor() {
        let g = DramGeometry::tiny();
        let mut para = Para::new(g, 64, 7); // p == 1, always triggers
        for i in 0..100 {
            let sink = actions(&mut para, &event(50, i));
            let views: Vec<_> = sink.iter().collect();
            let [ActionView::RefreshRows([victim])] = views[..] else {
                panic!("expected one single-row refresh, got {views:?}");
            };
            assert!(victim.row == 49 || victim.row == 51);
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = DramGeometry::tiny();
        let run = |seed: u64| -> Vec<usize> {
            let mut para = Para::new(g.clone(), 512, seed);
            (0..500)
                .filter_map(|i| match actions(&mut para, &event(20, i)).iter().next() {
                    Some(ActionView::RefreshRows(rows)) => Some(rows[0].row),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn metadata() {
        // PARA keeps only its PRNG, whatever the threshold.
        for nrh in [1, 1024] {
            assert_eq!(Para::new(DramGeometry::tiny(), nrh, 0).storage_bits(), 32);
        }
    }
}
