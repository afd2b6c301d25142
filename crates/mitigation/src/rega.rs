//! REGA: Refresh-Generating Activations [Marazzi et al., S&P 2023].
//!
//! REGA modifies the DRAM chip itself: a second row buffer per subarray lets
//! the device refresh potential victim rows *in parallel* with serving normal
//! activations, at a rate of one protective refresh every `REGA_T`
//! activations. Because the refreshes happen inside the chip, REGA performs
//! no discrete memory-controller-visible preventive action; its cost instead
//! appears as inflated DRAM timing parameters (longer precharge / row cycle),
//! growing as the protected RowHammer threshold shrinks. The paper therefore
//! evaluates REGA "based on its impact on DRAM timing constraints" and
//! excludes it from the preventive-action-count figure (Fig. 10, footnote 10).
//!
//! Score attribution for BreakHammer is also special-cased (§4.1): a thread's
//! RowHammer-preventive score is incremented by one for every `REGA_T`
//! activations the thread performs.

use crate::action::{ActionSink, ActivationEvent, ScoreAttribution};
use crate::mechanism::TriggerMechanism;
use bh_dram::TimingAdjustment;

/// The REGA mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Rega {
    rega_t: u64,
    adjustment: TimingAdjustment,
}

impl Rega {
    /// Creates REGA configured to protect RowHammer threshold `nrh`.
    ///
    /// `REGA_T` (activations per refresh-generating activation) is set to
    /// `N_RH / 4`; the timing inflation grows inversely with `N_RH`,
    /// capturing the V=1..4 configurations of the REGA paper.
    pub(crate) fn new(nrh: u64) -> Self {
        let rega_t = (nrh / 4).max(1);
        // Timing inflation model: protecting lower thresholds requires more
        // refresh-generating activations per row cycle, which lengthens the
        // precharge phase. ~0 extra cycles at N_RH >= 2K, growing to ~32
        // extra cycles (≈13 ns at DDR5-4800) at N_RH = 64.
        let extra = (2048 / nrh).min(32);
        let adjustment =
            TimingAdjustment { extra_t_rp: extra, extra_t_ras: extra / 2, extra_t_rfc: 0 };
        Rega { rega_t, adjustment }
    }

    /// The inflated DRAM timing.
    pub(crate) fn timing_adjustment(&self) -> TimingAdjustment {
        self.adjustment
    }

    /// One score point per `REGA_T` activations of a thread.
    pub(crate) fn attribution(&self) -> ScoreAttribution {
        ScoreAttribution::PerActivationQuota { quota: self.rega_t }
    }
}

impl TriggerMechanism for Rega {
    fn on_activation(&mut self, _event: &ActivationEvent, _sink: &mut ActionSink) {
        // Refreshes happen inside the DRAM chip, in parallel with the
        // activation; no controller-visible action is generated.
    }

    fn storage_bits(&self) -> u64 {
        // All state lives inside the modified DRAM chip.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::testing::event;

    #[test]
    fn never_emits_controller_visible_actions() {
        let mut r = Rega::new(64);
        let mut sink = ActionSink::default();
        for i in 0..1000 {
            r.on_activation(&event(1, i), &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn timing_inflation_grows_as_nrh_shrinks() {
        let relaxed = Rega::new(4096);
        let strict = Rega::new(64);
        assert_eq!(relaxed.timing_adjustment().extra_t_rp, 0);
        assert!(strict.timing_adjustment().extra_t_rp > 0);
        assert!(
            strict.timing_adjustment().extra_t_rp >= Rega::new(256).timing_adjustment().extra_t_rp
        );
        assert_eq!(strict.timing_adjustment().extra_t_rp, 32);
    }

    #[test]
    fn attribution_uses_rega_t_quota() {
        let r = Rega::new(1024);
        assert_eq!(r.rega_t, 256);
        assert_eq!(r.attribution(), ScoreAttribution::PerActivationQuota { quota: 256 });
    }

    #[test]
    fn metadata() {
        let r = Rega::new(128);
        assert_eq!(r.storage_bits(), 0);
        assert!(!r.timing_adjustment().is_none());
    }
}
