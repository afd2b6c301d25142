//! Periodic Refresh Management (RFM) [JEDEC DDR5, JESD79-5].
//!
//! With RFM, the memory controller maintains a Rolling Accumulated ACT (RAA)
//! counter per bank and issues an RFM command whenever the counter reaches the
//! RAA Initial Management Threshold (RAAIMT). The RFM command gives the DRAM
//! chip a time window in which its internal (vendor-specific) logic performs
//! preventive refreshes. The threshold is scaled to the RowHammer threshold
//! following the mathematically-secure configurations of prior work
//! (reference \[220\] in the paper), so protecting weaker chips requires more
//! frequent RFMs and thus more bank-blocked time.

use crate::action::{ActionSink, ActivationEvent};
use crate::mechanism::TriggerMechanism;
use bh_dram::DramGeometry;

/// The periodic-RFM mechanism.
#[derive(Debug, Clone)]
pub(crate) struct Rfm {
    geometry: DramGeometry,
    raaimt: u64,
    /// Per flat bank: rolling accumulated activation counter.
    counters: Vec<u64>,
}

impl Rfm {
    /// Creates the RFM mechanism for RowHammer threshold `nrh`.
    pub(crate) fn new(geometry: DramGeometry, nrh: u64) -> Self {
        // RAAIMT scaled so that in-DRAM TRR can keep up: one RFM window per
        // N_RH/8 activations of a bank (≈80 at N_RH = 640, matching the
        // JEDEC-suggested default cadence).
        let raaimt = (nrh / 8).max(4);
        let banks = geometry.banks_per_channel();
        Rfm { geometry, raaimt, counters: vec![0; banks] }
    }
}

impl TriggerMechanism for Rfm {
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink) {
        let bank = self.geometry.flat_bank(event.row.bank);
        self.counters[bank] += 1;
        if self.counters[bank] >= self.raaimt {
            self.counters[bank] = 0;
            sink.push_rfm(event.row.bank);
        }
    }

    fn storage_bits(&self) -> u64 {
        // One RAA counter per bank in the memory controller.
        self.geometry.banks_per_channel() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionView;
    use crate::mechanism::testing::actions;
    use bh_dram::{BankAddr, RowAddr, ThreadId};

    fn event(bank: usize, row: usize, cycle: u64) -> ActivationEvent {
        ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank }, row },
            thread: ThreadId(0),
            cycle,
        }
    }

    #[test]
    fn rfm_issued_every_raaimt_activations() {
        let mut r = Rfm::new(DramGeometry::tiny(), 1024);
        assert_eq!(r.raaimt, 128);
        let mut sink = ActionSink::default();
        for i in 0..1280u64 {
            // Spread over distinct rows: RFM counts bank activations, not
            // per-row activations.
            r.on_activation(&event(0, (i % 50) as usize, i), &mut sink);
        }
        assert_eq!(sink.len(), 10);
        assert!(sink.iter().all(|a| matches!(a, ActionView::IssueRfm { bank } if bank.bank == 0)));
    }

    #[test]
    fn counters_are_per_bank() {
        let mut r = Rfm::new(DramGeometry::tiny(), 1024);
        for i in 0..100u64 {
            assert!(actions(&mut r, &event(0, 1, i)).is_empty());
            assert!(actions(&mut r, &event(1, 1, i)).is_empty());
        }
        assert_eq!(r.counters[..2], [100, 100]);
    }

    #[test]
    fn threshold_scales_with_nrh() {
        assert!(
            Rfm::new(DramGeometry::tiny(), 4096).raaimt > Rfm::new(DramGeometry::tiny(), 64).raaimt
        );
        assert_eq!(Rfm::new(DramGeometry::tiny(), 64).raaimt, 8);
    }

    #[test]
    fn metadata() {
        let r = Rfm::new(DramGeometry::tiny(), 512);
        assert_eq!(r.storage_bits(), DramGeometry::tiny().banks_per_channel() as u64 * 16);
    }
}
