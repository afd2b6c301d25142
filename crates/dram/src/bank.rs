//! Per-bank, per-bank-group and per-rank device state used by the timing
//! engine in [`crate::device`].
//!
//! Each structure keeps the earliest cycle at which the next command of a
//! given class may legally be issued to that scope. The device updates these
//! "next allowed" horizons as commands are issued; checking a candidate
//! command then reduces to taking the maximum over the relevant scopes.

use crate::command::CommandKind;
use crate::types::Cycle;
use std::collections::VecDeque;

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// All rows are closed (the bank is precharged).
    Closed,
    /// `row` is open in the row buffer.
    Open {
        /// The currently open row.
        row: usize,
    },
}

impl RowState {
    /// The open row, if any.
    pub(crate) fn open_row(&self) -> Option<usize> {
        match self {
            RowState::Open { row } => Some(*row),
            RowState::Closed => None,
        }
    }
}

/// Timing and row-buffer state of a single DRAM bank.
#[derive(Debug, Clone)]
pub struct BankState {
    /// Current row-buffer state.
    pub row: RowState,
    /// Earliest cycle an ACT may be issued to this bank.
    pub next_act: Cycle,
    /// Earliest cycle a PRE may be issued to this bank.
    pub next_pre: Cycle,
    /// Earliest cycle a RD may be issued to this bank.
    pub next_rd: Cycle,
    /// Earliest cycle a WR may be issued to this bank.
    pub next_wr: Cycle,
}

impl BankState {
    /// A freshly powered-up, precharged bank.
    pub(crate) fn new() -> Self {
        BankState { row: RowState::Closed, next_act: 0, next_pre: 0, next_rd: 0, next_wr: 0 }
    }

    /// The currently open row, if any.
    pub(crate) fn open_row(&self) -> Option<usize> {
        self.row.open_row()
    }

    /// True if the bank is precharged (no open row).
    pub(crate) fn is_closed(&self) -> bool {
        matches!(self.row, RowState::Closed)
    }

    /// Earliest cycle at which this bank's *local* constraints allow a
    /// command of `kind` (rank/bank-group constraints are layered on top by
    /// the device). This is the per-bank "ready horizon" the event-driven
    /// scheduler uses to jump the clock instead of polling `can_issue` at
    /// every cycle.
    pub(crate) fn earliest(&self, kind: CommandKind) -> Cycle {
        match kind {
            CommandKind::Activate | CommandKind::VictimRefresh => self.next_act,
            CommandKind::Precharge => self.next_pre,
            CommandKind::Read => self.next_rd,
            CommandKind::Write => self.next_wr,
            // Refresh-class commands require the bank to be ACT-quiet.
            CommandKind::Refresh | CommandKind::RefreshManagement => self.next_act,
        }
    }
}

impl Default for BankState {
    fn default() -> Self {
        BankState::new()
    }
}

/// Timing state shared by the banks of one bank group.
#[derive(Debug, Clone, Default)]
pub struct BankGroupState {
    /// Earliest ACT to any bank of this group (tRRD_L).
    pub next_act: Cycle,
    /// Earliest RD to any bank of this group (tCCD_L / tWTR_L).
    pub next_rd: Cycle,
    /// Earliest WR to any bank of this group (tCCD_L).
    pub next_wr: Cycle,
}

/// Timing state shared by all banks of one rank.
#[derive(Debug, Clone, Default)]
pub struct RankState {
    /// Earliest ACT to any bank of this rank (tRRD_S, tFAW, tRFC, tRFM).
    pub next_act: Cycle,
    /// Earliest RD to any bank of this rank (tCCD_S / tWTR_S).
    pub next_rd: Cycle,
    /// Earliest WR to any bank of this rank (tCCD_S).
    pub next_wr: Cycle,
    /// Earliest REF/RFM to this rank.
    pub next_ref: Cycle,
    /// Issue cycles of the most recent activations (bounded by the FAW depth).
    pub act_times: VecDeque<Cycle>,
    /// Cursor of the rolling per-rank periodic-refresh sweep (which row block
    /// the next REF will refresh).
    pub refresh_cursor: usize,
}

impl RankState {
    /// Records an activation for the four-activation-window (tFAW) check.
    pub(crate) fn record_activation(&mut self, cycle: Cycle, faw_depth: usize) {
        self.act_times.push_back(cycle);
        while self.act_times.len() > faw_depth {
            self.act_times.pop_front();
        }
    }

    /// Earliest cycle at which a new ACT satisfies the tFAW constraint.
    pub(crate) fn faw_earliest(&self, faw_depth: usize, t_faw: Cycle) -> Cycle {
        if self.act_times.len() < faw_depth {
            0
        } else {
            // The oldest of the last `faw_depth` activations bounds the next one.
            self.act_times[self.act_times.len() - faw_depth] + t_faw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_closed_and_ready() {
        let b = BankState::new();
        assert!(b.is_closed());
        assert_eq!(b.open_row(), None);
        assert_eq!(b.next_act, 0);
        assert_eq!(BankState::default().next_pre, 0);
    }

    #[test]
    fn row_state_open_row() {
        let open = RowState::Open { row: 12 };
        assert_eq!(open.open_row(), Some(12));
        assert_eq!(RowState::Closed.open_row(), None);
    }

    #[test]
    fn faw_window_tracks_last_four_activations() {
        let mut r = RankState::default();
        assert_eq!(r.faw_earliest(4, 32), 0);
        for (i, c) in [10u64, 20, 30, 40].iter().enumerate() {
            r.record_activation(*c, 4);
            assert_eq!(r.act_times.len(), i + 1);
            assert_eq!(r.act_times.back(), Some(c));
        }
        // With four ACTs recorded the next one must wait tFAW after the oldest.
        assert_eq!(r.faw_earliest(4, 32), 10 + 32);
        r.record_activation(50, 4);
        assert_eq!(r.act_times.len(), 4);
        assert_eq!(r.faw_earliest(4, 32), 20 + 32);
    }

    #[test]
    fn faw_with_fewer_activations_is_unconstrained() {
        let mut r = RankState::default();
        r.record_activation(5, 4);
        r.record_activation(6, 4);
        assert_eq!(r.faw_earliest(4, 32), 0);
    }
}
