//! DRAM command set.
//!
//! The memory controller drives the devices with the commands defined here.
//! The set holds the seven kinds the controller issues, and no other: the
//! basic activate / precharge / read / write protocol, all-bank periodic
//! refresh, the DDR5 refresh-management (RFM) command used by the RFM and
//! PRAC mechanisms, and directed victim-row refreshes (modelled as a
//! dedicated command so that preventive actions are visible in statistics
//! and energy accounting). The controller closes a rank for refresh with
//! per-bank PREs, so there is no precharge-all, and it refreshes all banks
//! at once, so there is no same-bank refresh.

use crate::geometry::{BankAddr, DramLocation, RowAddr};
use std::fmt;

/// The kind of a DRAM command, without its target coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate (open) a row into the bank's row buffer.
    Activate,
    /// Precharge (close) the open row of one bank.
    Precharge,
    /// Column read from the open row.
    Read,
    /// Column write into the open row.
    Write,
    /// All-bank auto refresh (issued every tREFI).
    Refresh,
    /// Refresh management command (DDR5 RFM): gives the DRAM chip a time
    /// window to perform in-DRAM preventive refreshes.
    RefreshManagement,
    /// Directed preventive refresh of a single (victim) row, used by
    /// memory-controller-side RowHammer mitigations. Electrically this is an
    /// ACT + PRE of the victim row; it is modelled as one command so the
    /// simulator can attribute its cost to the triggering mechanism.
    VictimRefresh,
}

impl CommandKind {
    /// True for commands that transfer data over the channel (RD/WR).
    pub(crate) fn is_column(self) -> bool {
        matches!(self, CommandKind::Read | CommandKind::Write)
    }

    /// True for commands that open or implicitly cycle a row
    /// (ACT and victim refresh).
    pub(crate) fn opens_row(self) -> bool {
        matches!(self, CommandKind::Activate | CommandKind::VictimRefresh)
    }

    /// Short mnemonic used in traces and debug output.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CommandKind::Activate => "ACT",
            CommandKind::Precharge => "PRE",
            CommandKind::Read => "RD",
            CommandKind::Write => "WR",
            CommandKind::Refresh => "REF",
            CommandKind::RefreshManagement => "RFM",
            CommandKind::VictimRefresh => "VRR",
        }
    }
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A fully-addressed DRAM command ready to be issued to a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCommand {
    /// What the command does.
    pub kind: CommandKind,
    /// Target bank (for rank-scoped commands the bank/bank-group fields are
    /// ignored except for the rank).
    pub bank: BankAddr,
    /// Target row for row-scoped commands (ACT, VictimRefresh); 0 otherwise.
    pub row: usize,
    /// Target column for column commands (RD/WR); 0 otherwise.
    pub column: usize,
}

impl DramCommand {
    /// Builds an activate command for the row at `loc`.
    pub fn activate(bank: BankAddr, row: usize) -> Self {
        DramCommand { kind: CommandKind::Activate, bank, row, column: 0 }
    }

    /// Builds a precharge command for `bank`.
    pub fn precharge(bank: BankAddr) -> Self {
        DramCommand { kind: CommandKind::Precharge, bank, row: 0, column: 0 }
    }

    /// Builds a column read for `loc`.
    pub fn read(loc: DramLocation) -> Self {
        DramCommand { kind: CommandKind::Read, bank: loc.bank, row: loc.row, column: loc.column }
    }

    /// Builds a column write for `loc`.
    pub fn write(loc: DramLocation) -> Self {
        DramCommand { kind: CommandKind::Write, bank: loc.bank, row: loc.row, column: loc.column }
    }

    /// Builds an all-bank refresh for `rank`.
    pub fn refresh(rank: usize) -> Self {
        DramCommand {
            kind: CommandKind::Refresh,
            bank: BankAddr { rank, bank_group: 0, bank: 0 },
            row: 0,
            column: 0,
        }
    }

    /// Builds a refresh-management (RFM) command for the bank's rank / bank.
    pub fn rfm(bank: BankAddr) -> Self {
        DramCommand { kind: CommandKind::RefreshManagement, bank, row: 0, column: 0 }
    }

    /// Builds a directed victim-row refresh.
    pub fn victim_refresh(row: RowAddr) -> Self {
        DramCommand { kind: CommandKind::VictimRefresh, bank: row.bank, row: row.row, column: 0 }
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CommandKind::Activate | CommandKind::VictimRefresh => {
                write!(f, "{} {} row{}", self.kind, self.bank, self.row)
            }
            CommandKind::Read | CommandKind::Write => {
                write!(f, "{} {} row{} col{}", self.kind, self.bank, self.row, self.column)
            }
            CommandKind::Refresh => {
                write!(f, "{} rank{}", self.kind, self.bank.rank)
            }
            _ => write!(f, "{} {}", self.kind, self.bank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankAddr {
        BankAddr { rank: 0, bank_group: 1, bank: 1 }
    }

    #[test]
    fn command_kind_classification() {
        assert!(CommandKind::Read.is_column());
        assert!(CommandKind::Write.is_column());
        assert!(!CommandKind::Activate.is_column());
        assert!(CommandKind::Activate.opens_row());
        assert!(CommandKind::VictimRefresh.opens_row());
        assert!(!CommandKind::Precharge.opens_row());
    }

    #[test]
    fn constructors_fill_in_coordinates() {
        let act = DramCommand::activate(bank(), 17);
        assert_eq!(act.kind, CommandKind::Activate);
        assert_eq!(act.row, 17);
        assert_eq!((act.bank, act.row), (bank(), 17));

        let pre = DramCommand::precharge(bank());
        assert_eq!(pre.kind, CommandKind::Precharge);
        assert!(!pre.kind.opens_row());

        let loc = DramLocation { channel: 0, bank: bank(), row: 5, column: 9 };
        let rd = DramCommand::read(loc);
        assert_eq!((rd.row, rd.column), (5, 9));
        let wr = DramCommand::write(loc);
        assert_eq!(wr.kind, CommandKind::Write);

        let reff = DramCommand::refresh(1);
        assert_eq!(reff.bank.rank, 1);

        let vrr = DramCommand::victim_refresh(RowAddr { bank: bank(), row: 33 });
        assert_eq!(vrr.kind, CommandKind::VictimRefresh);
        assert_eq!(vrr.row, 33);
    }

    #[test]
    fn display_is_informative() {
        let act = DramCommand::activate(bank(), 17);
        assert_eq!(act.to_string(), "ACT r0g1b1 row17");
        let rd = DramCommand::read(DramLocation { channel: 0, bank: bank(), row: 5, column: 9 });
        assert_eq!(rd.to_string(), "RD r0g1b1 row5 col9");
        let reff = DramCommand::refresh(1);
        assert_eq!(reff.to_string(), "REF rank1");
    }

    #[test]
    fn mnemonics_are_unique() {
        let kinds = [
            CommandKind::Activate,
            CommandKind::Precharge,
            CommandKind::Read,
            CommandKind::Write,
            CommandKind::Refresh,
            CommandKind::RefreshManagement,
            CommandKind::VictimRefresh,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
