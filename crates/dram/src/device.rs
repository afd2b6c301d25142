//! The DRAM channel device model: banks, timing-constraint engine, command
//! execution, statistics, energy and RowHammer tracking.
//!
//! [`DramChannel`] is driven by the memory controller in `bh-mem`. The
//! controller asks [`DramChannel::earliest_issue`] when a candidate command
//! could legally go out and then calls [`DramChannel::issue`]; the device
//! enforces both the JEDEC-style timing constraints and the bank state
//! machine, and returns when the data (if any) will be available.

use crate::bank::{BankGroupState, BankState, RankState, RowState};
use crate::command::{CommandKind, DramCommand};
use crate::energy::EnergyParams;
use crate::error::DramError;
use crate::geometry::{BankAddr, DramGeometry, RowAddr};
use crate::rowhammer::RowHammerTracker;
use crate::timing::TimingParams;
use crate::types::Cycle;

/// Depth of the rolling activation window used for the tFAW constraint.
const FAW_DEPTH: usize = 4;

/// Result of issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandOutcome {
    /// For column commands, the cycle at which the data transfer completes
    /// (read data available / write data absorbed).
    pub data_ready_at: Option<Cycle>,
    /// The cycle until which the targeted bank (or rank for refresh-class
    /// commands) is busy with this command.
    pub busy_until: Cycle,
}

/// Per-command-kind issue counters: the channel's one count of its commands,
/// which its energy ([`DramChannel::energy_nj`]) is weighed from.
// `accumulate` destructures every field; its unit test pins that each one
// reaches the sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// Always 0: the device models no precharge-all. Inert; it stays
    /// because the benchmark hashes the `Debug` text of a result.
    pub precharge_alls: u64,
    /// RD commands issued.
    pub reads: u64,
    /// WR commands issued.
    pub writes: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Always 0: the device models no same-bank refresh. Inert; it stays
    /// because the benchmark hashes the `Debug` text of a result.
    pub refreshes_same_bank: u64,
    /// RFM commands issued.
    pub rfm_commands: u64,
    /// Directed victim-row refreshes issued.
    pub victim_refreshes: u64,
}

impl DramStats {
    /// Adds another channel's counters into this one (used by multi-channel
    /// systems to aggregate per-channel statistics).
    pub fn accumulate(&mut self, other: &DramStats) {
        // Exhaustive destructuring (no `..`): adding a stat field without
        // aggregating it here is a compile error, not a silent zero in
        // multi-channel results.
        let DramStats {
            activates,
            precharges,
            precharge_alls,
            reads,
            writes,
            refreshes,
            refreshes_same_bank,
            rfm_commands,
            victim_refreshes,
        } = other;
        self.activates += activates;
        self.precharges += precharges;
        self.precharge_alls += precharge_alls;
        self.reads += reads;
        self.writes += writes;
        self.refreshes += refreshes;
        self.refreshes_same_bank += refreshes_same_bank;
        self.rfm_commands += rfm_commands;
        self.victim_refreshes += victim_refreshes;
    }
}

/// Configuration knobs of the device model that are not timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// How many of the hottest aggressor rows the in-DRAM logic preventively
    /// refreshes per RFM (or PRAC back-off) window.
    pub rfm_aggressors_serviced: usize,
    /// RowHammer blast radius used by the victim model.
    pub blast_radius: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { rfm_aggressors_serviced: 2, blast_radius: 1 }
    }
}

/// A single DRAM channel: the set of ranks/banks behind one command bus.
#[derive(Debug, Clone)]
pub struct DramChannel {
    geometry: DramGeometry,
    timing: TimingParams,
    energy_params: EnergyParams,
    config: DeviceConfig,
    banks: Vec<BankState>,
    groups: Vec<BankGroupState>,
    ranks: Vec<RankState>,
    /// Earliest cycle the shared data bus accepts another column command.
    next_column_bus: Cycle,
    stats: DramStats,
    rowhammer: Option<RowHammerTracker>,
}

impl DramChannel {
    /// Creates a channel with the given geometry and timing, without a
    /// RowHammer victim model.
    pub fn new(geometry: DramGeometry, timing: TimingParams) -> Self {
        Self::with_config(geometry, timing, EnergyParams::default(), DeviceConfig::default(), None)
    }

    /// Creates a channel that also tracks RowHammer disturbance with threshold
    /// `nrh`.
    pub fn with_rowhammer(geometry: DramGeometry, timing: TimingParams, nrh: u64) -> Self {
        let config = DeviceConfig::default();
        let tracker = RowHammerTracker::new(geometry.clone(), nrh, config.blast_radius);
        Self::with_config(geometry, timing, EnergyParams::default(), config, Some(tracker))
    }

    /// Fully-configurable constructor.
    pub fn with_config(
        geometry: DramGeometry,
        timing: TimingParams,
        energy_params: EnergyParams,
        config: DeviceConfig,
        rowhammer: Option<RowHammerTracker>,
    ) -> Self {
        timing.validate().expect("invalid timing parameters");
        let banks = vec![BankState::new(); geometry.banks_per_channel()];
        let groups = vec![BankGroupState::default(); geometry.ranks * geometry.bank_groups];
        let ranks = vec![RankState::default(); geometry.ranks];
        DramChannel {
            geometry,
            timing,
            energy_params,
            config,
            banks,
            groups,
            ranks,
            next_column_bus: 0,
            stats: DramStats::default(),
            rowhammer,
        }
    }

    /// The channel's geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Command-issue statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// DRAM energy in nanojoules after `elapsed_cycles` of simulated time:
    /// the commands counted in [`DramChannel::stats`], weighed by the
    /// channel's [`EnergyParams`], plus every rank's background power.
    pub fn energy_nj(&self, elapsed_cycles: Cycle) -> f64 {
        self.energy_params.total_nj(&self.stats, &self.timing, elapsed_cycles, self.geometry.ranks)
    }

    /// The RowHammer tracker, if one is attached.
    pub fn rowhammer(&self) -> Option<&RowHammerTracker> {
        self.rowhammer.as_ref()
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: BankAddr) -> Option<usize> {
        self.banks[self.geometry.flat_bank(bank)].open_row()
    }

    /// The row currently open in the bank with flat index `flat`, if any
    /// (the allocation- and recomputation-free fast path for schedulers that
    /// cache flat bank indices).
    pub fn open_row_flat(&self, flat: usize) -> Option<usize> {
        self.banks[flat].open_row()
    }

    /// True if every bank of `rank` is precharged.
    pub fn all_banks_closed(&self, rank: usize) -> bool {
        self.geometry.rank_flat_range(rank).all(|f| self.banks[f].is_closed())
    }

    fn group_index(&self, bank: BankAddr) -> usize {
        bank.rank * self.geometry.bank_groups + bank.bank_group
    }

    fn check_address(&self, cmd: &DramCommand) -> Result<(), DramError> {
        let g = &self.geometry;
        let b = cmd.bank;
        if b.rank >= g.ranks || b.bank_group >= g.bank_groups || b.bank >= g.banks_per_group {
            return Err(DramError::AddressOutOfRange {
                command: *cmd,
                reason: format!("bank {b} outside geometry"),
            });
        }
        if cmd.kind.opens_row() && cmd.row >= g.rows_per_bank {
            return Err(DramError::AddressOutOfRange {
                command: *cmd,
                reason: format!("row {} >= {}", cmd.row, g.rows_per_bank),
            });
        }
        if cmd.kind.is_column() && cmd.column >= g.columns_per_row {
            return Err(DramError::AddressOutOfRange {
                command: *cmd,
                reason: format!("column {} >= {}", cmd.column, g.columns_per_row),
            });
        }
        Ok(())
    }

    fn check_state(&self, cmd: &DramCommand) -> Result<(), DramError> {
        let flat = self.geometry.flat_bank(cmd.bank);
        let bank = &self.banks[flat];
        let violation = |reason: &str| {
            Err(DramError::StateViolation { command: *cmd, reason: reason.to_string() })
        };
        match cmd.kind {
            CommandKind::Activate | CommandKind::VictimRefresh => {
                if !bank.is_closed() {
                    return violation("bank already has an open row");
                }
            }
            CommandKind::Read | CommandKind::Write => match bank.row {
                RowState::Open { row } if row == cmd.row => {}
                RowState::Open { row } => {
                    return violation(&format!("open row {row} does not match command row"));
                }
                RowState::Closed => return violation("bank is precharged"),
            },
            CommandKind::Refresh => {
                if !self.all_banks_closed(cmd.bank.rank) {
                    return violation("all banks of the rank must be precharged before REF");
                }
            }
            CommandKind::RefreshManagement => {
                if !bank.is_closed() {
                    return violation("target bank must be precharged");
                }
            }
            CommandKind::Precharge => {}
        }
        Ok(())
    }

    /// Earliest cycle at which `cmd` satisfies every timing constraint
    /// (ignoring bank-state requirements, which are checked at issue time).
    pub fn earliest_issue(&self, cmd: &DramCommand) -> Cycle {
        let flat = self.geometry.flat_bank(cmd.bank);
        let rank = cmd.bank.rank;
        match cmd.kind {
            CommandKind::Activate
            | CommandKind::VictimRefresh
            | CommandKind::Precharge
            | CommandKind::Read
            | CommandKind::Write => {
                self.demand_ready(flat, self.group_index(cmd.bank), rank, cmd.kind)
            }
            CommandKind::Refresh => self
                .geometry
                .rank_flat_range(rank)
                .map(|f| self.banks[f].earliest(CommandKind::Refresh))
                .max()
                .unwrap_or(0)
                .max(self.ranks[rank].next_ref),
            CommandKind::RefreshManagement => {
                self.banks[flat].earliest(cmd.kind).max(self.ranks[rank].next_ref)
            }
        }
    }

    /// Earliest cycle at which a single-bank command of `kind` (`Activate`,
    /// `VictimRefresh`, `Precharge`, `Read` or `Write`) may issue to the bank
    /// with flat index `flat`, which sits in bank group `group` (the global
    /// index `rank * bank_groups + bank_group`) of `rank`. Each of these
    /// timing rules is written here once: [`DramChannel::earliest_issue`]
    /// answers with it for these kinds, and a scheduler holding flat indices
    /// asks it directly, with no `DramCommand` to build.
    ///
    /// # Panics
    /// Panics for any other command kind.
    #[inline]
    pub fn demand_ready(&self, flat: usize, group: usize, rank: usize, kind: CommandKind) -> Cycle {
        let bank = self.banks[flat].earliest(kind);
        let group = &self.groups[group];
        let rank = &self.ranks[rank];
        match kind {
            CommandKind::Activate | CommandKind::VictimRefresh => bank
                .max(group.next_act)
                .max(rank.next_act)
                .max(rank.faw_earliest(FAW_DEPTH, self.timing.t_faw)),
            CommandKind::Precharge => bank,
            CommandKind::Read => {
                bank.max(group.next_rd).max(rank.next_rd).max(self.next_column_bus)
            }
            CommandKind::Write => {
                bank.max(group.next_wr).max(rank.next_wr).max(self.next_column_bus)
            }
            CommandKind::Refresh | CommandKind::RefreshManagement => {
                panic!("{kind:?} is not a single-bank demand command")
            }
        }
    }

    /// True if `cmd` can be legally issued at `cycle` (timing and state).
    pub fn can_issue(&self, cmd: &DramCommand, cycle: Cycle) -> bool {
        self.check_address(cmd).is_ok()
            && self.check_state(cmd).is_ok()
            && cycle >= self.earliest_issue(cmd)
    }

    /// Issues `cmd` at `cycle`, updating all device state.
    ///
    /// # Errors
    /// Returns a [`DramError`] if the command violates the geometry, the bank
    /// state machine, or a timing constraint.
    pub fn issue(&mut self, cmd: &DramCommand, cycle: Cycle) -> Result<CommandOutcome, DramError> {
        self.check_address(cmd)?;
        self.check_state(cmd)?;
        let earliest = self.earliest_issue(cmd);
        if cycle < earliest {
            return Err(DramError::TimingViolation { command: *cmd, issued_at: cycle, earliest });
        }
        Ok(self.apply(cmd, cycle))
    }

    /// Like [`DramChannel::issue`], for callers that have already established
    /// issuability at `cycle` (the memory controller's scheduling scan
    /// derives exactly these checks as part of candidate selection). Address,
    /// state and timing validation still runs in debug builds — the test
    /// suite exercises it on every command — but is skipped in release
    /// builds, keeping redundant re-validation off the per-command hot path.
    pub fn issue_prechecked(&mut self, cmd: &DramCommand, cycle: Cycle) -> CommandOutcome {
        #[cfg(debug_assertions)]
        {
            self.check_address(cmd).expect("prechecked command has a valid address");
            self.check_state(cmd).expect("prechecked command matches the bank state");
            let earliest = self.earliest_issue(cmd);
            assert!(
                cycle >= earliest,
                "prechecked command violates timing: {cmd:?} at {cycle} < {earliest}"
            );
        }
        self.apply(cmd, cycle)
    }

    /// Applies `cmd` to the device state at `cycle`; the caller guarantees
    /// validity.
    fn apply(&mut self, cmd: &DramCommand, cycle: Cycle) -> CommandOutcome {
        let flat = self.geometry.flat_bank(cmd.bank);
        let group_idx = self.group_index(cmd.bank);
        let t = &self.timing;
        let outcome = match cmd.kind {
            CommandKind::Activate => {
                let bank = &mut self.banks[flat];
                debug_assert!(bank.is_closed(), "ACT on open bank");
                bank.row = RowState::Open { row: cmd.row };
                bank.next_pre = bank.next_pre.max(cycle + t.t_ras);
                bank.next_rd = bank.next_rd.max(cycle + t.t_rcd);
                bank.next_wr = bank.next_wr.max(cycle + t.t_rcd);
                bank.next_act = bank.next_act.max(cycle + t.t_rc);
                let group = &mut self.groups[group_idx];
                group.next_act = group.next_act.max(cycle + t.t_rrd_l);
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_act = rank.next_act.max(cycle + t.t_rrd_s);
                rank.record_activation(cycle, FAW_DEPTH);
                self.stats.activates += 1;
                if let Some(rh) = self.rowhammer.as_mut() {
                    rh.on_activate(RowAddr { bank: cmd.bank, row: cmd.row }, cycle);
                }
                CommandOutcome { data_ready_at: None, busy_until: cycle + t.t_rcd }
            }
            CommandKind::VictimRefresh => {
                // Modelled as an ACT+PRE pair on the victim row that restores
                // its charge; it occupies the bank for one full row cycle.
                let bank = &mut self.banks[flat];
                bank.next_act = bank.next_act.max(cycle + t.t_rc);
                bank.next_pre = bank.next_pre.max(cycle + t.t_rc);
                bank.next_rd = bank.next_rd.max(cycle + t.t_rc);
                bank.next_wr = bank.next_wr.max(cycle + t.t_rc);
                let group = &mut self.groups[group_idx];
                group.next_act = group.next_act.max(cycle + t.t_rrd_l);
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_act = rank.next_act.max(cycle + t.t_rrd_s);
                rank.record_activation(cycle, FAW_DEPTH);
                self.stats.victim_refreshes += 1;
                if let Some(rh) = self.rowhammer.as_mut() {
                    rh.on_row_refreshed(RowAddr { bank: cmd.bank, row: cmd.row });
                }
                CommandOutcome { data_ready_at: None, busy_until: cycle + t.t_rc }
            }
            CommandKind::Precharge => {
                let bank = &mut self.banks[flat];
                bank.row = RowState::Closed;
                bank.next_act = bank.next_act.max(cycle + t.t_rp);
                self.stats.precharges += 1;
                CommandOutcome { data_ready_at: None, busy_until: cycle + t.t_rp }
            }
            CommandKind::Read => {
                let bank = &mut self.banks[flat];
                bank.next_pre = bank.next_pre.max(cycle + t.t_rtp);
                let group = &mut self.groups[group_idx];
                group.next_rd = group.next_rd.max(cycle + t.t_ccd_l);
                group.next_wr = group.next_wr.max(cycle + t.t_ccd_l);
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_rd = rank.next_rd.max(cycle + t.t_ccd_s);
                rank.next_wr = rank.next_wr.max(cycle + t.t_ccd_s);
                self.next_column_bus = self.next_column_bus.max(cycle + t.burst_cycles());
                self.stats.reads += 1;
                let ready = cycle + t.read_latency();
                CommandOutcome { data_ready_at: Some(ready), busy_until: ready }
            }
            CommandKind::Write => {
                let done = cycle + t.write_latency();
                let bank = &mut self.banks[flat];
                bank.next_pre = bank.next_pre.max(done + t.t_wr);
                let group = &mut self.groups[group_idx];
                group.next_rd = group.next_rd.max(done + t.t_wtr_l);
                group.next_wr = group.next_wr.max(cycle + t.t_ccd_l);
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_rd = rank.next_rd.max(done + t.t_wtr_s);
                rank.next_wr = rank.next_wr.max(cycle + t.t_ccd_s);
                self.next_column_bus = self.next_column_bus.max(cycle + t.burst_cycles());
                self.stats.writes += 1;
                CommandOutcome { data_ready_at: Some(done), busy_until: done }
            }
            CommandKind::Refresh => {
                let rows_per_ref = self.rows_per_periodic_refresh();
                for bi in self.geometry.rank_flat_range(cmd.bank.rank) {
                    let bank = &mut self.banks[bi];
                    bank.next_act = bank.next_act.max(cycle + t.t_rfc);
                    bank.next_rd = bank.next_rd.max(cycle + t.t_rfc);
                    bank.next_wr = bank.next_wr.max(cycle + t.t_rfc);
                    bank.next_pre = bank.next_pre.max(cycle + t.t_rfc);
                }
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_ref = rank.next_ref.max(cycle + t.t_rfc);
                rank.next_act = rank.next_act.max(cycle + t.t_rfc);
                let start = rank.refresh_cursor;
                let end = (start + rows_per_ref).min(self.geometry.rows_per_bank);
                rank.refresh_cursor = if end >= self.geometry.rows_per_bank { 0 } else { end };
                self.stats.refreshes += 1;
                if let Some(rh) = self.rowhammer.as_mut() {
                    rh.on_periodic_refresh(cmd.bank.rank, start, end);
                }
                CommandOutcome { data_ready_at: None, busy_until: cycle + t.t_rfc }
            }
            CommandKind::RefreshManagement => {
                let bank = &mut self.banks[flat];
                bank.next_act = bank.next_act.max(cycle + t.t_rfm);
                bank.next_rd = bank.next_rd.max(cycle + t.t_rfm);
                bank.next_wr = bank.next_wr.max(cycle + t.t_rfm);
                bank.next_pre = bank.next_pre.max(cycle + t.t_rfm);
                let rank = &mut self.ranks[cmd.bank.rank];
                rank.next_ref = rank.next_ref.max(cycle + t.t_rfm);
                self.stats.rfm_commands += 1;
                let serviced = self.config.rfm_aggressors_serviced;
                if let Some(rh) = self.rowhammer.as_mut() {
                    rh.service_rfm(cmd.bank, serviced);
                }
                CommandOutcome { data_ready_at: None, busy_until: cycle + t.t_rfm }
            }
        };
        outcome
    }

    /// Number of rows per bank refreshed by one periodic REF command.
    pub(crate) fn rows_per_periodic_refresh(&self) -> usize {
        let refs = self.timing.refreshes_per_window().max(1) as usize;
        self.geometry.rows_per_bank.div_ceil(refs).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankAddr {
        BankAddr { rank: 0, bank_group: 0, bank: 0 }
    }

    fn channel() -> DramChannel {
        DramChannel::new(DramGeometry::tiny(), TimingParams::fast_test())
    }

    /// Every field reaches the sum: a new field fails to compile this
    /// literal, and a field `accumulate` drops stays zero and fails it.
    #[test]
    fn accumulate_adds_every_field() {
        let stats = DramStats {
            activates: 1,
            precharges: 2,
            precharge_alls: 3,
            reads: 4,
            writes: 5,
            refreshes: 6,
            refreshes_same_bank: 7,
            rfm_commands: 8,
            victim_refreshes: 9,
        };
        let mut sum = DramStats::default();
        sum.accumulate(&stats);
        assert_eq!(sum, stats);
    }

    #[test]
    fn activate_read_precharge_sequence_respects_timings() {
        let mut ch = channel();
        let t = ch.timing().clone();
        let act = DramCommand::activate(bank(), 5);
        let out = ch.issue(&act, 0).unwrap();
        assert_eq!(out.busy_until, t.t_rcd);
        assert_eq!(ch.open_row(bank()), Some(5));

        // A read before tRCD is a timing violation.
        let loc = crate::geometry::DramLocation { channel: 0, bank: bank(), row: 5, column: 1 };
        let rd = DramCommand::read(loc);
        let err = ch.issue(&rd, 1).unwrap_err();
        assert!(matches!(err, DramError::TimingViolation { earliest, .. } if earliest == t.t_rcd));

        // At tRCD the read succeeds and reports its data-ready time.
        let out = ch.issue(&rd, t.t_rcd).unwrap();
        assert_eq!(out.data_ready_at, Some(t.t_rcd + t.read_latency()));

        // Precharge must wait for tRAS after the activate.
        let pre = DramCommand::precharge(bank());
        assert!(ch.issue(&pre, t.t_ras - 1).is_err());
        ch.issue(&pre, t.t_ras.max(t.t_rcd + t.t_rtp)).unwrap();
        assert_eq!(ch.open_row(bank()), None);
        assert_eq!(ch.stats().activates, 1);
        assert_eq!(ch.stats().reads, 1);
        assert_eq!(ch.stats().precharges, 1);
    }

    #[test]
    fn activate_to_open_bank_is_state_violation() {
        let mut ch = channel();
        ch.issue(&DramCommand::activate(bank(), 5), 0).unwrap();
        let err = ch.issue(&DramCommand::activate(bank(), 6), 1000).unwrap_err();
        assert!(matches!(err, DramError::StateViolation { .. }));
    }

    #[test]
    fn read_to_wrong_row_is_state_violation() {
        let mut ch = channel();
        ch.issue(&DramCommand::activate(bank(), 5), 0).unwrap();
        let loc = crate::geometry::DramLocation { channel: 0, bank: bank(), row: 6, column: 0 };
        let err = ch.issue(&DramCommand::read(loc), 1000).unwrap_err();
        assert!(matches!(err, DramError::StateViolation { .. }));
    }

    #[test]
    fn read_on_closed_bank_is_state_violation() {
        let mut ch = channel();
        let loc = crate::geometry::DramLocation { channel: 0, bank: bank(), row: 6, column: 0 };
        assert!(matches!(
            ch.issue(&DramCommand::read(loc), 0),
            Err(DramError::StateViolation { .. })
        ));
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut ch = channel();
        let bad_bank = BankAddr { rank: 5, bank_group: 0, bank: 0 };
        assert!(matches!(
            ch.issue(&DramCommand::activate(bad_bank, 0), 0),
            Err(DramError::AddressOutOfRange { .. })
        ));
        let bad_row = DramCommand::activate(bank(), 1 << 30);
        assert!(matches!(ch.issue(&bad_row, 0), Err(DramError::AddressOutOfRange { .. })));
    }

    #[test]
    fn rrd_and_faw_limit_activation_rate() {
        let mut ch = channel();
        let t = ch.timing().clone();
        // Activate four different banks back to back at the tRRD_S rate.
        let g = ch.geometry();
        let banks: Vec<BankAddr> = (0..g.banks_per_channel())
            .map(|i| g.bank_from_flat(i))
            .filter(|b| b.rank == 0)
            .collect();
        let mut cycle = 0;
        for b in banks.iter().take(4) {
            let cmd = DramCommand::activate(*b, 1);
            let earliest = ch.earliest_issue(&cmd);
            cycle = cycle.max(earliest);
            ch.issue(&cmd, cycle).unwrap();
        }
        // The fifth activation (to another bank of the same rank) must wait
        // for the tFAW window measured from the first activation.
        let fifth = DramCommand::activate(banks[4 % banks.len()], 2);
        let earliest = ch.earliest_issue(&fifth);
        assert!(earliest >= t.t_faw, "earliest {earliest} must respect tFAW {}", t.t_faw);
    }

    /// `demand_ready` against cycles derived by hand from `TimingParams`
    /// fields. The timing is picked so the rule under test is the one that
    /// binds: tCCD_S exceeds a burst, tRC exceeds tRAS + tRP, and tFAW exceeds
    /// four tRRD_L.
    #[test]
    fn demand_ready_matches_hand_derived_timing() {
        use CommandKind::{Activate, Precharge, Read, VictimRefresh, Write};
        let t = TimingParams {
            t_rc: 30,
            burst_length: 4,
            t_ccd_l: 9,
            t_ccd_s: 5,
            t_wtr_l: 11,
            t_wtr_s: 7,
            t_faw: 20,
            ..TimingParams::fast_test()
        };
        let burst = t.burst_length / 2;
        assert!(t.t_ccd_s > burst && t.t_rc > t.t_ras + t.t_rp && t.t_faw > 4 * t.t_rrd_l);
        let geometry = DramGeometry { bank_groups: 4, ..DramGeometry::tiny() };
        let fresh = || DramChannel::new(geometry.clone(), t.clone());
        let at = |rank, bank_group, bank| BankAddr { rank, bank_group, bank };
        let loc = |bank| crate::geometry::DramLocation { channel: 0, bank, row: 1, column: 0 };
        let ready = |ch: &DramChannel, b: BankAddr, kind| {
            let g = ch.geometry();
            ch.demand_ready(g.flat_bank(b), b.rank * g.bank_groups + b.bank_group, b.rank, kind)
        };

        // tFAW: four ACTs to one rank, tRRD_L apart; the fifth waits for the
        // window opened by the first, the sixth for the one opened by the
        // second. The other rank keeps no window.
        let mut ch = fresh();
        for g in 0..4 {
            ch.issue(&DramCommand::activate(at(0, g, 0), 1), g as u64 * t.t_rrd_l).unwrap();
        }
        assert_eq!(ready(&ch, at(0, 0, 1), Activate), t.t_faw);
        assert_eq!(ready(&ch, at(0, 0, 1), VictimRefresh), t.t_faw);
        assert_eq!(ready(&ch, at(1, 0, 0), Activate), 0);
        ch.issue(&DramCommand::activate(at(0, 0, 1), 1), t.t_faw).unwrap();
        assert_eq!(ready(&ch, at(0, 1, 1), Activate), t.t_rrd_l + t.t_faw);

        // tRAS, then tRC: a bank's next ACT waits a full row cycle from its
        // last one, past the precharge's tRP.
        let mut ch = fresh();
        ch.issue(&DramCommand::activate(at(0, 0, 0), 1), 0).unwrap();
        assert_eq!(ready(&ch, at(0, 0, 0), Precharge), t.t_ras);
        ch.issue(&DramCommand::precharge(at(0, 0, 0)), t.t_ras).unwrap();
        assert_eq!(ready(&ch, at(0, 0, 0), Activate), t.t_rc);

        // Column commands: tCCD_L within a bank group, tCCD_S across groups
        // of one rank, only the shared data bus (one burst) across ranks.
        let mut ch = fresh();
        let banks = [at(0, 0, 0), at(0, 0, 1), at(0, 1, 0), at(1, 0, 0)];
        for (i, b) in banks.iter().enumerate() {
            ch.issue(&DramCommand::activate(*b, 1), i as u64 * t.t_faw).unwrap();
        }
        let r = banks.len() as u64 * t.t_faw;
        ch.issue(&DramCommand::read(loc(banks[0])), r).unwrap();
        assert_eq!(ready(&ch, banks[0], Precharge), r + t.t_rtp);
        assert_eq!(ready(&ch, banks[1], Read), r + t.t_ccd_l);
        assert_eq!(ready(&ch, banks[2], Read), r + t.t_ccd_s);
        assert_eq!(ready(&ch, banks[3], Read), r + burst);
        assert_eq!(ready(&ch, banks[1], Write), r + t.t_ccd_l);

        // A write: reads wait tWTR_L (same group) or tWTR_S (same rank) past
        // its last data beat; another rank's reads and all writes do not.
        let w = r + t.t_ccd_l;
        ch.issue(&DramCommand::write(loc(banks[1])), w).unwrap();
        let done = w + t.cwl + burst;
        assert_eq!(ready(&ch, banks[0], Read), done + t.t_wtr_l);
        assert_eq!(ready(&ch, banks[2], Read), done + t.t_wtr_s);
        assert_eq!(ready(&ch, banks[3], Read), w + burst);
        assert_eq!(ready(&ch, banks[0], Write), w + t.t_ccd_l);
        assert_eq!(ready(&ch, banks[2], Write), w + t.t_ccd_s);
        assert_eq!(ready(&ch, banks[1], Precharge), done + t.t_wr);
    }

    #[test]
    fn same_bank_group_activations_use_rrd_l() {
        let mut ch = channel();
        let t = ch.timing().clone();
        let b0 = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let b1 = BankAddr { rank: 0, bank_group: 0, bank: 1 };
        let b2 = BankAddr { rank: 0, bank_group: 1, bank: 0 };
        ch.issue(&DramCommand::activate(b0, 1), 0).unwrap();
        // Same bank group: tRRD_L; different group: tRRD_S (shorter).
        assert_eq!(ch.earliest_issue(&DramCommand::activate(b1, 1)), t.t_rrd_l);
        assert_eq!(ch.earliest_issue(&DramCommand::activate(b2, 1)), t.t_rrd_s);
    }

    #[test]
    fn refresh_requires_precharged_rank_and_blocks_it() {
        let mut ch = channel();
        let t = ch.timing().clone();
        ch.issue(&DramCommand::activate(bank(), 5), 0).unwrap();
        let reff = DramCommand::refresh(0);
        assert!(matches!(ch.issue(&reff, 10_000), Err(DramError::StateViolation { .. })));
        // Close the open bank, then refresh.
        ch.issue(&DramCommand::precharge(bank()), t.t_ras).unwrap();
        let cycle = ch.earliest_issue(&reff).max(t.t_ras + t.t_rp);
        let out = ch.issue(&reff, cycle).unwrap();
        assert_eq!(out.busy_until, cycle + t.t_rfc);
        // The rank is blocked: the next ACT cannot issue before tRFC elapses.
        let next_act = DramCommand::activate(bank(), 5);
        assert!(ch.earliest_issue(&next_act) >= cycle + t.t_rfc);
        assert_eq!(ch.stats().refreshes, 1);
    }

    #[test]
    fn rfm_blocks_only_target_bank_and_services_victims() {
        let geom = DramGeometry::tiny();
        let mut ch = DramChannel::with_rowhammer(geom, TimingParams::fast_test(), 1000);
        let t = ch.timing().clone();
        // Hammer row 10 of bank 0 a few times.
        for i in 0..5u64 {
            let act = DramCommand::activate(bank(), 10);
            let cycle = ch.earliest_issue(&act).max(i * 1000);
            ch.issue(&act, cycle).unwrap();
            let pre = DramCommand::precharge(bank());
            ch.issue(&pre, ch.earliest_issue(&pre)).unwrap();
        }
        let victim = RowAddr { bank: bank(), row: 9 };
        assert_eq!(ch.rowhammer().unwrap().disturbance_of(victim), 5);

        let rfm = DramCommand::rfm(bank());
        let cycle = ch.earliest_issue(&rfm);
        ch.issue(&rfm, cycle).unwrap();
        assert_eq!(ch.rowhammer().unwrap().disturbance_of(victim), 0);
        assert_eq!(ch.stats().rfm_commands, 1);

        // The RFM blocks bank 0 but not a bank in another group.
        let other = BankAddr { rank: 0, bank_group: 1, bank: 0 };
        assert!(ch.earliest_issue(&DramCommand::activate(bank(), 3)) >= cycle + t.t_rfm);
        assert!(ch.earliest_issue(&DramCommand::activate(other, 3)) < cycle + t.t_rfm);
    }

    #[test]
    fn victim_refresh_clears_disturbance_and_occupies_row_cycle() {
        let geom = DramGeometry::tiny();
        let mut ch = DramChannel::with_rowhammer(geom, TimingParams::fast_test(), 1000);
        let t = ch.timing().clone();
        for _ in 0..3 {
            let act = DramCommand::activate(bank(), 10);
            ch.issue(&act, ch.earliest_issue(&act)).unwrap();
            let pre = DramCommand::precharge(bank());
            ch.issue(&pre, ch.earliest_issue(&pre)).unwrap();
        }
        let victim = RowAddr { bank: bank(), row: 11 };
        assert_eq!(ch.rowhammer().unwrap().disturbance_of(victim), 3);
        let vrr = DramCommand::victim_refresh(victim);
        let cycle = ch.earliest_issue(&vrr);
        let out = ch.issue(&vrr, cycle).unwrap();
        assert_eq!(out.busy_until, cycle + t.t_rc);
        assert_eq!(ch.rowhammer().unwrap().disturbance_of(victim), 0);
        assert_eq!(ch.stats().victim_refreshes, 1);
    }

    #[test]
    fn column_bus_serialises_bursts() {
        let mut ch = channel();
        let t = ch.timing().clone();
        let b0 = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let b1 = BankAddr { rank: 0, bank_group: 1, bank: 0 };
        ch.issue(&DramCommand::activate(b0, 1), 0).unwrap();
        let act1 = DramCommand::activate(b1, 2);
        let c = ch.earliest_issue(&act1);
        ch.issue(&act1, c).unwrap();

        let rd0 = DramCommand::read(crate::geometry::DramLocation {
            channel: 0,
            bank: b0,
            row: 1,
            column: 0,
        });
        let rd1 = DramCommand::read(crate::geometry::DramLocation {
            channel: 0,
            bank: b1,
            row: 2,
            column: 0,
        });
        let c0 = ch.earliest_issue(&rd0);
        ch.issue(&rd0, c0).unwrap();
        // The second read must wait at least a burst (and tCCD_S) after the first.
        let c1 = ch.earliest_issue(&rd1);
        assert!(c1 >= c0 + t.t_ccd_s.min(t.burst_cycles()));
    }

    #[test]
    fn write_delays_subsequent_reads_for_turnaround() {
        let mut ch = channel();
        let t = ch.timing().clone();
        ch.issue(&DramCommand::activate(bank(), 1), 0).unwrap();
        let loc = crate::geometry::DramLocation { channel: 0, bank: bank(), row: 1, column: 0 };
        let wr = DramCommand::write(loc);
        let wc = ch.earliest_issue(&wr);
        ch.issue(&wr, wc).unwrap();
        let rd = DramCommand::read(loc);
        let rc = ch.earliest_issue(&rd);
        assert!(rc >= wc + t.write_latency() + t.t_wtr_l);
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn periodic_refresh_sweeps_rows_and_wraps() {
        let geom = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mut ch = DramChannel::with_rowhammer(geom, timing, 1_000_000);
        let rows_per_ref = ch.rows_per_periodic_refresh();
        assert!(rows_per_ref >= 1);
        // Disturb a row then refresh enough times to sweep the whole bank.
        let act = DramCommand::activate(bank(), 1);
        ch.issue(&act, 0).unwrap();
        let pre = DramCommand::precharge(bank());
        ch.issue(&pre, ch.earliest_issue(&pre)).unwrap();
        let sweeps = ch.geometry().rows_per_bank.div_ceil(rows_per_ref);
        let mut cycle = ch.earliest_issue(&DramCommand::refresh(0));
        for _ in 0..sweeps {
            let reff = DramCommand::refresh(0);
            cycle = cycle.max(ch.earliest_issue(&reff));
            ch.issue(&reff, cycle).unwrap();
            cycle += 1;
        }
        assert_eq!(ch.rowhammer().unwrap().max_disturbance(), 0);
        assert_eq!(ch.stats().refreshes as usize, sweeps);
    }

    #[test]
    fn stats_total_counts_every_command() {
        let mut ch = channel();
        ch.issue(&DramCommand::activate(bank(), 1), 0).unwrap();
        let pre = DramCommand::precharge(bank());
        ch.issue(&pre, ch.earliest_issue(&pre)).unwrap();
        assert_eq!(*ch.stats(), DramStats { activates: 1, precharges: 1, ..DramStats::default() });
    }
}
