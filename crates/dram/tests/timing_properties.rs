//! Property-based tests of the DRAM device model: for arbitrary legal command
//! sequences, the timing engine must never accept a command earlier than its
//! own `earliest_issue` bound, bank state must stay consistent, and the
//! RowHammer victim model must account for every activation.

use bh_dram::{
    BankAddr, CommandKind, DramChannel, DramCommand, DramGeometry, DramLocation, RowAddr,
    TimingParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives `steps` random-but-legal row cycles (ACT, a few column accesses,
/// PRE) across random banks and returns the channel.
fn drive_random_row_cycles(seed: u64, steps: usize, nrh: u64) -> (DramChannel, u64) {
    let geometry = DramGeometry::tiny();
    let mut channel = DramChannel::with_rowhammer(geometry.clone(), TimingParams::fast_test(), nrh);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut activations = 0u64;
    for _ in 0..steps {
        let bank = geometry.bank_from_flat(rng.gen_range(0..geometry.banks_per_channel()));
        let row = rng.gen_range(0..geometry.rows_per_bank);
        let act = DramCommand::activate(bank, row);
        let at = channel.earliest_issue(&act);
        channel.issue(&act, at).expect("activate at its earliest-issue time must be legal");
        activations += 1;

        for _ in 0..rng.gen_range(0..3usize) {
            let column = rng.gen_range(0..geometry.columns_per_row);
            let loc = DramLocation { channel: 0, bank, row, column };
            let cmd =
                if rng.gen_bool(0.3) { DramCommand::write(loc) } else { DramCommand::read(loc) };
            let at = channel.earliest_issue(&cmd);
            channel.issue(&cmd, at).expect("column access at its earliest-issue time");
        }

        let pre = DramCommand::precharge(bank);
        let at = channel.earliest_issue(&pre);
        channel.issue(&pre, at).expect("precharge at its earliest-issue time");
    }
    (channel, activations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Issuing every command exactly at its `earliest_issue` time is always
    /// legal, regardless of the interleaving of banks and rows.
    #[test]
    fn earliest_issue_is_always_sufficient(seed in any::<u64>(), steps in 1usize..60) {
        let (channel, activations) = drive_random_row_cycles(seed, steps, 1_000_000);
        prop_assert_eq!(channel.stats().activates, activations);
        prop_assert_eq!(channel.stats().precharges, activations);
    }

    /// `demand_ready`, the scheduler's flat-index query, is `earliest_issue`
    /// for every demand-class command on every bank.
    #[test]
    fn demand_ready_equals_earliest_issue(seed in any::<u64>(), steps in 1usize..40) {
        let (channel, _) = drive_random_row_cycles(seed, steps, 1_000_000);
        let geometry = DramGeometry::tiny();
        for flat in 0..geometry.banks_per_channel() {
            let bank = geometry.bank_from_flat(flat);
            let group = bank.rank * geometry.bank_groups + bank.bank_group;
            let loc = DramLocation { channel: 0, bank, row: 0, column: 0 };
            for cmd in [
                DramCommand::read(loc),
                DramCommand::write(loc),
                DramCommand::activate(bank, 0),
                DramCommand::victim_refresh(RowAddr { bank, row: 0 }),
                DramCommand::precharge(bank),
            ] {
                let ready = channel.demand_ready(flat, group, bank.rank, cmd.kind);
                prop_assert_eq!(ready, channel.earliest_issue(&cmd), "{:?}", cmd.kind);
            }
        }
    }

    /// Issuing one cycle before `earliest_issue` is always rejected (when the
    /// bound is in the future), i.e. the bound is tight from below.
    #[test]
    fn one_cycle_early_is_rejected(seed in any::<u64>(), steps in 1usize..40) {
        let geometry = DramGeometry::tiny();
        let mut channel = DramChannel::new(geometry.clone(), TimingParams::fast_test());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            let bank = geometry.bank_from_flat(rng.gen_range(0..geometry.banks_per_channel()));
            let open = channel.open_row(bank);
            let cmd = match open {
                None => DramCommand::activate(bank, rng.gen_range(0..geometry.rows_per_bank)),
                Some(row) if rng.gen_bool(0.5) => DramCommand::read(DramLocation {
                    channel: 0,
                    bank,
                    row,
                    column: rng.gen_range(0..geometry.columns_per_row),
                }),
                Some(_) => DramCommand::precharge(bank),
            };
            let earliest = channel.earliest_issue(&cmd);
            if earliest > 0 {
                let early = channel.issue(&cmd, earliest - 1);
                prop_assert!(early.is_err(), "command {cmd} accepted {} before its bound", 1);
            }
            channel.issue(&cmd, earliest).expect("command at its bound");
        }
    }

    /// The RowHammer tracker's total activation count always matches the
    /// number of ACT commands issued, and the per-victim disturbance never
    /// exceeds the number of activations of its neighbouring rows.
    #[test]
    fn victim_model_accounts_for_every_activation(seed in any::<u64>(), steps in 1usize..60) {
        let (channel, activations) = drive_random_row_cycles(seed, steps, u64::MAX >> 1);
        let tracker = channel.rowhammer().expect("tracker attached");
        prop_assert_eq!(tracker.total_activations(), activations);
        prop_assert!(tracker.max_disturbance() <= 2 * activations);
        prop_assert_eq!(tracker.bitflip_count(), 0, "threshold is effectively infinite");
    }

    /// Victim refreshes always clear the targeted row's disturbance, whatever
    /// preceded them.
    #[test]
    fn victim_refresh_always_clears_disturbance(
        seed in any::<u64>(),
        hammer_count in 1u64..40,
        victim_offset in prop_oneof![Just(-1i64), Just(1i64)],
    ) {
        let geometry = DramGeometry::tiny();
        let mut channel =
            DramChannel::with_rowhammer(geometry.clone(), TimingParams::fast_test(), 1_000_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let aggressor = rng.gen_range(2..geometry.rows_per_bank - 2);
        for _ in 0..hammer_count {
            let act = DramCommand::activate(bank, aggressor);
            let at = channel.earliest_issue(&act);
            channel.issue(&act, at).unwrap();
            let pre = DramCommand::precharge(bank);
            let at = channel.earliest_issue(&pre);
            channel.issue(&pre, at).unwrap();
        }
        let victim_row = (aggressor as i64 + victim_offset) as usize;
        let victim = RowAddr { bank, row: victim_row };
        prop_assert_eq!(channel.rowhammer().unwrap().disturbance_of(victim), hammer_count);
        let vrr = DramCommand::victim_refresh(victim);
        let at = channel.earliest_issue(&vrr);
        channel.issue(&vrr, at).unwrap();
        prop_assert_eq!(channel.rowhammer().unwrap().disturbance_of(victim), 0);
    }

    /// Refresh-class commands never leave a row open, and data transfers are
    /// only ever reported for column commands.
    #[test]
    fn refresh_closes_everything(seed in any::<u64>(), steps in 1usize..30) {
        let geometry = DramGeometry::tiny();
        let mut channel = DramChannel::new(geometry.clone(), TimingParams::fast_test());
        let mut rng = StdRng::seed_from_u64(seed);
        // Open a few rows.
        for _ in 0..steps {
            let bank = geometry.bank_from_flat(rng.gen_range(0..geometry.banks_per_channel()));
            if channel.open_row(bank).is_none() {
                let act = DramCommand::activate(bank, rng.gen_range(0..geometry.rows_per_bank));
                let at = channel.earliest_issue(&act);
                channel.issue(&act, at).unwrap();
            }
        }
        for rank in 0..geometry.ranks {
            let prea = DramCommand::precharge_all(rank);
            let at = channel.earliest_issue(&prea);
            let outcome = channel.issue(&prea, at).unwrap();
            prop_assert!(outcome.data_ready_at.is_none());
            prop_assert!(channel.all_banks_closed(rank));
            let refresh = DramCommand::refresh(rank);
            let at = channel.earliest_issue(&refresh);
            let outcome = channel.issue(&refresh, at).unwrap();
            prop_assert!(outcome.data_ready_at.is_none());
            prop_assert_eq!(outcome.busy_until, at + channel.timing().t_rfc);
        }
        prop_assert_eq!(channel.stats().refreshes as usize, geometry.ranks);
        let kind = CommandKind::Refresh;
        prop_assert!(kind.is_refresh());
    }
}
