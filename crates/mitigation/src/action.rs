//! Events flowing between the memory controller and a RowHammer mitigation
//! mechanism, and the preventive actions a mechanism can request.

use bh_dram::{BankAddr, Cycle, RowAddr, ThreadId};

/// A row activation observed by the memory controller, annotated with the
/// hardware thread on whose behalf it was performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationEvent {
    /// The activated row.
    pub row: RowAddr,
    /// The hardware thread whose request caused the activation.
    pub thread: ThreadId,
    /// The DRAM cycle of the activation.
    pub cycle: Cycle,
}

/// A caller-owned, reusable buffer that [`Mechanism::on_activation`]
/// pushes preventive actions into.
///
/// The activation hot path runs once per DRAM row activation, so mechanisms
/// must not allocate per call. Instead of returning owned actions (whose row
/// lists would allocate again), mechanisms append into this sink: action
/// headers and victim rows live in two flat `Vec`s whose capacity is reused
/// across calls, so a warmed-up sink never touches the allocator.
///
/// ## Contract
///
/// * The **caller** (the memory controller) owns the sink, clears it before
///   each `on_activation` call, and drains it via [`ActionSink::iter`]
///   afterwards. One action header counts as one preventive action for
///   BreakHammer score attribution.
/// * The **mechanism** only appends (`push_*`); it never reads, clears or
///   holds on to the sink, and must not assume the sink is empty on entry —
///   a caller is free to batch several events into one sink before draining.
/// * Mechanisms are not re-entered while their actions are drained, so
///   borrowed [`ActionView::RefreshRows`] slices stay valid for the whole
///   drain.
///
/// [`Mechanism::on_activation`]: crate::Mechanism::on_activation
#[derive(Debug, Clone, Default)]
pub struct ActionSink {
    entries: Vec<SinkEntry>,
    rows: Vec<RowAddr>,
}

/// Flat, `Copy` representation of one queued action; row lists are ranges
/// into `ActionSink::rows`.
#[derive(Debug, Clone, Copy)]
enum SinkEntry {
    Refresh { start: u32, len: u32 },
    Migrate { source: RowAddr, dest: RowAddr },
    Rfm { bank: BankAddr },
    Table { row: RowAddr, write_back: bool },
}

/// One RowHammer-preventive action queued in an [`ActionSink`], borrowed
/// from it.
///
/// The memory controller executes these as real DRAM command sequences, so
/// they consume DRAM bandwidth and interfere with demand requests exactly as
/// described in the paper — which is what makes both the performance overhead
/// (§3) and the memory performance attack (§8.1) possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionView<'a> {
    /// Preventively refresh the given victim rows (PARA, Graphene, Hydra,
    /// TWiCe). Each row costs one full row cycle in its bank.
    RefreshRows(&'a [RowAddr]),
    /// Migrate `source` to the quarantine row `dest` (AQUA): the whole source
    /// row is read out and written back to the destination.
    MigrateRow {
        /// The aggressor row being quarantined.
        source: RowAddr,
        /// The quarantine destination row.
        dest: RowAddr,
    },
    /// Issue a refresh-management command to `bank`, giving the DRAM chip a
    /// time window for in-DRAM preventive refreshes (RFM, PRAC back-off).
    IssueRfm {
        /// The bank to which the RFM command is directed.
        bank: BankAddr,
    },
    /// Auxiliary table access on behalf of the mechanism (Hydra's RCT: cache
    /// misses and evictions cost one column access each).
    TableAccess {
        /// The DRAM row holding the accessed table entry.
        row: RowAddr,
        /// True if the access also writes back a dirty entry.
        write_back: bool,
    },
}

impl ActionSink {
    /// Empties the sink, retaining the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.rows.clear();
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no action is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues a victim-refresh action covering `rows` (may be empty: an
    /// empty refresh at a bank edge still counts as one preventive action).
    pub(crate) fn push_refresh_rows(&mut self, rows: impl IntoIterator<Item = RowAddr>) {
        let start = self.rows.len();
        self.rows.extend(rows);
        self.entries.push(SinkEntry::Refresh {
            start: start as u32,
            len: (self.rows.len() - start) as u32,
        });
    }

    /// Queues an AQUA row migration.
    pub(crate) fn push_migrate(&mut self, source: RowAddr, dest: RowAddr) {
        self.entries.push(SinkEntry::Migrate { source, dest });
    }

    /// Queues an RFM command to `bank`.
    pub(crate) fn push_rfm(&mut self, bank: BankAddr) {
        self.entries.push(SinkEntry::Rfm { bank });
    }

    /// Queues a tracking-table access (Hydra).
    pub(crate) fn push_table_access(&mut self, row: RowAddr, write_back: bool) {
        self.entries.push(SinkEntry::Table { row, write_back });
    }

    /// Iterates over the queued actions in push order.
    pub fn iter(&self) -> impl Iterator<Item = ActionView<'_>> + '_ {
        self.entries.iter().map(|entry| match *entry {
            SinkEntry::Refresh { start, len } => {
                ActionView::RefreshRows(&self.rows[start as usize..(start + len) as usize])
            }
            SinkEntry::Migrate { source, dest } => ActionView::MigrateRow { source, dest },
            SinkEntry::Rfm { bank } => ActionView::IssueRfm { bank },
            SinkEntry::Table { row, write_back } => ActionView::TableAccess { row, write_back },
        })
    }
}

/// How BreakHammer should attribute RowHammer-preventive scores for a given
/// mechanism (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreAttribution {
    /// When a preventive action is performed, attribute a score of 1 split
    /// across threads proportionally to the activations each performed since
    /// the previous preventive action (used by PARA, Graphene, Hydra, TWiCe,
    /// AQUA, RFM and PRAC).
    ProportionalToActivations,
    /// Increment a thread's score by one for every `quota` activations the
    /// thread performs (used by REGA, which performs its refreshes in
    /// parallel with activations and therefore has no discrete action to
    /// attribute).
    PerActivationQuota {
        /// Number of activations per score increment (REGA's `REGA_T`).
        quota: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::BankAddr;

    fn row(r: usize) -> RowAddr {
        RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row: r }
    }

    #[test]
    fn sink_roundtrips_every_action_kind() {
        let mut sink = ActionSink::default();
        assert!(sink.is_empty());
        sink.push_refresh_rows([row(1), row(2)]);
        sink.push_refresh_rows(std::iter::empty());
        sink.push_migrate(row(3), row(4));
        sink.push_rfm(row(0).bank);
        sink.push_table_access(row(5), true);
        assert_eq!(sink.len(), 5);
        let views: Vec<ActionView<'_>> = sink.iter().collect();
        assert_eq!(
            views,
            [
                ActionView::RefreshRows(&[row(1), row(2)]),
                ActionView::RefreshRows(&[]),
                ActionView::MigrateRow { source: row(3), dest: row(4) },
                ActionView::IssueRfm { bank: row(0).bank },
                ActionView::TableAccess { row: row(5), write_back: true },
            ]
        );
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn attribution_variants() {
        let p = ScoreAttribution::ProportionalToActivations;
        let q = ScoreAttribution::PerActivationQuota { quota: 128 };
        assert_ne!(p, q);
        if let ScoreAttribution::PerActivationQuota { quota } = q {
            assert_eq!(quota, 128);
        } else {
            panic!("wrong variant");
        }
    }
}
