//! The BreakHammer mechanism (§4 of the paper).
//!
//! BreakHammer divides time into *throttling windows* and, in each window,
//!
//! 1. **observes** RowHammer-preventive actions performed by the attached
//!    mitigation mechanism, attributing a per-thread *RowHammer-preventive
//!    score* proportionally to each thread's row activations since the last
//!    preventive action (§4.1, Alg. 1 lines 3–7);
//! 2. **identifies suspect threads** by thresholded deviation from the mean:
//!    a thread is a suspect if its score exceeds `TH_threat` *and* exceeds the
//!    mean score by a factor of `TH_outlier` (§4.2, Alg. 1 lines 8–18);
//! 3. **throttles** each suspect by shrinking its dynamic memory-request
//!    quota — the number of last-level-cache miss buffers (MSHRs) it may
//!    allocate (§4.3, Expression 1) — and restores the full quota once the
//!    thread stays benign for a whole window.
//!
//! The LLC (in `bh-cpu`) consults [`BreakHammer::quota`] before allocating a
//! miss buffer; the memory controller (in `bh-mem`) reports activations and
//! preventive actions.

use crate::config::BreakHammerConfig;
use crate::scores::InterleavedScores;
use bh_dram::{Cycle, ThreadId};
use bh_mitigation::ScoreAttribution;

/// Running statistics exposed for experiments and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakHammerStats {
    /// Preventive actions observed.
    pub actions_observed: u64,
    /// Preventive actions observed per memory channel (indexed by channel;
    /// one channel from [`BreakHammer::new`], grown to the system's channel
    /// count by [`BreakHammer::declare_channels`], so zero-action channels
    /// report an explicit 0 instead of being absent). The scores themselves
    /// are system-wide — this only records where the triggering tracker
    /// lived.
    pub actions_per_channel: Vec<u64>,
    /// Suspect identifications (at most one per thread per window).
    pub suspect_identifications: u64,
    /// Quota restorations after a clean window.
    pub quota_restorations: u64,
    /// Completed throttling windows.
    pub windows_completed: u64,
}

/// Per-thread throttling state.
#[derive(Debug, Clone)]
struct ThreadState {
    /// Row activations performed since the last preventive action (Alg. 1's
    /// `Activations`); reset whenever scores are attributed.
    activations_since_action: u64,
    /// Progress toward the next per-activation-quota score increment (REGA).
    quota_progress: u64,
    /// Current dynamic request quota in MSHRs (`Q_i`).
    quota: usize,
    /// Was the thread identified as a suspect in the *previous* window
    /// (`recent_suspect_i`)?
    recent_suspect: bool,
    /// Has the thread been identified as a suspect in the *current* window?
    suspect_now: bool,
    /// Lifetime count of windows in which the thread was a suspect.
    suspect_windows: u64,
}

/// The BreakHammer throttling controller.
#[derive(Debug, Clone)]
pub struct BreakHammer {
    config: BreakHammerConfig,
    attribution: ScoreAttribution,
    scores: InterleavedScores,
    threads: Vec<ThreadState>,
    window_end: Cycle,
    stats: BreakHammerStats,
    /// Bumped whenever any thread's quota changes; lets the simulator skip
    /// re-propagating unchanged quotas into the LLC on its per-cycle path.
    quota_version: u64,
}

impl BreakHammer {
    /// Creates BreakHammer with the given configuration and the score
    /// attribution method of the attached mitigation mechanism.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`BreakHammerConfig::validate`]).
    pub fn new(config: BreakHammerConfig, attribution: ScoreAttribution) -> Self {
        config.validate().expect("invalid BreakHammer configuration");
        let threads = (0..config.num_threads)
            .map(|_| ThreadState {
                activations_since_action: 0,
                quota_progress: 0,
                quota: config.total_mshrs,
                recent_suspect: false,
                suspect_now: false,
                suspect_windows: 0,
            })
            .collect();
        let window_end = config.window_cycles;
        let scores = InterleavedScores::new(config.num_threads);
        BreakHammer {
            config,
            attribution,
            scores,
            threads,
            window_end,
            stats: BreakHammerStats { actions_per_channel: vec![0], ..BreakHammerStats::default() },
            quota_version: 0,
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> &BreakHammerStats {
        &self.stats
    }

    /// The current dynamic request quota (allowed in-flight LLC miss buffers)
    /// of `thread`.
    pub fn quota(&self, thread: ThreadId) -> usize {
        self.threads[thread.index()].quota
    }

    /// True if `thread` is currently marked as a suspect.
    pub fn is_suspect(&self, thread: ThreadId) -> bool {
        self.threads[thread.index()].suspect_now
    }

    /// Number of windows in which `thread` has been identified as a suspect.
    pub fn suspect_windows(&self, thread: ThreadId) -> u64 {
        self.threads[thread.index()].suspect_windows
    }

    /// Declares the number of memory channels whose trackers report to this
    /// instance: pre-sizes [`BreakHammerStats::actions_per_channel`] so every
    /// channel has an entry (zero-action channels included) and consumers can
    /// zip it against per-channel result breakdowns. Called by the memory
    /// system at construction; idempotent, never shrinks.
    pub fn declare_channels(&mut self, channels: usize) {
        if self.stats.actions_per_channel.len() < channels {
            self.stats.actions_per_channel.resize(channels, 0);
        }
    }

    /// Monotone counter that increments whenever any thread's quota changes
    /// (throttling or restoration). Consumers that mirror the quotas (the
    /// LLC) can skip refreshing them while the version is unchanged.
    pub fn quota_version(&self) -> u64 {
        self.quota_version
    }

    /// The cycle at which the current throttling window ends (i.e. the next
    /// cycle whose [`BreakHammer::advance_to`] rotates the counter sets and
    /// may restore quotas). The event-driven simulation kernel treats this
    /// window edge as a wake-up event so quota restorations become visible
    /// to the LLC at exactly the same cycle as under per-cycle ticking.
    pub fn next_window_end(&self) -> Cycle {
        self.window_end
    }

    /// The thread's RowHammer-preventive score in the active counter set.
    ///
    /// This is the value BreakHammer optionally exposes to system software
    /// (the "CR3-like" read-only register interface of §4).
    pub fn score(&self, thread: ThreadId) -> f64 {
        self.scores.score(thread)
    }

    /// Scores of all threads in the active counter set.
    pub fn scores(&self) -> &[f64] {
        self.scores.active_scores()
    }

    /// Advances the throttling-window state machine to `cycle`, rotating the
    /// counter sets and updating `recent_suspect` flags / quotas at each
    /// window boundary. Called internally by the event hooks; exposed so the
    /// simulator can also drive it when no events occur for a long time.
    pub fn advance_to(&mut self, cycle: Cycle) {
        while cycle >= self.window_end {
            for t in &mut self.threads {
                if t.suspect_now {
                    t.suspect_windows += 1;
                } else if t.quota != self.config.total_mshrs {
                    // A full clean window restores the thread's quota (§4.3).
                    t.quota = self.config.total_mshrs;
                    self.stats.quota_restorations += 1;
                    self.quota_version += 1;
                }
                t.recent_suspect = t.suspect_now;
                t.suspect_now = false;
            }
            self.scores.rotate();
            self.window_end += self.config.window_cycles;
            self.stats.windows_completed += 1;
        }
    }

    /// Reports that `thread` caused a row activation at `cycle`.
    ///
    /// For most mechanisms this only trains the activation-attribution
    /// counters; for per-activation-quota attribution (REGA) it may directly
    /// increment the thread's score and run suspect identification.
    pub fn on_activation(&mut self, thread: ThreadId, cycle: Cycle) {
        self.advance_to(cycle);
        let idx = thread.index();
        self.threads[idx].activations_since_action += 1;
        if let ScoreAttribution::PerActivationQuota { quota } = self.attribution {
            self.threads[idx].quota_progress += 1;
            if self.threads[idx].quota_progress >= quota {
                self.threads[idx].quota_progress = 0;
                self.scores.add(thread, 1.0);
                self.identify_suspects();
            }
        }
    }

    /// Reports that the attached mitigation mechanism performed one
    /// RowHammer-preventive action at `cycle`.
    ///
    /// Implements Alg. 1: the action's score (1.0) is split across threads
    /// proportionally to their activations since the previous action, the
    /// per-thread activation counters are reset, and suspect identification
    /// runs on the updated scores.
    ///
    /// Single-channel shorthand for
    /// [`BreakHammer::on_preventive_action_from`] with channel 0.
    pub fn on_preventive_action(&mut self, cycle: Cycle) {
        self.on_preventive_action_from(0, cycle);
    }

    /// Reports a preventive action performed by the tracker of memory
    /// `channel` at `cycle`.
    ///
    /// BreakHammer observes every channel's mitigation instance and
    /// aggregates all of them into the same system-wide per-thread scores
    /// (the paper's memory-system-wide observer, §5); the channel only feeds
    /// the per-channel statistics.
    ///
    /// # Panics
    /// Panics if `channel` was not declared (see
    /// [`BreakHammer::declare_channels`]).
    pub fn on_preventive_action_from(&mut self, channel: usize, cycle: Cycle) {
        self.advance_to(cycle);
        self.stats.actions_observed += 1;
        self.stats.actions_per_channel[channel] += 1;
        if matches!(self.attribution, ScoreAttribution::PerActivationQuota { .. }) {
            // REGA-style mechanisms have no discrete actions; nothing to do.
            return;
        }
        let total: u64 = self.threads.iter().map(|t| t.activations_since_action).sum();
        if total == 0 {
            return;
        }
        for (idx, t) in self.threads.iter_mut().enumerate() {
            if t.activations_since_action > 0 {
                let share = t.activations_since_action as f64 / total as f64;
                self.scores.add(ThreadId(idx), share);
                t.activations_since_action = 0;
            }
        }
        self.identify_suspects();
    }

    /// Alg. 1 lines 8–18: thresholded deviation from the mean.
    fn identify_suspects(&mut self) {
        let mean = self.scores.mean();
        let max_deviation = (1.0 + self.config.outlier_threshold) * mean;
        for idx in 0..self.threads.len() {
            let score = self.scores.score(ThreadId(idx));
            if score < self.config.threat_threshold {
                continue;
            }
            if score > max_deviation {
                self.mark_suspect(idx);
            }
        }
    }

    /// Marks thread `idx` as a suspect and applies Expression 1 (at most once
    /// per throttling window).
    fn mark_suspect(&mut self, idx: usize) {
        let t = &mut self.threads[idx];
        if t.suspect_now {
            return;
        }
        t.suspect_now = true;
        self.stats.suspect_identifications += 1;
        self.quota_version += 1;
        t.quota = if t.recent_suspect {
            t.quota.saturating_sub(self.config.old_suspect_penalty)
        } else {
            (t.quota / self.config.new_suspect_divisor).max(1)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakHammerConfig {
        BreakHammerConfig::fast_test(4, 64)
    }

    fn bh() -> BreakHammer {
        BreakHammer::new(config(), ScoreAttribution::ProportionalToActivations)
    }

    /// Drives one "attack round": the attacker performs `attacker_acts`
    /// activations, each benign thread performs `benign_acts`, then one
    /// preventive action is observed.
    fn round(b: &mut BreakHammer, cycle: Cycle, attacker_acts: u64, benign_acts: u64) {
        for _ in 0..attacker_acts {
            b.on_activation(ThreadId(0), cycle);
        }
        for t in 1..4 {
            for _ in 0..benign_acts {
                b.on_activation(ThreadId(t), cycle);
            }
        }
        b.on_preventive_action(cycle);
    }

    #[test]
    fn initial_state_gives_everyone_full_quota() {
        let b = bh();
        for t in 0..4 {
            assert_eq!(b.quota(ThreadId(t)), 64);
            assert!(!b.is_suspect(ThreadId(t)));
            assert_eq!(b.score(ThreadId(t)), 0.0);
        }
    }

    #[test]
    fn actions_per_channel_is_sized_by_new_and_declare_channels() {
        let mut b = bh();
        assert_eq!(b.stats().actions_per_channel, [0]);
        b.declare_channels(3);
        b.on_activation(ThreadId(0), 0);
        b.on_preventive_action_from(2, 0);
        assert_eq!(b.stats().actions_per_channel, [0, 0, 1]);
        assert_eq!(b.stats().actions_observed, 1);
    }

    #[test]
    fn scores_are_attributed_proportionally_to_activations() {
        let mut b = bh();
        // Attacker does 75% of the activations, the three benign threads 25%.
        round(&mut b, 0, 30, 10 / 3);
        let attacker_score = b.score(ThreadId(0));
        let benign_score = b.score(ThreadId(1));
        assert!(attacker_score > benign_score);
        let total: f64 = b.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "one action distributes exactly one score unit");
    }

    #[test]
    fn attacker_is_identified_and_throttled() {
        let mut b = bh();
        // Attacker causes virtually all activations across many actions.
        for i in 0..10u64 {
            round(&mut b, i * 10, 100, 1);
        }
        assert!(b.is_suspect(ThreadId(0)), "attacker must be a suspect");
        assert!(!b.is_suspect(ThreadId(1)));
        // New suspect: quota divided by P_newsuspect (64 / 10 = 6).
        assert_eq!(b.quota(ThreadId(0)), 6);
        assert_eq!(b.quota(ThreadId(1)), 64);
        assert_eq!(b.stats().suspect_identifications, 1);
    }

    #[test]
    fn threat_threshold_prevents_marking_low_score_threads() {
        let mut b = bh();
        // Only 2 actions: even though the attacker dominates, its score (≈2)
        // is below TH_threat = 4, so nobody is marked.
        for i in 0..2u64 {
            round(&mut b, i, 100, 0);
        }
        assert!(!b.is_suspect(ThreadId(0)));
        assert_eq!(b.quota(ThreadId(0)), 64);
    }

    #[test]
    fn balanced_threads_are_never_suspects() {
        let mut b = bh();
        for i in 0..50u64 {
            round(&mut b, i * 10, 10, 10);
        }
        for t in 0..4 {
            assert!(!b.is_suspect(ThreadId(t)), "thread {t}");
            assert_eq!(b.quota(ThreadId(t)), 64);
        }
        assert_eq!(b.stats().suspect_identifications, 0);
    }

    #[test]
    fn persistent_attacker_loses_quota_gradually_across_windows() {
        let cfg = config();
        let window = cfg.window_cycles;
        let mut b = BreakHammer::new(cfg, ScoreAttribution::ProportionalToActivations);
        // Window 0: become a suspect -> quota 64/10 = 6.
        for i in 0..10u64 {
            round(&mut b, i, 100, 1);
        }
        assert_eq!(b.quota(ThreadId(0)), 6);
        // Window 1: still attacking -> recent suspect, quota 6 - 1 = 5.
        for i in 0..10u64 {
            round(&mut b, window + i, 100, 1);
        }
        assert_eq!(b.quota(ThreadId(0)), 5);
        // Window 2: keep attacking -> 4.
        for i in 0..10u64 {
            round(&mut b, 2 * window + i, 100, 1);
        }
        assert_eq!(b.quota(ThreadId(0)), 4);
        assert!(b.suspect_windows(ThreadId(0)) >= 2);
    }

    #[test]
    fn quota_is_restored_after_a_clean_window() {
        let cfg = config();
        let window = cfg.window_cycles;
        let mut b = BreakHammer::new(cfg, ScoreAttribution::ProportionalToActivations);
        for i in 0..10u64 {
            round(&mut b, i, 100, 1);
        }
        assert_eq!(b.quota(ThreadId(0)), 6);
        // The attacker goes quiet for two full windows (benign threads keep
        // running); its quota must be restored.
        for i in 0..10u64 {
            round(&mut b, window + i * 10, 0, 10);
        }
        b.advance_to(3 * window + 1);
        assert_eq!(b.quota(ThreadId(0)), 64);
        assert!(b.stats().quota_restorations >= 1);
        assert!(!b.is_suspect(ThreadId(0)));
    }

    #[test]
    fn quota_never_reaches_zero_on_first_identification() {
        let mut cfg = config();
        cfg.total_mshrs = 8;
        cfg.new_suspect_divisor = 100;
        let mut b = BreakHammer::new(cfg, ScoreAttribution::ProportionalToActivations);
        for i in 0..10u64 {
            round(&mut b, i, 100, 1);
        }
        assert_eq!(b.quota(ThreadId(0)), 1);
    }

    #[test]
    fn old_suspect_penalty_saturates_at_zero() {
        let cfg = config();
        let window = cfg.window_cycles;
        let mut b = BreakHammer::new(cfg, ScoreAttribution::ProportionalToActivations);
        // Keep attacking for many windows; quota goes 6,5,4,...,0 and stays 0.
        for w in 0..12u64 {
            for i in 0..10u64 {
                round(&mut b, w * window + i, 100, 1);
            }
        }
        assert_eq!(b.quota(ThreadId(0)), 0);
    }

    #[test]
    fn per_activation_quota_attribution_scores_without_actions() {
        let cfg = config();
        let mut b = BreakHammer::new(cfg, ScoreAttribution::PerActivationQuota { quota: 10 });
        for i in 0..1000u64 {
            b.on_activation(ThreadId(0), i);
        }
        // 1000 activations at quota 10 = score 100 for the lone aggressor.
        assert!((b.score(ThreadId(0)) - 100.0).abs() < 1e-9);
        assert!(b.is_suspect(ThreadId(0)));
        // Preventive-action reports are ignored under this attribution.
        b.on_preventive_action(1000);
        assert!((b.score(ThreadId(0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn multithreaded_rigging_requires_overwhelming_thread_share() {
        // Security property (§5.2): with 1 attack thread out of 4, the
        // attacker cannot stay below the outlier bound while triggering many
        // times the benign average.
        let mut b = bh();
        for i in 0..40u64 {
            round(&mut b, i * 10, 50, 10);
        }
        assert!(b.is_suspect(ThreadId(0)));

        // With 3 of 4 threads attacking equally, each attacker stays closer to
        // the mean and (depending on TH_outlier) may evade identification —
        // but the per-attacker score is then bounded by Expression 2.
        let mut b2 = bh();
        for i in 0..40u64 {
            for t in 0..3 {
                for _ in 0..50 {
                    b2.on_activation(ThreadId(t), i * 10);
                }
            }
            for _ in 0..10 {
                b2.on_activation(ThreadId(3), i * 10);
            }
            b2.on_preventive_action(i * 10);
        }
        let mean: f64 = b2.scores().iter().sum::<f64>() / 4.0;
        let bound = (1.0 + b2.config.outlier_threshold) * mean;
        for t in 0..3 {
            if !b2.is_suspect(ThreadId(t)) {
                assert!(b2.score(ThreadId(t)) <= bound + 1.0);
            }
        }
    }

    #[test]
    fn windows_completed_counts_rotations() {
        let cfg = config();
        let window = cfg.window_cycles;
        let mut b = BreakHammer::new(cfg, ScoreAttribution::ProportionalToActivations);
        b.advance_to(window * 5 + 1);
        assert_eq!(b.stats().windows_completed, 5);
    }
}
