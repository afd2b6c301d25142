//! A spec-level model of BreakHammer, written from the paper's mechanism as
//! the `bh_core` module docs cite it: Alg. 1 (score attribution, lines 3–7,
//! and the outlier test, lines 8–18), Expression 1 (the quota cut) and
//! Fig. 4 (two interleaved counter sets). Scores are exact [`Ratio`]s, so a
//! disagreement with a floating-point implementation is either a bug or a
//! rounding tie at a threshold, and [`Identification`] says how close each
//! test came.
//!
//! The paper's text is not in the repository, so where the cited sections
//! leave a choice open the model records its reading as an assumption:
//!
//! - **A1, attribution scope (§4.1, §5).** A preventive action's unit of
//!   score is split over *every* thread's activations since the previous
//!   action, on every channel, whichever channel's mitigation acted. §5 makes
//!   BreakHammer one memory-system-wide observer, and §4.1 counts "each
//!   thread's row activations", not a channel's. So a thread that hammers
//!   channel 0 is charged for channel 1's actions. [`BreakHammerModel::activate`]
//!   and [`BreakHammerModel::preventive_action`] take the channel only to
//!   show that it selects nothing. §6's cost model, as `bh_core::hw_cost`
//!   cites it, prices one instance per channel instead; which of the two the
//!   paper means is open (ROADMAP item 18).
//! - **A2, the quota floor (§4.3, Expression 1).** A new suspect's quota is
//!   divided by `P_newsuspect`, rounded down and floored at one MSHR: a
//!   thread identified for the first time keeps a way to make progress. A
//!   repeat suspect loses `P_oldsuspect` MSHRs a window and may reach 0: it
//!   then issues no miss until a window in which it was not identified
//!   restores its full quota. Expression 1 as cited floors neither; the
//!   asymmetry is the reading, not a derivation.
//! - **A3, the outlier test (§4.2, Alg. 1 lines 8–18).** The mean is taken
//!   over all threads' visible scores, the candidate's included. A thread
//!   whose score is below `TH_threat` is skipped, so a score equal to
//!   `TH_threat` is tested. A tested thread is an outlier when its score is
//!   strictly greater than `(1 + TH_outlier) · mean`; equality is not
//!   enough, so with `TH_outlier = 0` threads of equal scores are never
//!   outliers. The test runs after every change of a score, and only then.
//!
//! Fig. 4 is modelled by what its two sets hold rather than by the sets: the
//! set that answers queries was reset at the end of the window before the
//! previous one and has trained ever since, so a visible score is the
//! previous window's training plus the current window's.

use crate::ratio::Ratio;

/// How a preventive action turns into scores (Alg. 1 lines 3–7, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// Each preventive action is worth one unit of score, split over the
    /// threads in proportion to their activations since the previous
    /// action.
    Proportional,
    /// A mechanism with no discrete actions (REGA): a thread earns one unit
    /// of score every `quota` activations of its own, and preventive-action
    /// reports are ignored.
    PerActivationQuota {
        /// Activations per unit of score; at least 1.
        quota: u64,
    },
}

/// The parameters of Table 2 and the system size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Throttling window in cycles (`TH_window`); at least 1.
    pub window: u64,
    /// `TH_threat`, finite and non-negative.
    pub threat: f64,
    /// `TH_outlier`, finite and non-negative.
    pub outlier: f64,
    /// MSHRs a repeat suspect loses per window (`P_oldsuspect`).
    pub old_suspect_penalty: usize,
    /// Divisor of a new suspect's quota (`P_newsuspect`); at least 2.
    pub new_suspect_divisor: usize,
    /// Hardware threads; at least 1.
    pub threads: usize,
    /// MSHRs of the LLC, every thread's full quota; at least 1.
    pub mshrs: usize,
    /// How scores are earned.
    pub attribution: Attribution,
}

/// The exact inputs of one thread's last outlier test: its score and the
/// two thresholds it was held against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identification {
    /// The thread's visible score.
    pub score: Ratio,
    /// `TH_threat`.
    pub threat: Ratio,
    /// `(1 + TH_outlier) · mean`.
    pub bound: Ratio,
}

impl Identification {
    /// Alg. 1's verdict on these inputs (assumption A3).
    pub fn is_outlier(&self) -> bool {
        self.score >= self.threat && self.score > self.bound
    }

    /// True if rounding each side of a test by one part in a billion could
    /// have reversed this verdict: some test whose failure would flip it is
    /// within 10⁻⁹ relative of its threshold.
    pub fn is_near_a_threshold(&self) -> bool {
        let near_threat = self.score.within_a_billionth(self.threat);
        let near_bound = self.score.within_a_billionth(self.bound);
        if self.is_outlier() {
            near_threat || near_bound
        } else {
            (self.score >= self.threat || near_threat) && (self.score > self.bound || near_bound)
        }
    }
}

/// Running counters, named as `bh_core`'s statistics name them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Threads identified as suspects (at most once per thread per window).
    pub suspect_identifications: u64,
    /// Full quotas given back at a window's end.
    pub quota_restorations: u64,
    /// Windows that have ended.
    pub windows_completed: u64,
}

#[derive(Debug, Clone)]
struct Thread {
    quota: usize,
    suspect: bool,
    suspect_last_window: bool,
    activations_since_action: u64,
    activations: u64,
    previous_window: Ratio,
    this_window: Ratio,
    last_test: Option<Identification>,
}

impl Thread {
    fn score(&self) -> Ratio {
        self.previous_window.plus(self.this_window)
    }
}

/// The BreakHammer spec model: feed it the same activations and preventive
/// actions as an implementation and compare what it answers.
#[derive(Debug, Clone)]
pub struct BreakHammerModel {
    params: Params,
    threat: Ratio,
    one_plus_outlier: Ratio,
    threads: Vec<Thread>,
    window: u64,
    counters: Counters,
}

impl BreakHammerModel {
    /// A model with every thread at its full quota, no scores, in window 0.
    ///
    /// # Panics
    /// Panics if a parameter is out of the range its field documents, or a
    /// threshold has no exact `u128` rational value.
    pub fn new(params: Params) -> Self {
        assert!(params.window >= 1 && params.threads >= 1 && params.mshrs >= 1);
        assert!(params.new_suspect_divisor >= 2);
        if let Attribution::PerActivationQuota { quota } = params.attribution {
            assert!(quota >= 1, "a per-activation quota is at least one activation");
        }
        let thread = Thread {
            quota: params.mshrs,
            suspect: false,
            suspect_last_window: false,
            activations_since_action: 0,
            activations: 0,
            previous_window: Ratio::ZERO,
            this_window: Ratio::ZERO,
            last_test: None,
        };
        BreakHammerModel {
            threat: Ratio::from_f64(params.threat),
            one_plus_outlier: Ratio::integer(1).plus(Ratio::from_f64(params.outlier)),
            threads: vec![thread; params.threads],
            window: 0,
            counters: Counters::default(),
            params,
        }
    }

    /// `thread`'s current quota in MSHRs.
    pub fn quota(&self, thread: usize) -> usize {
        self.threads[thread].quota
    }

    /// True if `thread` has been identified as a suspect in this window.
    pub fn is_suspect(&self, thread: usize) -> bool {
        self.threads[thread].suspect
    }

    /// `thread`'s visible score.
    pub fn score(&self, thread: usize) -> Ratio {
        self.threads[thread].score()
    }

    /// The running counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The inputs of `thread`'s outlier test if the last event ran one.
    pub fn last_identification(&self, thread: usize) -> Option<Identification> {
        self.threads[thread].last_test
    }

    /// `thread` activated a row on `channel` at `cycle` (assumption A1: the
    /// channel does not matter).
    pub fn activate(&mut self, thread: usize, _channel: usize, cycle: u64) {
        self.begin_event(cycle);
        let t = &mut self.threads[thread];
        t.activations_since_action += 1;
        t.activations += 1;
        if let Attribution::PerActivationQuota { quota } = self.params.attribution {
            if t.activations.is_multiple_of(quota) {
                t.this_window = t.this_window.plus(Ratio::integer(1));
                self.identify();
            }
        }
    }

    /// The mitigation of `channel` performed a preventive action at `cycle`
    /// (assumption A1: every channel's action charges every thread).
    pub fn preventive_action(&mut self, _channel: usize, cycle: u64) {
        self.begin_event(cycle);
        if self.params.attribution != Attribution::Proportional {
            return;
        }
        let total: u64 = self.threads.iter().map(|t| t.activations_since_action).sum();
        if total == 0 {
            // No activation to charge: no score changes, so nothing to test.
            return;
        }
        for t in &mut self.threads {
            let share = Ratio::new(u128::from(t.activations_since_action), u128::from(total));
            t.this_window = t.this_window.plus(share);
            t.activations_since_action = 0;
        }
        self.identify();
    }

    /// Ends every window that closed before `cycle` and forgets the last
    /// event's tests.
    fn begin_event(&mut self, cycle: u64) {
        for t in &mut self.threads {
            t.last_test = None;
        }
        while self.window < cycle / self.params.window {
            self.end_window();
        }
    }

    /// §4.3: a thread not identified in the window that ends gets its full
    /// quota back; the window's suspects become the recent suspects; Fig. 4's
    /// visible score drops the training of the window before.
    fn end_window(&mut self) {
        for t in &mut self.threads {
            if !t.suspect && t.quota < self.params.mshrs {
                t.quota = self.params.mshrs;
                self.counters.quota_restorations += 1;
            }
            t.suspect_last_window = t.suspect;
            t.suspect = false;
            t.previous_window = t.this_window;
            t.this_window = Ratio::ZERO;
        }
        self.window += 1;
        self.counters.windows_completed += 1;
    }

    /// Alg. 1 lines 8–18 (assumption A3), then Expression 1 for each new
    /// suspect of the window (assumption A2).
    fn identify(&mut self) {
        let sum = self.threads.iter().fold(Ratio::ZERO, |sum, t| sum.plus(t.score()));
        let mean = sum.div_integer(self.threads.len() as u128);
        let bound = self.one_plus_outlier.times(mean);
        for t in &mut self.threads {
            let test = Identification { score: t.score(), threat: self.threat, bound };
            t.last_test = Some(test);
            if !test.is_outlier() || t.suspect {
                continue;
            }
            t.suspect = true;
            self.counters.suspect_identifications += 1;
            t.quota = if t.suspect_last_window {
                t.quota.saturating_sub(self.params.old_suspect_penalty)
            } else {
                (t.quota / self.params.new_suspect_divisor).max(1)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(threads: usize) -> Params {
        Params {
            window: 100,
            threat: 2.0,
            outlier: 0.5,
            old_suspect_penalty: 1,
            new_suspect_divisor: 4,
            threads,
            mshrs: 16,
            attribution: Attribution::Proportional,
        }
    }

    #[test]
    fn an_action_splits_one_unit_by_activations_on_every_channel() {
        let mut m = BreakHammerModel::new(params(3));
        m.activate(0, 0, 1);
        m.activate(0, 1, 2);
        m.activate(1, 1, 3);
        m.preventive_action(0, 4);
        assert_eq!(m.score(0), Ratio::new(2, 3));
        assert_eq!(m.score(1), Ratio::new(1, 3));
        assert_eq!(m.score(2), Ratio::ZERO);
        // No activation since: nothing to charge, nothing tested.
        m.preventive_action(1, 5);
        assert_eq!(m.score(0), Ratio::new(2, 3));
        assert_eq!(m.last_identification(0), None);
    }

    #[test]
    fn a_lone_dominant_thread_is_cut_then_cut_again_then_restored() {
        let mut m = BreakHammerModel::new(params(2));
        for cycle in 0..3 {
            m.activate(0, 0, cycle);
            m.preventive_action(0, cycle);
        }
        // Score 3 ≥ TH_threat 2 and > 1.5 · mean 1.5: a new suspect, 16 / 4.
        assert!(m.is_suspect(0));
        assert_eq!(m.quota(0), 4);
        for cycle in 100..103 {
            m.activate(0, 0, cycle);
            m.preventive_action(0, cycle);
        }
        // Identified again in the next window: a repeat suspect loses one.
        assert_eq!(m.quota(0), 3);
        // The thread goes quiet: window 1 ends with it a suspect, window 2
        // ends with it not identified and restores its quota.
        m.activate(1, 0, 300);
        assert_eq!(m.quota(0), 16);
        assert_eq!(
            m.counters(),
            Counters { suspect_identifications: 2, quota_restorations: 1, windows_completed: 3 }
        );
    }

    #[test]
    fn a_visible_score_holds_two_windows_of_training() {
        let mut m = BreakHammerModel::new(params(1));
        m.activate(0, 0, 10);
        m.preventive_action(0, 10);
        m.activate(0, 0, 110);
        m.preventive_action(0, 110);
        assert_eq!(m.score(0), Ratio::integer(2));
        m.activate(0, 0, 210);
        assert_eq!(m.score(0), Ratio::integer(1));
        m.activate(0, 0, 500);
        assert_eq!(m.score(0), Ratio::ZERO);
    }

    #[test]
    fn equal_scores_are_not_outliers_at_zero_outlier_threshold() {
        let mut m = BreakHammerModel::new(Params { outlier: 0.0, threat: 0.0, ..params(1) });
        for cycle in 0..5 {
            m.activate(0, 0, cycle);
            m.preventive_action(0, cycle);
        }
        let test = m.last_identification(0).unwrap();
        assert_eq!(test.score, test.bound);
        assert!(!test.is_outlier() && test.is_near_a_threshold());
        assert!(!m.is_suspect(0));
    }

    #[test]
    fn a_score_equal_to_the_threat_threshold_is_tested() {
        let test = Identification {
            score: Ratio::integer(2),
            threat: Ratio::integer(2),
            bound: Ratio::ZERO,
        };
        assert!(test.is_outlier());
    }

    #[test]
    fn a_repeat_suspect_can_reach_zero_and_a_new_one_cannot() {
        let mut p = params(2);
        p.mshrs = 3;
        p.old_suspect_penalty = 2;
        let mut m = BreakHammerModel::new(p);
        for window in 0..3 {
            for i in 0..3 {
                m.activate(0, 0, window * 100 + i);
                m.preventive_action(0, window * 100 + i);
            }
        }
        // 3 / 4 → floored at 1, then 1 − 2 saturates at 0 and stays there.
        assert_eq!(m.quota(0), 0);
    }

    #[test]
    fn per_activation_quota_scores_every_quota_activations() {
        let mut m = BreakHammerModel::new(Params {
            attribution: Attribution::PerActivationQuota { quota: 3 },
            ..params(2)
        });
        for cycle in 0..7 {
            m.activate(0, 0, cycle);
        }
        m.preventive_action(0, 8);
        assert_eq!(m.score(0), Ratio::integer(2));
        assert!(m.is_suspect(0));
    }
}
