//! Workload-mix construction (§7 of the paper).
//!
//! The paper evaluates 90 four-core mixes of benign applications grouped by
//! memory intensity (HHHH, HHMM, MMMM, HHLL, MMLL, LLLL — 15 mixes each) and
//! 90 four-core mixes in which one application is replaced by the attacker
//! (HHHA, HHMA, MMMA, HLLA, MMLA, LLLA). This module builds those mixes from
//! the synthetic profile library, deterministically from a seed.

use crate::attacker::AttackerProfile;
use crate::compose::ComposedAttacker;
use crate::generator::TraceGenerator;
use crate::profile::{BenignProfile, IntensityClass};
use crate::scenario::AttackScenario;
use crate::victim::VictimRow;
use bh_cpu::CompiledTrace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One slot of a four-core mix.
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SlotClass {
    /// A benign application of the given intensity class.
    Benign(IntensityClass),
    /// The attacker.
    Attacker,
}

impl SlotClass {
    /// Single-letter label (H/M/L/A).
    pub(crate) fn letter(self) -> char {
        match self {
            SlotClass::Benign(c) => c.letter(),
            SlotClass::Attacker => 'A',
        }
    }
}

/// A mix class: the intensity composition of the four cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixClass {
    /// The four slots.
    pub slots: [SlotClass; 4],
}

impl MixClass {
    /// Label such as `"HHMM"` or `"HHHA"`.
    pub fn label(&self) -> String {
        self.slots.iter().map(|s| s.letter()).collect()
    }

    /// The six all-benign mix classes of §7 (HHHH, HHMM, MMMM, HHLL, MMLL,
    /// LLLL).
    pub fn benign_classes() -> Vec<MixClass> {
        use IntensityClass::*;
        use SlotClass::Benign;
        [
            [High, High, High, High],
            [High, High, Medium, Medium],
            [Medium, Medium, Medium, Medium],
            [High, High, Low, Low],
            [Medium, Medium, Low, Low],
            [Low, Low, Low, Low],
        ]
        .into_iter()
        .map(|cls| MixClass {
            slots: [Benign(cls[0]), Benign(cls[1]), Benign(cls[2]), Benign(cls[3])],
        })
        .collect()
    }

    /// The six attacker mix classes of §8.1 (HHHA, HHMA, MMMA, HLLA, MMLA,
    /// LLLA). The attacker always occupies the last core.
    pub fn attack_classes() -> Vec<MixClass> {
        use IntensityClass::*;
        use SlotClass::{Attacker, Benign};
        [
            [High, High, High],
            [High, High, Medium],
            [Medium, Medium, Medium],
            [High, Low, Low],
            [Medium, Medium, Low],
            [Low, Low, Low],
        ]
        .into_iter()
        .map(|cls| MixClass { slots: [Benign(cls[0]), Benign(cls[1]), Benign(cls[2]), Attacker] })
        .collect()
    }
}

/// A concrete four-core workload: one compiled trace per hardware thread.
///
/// Traces are compiled once at build time (per distinct trace of a
/// [`SuitePlan`]) and shared by reference from
/// then on: cloning a `WorkloadMix` — e.g. to hand
/// it to every worker of a campaign matrix — bumps reference counts instead
/// of deep-copying tens of thousands of trace records per configuration.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Mix name, e.g. `"HHMA-03"`.
    pub name: String,
    /// The mix class this workload belongs to.
    pub class: MixClass,
    /// Names of the applications on each core.
    pub app_names: Vec<String>,
    /// One compiled (shareable) trace per core.
    pub traces: Vec<CompiledTrace>,
    /// Index of the attacker core, if any.
    pub attacker_thread: Option<usize>,
    /// The rows holding victim data (declared by the attacker's
    /// [`ComposedAttacker::victim_rows`]); empty for all-benign mixes. The
    /// simulator watches these and reports per-victim disturbance.
    pub victim_rows: Vec<VictimRow>,
    /// The catalog scenario this mix was built under, if any (matches the
    /// suffix in [`WorkloadMix::name`]).
    pub scenario: Option<String>,
    /// What counts as a successful attack on the victim rows (declared by
    /// [`ComposedAttacker::success_criterion`]; the default for all-benign
    /// mixes).
    pub success_criterion: bh_dram::SuccessCriterion,
}

impl WorkloadMix {
    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Indices of the benign cores.
    pub fn benign_threads(&self) -> Vec<usize> {
        (0..self.cores()).filter(|i| Some(*i) != self.attacker_thread).collect()
    }
}

/// Builds workload mixes from the profile library.
#[derive(Debug, Clone)]
pub struct MixBuilder {
    generator: TraceGenerator,
    attacker: ComposedAttacker,
    /// Trace records generated per benign core.
    pub benign_entries: usize,
    /// Trace records generated for the attacker core.
    pub attacker_entries: usize,
    /// The catalog scenario whose name is appended to mix names (e.g.
    /// `"fuzz-nbr"`), so scenario variants of the same class and index stay
    /// distinguishable in result tables; `None` for a profile attacker.
    scenario: Option<&'static str>,
}

impl MixBuilder {
    /// Creates a builder for the paper's system configuration.
    pub fn new(generator: TraceGenerator) -> Self {
        MixBuilder {
            generator,
            attacker: AttackerProfile::paper_default().compose(),
            benign_entries: 20_000,
            attacker_entries: 8_000,
            scenario: None,
        }
    }

    /// Overrides the attacker with a classic profile; mix names carry no
    /// scenario suffix.
    pub fn with_attacker(mut self, attacker: AttackerProfile) -> Self {
        self.attacker = attacker.compose();
        self.scenario = None;
        self
    }

    /// Configures the builder for a catalog scenario: its composed attacker,
    /// with the scenario name as the mix-name suffix.
    pub fn with_scenario(mut self, scenario: &AttackScenario) -> Self {
        self.attacker = scenario.attacker;
        self.scenario = Some(scenario.name);
        self
    }

    /// Builds the `index`-th workload of `class`, deterministically from
    /// `seed`.
    pub fn build(&self, class: MixClass, index: usize, seed: u64) -> WorkloadMix {
        let mut plan = self.plan(seed);
        plan.add(class, index);
        plan.build().pop().expect("the plan holds one mix")
    }

    /// An empty suite of mixes generated from `seed`.
    pub fn plan(&self, seed: u64) -> SuitePlan<'_> {
        SuitePlan {
            builder: self,
            seed,
            traces: Vec::new(),
            ids: BTreeMap::new(),
            mixes: Vec::new(),
        }
    }
}

/// A suite of mixes whose applications are drawn but whose traces are not
/// generated yet.
///
/// The plan lists each distinct trace its mixes replay once: neither the
/// application draw nor the trace seed depends on the mix class, so at one
/// index every class with the same application in a slot shares that trace,
/// and every attack class shares one attacker trace.
/// [`SuitePlan::build_with`] generates the distinct traces with a caller's
/// runner (one thread or a pool: each trace is a pure function of the plan
/// and its index) and assembles the mixes, whose equal traces share one
/// storage.
///
/// # Example
///
/// ```
/// use bh_workloads::{MixBuilder, MixClass, TraceGenerator};
///
/// let mut builder = MixBuilder::new(TraceGenerator::paper_default());
/// builder.benign_entries = 500;
/// builder.attacker_entries = 500;
/// let mut plan = builder.plan(42);
/// for class in MixClass::attack_classes() {
///     plan.add(class, 0);
/// }
/// // One thread per distinct trace.
/// let mixes = plan.build_with(|n, generate| {
///     std::thread::scope(|s| {
///         let handles: Vec<_> = (0..n).map(|i| s.spawn(move || generate(i))).collect();
///         handles.into_iter().map(|h| h.join().expect("trace generated")).collect()
///     })
/// });
/// assert_eq!(mixes[0].traces, builder.build(MixClass::attack_classes()[0], 0, 42).traces);
/// ```
#[derive(Debug)]
pub struct SuitePlan<'a> {
    builder: &'a MixBuilder,
    seed: u64,
    /// Each distinct trace: the benign profile it replays (`None`: the
    /// builder's attacker) at a trace seed. The builder fixes the generator,
    /// both entry counts and the attacker, so this determines the trace.
    traces: Vec<(Option<BenignProfile>, u64)>,
    /// The index into `traces` of each (profile name, trace seed); the
    /// attacker's key has no name.
    ids: BTreeMap<(Option<&'static str>, u64), usize>,
    /// Each planned mix (its `traces` still empty) and, per slot, the index
    /// into `traces` of the trace it replays.
    mixes: Vec<(WorkloadMix, Vec<usize>)>,
}

impl SuitePlan<'_> {
    /// Adds the `index`-th mix of `class`, as [`MixBuilder::build`] builds it.
    pub fn add(&mut self, class: MixClass, index: usize) {
        let (builder, seed) = (self.builder, self.seed);
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(index as u64));
        let mut slots = Vec::with_capacity(4);
        let mut app_names = Vec::with_capacity(4);
        let mut attacker_thread = None;
        for (slot, spec) in class.slots.iter().enumerate() {
            let (profile, trace_seed) = match spec {
                SlotClass::Benign(intensity) => {
                    let candidates = BenignProfile::of_class(*intensity);
                    let profile =
                        candidates.choose(&mut rng).expect("profile library covers every class");
                    app_names.push(profile.name.to_string());
                    (Some(profile.clone()), seed ^ ((index as u64) << 16) ^ ((slot as u64) << 32))
                }
                SlotClass::Attacker => {
                    attacker_thread = Some(slot);
                    app_names.push("attacker".to_string());
                    (None, seed ^ ((index as u64) << 16) ^ 0xdead)
                }
            };
            let traces = &mut self.traces;
            let key = (profile.as_ref().map(|p| p.name), trace_seed);
            slots.push(*self.ids.entry(key).or_insert_with(|| {
                traces.push((profile, trace_seed));
                traces.len() - 1
            }));
        }
        let name = match builder.scenario {
            Some(suffix) => format!("{}-{suffix}-{index:02}", class.label()),
            None => format!("{}-{index:02}", class.label()),
        };
        let attacked = attacker_thread.is_some();
        let mix = WorkloadMix {
            name,
            class,
            app_names,
            traces: Vec::new(),
            attacker_thread,
            victim_rows: if attacked {
                builder.attacker.victim_rows(builder.generator.geometry())
            } else {
                Vec::new()
            },
            scenario: builder.scenario.map(String::from),
            success_criterion: if attacked {
                builder.attacker.success_criterion()
            } else {
                bh_dram::SuccessCriterion::default()
            },
        };
        self.mixes.push((mix, slots));
    }

    /// Generates and compiles distinct trace `i`.
    fn generate(&self, i: usize) -> CompiledTrace {
        let builder = self.builder;
        let generator = &builder.generator;
        let trace = match &self.traces[i] {
            (Some(profile), seed) => generator.benign(profile, builder.benign_entries, *seed),
            (None, seed) => builder.attacker.trace(
                generator.geometry(),
                generator.mapping(),
                builder.attacker_entries,
                *seed,
            ),
        };
        trace.compile()
    }

    /// The planned mixes, in the order they were added.
    ///
    /// `run(n, generate)` must return `generate(0)`, …, `generate(n - 1)` in
    /// index order, as `(0..n).map(generate).collect()` does; it may call
    /// them in any order and on any threads.
    ///
    /// # Panics
    /// Panics if `run` returns other than `n` traces.
    pub fn build_with(
        self,
        run: impl FnOnce(usize, &(dyn Fn(usize) -> CompiledTrace + Sync)) -> Vec<CompiledTrace>,
    ) -> Vec<WorkloadMix> {
        let n = self.traces.len();
        let traces = run(n, &|i| self.generate(i));
        assert_eq!(traces.len(), n, "one trace per distinct trace of the plan");
        self.mixes
            .into_iter()
            .map(|(mix, slots)| WorkloadMix {
                traces: slots.iter().map(|&i| traces[i].clone()).collect(),
                ..mix
            })
            .collect()
    }

    /// [`SuitePlan::build_with`] with the traces generated one after another.
    fn build(self) -> Vec<WorkloadMix> {
        self.build_with(|n, generate| (0..n).map(generate).collect())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;

    fn builder() -> MixBuilder {
        let mut b = MixBuilder::new(TraceGenerator::paper_default());
        b.benign_entries = 2_000;
        b.attacker_entries = 1_000;
        b
    }

    /// `per_class` mixes of each of `classes`, built as one plan.
    fn planned_suite(
        b: &MixBuilder,
        classes: &[MixClass],
        per_class: usize,
        seed: u64,
    ) -> Vec<WorkloadMix> {
        let mut plan = b.plan(seed);
        for &class in classes {
            for index in 0..per_class {
                plan.add(class, index);
            }
        }
        plan.build()
    }

    #[test]
    fn class_labels_match_the_paper() {
        let benign: Vec<String> = MixClass::benign_classes().iter().map(MixClass::label).collect();
        assert_eq!(benign, vec!["HHHH", "HHMM", "MMMM", "HHLL", "MMLL", "LLLL"]);
        let attack: Vec<String> = MixClass::attack_classes().iter().map(MixClass::label).collect();
        assert_eq!(attack, vec!["HHHA", "HHMA", "MMMA", "HLLA", "MMLA", "LLLA"]);
        let has_attacker = |c: &MixClass| c.slots.iter().any(|s| matches!(s, SlotClass::Attacker));
        assert!(MixClass::attack_classes().iter().all(has_attacker));
        assert!(!MixClass::benign_classes().iter().any(has_attacker));
    }

    #[test]
    fn built_mix_has_four_cores_and_marks_the_attacker() {
        let b = builder();
        let class = MixClass::attack_classes()[0];
        let mix = b.build(class, 3, 42);
        assert_eq!(mix.cores(), 4);
        assert_eq!(mix.attacker_thread, Some(3));
        assert_eq!(mix.benign_threads(), vec![0, 1, 2]);
        assert_eq!(mix.name, "HHHA-03");
        assert_eq!(mix.app_names.len(), 4);
        assert_eq!(mix.app_names[3], "attacker");
        assert!(mix.traces[3].to_trace().entries().iter().all(|e| e.uncached));
        assert!(mix.traces[0].to_trace().entries().iter().all(|e| !e.uncached));
    }

    #[test]
    fn benign_mixes_have_no_attacker() {
        let b = builder();
        let mix = b.build(MixClass::benign_classes()[2], 0, 7);
        assert_eq!(mix.attacker_thread, None);
        assert_eq!(mix.benign_threads(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn suite_generation_produces_the_requested_count() {
        let b = builder();
        let suite = planned_suite(&b, &MixClass::attack_classes(), 2, 1);
        assert_eq!(suite.len(), 12);
        // Names are unique.
        let names: std::collections::HashSet<_> = suite.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 12);
    }

    /// Attack classes followed by benign classes, as a campaign builds them.
    fn all_classes() -> Vec<MixClass> {
        MixClass::attack_classes().into_iter().chain(MixClass::benign_classes()).collect()
    }

    #[test]
    fn suite_equals_mix_by_mix_builds() {
        let b = builder();
        let classes = all_classes();
        for per_class in [1, 3] {
            for seed in [42, 7] {
                let suite = planned_suite(&b, &classes, per_class, seed);
                assert_eq!(suite.len(), classes.len() * per_class);
                let singles = classes
                    .iter()
                    .flat_map(|&class| (0..per_class).map(move |index| (class, index)))
                    .map(|(class, index)| b.build(class, index, seed));
                for (memoized, single) in suite.iter().zip(singles) {
                    let context = format!("{} (per_class {per_class}, seed {seed})", single.name);
                    assert_eq!(memoized.name, single.name, "{context}");
                    assert_eq!(memoized.class, single.class, "{context}");
                    assert_eq!(memoized.app_names, single.app_names, "{context}");
                    assert_eq!(memoized.traces, single.traces, "{context}");
                    assert_eq!(memoized.attacker_thread, single.attacker_thread, "{context}");
                    assert_eq!(memoized.victim_rows, single.victim_rows, "{context}");
                    assert_eq!(memoized.scenario, single.scenario, "{context}");
                    assert_eq!(memoized.success_criterion, single.success_criterion, "{context}");
                }
            }
        }
    }

    #[test]
    fn suite_mixes_share_the_storage_of_equal_traces() {
        let per_class = 3;
        let suite = planned_suite(&builder(), &all_classes(), per_class, 42);
        let mut shared_benign = 0;
        for (i, a) in suite.iter().enumerate() {
            let index_a = i % per_class;
            for (j, b) in suite.iter().enumerate().skip(i + 1) {
                let index_b = j % per_class;
                for slot in 0..4 {
                    let attacker = [a, b].map(|m| m.attacker_thread == Some(slot));
                    let same_key = if index_a != index_b {
                        false
                    } else if attacker[0] || attacker[1] {
                        attacker[0] && attacker[1]
                    } else {
                        a.app_names[slot] == b.app_names[slot]
                    };
                    let shared = a.traces[slot].shares_storage(&b.traces[slot]);
                    assert_eq!(shared, same_key, "{} / {} slot {slot}", a.name, b.name);
                    if shared && !attacker[0] {
                        shared_benign += 1;
                    }
                }
            }
        }
        assert!(shared_benign > 0, "classes at one index share benign traces");
        // Every attack class at one index replays one attacker trace.
        let attacker_traces: Vec<_> =
            suite.iter().filter(|m| m.attacker_thread.is_some()).map(|m| &m.traces[3]).collect();
        let distinct = (0..attacker_traces.len())
            .filter(|&i| !attacker_traces[..i].iter().any(|t| t.shares_storage(attacker_traces[i])))
            .count();
        assert_eq!(distinct, per_class);
    }

    #[test]
    fn attack_mixes_declare_victim_rows_and_benign_mixes_do_not() {
        let b = builder();
        let attack = b.build(MixClass::attack_classes()[0], 0, 42);
        assert!(!attack.victim_rows.is_empty());
        assert_eq!(attack.scenario, None, "profile attackers keep untagged names");
        let benign = b.build(MixClass::benign_classes()[0], 0, 42);
        assert!(benign.victim_rows.is_empty());
    }

    #[test]
    fn scenario_builders_tag_names_and_keep_benign_cores_identical() {
        use crate::scenario::scenario_catalog;

        let b = builder();
        let class = MixClass::attack_classes()[0];
        let plain = b.build(class, 0, 42);
        for scenario in scenario_catalog() {
            let mix = b.clone().with_scenario(&scenario).build(class, 0, 42);
            assert_eq!(mix.name, format!("HHHA-{}-00", scenario.name));
            assert_eq!(mix.scenario.as_deref(), Some(scenario.name));
            assert!(!mix.victim_rows.is_empty(), "{}", scenario.name);
            // Only the attacker core differs from the plain build.
            for t in plain.benign_threads() {
                assert_eq!(plain.traces[t], mix.traces[t], "{}", scenario.name);
            }
        }
    }

    #[test]
    fn composed_attackers_without_tags_keep_plain_names() {
        // A profile attacker set after a scenario replaces its name suffix
        // along with its attacker.
        let scenario = crate::scenario::scenario_catalog().remove(0);
        let mix = builder()
            .with_scenario(&scenario)
            .with_attacker(AttackerProfile::double_sided())
            .build(MixClass::attack_classes()[0], 1, 7);
        assert_eq!(mix.name, "HHHA-01");
        assert_eq!(mix.scenario, None);
        let plain = builder().with_attacker(AttackerProfile::double_sided());
        assert_eq!(mix.traces, plain.build(MixClass::attack_classes()[0], 1, 7).traces);
    }

    #[test]
    fn mix_construction_is_deterministic() {
        let b = builder();
        let class = MixClass::attack_classes()[1];
        let a = b.build(class, 5, 99);
        let c = b.build(class, 5, 99);
        assert_eq!(a.app_names, c.app_names);
        assert_eq!(a.traces, c.traces);
        // Different indices give different application selections or traces.
        let d = b.build(class, 6, 99);
        assert!(a.app_names != d.app_names || a.traces != d.traces);
    }
}
