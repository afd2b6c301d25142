//! `bh_core::BreakHammer` against `bh_oracle`'s spec model, in lockstep.
//!
//! Each proptest case draws one stream: 1–8 threads on 1–4 channels, either
//! attribution mode, `TH_outlier` and `TH_threat` from lists that include 0,
//! integers and values with ties, a short window, and a few hundred events —
//! row activations (thread, channel, cycle) and preventive actions (channel,
//! cycle) — whose gaps now and then skip several windows at once. At most
//! 24 activations separate two actions, which bounds every exact score's
//! denominator by lcm(1..24) and keeps the oracle's `u128` arithmetic far
//! from overflow.
//!
//! After every event the two models must agree exactly on each thread's
//! quota and suspect flag and on the suspect-identification, restoration and
//! window counters, and on each score within 10⁻⁹ relative. The one excused
//! disagreement is a rounding tie: a suspect flag differs, the exact margin
//! of the test that decided it is within 10⁻⁹ relative of its threshold
//! (`Identification::is_near_a_threshold`), and Alg. 1's test evaluated in
//! `f64` on the implementation's own scores gives the implementation's
//! verdict, so the flip is the rounding's and not the comparison's. The last
//! condition keeps an operator error at an exact tie (`>=` for `>`), whose
//! margin is 0, from passing as a tie. A tie ends its stream; ties are
//! counted and printed. Any other disagreement fails the test and names the
//! event.
//!
//! The cases' totals are checked once the last case has run: the streams
//! must have identified suspects, cut repeat suspects, restored quotas,
//! completed windows and scored in both attribution modes, or a green run
//! would show nothing.

use std::sync::Mutex;

use bh_oracle::{Attribution, BreakHammerModel, Counters, Params};
use breakhammer_suite::breakhammer::{BreakHammer, BreakHammerConfig};
use breakhammer_suite::dram::ThreadId;
use breakhammer_suite::mitigation::ScoreAttribution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Streams per run.
const CASES: u32 = 1000;
/// Most activations between two preventive actions.
const MAX_RUN: u32 = 24;
/// `TH_outlier` values; the last slot draws a multiple of 2⁻²⁰ in [0, 3).
const OUTLIERS: [f64; 6] = [0.0, 0.65, 1.0, 0.5, 2.0, f64::NAN];
/// `TH_threat` values; the last slot draws a multiple of 1/8 in [0, 6).
const THREATS: [f64; 7] = [0.0, 1.0, 2.0, 4.0, 0.5, 3.0, f64::NAN];
/// Window lengths in cycles.
const WINDOWS: [u64; 4] = [16, 60, 250, 1000];

#[derive(Debug, Clone, Copy)]
enum Event {
    Activate { thread: usize, channel: usize, cycle: u64 },
    Action { channel: usize, cycle: u64 },
}

#[derive(Debug)]
struct Stream {
    params: Params,
    channels: usize,
    events: Vec<Event>,
}

/// What one stream showed.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    cases: u32,
    events: u64,
    ties: u64,
    suspects: u64,
    repeat_cuts: u64,
    restorations: u64,
    windows: u64,
    per_activation_suspects: u64,
}

static TOTALS: Mutex<Totals> = Mutex::new(Totals {
    cases: 0,
    events: 0,
    ties: 0,
    suspects: 0,
    repeat_cuts: 0,
    restorations: 0,
    windows: 0,
    per_activation_suspects: 0,
});

/// Builds one stream from the drawn shape and a seed for its events.
fn stream(
    (threads, channels, mode, outlier, threat): (usize, usize, usize, usize, usize),
    (window, mshrs, old_suspect_penalty, new_suspect_divisor): (usize, usize, usize, usize),
    seed: u64,
) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let outlier = match OUTLIERS[outlier] {
        x if x.is_nan() => rng.gen_range(0..3u64 << 20) as f64 / (1u64 << 20) as f64,
        x => x,
    };
    let threat = match THREATS[threat] {
        x if x.is_nan() => rng.gen_range(0..48u64) as f64 / 8.0,
        x => x,
    };
    let attribution = if mode == 2 {
        Attribution::PerActivationQuota { quota: rng.gen_range(1..7) }
    } else {
        Attribution::Proportional
    };
    let window = WINDOWS[window];
    // A few heavy threads, so that outliers exist.
    let weights: Vec<u32> =
        (0..threads).map(|_| if rng.gen_bool(0.3) { rng.gen_range(5..40) } else { 1 }).collect();
    let total_weight: u32 = weights.iter().sum();
    let action_rate = rng.gen_range(0.05..0.5);
    let (mut events, mut cycle, mut run) = (Vec::new(), 0, 0);
    for _ in 0..rng.gen_range(150..400) {
        cycle += if rng.gen_bool(0.03) {
            rng.gen_range(1..5u64) * window + rng.gen_range(0..window)
        } else {
            rng.gen_range(0..=window / 8)
        };
        let channel = rng.gen_range(0..channels);
        if run == MAX_RUN || rng.gen_bool(action_rate) {
            events.push(Event::Action { channel, cycle });
            run = 0;
        } else {
            let mut pick = rng.gen_range(0..total_weight);
            let thread = weights
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("a weight covers every draw");
            events.push(Event::Activate { thread, channel, cycle });
            run += 1;
        }
    }
    let params = Params {
        window,
        threat,
        outlier,
        old_suspect_penalty,
        new_suspect_divisor,
        threads,
        mshrs,
        attribution,
    };
    Stream { params, channels, events }
}

/// The implementation under test, configured as the model.
fn implementation(stream: &Stream) -> BreakHammer {
    let p = &stream.params;
    let config = BreakHammerConfig {
        window_cycles: p.window,
        threat_threshold: p.threat,
        outlier_threshold: p.outlier,
        old_suspect_penalty: p.old_suspect_penalty,
        new_suspect_divisor: p.new_suspect_divisor,
        num_threads: p.threads,
        total_mshrs: p.mshrs,
    };
    let attribution = match p.attribution {
        Attribution::Proportional => ScoreAttribution::ProportionalToActivations,
        Attribution::PerActivationQuota { quota } => ScoreAttribution::PerActivationQuota { quota },
    };
    let mut bh = BreakHammer::new(config, attribution);
    bh.declare_channels(stream.channels);
    bh
}

/// Alg. 1's verdict for `thread`, evaluated in `f64` on `scores`.
fn f64_verdict(scores: &[f64], thread: usize, params: &Params) -> bool {
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let score = scores[thread];
    score >= params.threat && score > (1.0 + params.outlier) * mean
}

/// Runs both models over `stream`, panicking at the first disagreement that
/// is not a rounding tie, and returns what the stream showed.
fn lockstep(stream: &Stream) -> Totals {
    let mut bh = implementation(stream);
    let mut model = BreakHammerModel::new(stream.params.clone());
    let threads = stream.params.threads;
    let mut totals = Totals { cases: 1, ..Totals::default() };
    let mut quotas: Vec<usize> = vec![stream.params.mshrs; threads];
    for (i, &event) in stream.events.iter().enumerate() {
        match event {
            Event::Activate { thread, channel, cycle } => {
                bh.on_activation(ThreadId(thread), cycle);
                model.activate(thread, channel, cycle);
            }
            Event::Action { channel, cycle } => {
                bh.on_preventive_action_from(channel, cycle);
                model.preventive_action(channel, cycle);
            }
        }
        let at = || format!("event {i} ({event:?}) of {stream:?}");
        for t in 0..threads {
            let (got, want) = (bh.is_suspect(ThreadId(t)), model.is_suspect(t));
            if got == want {
                continue;
            }
            let test = model.last_identification(t).unwrap_or_else(|| {
                panic!("thread {t}: suspect {got}, model {want}, no test ran; {}", at())
            });
            let tie =
                test.is_near_a_threshold() && f64_verdict(bh.scores(), t, &stream.params) == got;
            assert!(tie, "thread {t}: suspect {got}, model {want} on {test:?}; {}", at());
            println!("rounding tie at event {i}, thread {t}: {test:?}");
            totals.ties += 1;
            totals.events += i as u64 + 1;
            return totals;
        }
        for (t, quota) in quotas.iter_mut().enumerate() {
            let (got, want) = (bh.quota(ThreadId(t)), model.quota(t));
            assert_eq!(got, want, "thread {t}: quota; {}", at());
            if got < *quota && *quota < stream.params.mshrs {
                totals.repeat_cuts += 1;
            }
            *quota = got;
            let (got, want) = (bh.score(ThreadId(t)), model.score(t).to_f64());
            assert!(
                (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
                "thread {t}: score {got}, model {want:?}; {}",
                at()
            );
        }
        let stats = bh.stats();
        let got = Counters {
            suspect_identifications: stats.suspect_identifications,
            quota_restorations: stats.quota_restorations,
            windows_completed: stats.windows_completed,
        };
        assert_eq!(got, model.counters(), "counters; {}", at());
    }
    let counters = model.counters();
    totals.events += stream.events.len() as u64;
    totals.suspects += counters.suspect_identifications;
    totals.restorations += counters.quota_restorations;
    totals.windows += counters.windows_completed;
    if stream.params.attribution != Attribution::Proportional {
        totals.per_activation_suspects += counters.suspect_identifications;
    }
    totals
}

/// Adds one stream's totals; after the last case, prints them and checks
/// that the streams exercised every path the differential is for.
fn record(stream: Totals) {
    let mut totals = TOTALS.lock().unwrap_or_else(|e| e.into_inner());
    totals.cases += stream.cases;
    totals.events += stream.events;
    totals.ties += stream.ties;
    totals.suspects += stream.suspects;
    totals.repeat_cuts += stream.repeat_cuts;
    totals.restorations += stream.restorations;
    totals.windows += stream.windows;
    totals.per_activation_suspects += stream.per_activation_suspects;
    if totals.cases < CASES {
        return;
    }
    println!("{totals:?}");
    assert!(
        totals.ties * 10 < u64::from(CASES),
        "{} of {CASES} streams ended in a tie",
        totals.ties
    );
    assert!(totals.suspects >= 100 && totals.repeat_cuts >= 20, "{totals:?}");
    assert!(totals.restorations >= 20 && totals.windows >= 1000, "{totals:?}");
    assert!(totals.per_activation_suspects >= 10, "{totals:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn breakhammer_matches_its_spec_model(
        shape in (1usize..=8, 1usize..=4, 0usize..3, 0..OUTLIERS.len(), 0..THREATS.len()),
        sizes in (0..WINDOWS.len(), 1usize..=64, 0usize..=3, 2usize..=12),
        seed in any::<u64>(),
    ) {
        record(lockstep(&stream(shape, sizes, seed)));
    }
}
