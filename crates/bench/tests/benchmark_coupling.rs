//! Pins, inside tier-1, two `Debug` renderings that `benchmark/expected/`
//! hashes: `SystemConfig`'s (through `config_digest`, into every pinned
//! `campaign_sweep` cell id) and `SimulationResult`'s (the per-cell
//! fingerprint of the three simulation workloads). Renaming, reordering,
//! adding or removing a field of either — or of a struct nested in them,
//! `SteppingStats` included — changes these hashes; without this test that
//! surfaces only when the benchmark gate reports
//! `sim.fingerprint_drift_cells` ≠ 0.
//!
//! The expected values were computed at commit 0754e95 (PR 17).

use bh_bench::campaign::config_digest;
use bh_bench::{paper_config, Scale};
use bh_dram::FaultConfig;
use bh_mem::SteppingStats;
use bh_mitigation::MechanismKind;
use bh_sim::{ChannelStepping, System, SystemConfig, WatchdogConfig};
use bh_workloads::{AttackerProfile, BenignProfile, TraceGenerator};

const REMEDY: &str = "this text is hashed by `benchmark/expected/`; a change here needs a \
                      `benchmark` PR that re-blesses those files";

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn system_config_debug_text_is_pinned() {
    // Field by field, so a new `Scale` default cannot move the digest.
    let scale = Scale {
        instructions_per_core: 20_000,
        mixes_per_class: 1,
        benign_entries: 5_000,
        attacker_entries: 2_000,
        nrh_values: vec![1024],
        seed: 42,
        worker_threads: 1,
        channels: 1,
        scenarios: Vec::new(),
        fault: FaultConfig::default(),
        watchdog: WatchdogConfig::default(),
    };
    let config = paper_config(MechanismKind::Graphene, 1024, true, &scale);
    assert_eq!(config_digest(&config), "8ceef818c98e86cc", "{REMEDY}\n{config:#?}");
}

#[test]
fn simulation_result_debug_text_is_pinned() {
    // A tiny two-channel attack run with the inert `Parallel` name set: the
    // hash below was computed from serial-equivalent output, so it also pins
    // that `Parallel` yields the serial result.
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(2);
    config.instructions_per_core = 3_000;
    config.stepping = ChannelStepping::Parallel;
    let generator = TraceGenerator::new(config.geometry.clone(), config.memctrl.mapping);
    let mut traces: Vec<_> = ["libquantum", "fotonik3d", "xalancbmk"]
        .iter()
        .zip(100..)
        .map(|(name, seed)| {
            let mut profile = BenignProfile::resolve(name).expect("a library profile");
            profile.footprint_rows = profile.footprint_rows.min(2_000);
            profile.hot_rows = profile.hot_rows.min(16);
            generator.benign(&profile, 1_000, seed)
        })
        .collect();
    let attacker = AttackerProfile::paper_default();
    traces.push(attacker.trace(&config.geometry, config.memctrl.mapping, 1_000, 1_000));

    let mut result = System::new(config, &traces, vec![0, 1, 2]).run();
    result.stepping = SteppingStats::default();
    let text = format!("{result:?}");
    assert_eq!(fnv1a64(&text), 0xa747_4dd6_0deb_3190, "{REMEDY}\n{result:#?}");
}
