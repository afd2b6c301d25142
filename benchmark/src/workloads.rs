//! The benchmark's workloads: which mixes are generated and which
//! (configuration × mix) cells are simulated. Why each exists is recorded in
//! `README.md` and `BENCHMARK.json`.

use bh_bench::{paper_config, CampaignSpec, Scale};
use bh_core::BreakHammerConfig;
use bh_dram::{DramGeometry, FaultConfig};
use bh_mem::AddressMapping;
use bh_mitigation::MechanismKind::{self, Graphene, Hydra, Para, Rfm, Twice};
use bh_sim::{SystemConfig, WatchdogConfig};
use bh_workloads::{
    AttackerProfile, ComposedAttacker, IntensityClass, MixClass, SlotClass, TraceGenerator,
    WorkloadMix,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["attack_paper", "benign_paper", "scaled_4ch", "campaign_sweep"];

/// The seed the files under `expected/` were blessed with.
pub const BLESSED_SEED: u64 = 42;

/// Trace records per benign application / for the attacker (the repo's
/// defaults, stated here because `Scale` is never read from the environment).
const BENIGN_ENTRIES: usize = 20_000;
const ATTACKER_ENTRIES: usize = 8_000;

/// Instructions per core in `--smoke` runs of every workload.
const SMOKE_INSTRUCTIONS: u64 = 10_000;

/// Never more than two threads, whatever the host offers.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// A `Scale` built field by field — `Scale::from_env` would let `BH_*`
/// variables change the run.
pub fn scale(seed: u64, instructions: u64, mixes_per_class: usize, nrh_values: Vec<u64>) -> Scale {
    Scale {
        instructions_per_core: instructions,
        mixes_per_class,
        benign_entries: BENIGN_ENTRIES,
        attacker_entries: ATTACKER_ENTRIES,
        nrh_values,
        seed,
        worker_threads: worker_threads(),
        channels: 1,
        scenarios: Vec::new(),
        fault: FaultConfig::default(),
        watchdog: WatchdogConfig::default(),
    }
}

/// One simulated cell: a configuration run against one of the workload's
/// mixes. Its id doubles as the key in `expected/<workload>.seed42.txt`.
#[derive(Debug, Clone)]
pub struct Cell {
    pub id: String,
    pub config: SystemConfig,
    /// Index into [`SimWorkload::mixes`].
    pub mix: usize,
}

/// A generated simulation workload: compiled mixes plus the cell list.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub mixes: Vec<WorkloadMix>,
    pub cells: Vec<Cell>,
    /// The cell the per-layer harnesses and execution-mode trials replay.
    /// Under attack it is a cell *without* BreakHammer: the harnesses are
    /// open loop, so they cannot reproduce the throttling that shortens a
    /// BreakHammer cell's request stream, and would replay a stream the
    /// coupled run never saw.
    pub designated: usize,
}

impl SimWorkload {
    /// Trace records over all mixes (`workloads.trace_entries`).
    pub fn trace_entries(&self) -> u64 {
        self.mixes.iter().flat_map(|m| &m.traces).map(|t| t.len() as u64).sum()
    }

    /// The mechanisms the workload exercises, with the threshold each first
    /// appears at, in cell order (`mitigation.on_activation_ns.<Mechanism>`).
    pub fn mechanisms(&self) -> Vec<(MechanismKind, u64)> {
        let mut out: Vec<(MechanismKind, u64)> = Vec::new();
        for cell in &self.cells {
            let kind = cell.config.mechanism;
            if kind != MechanismKind::None && out.iter().all(|(k, _)| *k != kind) {
                out.push((kind, cell.config.nrh));
            }
        }
        out
    }
}

fn cell_id(mix: &WorkloadMix, config: &SystemConfig) -> String {
    let bh = if config.breakhammer { "+BH" } else { "" };
    format!("{}/{}@{}{bh}", mix.name, config.mechanism.label(), config.nrh)
}

fn cells(mixes: &[WorkloadMix], grid: &[(usize, SystemConfig)]) -> Vec<Cell> {
    grid.iter()
        .map(|(mix, config)| Cell {
            id: cell_id(&mixes[*mix], config),
            config: config.clone(),
            mix: *mix,
        })
        .collect()
}

fn paper_generator() -> TraceGenerator {
    TraceGenerator::new(DramGeometry::paper_ddr5(), AddressMapping::paper_default())
}

/// The library applications the k-th slot of each intensity runs.
fn applications(intensity: IntensityClass) -> [&'static str; 4] {
    match intensity.letter() {
        'H' => ["libquantum", "fotonik3d", "gemsfdtd", "lbm17"],
        'M' => ["tpcc", "ycsb-a", "xalancbmk", "cactusadm"],
        _ => ["h264-dec", "ycsb-c", "povray", "calculix"],
    }
}

/// Builds the `index`-0 mix of `class` with a *fixed* application per slot
/// ([`applications`]); `seed` drives the trace contents only.
///
/// `MixBuilder::build` draws the applications from the seed as well, and the
/// draw decides how memory-bound the mix is: over seeds 1..10 it moved
/// `sim_mips` by 40 % on every simulation workload (README, "Seeds"), which
/// no regression bound survives. Everything else mirrors `MixBuilder::build`
/// — names, per-slot trace seeds, victim rows, success criterion.
fn fixed_mix(
    generator: &TraceGenerator,
    attacker: &ComposedAttacker,
    class: MixClass,
    seed: u64,
) -> WorkloadMix {
    let mut traces = Vec::with_capacity(class.slots.len());
    let mut app_names = Vec::with_capacity(class.slots.len());
    let mut attacker_thread = None;
    for (slot, spec) in class.slots.iter().enumerate() {
        if let SlotClass::Benign(intensity) = spec {
            let earlier_of_intensity = class.slots[..slot].iter().filter(|s| *s == spec).count();
            let name = applications(*intensity)[earlier_of_intensity];
            let trace_seed = seed ^ ((slot as u64) << 32);
            let trace = generator
                .benign_named(name, BENIGN_ENTRIES, trace_seed)
                .expect("the applications are library profiles");
            traces.push(trace.compile());
            app_names.push(name.to_string());
        } else {
            attacker_thread = Some(slot);
            let trace = attacker.trace(
                generator.geometry(),
                generator.mapping(),
                ATTACKER_ENTRIES,
                seed ^ 0xdead,
            );
            traces.push(trace.compile());
            app_names.push("attacker".to_string());
        }
    }
    let attacked = attacker_thread.is_some();
    WorkloadMix {
        name: format!("{}-00", class.label()),
        class,
        app_names,
        traces,
        attacker_thread,
        victim_rows: if attacked { attacker.victim_rows(generator.geometry()) } else { Vec::new() },
        scenario: None,
        success_criterion: if attacked { attacker.success_criterion() } else { Default::default() },
    }
}

/// Table-1 system under attack: two mixes × six protected configurations ×
/// BreakHammer off/on = 24 cells.
fn attack_paper(seed: u64, smoke: bool) -> SimWorkload {
    let instructions = if smoke { SMOKE_INSTRUCTIONS } else { 100_000 };
    let scale = scale(seed, instructions, 1, Vec::new());
    let generator = paper_generator();
    let attacker = AttackerProfile::paper_default().compose();
    let classes = MixClass::attack_classes();
    // HHHA and LLLA: the most and the least memory-intensive benign company.
    let mixes: Vec<WorkloadMix> = [classes[0], classes[5]]
        .iter()
        .map(|class| fixed_mix(&generator, &attacker, *class, seed))
        .collect();
    // Hydra runs at 128: at 64 with BreakHammer it lets 1–4 bits flip under
    // HHHA at every seed tried, and a baseline with flips in it cannot pin
    // "a speed-only PR keeps `dram.bitflip_cells` at 0" (README, "Findings").
    let protections =
        [(Graphene, 1024), (Graphene, 64), (Para, 64), (Hydra, 128), (Twice, 64), (Rfm, 64)];
    let mut grid = Vec::new();
    for mix in 0..mixes.len() {
        for (mechanism, nrh) in protections {
            for breakhammer in [false, true] {
                grid.push((mix, paper_config(mechanism, nrh, breakhammer, &scale)));
            }
        }
    }
    let cells = cells(&mixes, &grid);
    let designated = cells
        .iter()
        .position(|c| {
            c.mix == 0
                && c.config.mechanism == Graphene
                && c.config.nrh == 64
                && !c.config.breakhammer
        })
        .expect("HHHA-00/Graphene@64 is in the grid");
    SimWorkload { mixes, cells, designated }
}

/// Table-1 system without an attacker: the six all-benign classes ×
/// {no defense, Graphene@1024+BH} = 12 cells.
fn benign_paper(seed: u64, smoke: bool) -> SimWorkload {
    let instructions = if smoke { SMOKE_INSTRUCTIONS } else { 500_000 };
    let scale = scale(seed, instructions, 1, Vec::new());
    let generator = paper_generator();
    let attacker = AttackerProfile::paper_default().compose();
    let mixes: Vec<WorkloadMix> = MixClass::benign_classes()
        .iter()
        .map(|class| fixed_mix(&generator, &attacker, *class, seed))
        .collect();
    let mut grid = Vec::new();
    for mix in 0..mixes.len() {
        grid.push((mix, paper_config(MechanismKind::None, 1024, false, &scale)));
        grid.push((mix, paper_config(Graphene, 1024, true, &scale)));
    }
    let cells = cells(&mixes, &grid);
    // HHHH-00 under Graphene@1024+BH.
    SimWorkload { mixes, cells, designated: 1 }
}

/// The `fast_test`-scaled system sharded over four channels: small LLC (so
/// writebacks reach DRAM), short refresh interval and 10 k-cycle BreakHammer
/// windows (so they roll over) — 7 cells.
fn scaled_4ch(seed: u64, smoke: bool) -> SimWorkload {
    let instructions = if smoke { SMOKE_INSTRUCTIONS } else { 300_000 };
    let config = |mechanism, nrh, breakhammer| {
        let mut config = SystemConfig::fast_test(mechanism, nrh, breakhammer).with_channels(4);
        config.breakhammer_config =
            Some(BreakHammerConfig::fast_test(config.cores, config.cache.mshrs));
        config.instructions_per_core = instructions;
        config.max_dram_cycles = 400 * instructions;
        config.seed = seed;
        config
    };
    let reference = config(Graphene, 256, true);
    let generator = TraceGenerator::new(reference.geometry.clone(), reference.memctrl.mapping);
    let attacker = AttackerProfile::paper_default().interleaved_channels().compose();
    let mixes = vec![
        fixed_mix(&generator, &attacker, MixClass::attack_classes()[0], seed),
        fixed_mix(&generator, &attacker, MixClass::benign_classes()[0], seed),
    ];
    let mut grid = Vec::new();
    for (mechanism, nrh) in [(Graphene, 256), (Para, 64), (Hydra, 64)] {
        for breakhammer in [false, true] {
            grid.push((0, config(mechanism, nrh, breakhammer)));
        }
    }
    grid.push((1, reference));
    let cells = cells(&mixes, &grid);
    // HHHA under Graphene@256.
    SimWorkload { mixes, cells, designated: 0 }
}

/// Generates simulation workload `name` from `seed`; `None` for a name that
/// is not a simulation workload.
pub fn build_sim(name: &str, seed: u64, smoke: bool) -> Option<SimWorkload> {
    match name {
        "attack_paper" => Some(attack_paper(seed, smoke)),
        "benign_paper" => Some(benign_paper(seed, smoke)),
        "scaled_4ch" => Some(scaled_4ch(seed, smoke)),
        _ => None,
    }
}

/// Suites (generation seeds) one `campaign_sweep` sweeps.
///
/// `Campaign::new` draws every mix's applications from the generation seed,
/// and the draw decides the suite's weight: over 60 seeds the simulated DRAM
/// cycles of a one-seed grid have a quartile distance of 33 % of their
/// median (20 % with two mixes per class), so one-suite sweeps at different
/// `--seed`s are not comparable. Six suites per sweep average that to ~12 %.
const CAMPAIGN_SUITES: u64 = 6;

/// The `campaign_sweep` grid: [`CAMPAIGN_SUITES`] generation seeds derived
/// from `seed` × 6 attack classes × 1 mix × {Graphene, PARA} × N_RH
/// {1024, 64} × BreakHammer off/on = 288 cells of 25 k instructions.
pub fn campaign_spec(seed: u64, smoke: bool) -> CampaignSpec {
    let (suites, scale) = if smoke {
        (2, scale(seed, SMOKE_INSTRUCTIONS, 1, vec![64]))
    } else {
        (CAMPAIGN_SUITES, scale(seed, 25_000, 1, vec![1024, 64]))
    };
    let mut spec = CampaignSpec::from_scale(scale, vec![Graphene, Para], true);
    spec.seeds = (0..suites).map(|i| seed.wrapping_mul(CAMPAIGN_SUITES).wrapping_add(i)).collect();
    spec
}
