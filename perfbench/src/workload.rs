//! The four workloads: which cells one round simulates, and how a
//! round runs them. Every workload is a closed-loop batch job in this
//! one process; the seed reaches the simulator only through
//! `WorkloadParams::seed`, the traffic seed and the error seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vsv::{
    mean_comparison, Campaign, Comparison, Experiment, JobRecord, MergeOptions, MulticoreSystem,
    PolicySpec, RunResult, SimError, Sweep, SweepJob, System, SystemConfig, TrafficSpec,
};
use vsv_workloads::{high_mr_names, spec2k_twins, twin, Generator, WorkloadParams};

use crate::checks::check;
use crate::stats::Fnv;

/// The seed the pinned digests were taken at. Seed 0 keeps every
/// twin's built-in seed, so the default run simulates exactly what the
/// repository's own experiment binaries simulate.
pub const DEFAULT_SEED: u64 = 0;

/// Low-miss twins across access patterns (random, streaming) and ILP.
pub const ILP_TWINS: [&str; 5] = ["gzip", "crafty", "eon", "equake", "twolf"];

/// The heterogeneous chip: two memory-bound and two compute-bound
/// co-runners, one per core.
pub const CHIP4_TWINS: [&str; 4] = ["mcf", "art", "gzip", "eon"];

/// Instructions per service request on the chip.
pub const REQUEST_INSTS: u64 = 500;

/// Service capacity of the slowest chip core (mcf, under 4-core
/// contention) in requests of `REQUEST_INSTS` instructions per µs: its
/// always-high IPC of 0.33 at the default scale and seed, times
/// 1000 / `REQUEST_INSTS`. Every core receives its own copy of the
/// train, so the slowest core bounds the rate.
pub const CHIP4_CAPACITY_PER_US: f64 = 0.65;

/// Offered load as a share of that capacity.
pub const CHIP4_LOAD: f64 = 0.7;

/// Campaign shards, run one after the other in this process.
pub const CAMPAIGN_SHARDS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven high-miss-rate twins, each as a (baseline, dual-fsm) pair.
    HighMr,
    /// Five low-miss twins, each as a (baseline, dual-fsm) pair.
    Ilp,
    /// A 4-core heterogeneous chip under an MMPP request train and
    /// low-voltage read errors: (baseline, error-backoff) pair.
    Chip4Service,
    /// Every twin × {baseline, dual-fsm, ladder-fsm@4} × {1, 2} cores,
    /// as a two-shard checkpointed campaign with a streaming merge.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HighMr,
        Workload::Ilp,
        Workload::Chip4Service,
        Workload::Campaign,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HighMr => "high_mr",
            Workload::Ilp => "ilp",
            Workload::Chip4Service => "chip4_service",
            Workload::Campaign => "campaign",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The scale the benchmark runs this workload at.
    #[must_use]
    pub fn scale(self) -> Scale {
        match self {
            // The paper-reproduction scale (`Experiment::standard`),
            // so the fidelity figures match `results/headline.txt`.
            Workload::HighMr | Workload::Ilp => Scale {
                warmup: 100_000,
                insts: 300_000,
            },
            Workload::Chip4Service => Scale {
                warmup: 10_000,
                insts: 30_000,
            },
            Workload::Campaign => Scale {
                warmup: 5_000,
                insts: 15_000,
            },
        }
    }
}

/// Instructions per cell: warm-up, then the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up instructions (per core).
    pub warmup: u64,
    /// Measured-window instructions (per core).
    pub insts: u64,
}

impl Scale {
    /// The matching library experiment.
    #[must_use]
    pub fn experiment(self) -> Experiment {
        Experiment {
            warmup_instructions: self.warmup,
            instructions: self.insts,
        }
    }
}

/// One simulation: a twin on one core, or one twin per core of a chip.
#[derive(Debug, Clone)]
pub enum Cell {
    /// `cfg.cores` copies of one twin (1 for the paper's machine).
    Single {
        /// The twin.
        params: WorkloadParams,
        /// Its configuration.
        cfg: SystemConfig,
    },
    /// A heterogeneous chip: `params[i]` runs on core `i`.
    Chip {
        /// One twin per core.
        params: Vec<WorkloadParams>,
        /// The chip configuration.
        cfg: SystemConfig,
    },
}

impl Cell {
    /// The cell's configuration.
    #[must_use]
    pub fn cfg(&self) -> &SystemConfig {
        match self {
            Cell::Single { cfg, .. } | Cell::Chip { cfg, .. } => cfg,
        }
    }

    /// The twin on each core. `MulticoreSystem::try_new` reseeds core
    /// `i` of a homogeneous chip with `seed + i`.
    #[must_use]
    pub fn core_params(&self) -> Vec<WorkloadParams> {
        match self {
            Cell::Single { params, cfg } => (0..cfg.cores)
                .map(|i| WorkloadParams {
                    seed: params.seed.wrapping_add(i as u64),
                    ..*params
                })
                .collect(),
            Cell::Chip { params, .. } => params.clone(),
        }
    }
}

/// What one round of a workload simulates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Instructions per cell.
    pub scale: Scale,
    /// Cells in grid order.
    pub cells: Vec<Cell>,
    /// `(baseline, variant)` cell indices compared for the fidelity
    /// metrics.
    pub pairs: Vec<(usize, usize)>,
}

/// Folds the benchmark seed into a twin's own seed. Seed 0 keeps the
/// twin's built-in seed; any other seed gives a different stream.
#[must_use]
pub fn seeded(mut params: WorkloadParams, seed: u64) -> WorkloadParams {
    params.seed = params
        .seed
        .wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    params
}

fn twin_params(name: &str, seed: u64) -> WorkloadParams {
    seeded(twin(name).expect("benchmark twins are in the suite"), seed)
}

/// The chip's policy configuration: error-backoff over ladder-fsm at
/// depth 4, read-error rate 0.02, and the MMPP request train.
#[must_use]
pub fn chip4_config(seed: u64, baseline: bool) -> SystemConfig {
    let cfg = if baseline {
        SystemConfig::baseline()
    } else {
        SystemConfig::with_policy(PolicySpec::ErrorBackoff).with_ladder_depth(4)
    };
    // MMPP: bursts above capacity, quiet phases well below it; the
    // mean (equal ON/OFF phases) is CHIP4_LOAD × capacity.
    let cap = CHIP4_CAPACITY_PER_US;
    let burst = 1.2 * cap;
    let quiet = 2.0 * CHIP4_LOAD * cap - burst;
    let traffic = TrafficSpec::mmpp(quiet, burst, 5_000, 5_000, REQUEST_INSTS)
        .with_seed(seed.wrapping_add(0x5eed));
    cfg.with_cores(CHIP4_TWINS.len())
        .with_error_rate(0.02)
        .with_error_seed(seed.wrapping_add(0xe7707))
        .with_traffic(Some(traffic))
}

impl Plan {
    /// The plan for `workload` at `seed` and `scale`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        let mut cells = Vec::new();
        let mut pairs = Vec::new();
        let single = |name: &str, cfg| Cell::Single {
            params: twin_params(name, seed),
            cfg,
        };
        match workload {
            Workload::HighMr | Workload::Ilp => {
                let names = if workload == Workload::HighMr {
                    high_mr_names()
                } else {
                    ILP_TWINS.to_vec()
                };
                for name in names {
                    pairs.push((cells.len(), cells.len() + 1));
                    cells.push(single(name, SystemConfig::baseline()));
                    cells.push(single(name, SystemConfig::vsv_with_fsms()));
                }
            }
            Workload::Chip4Service => {
                let params: Vec<WorkloadParams> =
                    CHIP4_TWINS.iter().map(|n| twin_params(n, seed)).collect();
                pairs.push((0, 1));
                for baseline in [true, false] {
                    cells.push(Cell::Chip {
                        params: params.clone(),
                        cfg: chip4_config(seed, baseline),
                    });
                }
            }
            Workload::Campaign => {
                for p in spec2k_twins() {
                    for cores in [1, 2] {
                        let base = cells.len();
                        pairs.push((base, base + 1));
                        pairs.push((base, base + 2));
                        for cfg in [
                            SystemConfig::baseline(),
                            SystemConfig::vsv_with_fsms(),
                            SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4),
                        ] {
                            cells.push(Cell::Single {
                                params: seeded(p, seed),
                                cfg: cfg.with_cores(cores),
                            });
                        }
                    }
                }
            }
        }
        Plan {
            workload,
            seed,
            scale,
            cells,
            pairs,
        }
    }

    /// The campaign grid as sweep jobs.
    #[must_use]
    pub fn jobs(&self) -> Vec<SweepJob> {
        self.cells
            .iter()
            .map(|c| match c {
                Cell::Single { params, cfg } => SweepJob {
                    params: *params,
                    config: *cfg,
                },
                Cell::Chip { .. } => unreachable!("campaign cells are homogeneous"),
            })
            .collect()
    }
}

/// What the campaign layer did in one round.
#[derive(Debug, Clone, Default)]
pub struct CampaignRun {
    /// Worker threads per shard.
    pub workers: usize,
    /// Wall time of each shard run, ns.
    pub shard_ns: Vec<u64>,
    /// Wall time of the streaming merge, ns.
    pub merge_ns: u64,
    /// Bytes of the finalized shard files.
    pub checkpoint_bytes: u64,
    /// Every shard's records, shard by shard.
    pub records: Vec<JobRecord>,
}

/// One round: every cell of the plan, once.
#[derive(Debug, Clone)]
pub struct Round {
    /// Set-up wall time: construction plus warm-up of every cell (for
    /// the campaign, grid and shard planning), ns.
    pub setup_ns: u64,
    /// Each cell's set-up (construction and warm-up) wall time, ns; 0
    /// for campaign cells, whose set-up the sweep does not expose.
    pub cell_setup_ns: Vec<u64>,
    /// Each cell's measured-window wall time, ns (for campaign cells,
    /// the whole cell as the sweep timed it).
    pub cell_window_ns: Vec<u64>,
    /// Each cell's result, in grid order (`None` if it failed).
    pub results: Vec<Option<RunResult>>,
    /// Failed operations: simulation errors, panics, failed checks.
    pub failures: Vec<String>,
    /// Campaign-layer timings (campaign workload only).
    pub campaign: Option<CampaignRun>,
}

impl Round {
    /// Cell `i`'s wall time, set-up included, ns.
    #[must_use]
    pub fn cell_wall_ns(&self, i: usize) -> u64 {
        self.cell_setup_ns[i] + self.cell_window_ns[i]
    }

    /// Simulated nanoseconds in the measured windows.
    #[must_use]
    pub fn sim_ns(&self) -> u64 {
        self.results.iter().flatten().map(|r| r.elapsed_ns).sum()
    }

    /// Instructions committed in the measured windows, all cores.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.results.iter().flatten().map(|r| r.instructions).sum()
    }

    /// Digest of every simulated output, in grid order.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        for r in &self.results {
            h.write(format!("{r:?}").as_bytes());
        }
        h.hex()
    }

    /// Operations attempted: one per cell.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.results.len()
    }
}

/// Mean (power, time) of each variant relative to its baseline, in
/// percent: `100 - power_saving_pct` and `100 + perf_loss_pct` of the
/// library's `mean_comparison` over the plan's pairs. `None` if a pair
/// is missing.
#[must_use]
pub fn fidelity(plan: &Plan, results: &[Option<RunResult>]) -> Option<Comparison> {
    let mut cmps = Vec::with_capacity(plan.pairs.len());
    for &(b, v) in &plan.pairs {
        let (Some(base), Some(var)) = (results.get(b)?, results.get(v)?) else {
            return None;
        };
        cmps.push(Comparison::of(base, var));
    }
    Some(mean_comparison(&cmps))
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

/// Runs one cell: `(set-up ns, window ns, result)`.
fn run_cell(cell: &Cell, scale: Scale) -> (u64, u64, Result<RunResult, String>) {
    let t0 = Instant::now();
    let mut t1 = t0;
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<RunResult, SimError> {
        match cell {
            Cell::Single { params, cfg } if cfg.cores == 1 => {
                let mut sys = System::try_new(*cfg, Generator::new(*params))?;
                sys.set_workload_name(params.name);
                sys.try_warm_up(scale.warmup)?;
                t1 = Instant::now();
                sys.try_run(scale.insts)
            }
            Cell::Single { params, cfg } => {
                let mut chip = MulticoreSystem::try_new(*cfg, params)?;
                chip.try_warm_up(scale.warmup)?;
                t1 = Instant::now();
                chip.try_run(scale.insts)
            }
            Cell::Chip { params, cfg } => {
                let mut chip = MulticoreSystem::try_new_heterogeneous(*cfg, params)?;
                chip.try_warm_up(scale.warmup)?;
                t1 = Instant::now();
                chip.try_run(scale.insts)
            }
        }
    }));
    let t2 = Instant::now();
    let result = match outcome {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(panic_message(p.as_ref())),
    };
    (nanos(t0, t1), nanos(t1, t2), result)
}

/// Runs one round of `plan`, checking every output. `dir` holds the
/// campaign's shard files.
///
/// # Errors
///
/// An I/O or campaign error that stopped the round.
pub fn run_round(plan: &Plan, dir: &Path) -> Result<Round, String> {
    if plan.workload == Workload::Campaign {
        return run_campaign_round(plan, dir);
    }
    let mut round = Round {
        setup_ns: 0,
        cell_setup_ns: Vec::with_capacity(plan.cells.len()),
        cell_window_ns: Vec::with_capacity(plan.cells.len()),
        results: Vec::with_capacity(plan.cells.len()),
        failures: Vec::new(),
        campaign: None,
    };
    for cell in &plan.cells {
        let (setup, window, result) = run_cell(cell, plan.scale);
        round.setup_ns += setup;
        round.cell_setup_ns.push(setup);
        round.cell_window_ns.push(window);
        record(&mut round, result);
    }
    Ok(round)
}

/// Files a cell's result, checking it.
fn record(round: &mut Round, result: Result<RunResult, String>) {
    match result {
        Ok(r) => {
            let bad = check(&r);
            if bad.is_empty() {
                round.results.push(Some(r));
            } else {
                round.failures.push(bad.join("; "));
                round.results.push(None);
            }
        }
        Err(e) => {
            round.failures.push(e);
            round.results.push(None);
        }
    }
}

/// Paths of the shard files and the merged report under `dir`.
fn campaign_paths(dir: &Path) -> (Vec<PathBuf>, PathBuf) {
    let shards = (0..CAMPAIGN_SHARDS)
        .map(|k| dir.join(format!("shard-{k}.jsonl")))
        .collect();
    (shards, dir.join("merged.json"))
}

/// Plans the campaign: the grid, its shard partition and the shard
/// directory — everything before the first cell runs.
fn plan_campaign(plan: &Plan, dir: &Path) -> Result<Campaign, String> {
    let sweep = Sweep::new(plan.scale.experiment(), plan.jobs());
    let campaign = Campaign::new(sweep, CAMPAIGN_SHARDS).map_err(|e| e.to_string())?;
    for k in 0..CAMPAIGN_SHARDS {
        campaign.shard_sweep(k).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(campaign)
}

/// Planning repetitions per round: one plan takes microseconds, so the
/// round's set-up time is the median of several.
const PLAN_REPS: usize = 15;

fn run_campaign_round(plan: &Plan, dir: &Path) -> Result<Round, String> {
    let mut plan_ns = Vec::with_capacity(PLAN_REPS);
    let mut campaign = None;
    for _ in 0..PLAN_REPS {
        let t = Instant::now();
        campaign = Some(plan_campaign(plan, dir)?);
        plan_ns.push(nanos(t, Instant::now()) as f64);
    }
    let campaign = campaign.expect("planned at least once");
    let setup_ns = crate::stats::median(&plan_ns) as u64;
    let workers = crate::host_cpus();
    let (shard_paths, merged) = campaign_paths(dir);
    let mut run = CampaignRun {
        workers,
        ..CampaignRun::default()
    };
    let mut results: Vec<Option<Result<RunResult, String>>> = vec![None; plan.cells.len()];
    let mut cell_window_ns = vec![0; plan.cells.len()];
    for (k, path) in shard_paths.iter().enumerate() {
        let t = Instant::now();
        let report = campaign
            .run_shard(k, workers, path, true)
            .map_err(|e| e.to_string())?;
        run.shard_ns.push(nanos(t, Instant::now()));
        for (j, rec) in report.records.iter().enumerate() {
            let global = k + j * CAMPAIGN_SHARDS;
            cell_window_ns[global] = rec.wall_ns;
            results[global] = Some(match rec.result() {
                Some(r) => Ok(r.clone()),
                None => Err(format!("cell {global} ({}) failed", rec.workload)),
            });
        }
        run.records.extend(report.records);
        run.checkpoint_bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    let t = Instant::now();
    let summary = campaign
        .merge_files(&shard_paths, &MergeOptions { workers }, &merged)
        .map_err(|e| e.to_string())?;
    run.merge_ns = nanos(t, Instant::now());
    let mut round = Round {
        setup_ns,
        cell_setup_ns: vec![0; plan.cells.len()],
        cell_window_ns,
        results: Vec::with_capacity(plan.cells.len()),
        failures: Vec::new(),
        campaign: Some(run),
    };
    for (i, r) in results.into_iter().enumerate() {
        record(
            &mut round,
            r.unwrap_or_else(|| Err(format!("cell {i} missing from its shard"))),
        );
    }
    if summary.cells != plan.cells.len() || summary.failed != 0 {
        round.failures.push(format!(
            "merge saw {} cells ({} failed), planned {}",
            summary.cells,
            summary.failed,
            plan.cells.len()
        ));
    }
    Ok(round)
}
