//! Multicore VSV scaling: per-core voltage domains over a shared L2
//! at N ∈ {1, 2, 4} on the memory-bound twins. Emits
//! `BENCH_multicore.json` via the in-tree serde.
//!
//! Three questions the single-core paper cannot ask:
//!
//! 1. **Does the saving survive contention?** Each VSV row compares
//!    against the *equally contended* baseline at the same core
//!    count, so the saving isolates the policy from the shared-L2
//!    slowdown.
//! 2. **Do per-domain rails amortize ramp energy?** A chip-wide rail
//!    ramps the whole chip per decision; N independent domains each
//!    ramp a 1/N-sized core. We report per-core ramp energy at N
//!    against the N=1 reference, plus the trace-level opportunity
//!    gap: a chip-wide rail could only sit low while *every* domain
//!    is low (the joint all-low residency), whereas per-domain rails
//!    harvest each core's own low residency.
//! 3. **Do miss storms correlate across cores?** Homogeneous co-runners
//!    share DRAM and the L2, so one core's storm queues behind
//!    another's. We compare the observed all-low residency with the
//!    independence prediction (the product of per-core residencies).
//!
//! Plus a shared-L2 fairness probe: an asymmetric mcf+gzip pair,
//! where only the memory-bound core spends time at VDDL, and each
//! core's throughput is judged against its solo run.
//!
//! Last, the simulator's own host cost: wall-clock nanoseconds per
//! committed core-instruction at each N, timed serially over every
//! twin × {baseline, dual-fsm, ladder-fsm@4} at the campaign cell size
//! (5 000 warm-up / 15 000 measured instructions per core). N = 1 runs
//! the single-core [`System`]; the core counts interleave cell by cell
//! so host drift hits each alike, and each cell counts at its fastest
//! repetition.
//!
//! Usage: `cargo run --release -p vsv-bench --bin multicore_scale`
//! Scale via `VSV_INSTS` / `VSV_WARMUP` (the host-cost probe keeps its
//! fixed scale and repetitions); `VSV_MULTICORE_JSON` overrides the
//! output path (default `BENCH_multicore.json`).

use std::time::Instant;

use vsv::{
    default_workers, Comparison, Experiment, Mode, MulticoreSystem, PolicySpec, RunResult, Sweep,
    System, SystemConfig,
};
use vsv_bench::{
    announce_workers, experiment_from_env, git_revision, host_cpus, results_or_die, rule, CsvSink,
};
use vsv_workloads::{spec2k_twins, twin, Generator, WorkloadParams};

/// Core counts on the scaling axis (1 = the paper's machine).
const CORE_COUNTS: [usize; 3] = [1, 2, 4];

/// The memory-bound twins (high-MPKI; where VSV bites).
const TWINS: [&str; 3] = ["mcf", "art", "ammp"];

/// Per-ns mode samples retained per core for the correlation probe.
const TRACE_CAPACITY: usize = 1 << 20;

/// The host-cost probe's scale: the campaign cell size.
const HOST_COST_SCALE: Experiment = Experiment {
    warmup_instructions: 5_000,
    instructions: 15_000,
};

/// Timed repetitions of every host-cost cell; each cell counts at its
/// fastest.
const HOST_COST_REPS: usize = 5;

/// One (twin, cores) cell: chip-wide dual-fsm vs. the equally
/// contended baseline.
#[derive(Debug, Clone, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Core count (voltage domains).
    cores: usize,
    /// Chip-wide demand MPKI of the contended baseline.
    baseline_mpki: f64,
    /// Chip-wide simulated window of the dual-fsm run (ns, longest
    /// core).
    elapsed_ns: u64,
    /// Chip-wide dual-fsm energy (mJ).
    energy_mj: f64,
    /// Chip-wide ramp energy (pJ) across all domains.
    ramp_pj: f64,
    /// Ramp energy per domain (pJ): `ramp_pj / cores`.
    ramp_pj_per_domain: f64,
    /// Mean low-mode residency over the domains (%, from summed
    /// per-core mode counters).
    low_residency_pct: f64,
    /// Execution-time increase vs. the contended baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the contended baseline (%).
    power_saving_pct: f64,
    /// Per-core power savings (%), core-indexed: each core's domain
    /// vs. the same core of the baseline run.
    per_core_saving_pct: Vec<f64>,
}

/// Ramp-energy amortization at one core count, against the twin's
/// N=1 reference.
#[derive(Debug, Clone, serde::Serialize)]
struct Amortization {
    /// Workload name.
    workload: String,
    /// Core count.
    cores: usize,
    /// `ramp_pj(N) / N` over `ramp_pj(1)`: < 1 means each domain
    /// ramps less than the solo core did (contention stretches the
    /// window, so each domain makes fewer dive decisions per
    /// instruction); > 1 means domains ramp more often.
    per_domain_vs_solo: f64,
}

/// Cross-core miss-storm correlation for one homogeneous pair.
#[derive(Debug, Clone, serde::Serialize)]
struct Correlation {
    /// Workload name (both cores run phase-decorrelated copies).
    workload: String,
    /// Core count of the probe.
    cores: usize,
    /// Each domain's settled-low residency over the traced window
    /// (fraction of ns).
    per_core_low: Vec<f64>,
    /// Observed fraction of ns with *every* domain settled low — the
    /// only time a chip-wide rail could be low.
    all_low_observed: f64,
    /// Independence prediction: the product of `per_core_low`.
    all_low_if_independent: f64,
    /// `observed / predicted` (> 1: storms correlate across cores —
    /// shared-fabric queueing synchronizes them).
    correlation_ratio: f64,
    /// What per-domain rails harvest that a chip-wide rail cannot:
    /// mean per-core low residency minus the all-low residency
    /// (fraction of ns).
    per_domain_advantage: f64,
}

/// Shared-L2 fairness under asymmetric low-mode residency.
#[derive(Debug, Clone, serde::Serialize)]
struct Fairness {
    /// Co-runner twin names, core-indexed.
    workloads: Vec<String>,
    /// Each core's IPC in the shared run over its solo IPC
    /// (1 = no interference), core-indexed.
    relative_progress: Vec<f64>,
    /// Each core's settled-low residency in the shared run (%),
    /// core-indexed — the asymmetry driver.
    low_residency_pct: Vec<f64>,
    /// `min(relative_progress) / max(relative_progress)`: 1 = fair.
    fairness_index: f64,
}

/// The simulator's host cost at one core count.
#[derive(Debug, Clone, serde::Serialize)]
struct HostCost {
    /// Core count (1 = the single-core `System`).
    cores: usize,
    /// Host wall ns per committed core-instruction: every cell's
    /// fastest measured window, summed, over the summed instructions.
    ns_per_core_inst: f64,
    /// The same ratio for each repetition alone (the spread).
    per_repetition: Vec<f64>,
    /// `ns_per_core_inst` over the single-core figure.
    vs_single_core: f64,
}

/// Host cost per core-instruction across the core counts.
#[derive(Debug, Clone, serde::Serialize)]
struct HostCostReport {
    /// CPUs of the measuring host.
    host_cpus: usize,
    /// `git rev-parse HEAD` of the measured build.
    git_revision: String,
    /// Timed repetitions of the whole grid.
    repetitions: usize,
    /// Warm-up instructions per core (untimed).
    warmup_per_run: u64,
    /// Measured instructions per core (timed).
    instructions_per_run: u64,
    /// Cells per core count: every twin × three policies.
    cells: usize,
    /// One entry per core count.
    costs: Vec<HostCost>,
}

/// The emitted report.
#[derive(Debug, Clone, serde::Serialize)]
struct Report {
    /// Measured instructions per run, per core.
    instructions_per_run: u64,
    /// Warm-up instructions per run, per core.
    warmup_per_run: u64,
    /// Core counts swept.
    core_counts: Vec<usize>,
    /// Every (twin, cores) dual-fsm cell vs. its contended baseline.
    records: Vec<Record>,
    /// Per-domain ramp energy at each N > 1 vs. the N=1 reference.
    amortization: Vec<Amortization>,
    /// Cross-core miss-storm correlation probes (N=2, dual-fsm).
    correlation: Vec<Correlation>,
    /// The asymmetric mcf+gzip fairness probe.
    fairness: Fairness,
    /// True when every (twin, cores) cell saves chip-wide power
    /// against its equally contended baseline — the CI gate.
    chip_saving_positive_everywhere: bool,
    /// The simulator's host cost per core-instruction at each N.
    host_cost: HostCostReport,
}

/// Settled-low residency of one mode-stats vector, in percent.
fn low_pct(mode: &vsv::ModeStats) -> f64 {
    let total: u64 = mode.ns_in_mode.iter().sum();
    if total == 0 {
        return 0.0;
    }
    mode.ns_in_mode[Mode::Low.index()] as f64 * 100.0 / total as f64
}

/// Warms one cell up untimed, then times its measured window: host
/// wall ns and the window's result. `cores == 1` runs the single-core
/// [`System`], the runner's path for one core.
fn timed_window(params: &WorkloadParams, cfg: SystemConfig) -> (u64, RunResult) {
    let e = HOST_COST_SCALE;
    let (start, result) = if cfg.cores == 1 {
        let mut sys = System::try_new(cfg, Generator::new(*params)).expect("valid config");
        sys.try_warm_up(e.warmup_instructions).expect("warm-up");
        let start = Instant::now();
        (start, sys.try_run(e.instructions))
    } else {
        let mut chip = MulticoreSystem::try_new(cfg, params).expect("valid config");
        chip.try_warm_up(e.warmup_instructions).expect("warm-up");
        let start = Instant::now();
        (start, chip.try_run(e.instructions))
    };
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns, result.expect("measured window"))
}

/// Times every twin × {baseline, dual-fsm, ladder-fsm@4} cell at each
/// core count, [`HOST_COST_REPS`] times over, on this thread.
fn measure_host_cost() -> HostCostReport {
    let reps = HOST_COST_REPS;
    let policies = [
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms(),
        SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4),
    ];
    let cells: Vec<(WorkloadParams, SystemConfig)> = spec2k_twins()
        .into_iter()
        .flat_map(|p| policies.map(|cfg| (p, cfg)))
        .collect();
    let mut best = vec![vec![u64::MAX; cells.len()]; CORE_COUNTS.len()];
    let mut rep_ns = vec![Vec::with_capacity(reps); CORE_COUNTS.len()];
    let mut insts = vec![0u64; CORE_COUNTS.len()];
    for rep in 0..reps {
        let mut totals = [0u64; CORE_COUNTS.len()];
        for (c, (params, cfg)) in cells.iter().enumerate() {
            for (k, &n) in CORE_COUNTS.iter().enumerate() {
                let (ns, result) = timed_window(params, cfg.with_cores(n));
                best[k][c] = best[k][c].min(ns);
                totals[k] += ns;
                if rep == 0 {
                    insts[k] += result.instructions;
                }
            }
        }
        for (per_rep, total) in rep_ns.iter_mut().zip(totals) {
            per_rep.push(total);
        }
    }
    let per_inst = |ns: u64, k: usize| ns as f64 / insts[k].max(1) as f64;
    let solo = per_inst(best[0].iter().sum(), 0);
    let costs = CORE_COUNTS
        .iter()
        .enumerate()
        .map(|(k, &cores)| {
            let ns_per_core_inst = per_inst(best[k].iter().sum(), k);
            HostCost {
                cores,
                ns_per_core_inst,
                per_repetition: rep_ns[k].iter().map(|&ns| per_inst(ns, k)).collect(),
                vs_single_core: ns_per_core_inst / solo,
            }
        })
        .collect();
    HostCostReport {
        host_cpus: host_cpus(),
        git_revision: git_revision(),
        repetitions: reps,
        warmup_per_run: HOST_COST_SCALE.warmup_instructions,
        instructions_per_run: HOST_COST_SCALE.instructions,
        cells: cells.len(),
        costs,
    }
}

fn main() {
    let e = experiment_from_env();
    let workers = default_workers();
    println!(
        "Multicore scaling: {} twins × N ∈ {CORE_COUNTS:?} ({} insts/run/core)",
        TWINS.len(),
        e.instructions
    );
    announce_workers(workers);

    let twins: Vec<_> = TWINS
        .iter()
        .map(|name| twin(name).unwrap_or_else(|| panic!("twin {name} exists")))
        .collect();
    let configs: Vec<SystemConfig> = CORE_COUNTS
        .iter()
        .flat_map(|&n| {
            [
                SystemConfig::baseline().with_cores(n),
                SystemConfig::vsv_with_fsms().with_cores(n),
            ]
        })
        .collect();
    let sweep = Sweep::over_grid(e, &twins, &configs);
    let results = results_or_die(sweep.report(workers));

    let mut csv = CsvSink::from_env("multicore_scale");
    csv.row(&[
        "workload",
        "cores",
        "ramp_pj_per_domain",
        "low_residency_pct",
        "slowdown_pct",
        "power_saving_pct",
    ]);
    println!(
        "{:<10} {:>5} | {:>12} {:>8} | {:>9} {:>7}",
        "twin", "cores", "ramp pJ/dom", "low%", "slowdown%", "saved%"
    );
    rule(64);

    let mut records: Vec<Record> = Vec::new();
    for (params, chunk) in twins.iter().zip(results.chunks(2 * CORE_COUNTS.len())) {
        for (i, &n) in CORE_COUNTS.iter().enumerate() {
            let (base, vsv_run) = (&chunk[2 * i], &chunk[2 * i + 1]);
            let cmp = Comparison::of(base, vsv_run);
            // Core i of the VSV run against core i of the baseline
            // run: both saw the same per-core stream, both contended.
            let per_core_saving_pct: Vec<f64> = vsv_run
                .core_results
                .iter()
                .zip(&base.core_results)
                .map(|(v, b)| Comparison::of(b, v).power_saving_pct)
                .collect();
            let rec = Record {
                workload: params.name.to_string(),
                cores: n,
                baseline_mpki: base.mpki,
                elapsed_ns: vsv_run.elapsed_ns,
                energy_mj: vsv_run.energy_pj / 1e9,
                ramp_pj: vsv_run.energy.ramp_pj,
                ramp_pj_per_domain: vsv_run.energy.ramp_pj / n as f64,
                low_residency_pct: low_pct(&vsv_run.mode),
                slowdown_pct: cmp.perf_degradation_pct,
                power_saving_pct: cmp.power_saving_pct,
                per_core_saving_pct,
            };
            println!(
                "{:<10} {:>5} | {:>12.1} {:>8.1} | {:>9.2} {:>7.2}",
                rec.workload,
                rec.cores,
                rec.ramp_pj_per_domain,
                rec.low_residency_pct,
                rec.slowdown_pct,
                rec.power_saving_pct,
            );
            csv.row(&[
                &rec.workload,
                &rec.cores.to_string(),
                &format!("{:.3}", rec.ramp_pj_per_domain),
                &format!("{:.3}", rec.low_residency_pct),
                &format!("{:.4}", rec.slowdown_pct),
                &format!("{:.4}", rec.power_saving_pct),
            ]);
            records.push(rec);
        }
    }

    // Ramp amortization: each twin's per-domain ramp energy at N
    // against its own N=1 reference.
    let mut amortization = Vec::new();
    for chunk in records.chunks(CORE_COUNTS.len()) {
        let solo = &chunk[0];
        for rec in &chunk[1..] {
            amortization.push(Amortization {
                workload: rec.workload.clone(),
                cores: rec.cores,
                per_domain_vs_solo: if solo.ramp_pj > 0.0 {
                    rec.ramp_pj_per_domain / solo.ramp_pj
                } else {
                    0.0
                },
            });
        }
    }

    // Miss-storm correlation: trace every domain of an N=2 dual-fsm
    // run per ns and compare the joint all-low residency with the
    // independence prediction.
    rule(64);
    let mut correlation = Vec::new();
    for params in &twins {
        let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
        let mut chip = MulticoreSystem::try_new(cfg, params).expect("valid multicore config");
        chip.try_warm_up(e.warmup_instructions).expect("warm-up");
        chip.enable_traces(TRACE_CAPACITY);
        chip.try_run(e.instructions).expect("traced run");
        let traces: Vec<_> = chip
            .take_traces()
            .into_iter()
            .map(|t| t.expect("tracing was enabled"))
            .collect();
        // Lockstep means every core pushes one sample per ns, so the
        // retained windows line up sample-for-sample even when the
        // ring dropped old entries.
        let len = traces.iter().map(vsv::ModeTrace::len).min().unwrap_or(0);
        let low_flags: Vec<Vec<bool>> = traces
            .iter()
            .map(|t| {
                let skip = t.len() - len;
                t.iter().skip(skip).map(|s| s.mode == Mode::Low).collect()
            })
            .collect();
        let per_core_low: Vec<f64> = low_flags
            .iter()
            .map(|flags| flags.iter().filter(|l| **l).count() as f64 / len.max(1) as f64)
            .collect();
        let all_low = (0..len)
            .filter(|&i| low_flags.iter().all(|flags| flags[i]))
            .count() as f64
            / len.max(1) as f64;
        let independent: f64 = per_core_low.iter().product();
        let mean_low = per_core_low.iter().sum::<f64>() / per_core_low.len().max(1) as f64;
        let probe = Correlation {
            workload: params.name.to_string(),
            cores: 2,
            all_low_observed: all_low,
            all_low_if_independent: independent,
            correlation_ratio: if independent > 0.0 {
                all_low / independent
            } else {
                0.0
            },
            per_domain_advantage: mean_low - all_low,
            per_core_low,
        };
        println!(
            "{:<10} storms: all-low {:.1}% vs independent {:.1}% (×{:.2}); \
             per-domain advantage {:.1}% of ns",
            probe.workload,
            probe.all_low_observed * 100.0,
            probe.all_low_if_independent * 100.0,
            probe.correlation_ratio,
            probe.per_domain_advantage * 100.0,
        );
        correlation.push(probe);
    }

    // Fairness: an asymmetric pair — memory-bound mcf (lives at VDDL)
    // against compute-bound gzip (stays at VDDH) — on one shared L2.
    let pair = [
        twin("mcf").expect("mcf exists"),
        twin("gzip").expect("gzip exists"),
    ];
    let solo: Vec<f64> = pair
        .iter()
        .map(|p| {
            e.try_run(p, SystemConfig::vsv_with_fsms(), None)
                .expect("solo run")
                .0
                .ipc
        })
        .collect();
    let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
    let mut chip = MulticoreSystem::try_new_heterogeneous(cfg, &pair).expect("valid pair");
    chip.try_warm_up(e.warmup_instructions).expect("warm-up");
    let shared = chip.try_run(e.instructions).expect("shared run");
    let relative_progress: Vec<f64> = shared
        .core_results
        .iter()
        .zip(&solo)
        .map(|(core, solo_ipc)| core.ipc / solo_ipc)
        .collect();
    let low_residency_pct: Vec<f64> = shared
        .core_results
        .iter()
        .map(|core| low_pct(&core.mode))
        .collect();
    let (min_p, max_p) = relative_progress
        .iter()
        .fold((f64::MAX, 0.0f64), |acc, p| (acc.0.min(*p), acc.1.max(*p)));
    let fairness = Fairness {
        workloads: pair.iter().map(|p| p.name.to_string()).collect(),
        relative_progress,
        low_residency_pct,
        fairness_index: if max_p > 0.0 { min_p / max_p } else { 0.0 },
    };
    println!(
        "fairness mcf+gzip: progress {:?} low% {:?} index {:.3}",
        fairness
            .relative_progress
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect::<Vec<_>>(),
        fairness
            .low_residency_pct
            .iter()
            .map(|p| format!("{p:.1}"))
            .collect::<Vec<_>>(),
        fairness.fairness_index,
    );

    let chip_saving_positive_everywhere = records.iter().all(|r| r.power_saving_pct > 0.0);
    rule(64);
    println!("chip saving positive on every (twin, cores) cell: {chip_saving_positive_everywhere}");

    let host_cost = measure_host_cost();
    rule(64);
    println!(
        "host cost, {} cells × {HOST_COST_REPS} reps ({} host CPUs):",
        host_cost.cells, host_cost.host_cpus
    );
    for c in &host_cost.costs {
        let (lo, hi) = c
            .per_repetition
            .iter()
            .fold((f64::MAX, 0.0f64), |acc, v| (acc.0.min(*v), acc.1.max(*v)));
        println!(
            "  N={}: {:.0} ns/core-inst (reps {lo:.0}–{hi:.0}), {:.2}× single-core",
            c.cores, c.ns_per_core_inst, c.vs_single_core
        );
    }
    if let Some(path) = csv.path() {
        println!("csv mirrored to {}", path.display());
    }

    let out = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        core_counts: CORE_COUNTS.to_vec(),
        records,
        amortization,
        correlation,
        fairness,
        chip_saving_positive_everywhere,
        host_cost,
    };
    let path =
        std::env::var("VSV_MULTICORE_JSON").unwrap_or_else(|_| "BENCH_multicore.json".to_string());
    let json = serde_json::to_string_pretty(&out).expect("report serializes");
    std::fs::write(&path, json).expect("report written");
    println!("wrote {path}");
}
