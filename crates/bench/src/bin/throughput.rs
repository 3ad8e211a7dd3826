//! Simulator **throughput** benchmark: wall-clock simulation speed
//! (simulated ns per host second, and simulated MIPS) over the
//! standard workload mix, with the quiescent-stall fast-forward on
//! and off. Emits `BENCH_throughput.json` via the in-tree serde.
//!
//! Usage: `cargo run --release -p vsv-bench --bin throughput`
//! Scale via `VSV_INSTS` / `VSV_WARMUP`. Extra environment:
//!
//! * `VSV_THROUGHPUT_JSON` — output path (default
//!   `BENCH_throughput.json` in the working directory);
//! * `VSV_THROUGHPUT_BASELINE` — committed sim-ns/sec reference for
//!   the fast-forward-on aggregate; the run exits nonzero if measured
//!   throughput falls more than 30% below it (the CI perf-smoke gate).
//!   Fast-forward-on runs attach a null trace sink (`NullSink` at the
//!   `events` level), so the gate also bounds the cost of the
//!   observability instrumentation on the hot loop;
//! * `VSV_THROUGHPUT_REPS` — timing repetitions per point (default 3);
//!   each point reports its fastest repetition, the standard guard
//!   against scheduler and frequency noise.
//!
//! Runs are strictly serial: this binary measures single-thread
//! simulation speed, not sweep-engine scaling.

use std::time::Instant;

use vsv::{Experiment, NullSink, SystemConfig, TraceLevel, TraceSink};
use vsv_bench::{experiment_from_env, rule};
use vsv_workloads::spec2k_twins;

/// Memory-bound (MPKI > 4) aggregate sim-ns/sec of the tree this PR
/// branched from, measured on the development host with the default
/// grid (`VSV_INSTS=60000 VSV_WARMUP=20000`, seven memory-bound twins
/// × baseline/vsv). Recorded so the emitted report can state the
/// speedup of the current loop over the pre-optimisation one; override
/// with `VSV_PRE_PR_BASELINE` when re-measuring on different hardware.
const PRE_PR_MEMORY_BOUND_SIM_NS_PER_SEC: f64 = 1.3117e6;

/// One timed simulation run.
#[derive(Debug, Clone, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Configuration label (`baseline` or `vsv`).
    config: String,
    /// Whether the quiescent-stall fast-forward was enabled.
    fast_forward: bool,
    /// Whether a [`NullSink`] trace sink was attached during the run.
    /// Fast-forward-on runs attach one at the `events` level, so the
    /// gate measures (and the equality assert below proves bit-exact)
    /// the instrumented hot loop, not a trace-free special case.
    null_sink: bool,
    /// Simulated nanoseconds in the measured window (warm-up included
    /// in the timing, excluded from the window).
    sim_ns: u64,
    /// Instructions committed in the measured window.
    instructions: u64,
    /// Demand MPKI of the run (to identify memory-bound twins).
    mpki: f64,
    /// Host wall-clock nanoseconds for the whole run (warm-up + window).
    wall_ns: u64,
    /// Simulated ns per host second.
    sim_ns_per_sec: f64,
    /// Simulated instructions per host second, in millions.
    mips: f64,
}

/// Throughput summed over a set of runs.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
struct Aggregate {
    /// Total simulated nanoseconds.
    sim_ns: u64,
    /// Total instructions committed.
    instructions: u64,
    /// Total host wall-clock nanoseconds.
    wall_ns: u64,
    /// Aggregate simulated ns per host second.
    sim_ns_per_sec: f64,
    /// Aggregate simulated MIPS.
    mips: f64,
}

impl Aggregate {
    fn add(&mut self, r: &Record) {
        self.sim_ns += r.sim_ns;
        self.instructions += r.instructions;
        self.wall_ns += r.wall_ns;
        let secs = self.wall_ns as f64 / 1e9;
        self.sim_ns_per_sec = self.sim_ns as f64 / secs;
        self.mips = self.instructions as f64 / secs / 1e6;
    }
}

/// The emitted report.
#[derive(Debug, Clone, serde::Serialize)]
struct Report {
    /// Measured instructions per run.
    instructions_per_run: u64,
    /// Warm-up instructions per run.
    warmup_per_run: u64,
    /// Every timed run.
    records: Vec<Record>,
    /// Aggregate over all fast-forward-on runs.
    fast_forward_on: Aggregate,
    /// Aggregate over all fast-forward-off runs (the pre-optimisation
    /// ns-stepped loop).
    fast_forward_off: Aggregate,
    /// `fast_forward_on.sim_ns_per_sec / fast_forward_off.sim_ns_per_sec`.
    overall_speedup: f64,
    /// Same ratio restricted to memory-bound twins (baseline MPKI > 4),
    /// where quiescent stalls dominate.
    memory_bound_speedup: f64,
    /// Aggregate over fast-forward-on runs of memory-bound twins.
    memory_bound_on: Aggregate,
    /// Aggregate over fast-forward-off runs of memory-bound twins.
    memory_bound_off: Aggregate,
    /// Memory-bound sim-ns/sec of the pre-optimisation loop (recorded
    /// reference; see [`PRE_PR_MEMORY_BOUND_SIM_NS_PER_SEC`]).
    pre_pr_memory_bound_sim_ns_per_sec: f64,
    /// `memory_bound_on.sim_ns_per_sec / pre_pr_memory_bound_sim_ns_per_sec`:
    /// the full gain of this PR's hot-loop work plus fast-forward over
    /// the loop it replaced. Only meaningful on hardware comparable to
    /// the one the reference was measured on.
    memory_bound_speedup_vs_pre_pr: f64,
}

fn timed_run(
    e: Experiment,
    params: &vsv_workloads::WorkloadParams,
    cfg: SystemConfig,
    reps: u32,
    null_sink: bool,
) -> Record {
    let mut best: Option<Record> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let sink =
            null_sink.then(|| (TraceLevel::Events, Box::new(NullSink) as Box<dyn TraceSink>));
        let (result, _) = e.try_run(params, cfg, sink).expect("run");
        let wall = start.elapsed();
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX).max(1);
        let secs = wall_ns as f64 / 1e9;
        let rec = Record {
            workload: params.name.to_string(),
            config: String::new(),
            fast_forward: cfg.fast_forward,
            null_sink,
            sim_ns: result.elapsed_ns,
            instructions: result.instructions,
            mpki: result.mpki,
            wall_ns,
            sim_ns_per_sec: result.elapsed_ns as f64 / secs,
            mips: result.instructions as f64 / secs / 1e6,
        };
        if best.as_ref().is_none_or(|b| rec.wall_ns < b.wall_ns) {
            best = Some(rec);
        }
    }
    best.expect("at least one repetition ran")
}

fn main() {
    let e = experiment_from_env();
    let reps: u32 = std::env::var("VSV_THROUGHPUT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let configs = [
        ("baseline", SystemConfig::baseline()),
        ("vsv", SystemConfig::vsv_with_fsms()),
    ];
    println!(
        "Throughput: simulation speed over the SPEC2K mix \
         ({} insts/run, serial, best of {reps})",
        e.instructions
    );
    println!(
        "{:<10} {:<8} | {:>12} {:>12} | {:>8} | {:>7}",
        "bench", "config", "ns/s (ff on)", "ns/s (off)", "speedup", "MPKI"
    );
    rule(70);

    let mut records = Vec::new();
    let mut on_agg = Aggregate::default();
    let mut off_agg = Aggregate::default();
    let mut mb_on = Aggregate::default();
    let mut mb_off = Aggregate::default();
    for params in spec2k_twins() {
        for (label, cfg) in configs {
            let mut on = timed_run(e, &params, cfg.with_fast_forward(true), reps, true);
            on.config = label.to_string();
            let mut off = timed_run(e, &params, cfg.with_fast_forward(false), reps, false);
            off.config = label.to_string();
            assert_eq!(
                (on.sim_ns, on.instructions),
                (off.sim_ns, off.instructions),
                "fast-forward + null trace sink changed simulated results for {}",
                params.name
            );
            println!(
                "{:<10} {:<8} | {:>12.3e} {:>12.3e} | {:>7.2}x | {:>7.1}",
                params.name,
                label,
                on.sim_ns_per_sec,
                off.sim_ns_per_sec,
                on.sim_ns_per_sec / off.sim_ns_per_sec,
                on.mpki,
            );
            on_agg.add(&on);
            off_agg.add(&off);
            if on.mpki > 4.0 {
                mb_on.add(&on);
                mb_off.add(&off);
            }
            records.push(on);
            records.push(off);
        }
    }

    let overall_speedup = on_agg.sim_ns_per_sec / off_agg.sim_ns_per_sec;
    let memory_bound_speedup = if mb_off.wall_ns > 0 {
        mb_on.sim_ns_per_sec / mb_off.sim_ns_per_sec
    } else {
        overall_speedup
    };
    let pre_pr = std::env::var("VSV_PRE_PR_BASELINE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PRE_PR_MEMORY_BOUND_SIM_NS_PER_SEC);
    let vs_pre_pr = mb_on.sim_ns_per_sec / pre_pr;
    rule(70);
    println!(
        "overall: {:.3e} sim-ns/s on, {:.3e} off ({overall_speedup:.2}x); \
         memory-bound speedup {memory_bound_speedup:.2}x; {:.2} MIPS on",
        on_agg.sim_ns_per_sec, off_agg.sim_ns_per_sec, on_agg.mips
    );
    println!(
        "memory-bound: {:.3e} sim-ns/s vs pre-PR loop {pre_pr:.3e} ({vs_pre_pr:.2}x)",
        mb_on.sim_ns_per_sec
    );

    let report = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        records,
        fast_forward_on: on_agg,
        fast_forward_off: off_agg,
        overall_speedup,
        memory_bound_speedup,
        memory_bound_on: mb_on,
        memory_bound_off: mb_off,
        pre_pr_memory_bound_sim_ns_per_sec: pre_pr,
        memory_bound_speedup_vs_pre_pr: vs_pre_pr,
    };
    let path = std::env::var("VSV_THROUGHPUT_JSON")
        .unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("report written");
    println!("wrote {path}");

    // CI perf-smoke gate: measured fast-forward-on throughput must not
    // fall more than 30% below the committed reference.
    if let Ok(v) = std::env::var("VSV_THROUGHPUT_BASELINE") {
        let baseline: f64 = v.parse().expect("VSV_THROUGHPUT_BASELINE is a number");
        let floor = baseline * 0.7;
        println!(
            "gate: measured {:.3e} sim-ns/s vs committed {baseline:.3e} (floor {floor:.3e})",
            on_agg.sim_ns_per_sec
        );
        if on_agg.sim_ns_per_sec < floor {
            eprintln!(
                "FAIL: throughput regressed >30% below the committed baseline \
                 ({:.3e} < {floor:.3e} sim-ns/s)",
                on_agg.sim_ns_per_sec
            );
            std::process::exit(1);
        }
    }
}
