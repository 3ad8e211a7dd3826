//! The multicore backward-compatibility contract: a one-core
//! [`MulticoreSystem`] — one voltage domain over the chip's fabric —
//! reproduces the plain single-core [`System`] *bit for bit* (same
//! cycles, same energy, same per-nanosecond mode trace), and the
//! runner's `--cores 1` path is byte-identical to the plain path with
//! fast-forward on or off. Both sides run on a `SharedFabric`: the
//! plain system's hierarchy owns a one-core fabric, and the chip's core
//! swaps in the chip's. What this suite pins is that the chip's
//! construction and lockstep loop add nothing to that one path, under
//! every policy, at two ladder depths, and with read errors and bursty
//! traffic.
//!
//! The N = 2 half pins the new behaviour: lockstep runs are
//! deterministic, chip results carry one window per core, and two
//! memory-bound co-runners on one L2 really do contend (each core's
//! window is no shorter than its solo run).

mod samples;

use samples::{Sample, SampleLog};
use vsv::{
    CounterId, Experiment, MulticoreSystem, PolicySpec, RunResult, SimError, Sweep, SweepReport,
    System, SystemConfig, TraceLevel,
};
use vsv_workloads::{twin, Generator, TrafficSpec, WorkloadParams};

/// Memory-bound and compute-bound twins, the mix the policy and
/// ladder equivalence suites pin on.
const TWIN_MIX: [&str; 5] = ["mcf", "art", "ammp", "gzip", "mesa"];

/// One memory-bound and one compute-bound twin: the bit-identity
/// grid's workloads.
const BIT_IDENTITY_TWINS: [&str; 2] = ["mcf", "gzip"];

/// Every policy on a `depth`-level ladder.
fn every_policy_at_depth(depth: usize) -> Vec<SystemConfig> {
    PolicySpec::ALL
        .into_iter()
        .map(|policy| SystemConfig::with_policy(policy).with_ladder_depth(depth))
        .collect()
}

/// Plain single-core reference, with a full-level sample log attached
/// from construction: the result plus the whole sample stream.
fn run_plain(params: WorkloadParams, cfg: SystemConfig) -> (RunResult, Vec<Sample>) {
    let e = Experiment::quick();
    let mut sys = System::try_new(cfg, Generator::new(params)).expect("valid config");
    sys.set_workload_name(params.name);
    let log = SampleLog::default();
    sys.set_event_sink(TraceLevel::Full, log.sink());
    sys.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = sys.try_run(e.instructions).expect("run");
    drop(sys.take_event_sink());
    (result, log.take())
}

/// The same run through a one-domain chip.
fn run_chip_of_1(params: &WorkloadParams, cfg: SystemConfig) -> (RunResult, Vec<Sample>) {
    let e = Experiment::quick();
    let mut chip =
        MulticoreSystem::try_new(cfg.with_cores(1), params).expect("valid one-core config");
    let log = SampleLog::default();
    chip.set_event_sink(0, TraceLevel::Full, log.sink());
    chip.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = chip.try_run(e.instructions).expect("run");
    assert!(chip.take_event_sink(0).is_some(), "core 0 was traced");
    (result, log.take())
}

/// Strips the two fields that differ *by construction* at N = 1: the
/// chip aggregate carries the per-core window vector, and per-core
/// streams are suffixed `#0`. Everything simulated must match.
fn normalized(mut r: RunResult) -> RunResult {
    r.core_results.clear();
    r.workload = r.workload.replace("#0", "");
    r
}

/// Runs every config in `configs` with fast-forward on (the chip's
/// core parks where the plain system skips) and off, on both
/// bit-identity twins, and asserts the one-core chip reproduces the
/// plain system exactly. Returns the plain results for dead-test
/// checks.
fn assert_one_core_chips_match(configs: &[SystemConfig]) -> Vec<RunResult> {
    let mut results = Vec::new();
    for cfg in configs
        .iter()
        .flat_map(|cfg| [true, false].map(|ff| cfg.with_fast_forward(ff)))
    {
        for name in BIT_IDENTITY_TWINS {
            let params = twin(name).expect("twin exists");
            let (plain, plain_trace) = run_plain(params, cfg);
            let (chip, chip_trace) = run_chip_of_1(&params, cfg);
            let cell = format!(
                "{name} ({:?}, {} levels, error rate {}, traffic {}, ff {})",
                cfg.vsv.policy,
                cfg.vsv.ladder.depth(),
                cfg.error_rate,
                cfg.traffic.is_some(),
                cfg.fast_forward
            );
            assert_eq!(chip.core_results.len(), 1, "one window per core");
            assert_eq!(
                normalized(chip.core_results[0].clone()),
                normalized(plain.clone()),
                "core-0 window diverged from the plain system on {cell}"
            );
            assert_eq!(
                normalized(chip),
                normalized(plain.clone()),
                "chip aggregate diverged from the plain system on {cell}"
            );
            assert_eq!(
                chip_trace, plain_trace,
                "per-nanosecond sample stream diverged on {cell}"
            );
            results.push(plain);
        }
    }
    results
}

/// Cycles, energy, mode residency, histograms: the one-core chip
/// reproduces the plain system exactly under every policy on the
/// paper's two rails.
#[test]
fn one_core_chip_is_bit_identical_to_plain_system() {
    assert_one_core_chips_match(&every_policy_at_depth(2));
}

/// The same contract under every policy on a 4-level ladder, plus one
/// cell with low-voltage read errors and an MMPP request train (retries
/// feed the policy; arrivals cap each park).
#[test]
fn one_core_chip_is_bit_identical_on_deep_ladders_under_errors_and_traffic() {
    let mut configs = every_policy_at_depth(4);
    configs.push(
        SystemConfig::with_policy(PolicySpec::ErrorBackoff)
            .with_ladder_depth(4)
            .with_error_rate(0.02)
            .with_error_seed(7)
            .with_traffic(Some(
                TrafficSpec::mmpp(0.2, 1.0, 5_000, 5_000, 1_000).with_seed(5),
            )),
    );
    let results = assert_one_core_chips_match(&configs);
    // The stressed cell's runs come last: ff on and off, each twin.
    let stressed = &results[results.len() - 2 * BIT_IDENTITY_TWINS.len()..];
    assert!(
        stressed.iter().any(|r| r.read_retries > 0),
        "no read ever retried — dead test"
    );
    assert!(
        stressed.iter().all(|r| r.requests_arrived > 0),
        "no request ever arrived — dead test"
    );
}

/// A zero-instruction window closes at once: no nanosecond is
/// stepped, and the reported window is empty — on the plain system
/// and on a one-core chip alike, before and after real work.
#[test]
fn zero_length_windows_close_without_stepping() -> Result<(), SimError> {
    let params = twin("mcf").expect("twin exists");
    let assert_empty = |r: &RunResult, label: &str| {
        assert_eq!(r.instructions, 0, "{label}");
        assert_eq!(r.elapsed_ns, 0, "{label}");
        assert_eq!(r.pipeline_cycles, 0, "{label}");
        assert_eq!(r.energy_pj, 0.0, "{label}");
    };
    for ff in [true, false] {
        let cfg = SystemConfig::vsv_with_fsms().with_fast_forward(ff);
        let mut sys = System::try_new(cfg, Generator::new(params))?;
        for warm in [0, 2_000] {
            sys.try_warm_up(warm)?;
            let at = sys.now();
            sys.try_warm_up(0)?;
            assert_eq!(sys.now(), at, "warm_up(0) stepped the system (ff {ff})");
            let r = sys.try_run(0)?;
            assert_eq!(sys.now(), at, "run(0) stepped the system (ff {ff})");
            assert_empty(&r, &format!("system after {warm} (ff {ff})"));
            assert_eq!(sys.window_metrics().get(CounterId::Windows), 1);
        }

        let mut chip =
            MulticoreSystem::try_new(cfg.with_cores(1), &params).expect("valid one-core config");
        for warm in [0, 2_000] {
            chip.try_warm_up(warm).expect("warm-up");
            let at = chip.now();
            chip.try_warm_up(0).expect("empty warm-up");
            assert_eq!(chip.now(), at, "chip warm-up(0) stepped (ff {ff})");
            let r = chip.try_run(0).expect("empty run");
            assert_eq!(chip.now(), at, "chip run(0) stepped (ff {ff})");
            assert_empty(&r, &format!("chip after {warm} (ff {ff})"));
            assert_eq!(r.core_results.len(), 1);
        }
    }
    Ok(())
}

/// The runner's dispatch: `--cores 1` takes the pre-multicore path,
/// so results are byte-identical with fast-forward on or off.
#[test]
fn runner_with_cores_1_is_byte_identical() -> Result<(), SimError> {
    for fast_forward in [true, false] {
        for name in ["mcf", "gzip"] {
            let params = twin(name).expect("twin exists");
            let cfg = SystemConfig::vsv_with_fsms().with_fast_forward(fast_forward);
            let (before, _) = Experiment::quick().try_run(&params, cfg, None)?;
            let (after, _) = Experiment::quick().try_run(&params, cfg.with_cores(1), None)?;
            assert_eq!(
                before, after,
                "cores = 1 changed the runner output on {name} (fast_forward = {fast_forward})"
            );
        }
    }
    Ok(())
}

// ---- sweep-report digest --------------------------------------------

/// FNV-1a over a serialized report (the digest
/// `tests/sweep_report_golden.rs` pins its golden with).
fn digest(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Host wall-clock and the worker count are inputs, not results.
fn normalized_json(mut report: SweepReport) -> String {
    report.wall_ns = 0;
    report.workers = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// A multicore sweep — every record tagged with its `cores` — digests
/// identically serially and under four workers.
#[test]
fn multicore_sweep_digest_is_worker_count_independent() {
    let params: Vec<WorkloadParams> = TWIN_MIX
        .iter()
        .map(|n| twin(n).expect("twin exists"))
        .collect();
    let sweep = Sweep::over_cores(
        Experiment::quick(),
        &params,
        SystemConfig::vsv_with_fsms(),
        &[1, 2],
    );
    let serial = normalized_json(sweep.report(1));
    let parallel = normalized_json(sweep.report(4));
    assert_eq!(
        digest(&serial),
        digest(&parallel),
        "worker count changed the multicore sweep report"
    );
    assert!(
        serial.contains("\"cores\": 2"),
        "records must carry the cores axis"
    );
}

// ---- N = 2: determinism and real contention -------------------------

/// Two identical lockstep runs produce identical chips, and the chip
/// carries one window per core.
#[test]
fn two_core_runs_are_deterministic() {
    let params = twin("mcf").expect("twin exists");
    let e = Experiment::quick();
    let run = || -> RunResult {
        let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
        let mut chip = MulticoreSystem::try_new(cfg, &params).expect("valid config");
        chip.try_warm_up(e.warmup_instructions).expect("warm-up");
        chip.try_run(e.instructions).expect("run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "lockstep must be deterministic");
    assert_eq!(a.core_results.len(), 2, "one window per core");
    assert_eq!(
        a.instructions,
        a.core_results.iter().map(|c| c.instructions).sum::<u64>(),
        "chip instructions are the sum of the per-core windows"
    );
}

/// Sharing one L2 is not free: each memory-bound co-runner's measured
/// window is at least as long as its solo (one-core chip) run, and
/// the pair's combined L2 pressure shows somewhere (at least one core
/// strictly slower than solo).
#[test]
fn two_memory_bound_cores_contend_on_the_shared_l2() {
    let params = twin("mcf").expect("twin exists");
    let e = Experiment::quick();
    let cfg = SystemConfig::vsv_with_fsms().with_fast_forward(false);
    let (solo, _) = run_chip_of_1(&params, cfg);
    let mut chip =
        MulticoreSystem::try_new(cfg.with_cores(2), &params).expect("valid two-core config");
    chip.try_warm_up(e.warmup_instructions).expect("warm-up");
    let shared = chip.try_run(e.instructions).expect("run");
    // Core 0 of the pair runs the *same stream* as the solo chip
    // (per-core reseeding starts at the base seed), so its window is
    // directly comparable.
    let core0 = &shared.core_results[0];
    assert!(
        core0.elapsed_ns >= solo.elapsed_ns,
        "contended core finished faster than solo ({} < {} ns)",
        core0.elapsed_ns,
        solo.elapsed_ns
    );
    assert!(
        shared
            .core_results
            .iter()
            .any(|c| c.elapsed_ns > solo.elapsed_ns),
        "two mcf streams on one L2 showed no contention at all"
    );
}

/// The typed rejection: a heterogeneous chip needs exactly one
/// parameter point per core.
#[test]
fn heterogeneous_chip_rejects_mismatched_parameter_lists() {
    let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
    let one = [twin("mcf").expect("twin exists")];
    let err = MulticoreSystem::try_new_heterogeneous(cfg, &one).expect_err("1 point, 2 cores");
    assert!(
        matches!(err, SimError::InvalidConfig { .. }),
        "expected InvalidConfig, got {err:?}"
    );
}
