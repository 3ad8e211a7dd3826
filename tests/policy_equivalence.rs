//! Cross-policy guarantees for the pluggable DVS policy layer:
//!
//! * `PolicySpec::DualFsm` is the paper's controller — selecting it
//!   through the policy plumbing is bit-identical to the legacy
//!   `SystemConfig::vsv_with_fsms()` constructor (whose behaviour is
//!   itself pinned by the golden/determinism suites, unchanged by the
//!   policy refactor).
//! * `PolicySpec::ImmediateDown` reproduces the FSM-free controller
//!   (`vsv_without_fsms`) exactly, through an independent code path.
//! * Every built-in policy is fast-forward-exact: quiescent-stall
//!   skipping changes nothing, per nanosecond.
//! * `AlwaysHigh` never transitions, so its slowdown is exactly zero.
//! * On a memory-bound workload whose misses overlap real ILP, the
//!   energy-savings ordering `OracleDown >= DualFsm >= ImmediateDown`
//!   holds: clairvoyance beats the heuristic FSMs, and the FSMs beat
//!   diving on every miss (each immediate round trip pays 2x66 nJ of
//!   ramp energy plus the level-converter tax on a still-busy
//!   pipeline).

use vsv::{Comparison, Experiment, ModeTrace, PolicySpec, RunResult, System, SystemConfig};
use vsv_workloads::{twin, AccessPattern, Generator, WorkloadParams};

const TRACE_CAP: usize = 1 << 16;

/// Twins spanning memory-bound (mcf, art, ammp) to compute-bound
/// (gzip, mesa) behaviour.
const TWIN_MIX: [&str; 5] = ["mcf", "art", "ammp", "gzip", "mesa"];

/// A memory-bound workload whose L2 misses are mostly independent of
/// the surrounding computation (low `miss_dependency`) and overlap
/// eight concurrent dependency chains, so the pipeline keeps issuing
/// through much of each miss. This is the regime where diving on every
/// miss (`ImmediateDown`) is counterproductive and the paper's FSMs
/// pay off — the workload the pinned ordering test runs on.
fn ilp_covered_misses() -> WorkloadParams {
    let mut p = WorkloadParams::compute_bound("ilp-covered-misses");
    p.working_set_bytes = 32 * 1024 * 1024;
    p.mem_fraction = 0.35;
    p.far_fraction = 0.30;
    p.pattern = AccessPattern::PermutationChase;
    p.miss_dependency = 0.3;
    p.chase_dependency = 0.3;
    p.ilp_chains = 8;
    p.sw_prefetch_coverage = 0.0;
    p
}

fn run(params: &WorkloadParams, cfg: SystemConfig) -> RunResult {
    Experiment::quick()
        .try_run(params, cfg, None)
        .expect("run")
        .0
}

/// Runs with tracing on and the given fast-forward setting.
fn run_traced(
    params: WorkloadParams,
    cfg: SystemConfig,
    fast_forward: bool,
) -> (RunResult, ModeTrace) {
    let e = Experiment::quick();
    let mut sys = System::try_new(cfg.with_fast_forward(fast_forward), Generator::new(params))
        .expect("valid config");
    sys.set_workload_name(params.name);
    sys.enable_trace(TRACE_CAP);
    sys.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = sys.try_run(e.instructions).expect("run");
    let trace = sys.take_trace().expect("tracing was on");
    (result, trace)
}

fn savings_pct(base: &RunResult, run: &RunResult) -> f64 {
    100.0 * (base.energy_pj - run.energy_pj) / base.energy_pj
}

/// Selecting `DualFsm` through the policy plumbing is the paper's
/// controller, bit for bit.
#[test]
fn dual_fsm_policy_is_bit_identical_to_the_legacy_constructor() {
    for name in TWIN_MIX {
        let params = twin(name).expect("twin exists");
        let legacy = run(&params, SystemConfig::vsv_with_fsms());
        let policy = run(&params, SystemConfig::with_policy(PolicySpec::DualFsm));
        assert_eq!(
            legacy, policy,
            "DualFsm diverged from vsv_with_fsms on {name}"
        );
    }
}

/// `ImmediateDown` reproduces the FSM-free controller exactly.
#[test]
fn immediate_down_policy_matches_the_fsm_free_controller() {
    for name in TWIN_MIX {
        let params = twin(name).expect("twin exists");
        let legacy = run(&params, SystemConfig::vsv_without_fsms());
        let policy = run(
            &params,
            SystemConfig::with_policy(PolicySpec::ImmediateDown),
        );
        assert_eq!(
            legacy, policy,
            "ImmediateDown diverged from vsv_without_fsms on {name}"
        );
    }
}

/// Every built-in policy is exact under quiescent-stall fast-forward:
/// identical results and identical per-nanosecond mode traces.
#[test]
fn every_policy_is_fast_forward_exact() {
    let mut workloads: Vec<WorkloadParams> = ["mcf", "gzip"]
        .iter()
        .map(|n| twin(n).expect("twin exists"))
        .collect();
    workloads.push(ilp_covered_misses());
    for params in workloads {
        for spec in PolicySpec::ALL {
            let cfg = SystemConfig::with_policy(spec);
            let (on, trace_on) = run_traced(params, cfg, true);
            let (off, trace_off) = run_traced(params, cfg, false);
            assert_eq!(
                on,
                off,
                "RunResult diverged with fast-forward for {} under {}",
                params.name,
                spec.name()
            );
            assert_eq!(
                trace_on,
                trace_off,
                "ModeTrace diverged with fast-forward for {} under {}",
                params.name,
                spec.name()
            );
        }
    }
}

/// `AlwaysHigh` never leaves VDDH, so it finishes in exactly the
/// baseline's time on every twin.
#[test]
fn always_high_slowdown_is_exactly_zero() {
    for name in TWIN_MIX {
        let params = twin(name).expect("twin exists");
        let base = run(&params, SystemConfig::baseline());
        let high = run(&params, SystemConfig::with_policy(PolicySpec::AlwaysHigh));
        assert_eq!(
            base.elapsed_ns, high.elapsed_ns,
            "AlwaysHigh changed the execution time on {name}"
        );
        let cmp = Comparison::of(&base, &high);
        assert_eq!(cmp.perf_degradation_pct, 0.0, "nonzero slowdown on {name}");
    }
}

/// The pinned energy-savings ordering on the ILP-covered-misses
/// workload: `OracleDown >= DualFsm >= ImmediateDown`.
#[test]
fn policy_savings_ordering_holds_on_ilp_covered_misses() {
    let params = ilp_covered_misses();
    let base = run(&params, SystemConfig::baseline());
    assert!(
        base.mpki > 4.0,
        "ordering workload must be memory-bound (got {:.1} MPKI)",
        base.mpki
    );

    let dual = run(&params, SystemConfig::with_policy(PolicySpec::DualFsm));
    let imm = run(
        &params,
        SystemConfig::with_policy(PolicySpec::ImmediateDown),
    );
    let oracle = run(&params, SystemConfig::with_policy(PolicySpec::OracleDown));

    let s_dual = savings_pct(&base, &dual);
    let s_imm = savings_pct(&base, &imm);
    let s_oracle = savings_pct(&base, &oracle);

    assert!(
        s_oracle >= s_dual,
        "oracle ({s_oracle:.2}%) should save at least as much as dual-fsm ({s_dual:.2}%)"
    );
    assert!(
        s_dual >= s_imm,
        "dual-fsm ({s_dual:.2}%) should save at least as much as immediate-down ({s_imm:.2}%) \
         when misses overlap ILP"
    );
    // All three must actually save something for the ordering to mean
    // anything.
    assert!(s_imm > 5.0, "immediate-down saved only {s_imm:.2}%");
}
