//! Determinism contract for the low-voltage reliability layer
//! (`DESIGN.md` §13): the counter-based error PRNG keys every draw on
//! the read's (address, time) coordinates, never on execution order,
//! so
//!
//! 1. a fixed seed reproduces bit-identical results — including
//!    `read_errors`/`read_retries` and the SLO judgment — across
//!    repeated runs and across sweep worker counts;
//! 2. quiescent-stall fast-forward stays an *exact* optimisation with
//!    the error model on: results and JSONL trace bytes agree with
//!    the non-skipping run;
//! 3. error rate 0 is free: the run (and its trace) is bit-identical
//!    to one that never heard of the error model.

mod common;

use common::run_traced;
use vsv::{Experiment, PolicySpec, SloSpec, Sweep, SystemConfig, TraceLevel};
use vsv_workloads::twin;

const ERROR_RATE: f64 = 0.05;
const ERROR_SEED: u64 = 7;

fn experiment() -> Experiment {
    Experiment {
        warmup_instructions: 10_000,
        instructions: 30_000,
    }
}

/// Memory-bound twin: plenty of low-voltage residency, so the error
/// path actually fires.
fn params() -> vsv_workloads::WorkloadParams {
    twin("mcf").expect("mcf exists")
}

fn slo() -> SloSpec {
    SloSpec::new(10_000, 8)
}

/// A VSV config with the error model armed.
fn erroring(cfg: SystemConfig) -> SystemConfig {
    cfg.with_error_rate(ERROR_RATE)
        .with_error_seed(ERROR_SEED)
        .with_slo(Some(slo()))
}

#[test]
fn fixed_seed_reproduces_retry_counts_and_trace_bytes() {
    let e = experiment();
    let cfg = erroring(SystemConfig::vsv_with_fsms());
    let (r1, m1, t1) = run_traced(&e, &params(), cfg, TraceLevel::Events).expect("first run");
    let (r2, m2, t2) = run_traced(&e, &params(), cfg, TraceLevel::Events).expect("second run");
    assert!(r1.read_errors > 0, "error path never fired — dead test");
    assert!(r1.read_retries >= r1.read_errors);
    assert!(r1.slo.is_some(), "SLO judgment missing");
    assert_eq!(r1, r2, "results diverged under a fixed error seed");
    assert_eq!(m1, m2, "metrics diverged under a fixed error seed");
    assert_eq!(t1, t2, "trace bytes diverged under a fixed error seed");
}

#[test]
fn erroring_sweep_is_worker_count_independent() {
    let sweep = Sweep::over_grid(
        experiment(),
        &[params(), twin("ammp").expect("ammp exists")],
        &[
            erroring(SystemConfig::vsv_with_fsms()),
            erroring(SystemConfig::with_policy(PolicySpec::ErrorBackoff)),
        ],
    );
    let (mut rep1, traces1) = sweep.report_traced(1, TraceLevel::Events);
    let (mut rep4, traces4) = sweep.report_traced(4, TraceLevel::Events);
    assert_eq!(traces1, traces4, "per-job trace bytes depend on workers");
    rep1.wall_ns = 0;
    rep4.wall_ns = 0;
    rep1.workers = 0;
    rep4.workers = 0;
    for r in rep1.records.iter_mut().chain(rep4.records.iter_mut()) {
        r.wall_ns = 0;
    }
    assert_eq!(rep1, rep4, "reports diverged across worker counts");
    let retried = rep1
        .into_results()
        .iter()
        .map(|r| r.read_retries)
        .fold(0u64, u64::saturating_add);
    assert!(retried > 0, "no cell ever retried — dead test");
}

#[test]
fn fast_forward_is_exact_under_errors() {
    let e = experiment();
    for (label, cfg) in [
        ("dual-fsm", erroring(SystemConfig::vsv_with_fsms())),
        (
            "error-backoff",
            erroring(SystemConfig::with_policy(PolicySpec::ErrorBackoff)),
        ),
        // Deeper than two rails the backoff gate turns the inner
        // ladder's down-steps into holds while engaged, so skips must
        // respect the gate as well as the inner monitor.
        (
            "error-backoff@4",
            erroring(SystemConfig::with_policy(PolicySpec::ErrorBackoff).with_ladder_depth(4)),
        ),
    ] {
        let (on, m_on, t_on) = run_traced(
            &e,
            &params(),
            cfg.with_fast_forward(true),
            TraceLevel::Events,
        )
        .expect("ff-on run");
        let (off, m_off, t_off) = run_traced(
            &e,
            &params(),
            cfg.with_fast_forward(false),
            TraceLevel::Events,
        )
        .expect("ff-off run");
        assert!(on.read_errors > 0, "{label}: error path never fired");
        assert_eq!(on, off, "{label}: results diverged with fast-forward");
        // The ff-on stream differs only in fast-forward's own
        // artifacts, both pre-dating the error model: `FastForward`
        // marker events, and `FsmExpired{Up}` timestamps quantized
        // to batch boundaries. The error model must contribute zero
        // divergence: every reliability event byte-identical.
        let reliability_lines = |bytes: &[u8]| -> String {
            String::from_utf8(bytes.to_vec())
                .expect("trace is UTF-8")
                .lines()
                .filter(|l| {
                    ["ReadError", "RetryExhausted", "BackoffEngaged"]
                        .iter()
                        .any(|k| l.starts_with(&format!("{{\"{k}\"")))
                })
                .fold(String::new(), |mut s, l| {
                    s.push_str(l);
                    s.push('\n');
                    s
                })
        };
        let (rel_on, rel_off) = (reliability_lines(&t_on), reliability_lines(&t_off));
        assert!(
            !rel_on.is_empty(),
            "{label}: no reliability events traced — dead test"
        );
        assert_eq!(
            rel_on, rel_off,
            "{label}: reliability trace bytes diverged with fast-forward"
        );
        // The registries differ only in the fast-forward accounting
        // itself; every reliability counter must agree exactly.
        for id in [
            vsv::CounterId::ReadErrors,
            vsv::CounterId::ReadRetries,
            vsv::CounterId::BackoffVetoes,
            vsv::CounterId::SloViolations,
        ] {
            assert_eq!(
                m_on.get(id),
                m_off.get(id),
                "{label}: {id:?} diverged with fast-forward"
            );
        }
    }
}

#[test]
fn error_rate_zero_is_the_unperturbed_run() {
    let e = experiment();
    let plain = SystemConfig::vsv_with_fsms();
    let zeroed = SystemConfig::vsv_with_fsms()
        .with_error_rate(0.0)
        .with_error_seed(ERROR_SEED);
    let (r_plain, m_plain, t_plain) =
        run_traced(&e, &params(), plain, TraceLevel::Events).expect("plain run");
    let (r_zero, m_zero, t_zero) =
        run_traced(&e, &params(), zeroed, TraceLevel::Events).expect("zero-rate run");
    assert_eq!(r_zero.read_errors, 0);
    assert_eq!(r_zero.read_retries, 0);
    assert_eq!(r_plain, r_zero, "error rate 0 perturbed the simulation");
    assert_eq!(m_plain, m_zero, "error rate 0 perturbed the metrics");
    assert_eq!(t_plain, t_zero, "error rate 0 perturbed the trace bytes");
}

#[test]
fn always_high_never_errors() {
    // `always-high` never leaves VDDH, where the error curve is
    // *exactly* zero — the structural reliability ceiling the
    // frontier bench leans on.
    let e = experiment();
    let (r, _) = e
        .try_run(
            &params(),
            erroring(SystemConfig::with_policy(PolicySpec::AlwaysHigh)),
            None,
        )
        .expect("always-high run");
    assert_eq!(r.read_errors, 0, "errors at VDDH");
    assert_eq!(r.read_retries, 0);
    let s = r.slo.expect("SLO judgment present");
    assert!(s.compliant, "a zero-exposure run must meet any SLO");
    assert_eq!(s.retry_rate_ppm, 0);
}
