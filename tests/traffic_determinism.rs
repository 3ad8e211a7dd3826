//! Determinism contract for the service-traffic subsystem
//! (`DESIGN.md` §14): the arrival stream is a pure function of the
//! traffic spec's seed and simulated time, and request accounting
//! rides on the committed-instruction stream the core executes
//! anyway, so
//!
//! 1. a fixed seed reproduces bit-identical results — request counts,
//!    latency percentiles, and every `RequestArrived` /
//!    `RequestCompleted` / `BurstStart` trace line — across repeated
//!    runs and across sweep worker counts;
//! 2. quiescent-stall fast-forward stays an *exact* optimisation with
//!    traffic attached: the skip caps at the next pending arrival, so
//!    results and request-event trace bytes agree with the
//!    non-skipping run;
//! 3. traffic is pure accounting: attaching a stream leaves the
//!    simulated timing, energy, and mode residency bit-identical to a
//!    run that never heard of it.

mod common;

use common::run_traced;
use vsv::{Experiment, Sweep, SystemConfig, TraceLevel, TrafficSpec};
use vsv_workloads::twin;

fn experiment() -> Experiment {
    Experiment {
        warmup_instructions: 10_000,
        instructions: 30_000,
    }
}

/// Memory-bound twin: plenty of L2 misses, so DVS transitions and
/// fast-forward windows interleave with the request lifecycle.
fn params() -> vsv_workloads::WorkloadParams {
    twin("mcf").expect("mcf exists")
}

/// A bursty stream sized so that ON phases queue a handful of
/// requests at this twin's service rate (~0.34 IPC).
fn bursty() -> TrafficSpec {
    TrafficSpec::mmpp(0.02, 0.5, 3_000, 6_000, 1_500).with_seed(9)
}

/// The request-lifecycle lines of a JSONL trace, concatenated.
fn request_lines(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec())
        .expect("trace is UTF-8")
        .lines()
        .filter(|l| {
            ["RequestArrived", "RequestCompleted", "BurstStart"]
                .iter()
                .any(|k| l.starts_with(&format!("{{\"{k}\"")))
        })
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
}

#[test]
fn fixed_seed_reproduces_request_traces_and_histograms() {
    let e = experiment();
    let cfg = SystemConfig::vsv_with_fsms().with_traffic(Some(bursty()));
    let (r1, m1, t1) = run_traced(&e, &params(), cfg, TraceLevel::Events).expect("first run");
    let (r2, m2, t2) = run_traced(&e, &params(), cfg, TraceLevel::Events).expect("second run");
    assert!(
        r1.requests_arrived > 0,
        "no request ever arrived — dead test"
    );
    assert!(r1.requests_completed > 0, "no request ever completed");
    assert!(r1.request_p99_ns >= r1.request_p50_ns);
    assert!(r1.request_p999_ns >= r1.request_p99_ns);
    assert_eq!(r1, r2, "results diverged under a fixed traffic seed");
    assert_eq!(m1, m2, "metrics diverged under a fixed traffic seed");
    assert_eq!(t1, t2, "trace bytes diverged under a fixed traffic seed");
    assert!(
        !request_lines(&t1).is_empty(),
        "no request events traced — dead test"
    );
}

#[test]
fn traffic_sweep_is_worker_count_independent() {
    let sweep = Sweep::over_grid(
        experiment(),
        &[params(), twin("ammp").expect("ammp exists")],
        &[
            SystemConfig::vsv_with_fsms().with_traffic(Some(bursty())),
            SystemConfig::baseline().with_traffic(Some(bursty())),
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
    let completed = rep1
        .into_results()
        .iter()
        .map(|r| r.requests_completed)
        .fold(0u64, u64::saturating_add);
    assert!(
        completed > 0,
        "no cell ever completed a request — dead test"
    );
}

#[test]
fn fast_forward_is_exact_under_traffic() {
    // The quiescent-stall skip caps at the next pending arrival, so
    // turning it off must change nothing — not the report, not the
    // request-event bytes.
    let e = experiment();
    let cfg = SystemConfig::vsv_with_fsms().with_traffic(Some(bursty()));
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
    assert!(
        on.requests_completed > 0,
        "no request completed — dead test"
    );
    assert_eq!(on, off, "results diverged with fast-forward");
    let (req_on, req_off) = (request_lines(&t_on), request_lines(&t_off));
    assert!(!req_on.is_empty(), "no request events traced — dead test");
    assert_eq!(
        req_on, req_off,
        "request trace bytes diverged with fast-forward"
    );
    for id in [
        vsv::CounterId::RequestsArrived,
        vsv::CounterId::RequestsCompleted,
        vsv::CounterId::BurstStarts,
    ] {
        assert_eq!(
            m_on.get(id),
            m_off.get(id),
            "{id:?} diverged with fast-forward"
        );
    }
}

#[test]
fn traffic_never_perturbs_the_simulation() {
    // A request is a *span* of the twin's committed-instruction
    // stream, not extra work: the core executes the same instructions
    // with or without a stream attached.
    let e = experiment();
    for cfg in [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()] {
        let (plain, _) = e.try_run(&params(), cfg, None).expect("plain run");
        let (loaded, _) = e
            .try_run(&params(), cfg.with_traffic(Some(bursty())), None)
            .expect("loaded run");
        assert_eq!(plain.elapsed_ns, loaded.elapsed_ns, "traffic changed time");
        assert_eq!(
            plain.energy.cycles, loaded.energy.cycles,
            "traffic changed cycles"
        );
        assert_eq!(
            plain.instructions, loaded.instructions,
            "traffic changed the instruction stream"
        );
        assert_eq!(
            plain.energy_pj, loaded.energy_pj,
            "traffic changed the energy accounting"
        );
        assert_eq!(plain.mode, loaded.mode, "traffic changed mode residency");
    }
}

#[test]
fn overload_builds_backlog_deterministically() {
    // Offered load far above the service rate: the queue grows, and
    // it grows to the same depth every time.
    let e = experiment();
    let cfg = SystemConfig::vsv_with_fsms()
        .with_traffic(Some(TrafficSpec::poisson(2.0, 50_000).with_seed(3)));
    let (r1, _) = e.try_run(&params(), cfg, None).expect("first run");
    let (r2, _) = e.try_run(&params(), cfg, None).expect("second run");
    assert!(r1.request_backlog > 0, "overload never queued — dead test");
    assert!(r1.requests_arrived > r1.requests_completed);
    assert_eq!(r1, r2, "backlog diverged under a fixed seed");
}
