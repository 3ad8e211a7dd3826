//! Determinism contract for the observability layer
//! (`docs/observability.md`):
//!
//! 1. the JSONL trace of a run is **byte-identical** across repeated
//!    runs of the same workload/configuration;
//! 2. a traced sweep's per-job buffers (and their grid-order
//!    concatenation) do not depend on the worker count;
//! 3. attaching a [`NullSink`] leaves the simulated results
//!    bit-identical to an un-instrumented run (the bench gate in
//!    `crates/bench/src/bin/throughput.rs` bounds its *cost*; this
//!    proves its *transparency*);
//! 4. every emitted line parses back into a [`TraceEvent`], and the
//!    stream carries the structure the summarizer relies on (a
//!    seeding `ModeEntered` first, one `WindowClosed` last).

mod common;

use common::run_traced;
use vsv::{Experiment, MetricsRegistry, NullSink, Sweep, SystemConfig, TraceEvent, TraceLevel};
use vsv_workloads::twin;

fn experiment() -> Experiment {
    Experiment {
        warmup_instructions: 10_000,
        instructions: 30_000,
    }
}

/// The memory-bound twin used throughout: plenty of L2 misses, so the
/// trace exercises every event kind.
fn params() -> vsv_workloads::WorkloadParams {
    twin("mcf").expect("mcf exists")
}

#[test]
fn jsonl_bytes_are_identical_across_runs() {
    let e = experiment();
    for level in [
        TraceLevel::Transitions,
        TraceLevel::Events,
        TraceLevel::Full,
    ] {
        let (r1, m1, t1) =
            run_traced(&e, &params(), SystemConfig::vsv_with_fsms(), level).expect("first run");
        let (r2, m2, t2) =
            run_traced(&e, &params(), SystemConfig::vsv_with_fsms(), level).expect("second run");
        assert_eq!(r1, r2, "results diverged at {level:?}");
        assert_eq!(m1, m2, "metrics diverged at {level:?}");
        assert!(!t1.is_empty(), "no trace bytes at {level:?}");
        assert_eq!(t1, t2, "trace bytes diverged at {level:?}");
    }
}

#[test]
fn traced_sweep_is_worker_count_independent() {
    let sweep = Sweep::over_grid(
        experiment(),
        &[params(), twin("gzip").expect("gzip exists")],
        &[SystemConfig::baseline(), SystemConfig::vsv_with_fsms()],
    );
    let (mut rep1, traces1) = sweep.report_traced(1, TraceLevel::Events);
    let (mut rep4, traces4) = sweep.report_traced(4, TraceLevel::Events);
    assert_eq!(traces1.len(), 4);
    assert_eq!(traces1, traces4, "per-job trace buffers depend on workers");
    assert_eq!(
        traces1.concat(),
        traces4.concat(),
        "concatenated trace bytes depend on workers"
    );
    // The reports agree too, up to host timing.
    rep1.wall_ns = 0;
    rep4.wall_ns = 0;
    rep1.workers = 0;
    rep4.workers = 0;
    for r in rep1.records.iter_mut().chain(rep4.records.iter_mut()) {
        r.wall_ns = 0;
    }
    assert_eq!(rep1, rep4);
}

#[test]
fn null_sink_is_transparent() {
    let e = experiment();
    for cfg in [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()] {
        let (plain, _) = e.try_run(&params(), cfg, None).expect("plain run");
        let (instrumented, metrics) = e
            .try_run(
                &params(),
                cfg,
                Some((TraceLevel::Events, Box::new(NullSink))),
            )
            .expect("instrumented run");
        assert_eq!(plain, instrumented, "NullSink changed simulated results");
        assert_ne!(metrics, MetricsRegistry::default(), "no metrics collected");
    }
}

#[test]
fn metrics_ride_along_without_changing_results() {
    let e = experiment();
    let (with_metrics, metrics) = e
        .try_run(&params(), SystemConfig::vsv_with_fsms(), None)
        .expect("metrics run");
    // The counters agree with the result's own accounting.
    assert_eq!(
        metrics.get(vsv::CounterId::DownTransitions),
        with_metrics.mode.down_transitions
    );
    assert_eq!(
        metrics.get(vsv::CounterId::UpTransitions),
        with_metrics.mode.up_transitions
    );
    assert_eq!(metrics.get(vsv::CounterId::Windows), 1);
}

#[test]
fn every_line_parses_and_the_stream_is_well_formed() {
    let e = experiment();
    let (result, _, bytes) = run_traced(
        &e,
        &params(),
        SystemConfig::vsv_with_fsms(),
        TraceLevel::Events,
    )
    .expect("traced run");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(text.ends_with('\n'), "trace ends with a newline");
    let events: Vec<TraceEvent> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line)
                .unwrap_or_else(|err| panic!("line {}: {err:?}: {line}", i + 1))
        })
        .collect();
    assert!(
        matches!(events.first(), Some(TraceEvent::ModeEntered { at, .. }) if *at > 0),
        "stream starts with the seeding ModeEntered, got {:?}",
        events.first()
    );
    match events.last() {
        Some(TraceEvent::WindowClosed { instructions, .. }) => {
            assert_eq!(*instructions, result.instructions);
        }
        other => panic!("stream ends with WindowClosed, got {other:?}"),
    }
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
    for kind in [
        "ModeEntered",
        "MissDetected",
        "MissReturned",
        "FsmArmed",
        "FsmFired",
    ] {
        assert!(kinds.contains(kind), "mcf trace missing {kind}: {kinds:?}");
    }
    // Times never decrease: the stream is a timeline.
    let mut last = 0;
    for e in &events {
        let at = event_time(e);
        assert!(at >= last, "time went backwards: {e:?} after {last}");
        last = at;
    }
}

/// The timestamp of an event, for monotonicity checking.
fn event_time(e: &TraceEvent) -> u64 {
    match *e {
        // `CoreStart` restarts the clock: each core's stream is its
        // own timeline (single-core streams never carry it, so it is
        // a no-op marker for this suite).
        TraceEvent::JobStart { .. } | TraceEvent::CoreStart { .. } => 0,
        TraceEvent::ModeEntered { at, .. }
        | TraceEvent::FsmArmed { at, .. }
        | TraceEvent::FsmFired { at, .. }
        | TraceEvent::FsmExpired { at, .. }
        | TraceEvent::MissDetected { at, .. }
        | TraceEvent::MissReturned { at, .. }
        | TraceEvent::WindowClosed { at, .. }
        | TraceEvent::ReadError { at, .. }
        | TraceEvent::RetryExhausted { at, .. }
        | TraceEvent::BackoffEngaged { at }
        | TraceEvent::RequestArrived { at, .. }
        | TraceEvent::RequestCompleted { at, .. }
        | TraceEvent::BurstStart { at }
        | TraceEvent::Sample { at, .. } => at,
        TraceEvent::FastForward { from, .. } => from,
    }
}
