//! Golden regression for the `SweepReport` JSON wire format: the
//! report of a fixed 2-job quick sweep, with its (non-deterministic)
//! wall-clock fields zeroed, must serialize to a pinned digest. A
//! change to the report schema, to the JSON encoder, or to the
//! simulation itself must show up here as a deliberate golden update,
//! not a silent drift — same contract as `tests/golden_workloads.rs`.

use vsv::{Experiment, Sweep, SweepReport, SystemConfig, TraceLevel};
use vsv_workloads::twin;

/// The fixed 2-job sweep: gzip under baseline and VSV-with-FSMs at
/// the quick scale.
fn quick_report() -> SweepReport {
    let sweep = Sweep::over_grid(
        Experiment::quick(),
        &[twin("gzip").expect("gzip exists")],
        &[SystemConfig::baseline(), SystemConfig::vsv_with_fsms()],
    );
    sweep.report(2)
}

/// Zeroes every wall-clock field: host timing is the only
/// non-deterministic part of a report.
fn strip_wall_clock(report: &mut SweepReport) {
    report.wall_ns = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
}

/// FNV-1a over the serialized report.
fn digest(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pinned_json() -> String {
    let mut report = quick_report();
    strip_wall_clock(&mut report);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// The pinned digest. If a simulation or schema change is *intended*,
/// regenerate with:
/// `cargo test -p vsv-repro --test sweep_report_golden -- --nocapture --ignored print_digest`
/// and update this constant.
// History:
// * reliability PR: `RunResult` gained `read_errors`/`read_retries`/
//   `slo` and `JobRecord` gained `slo` — all zero/null here (the
//   quick sweep runs with error rate 0 and no SLO), so the churn was
//   schema-only (0xb7f4_49f1_cc92_a476).
// * service-traffic PR: `RunResult` gained the six request fields
//   (`requests_arrived`/`requests_completed`/`request_backlog` and
//   the p50/p99/p999 latency percentiles) — all zero here (the quick
//   sweep attaches no traffic stream), so the churn is again
//   schema-only; every pre-existing value is bit-identical, pinned by
//   `tests/determinism.rs` and `tests/campaign_equivalence.rs`.
//   (0x306c_5cec_daae_1c1b)
// * multicore PR: `SystemConfig` gained the `cores` axis (part of the
//   config digest, so both digests changed), `JobRecord` gained the
//   `cores` field (1 here) and `RunResult` the `core_results` vector
//   (empty here — the quick sweep is single-core, which never routes
//   through the multicore path); every simulated value is
//   bit-identical, pinned by `tests/multicore_equivalence.rs`.
const PINNED_DIGEST: u64 = 0xca6d_6445_370e_ad75;

#[test]
fn report_json_matches_pinned_digest() {
    let got = digest(&pinned_json());
    assert_eq!(
        got, PINNED_DIGEST,
        "SweepReport JSON changed — deliberate schema/simulation change? \
         (new digest: {got:#018x})"
    );
}

#[test]
fn report_json_round_trips() {
    let mut report = quick_report();
    strip_wall_clock(&mut report);
    let json = serde_json::to_string(&report).expect("serializes");
    let back: SweepReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(report, back);
}

#[test]
fn report_shape_is_stable() {
    let report = quick_report();
    assert_eq!(report.jobs, 2);
    assert_eq!(report.workers, 2);
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.records[0].workload, "gzip");
    assert_eq!(report.records[1].workload, "gzip");
    assert_ne!(
        report.records[0].config_digest, report.records[1].config_digest,
        "baseline and VSV configs must digest differently"
    );
    let v: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&report).expect("json")).expect("parses");
    for key in ["jobs", "workers", "wall_ns", "metrics", "records"] {
        assert!(v.get(key).is_some(), "missing top-level key {key}");
    }
    let first = &v
        .get("records")
        .and_then(|r| r.as_array())
        .expect("records")[0];
    for key in [
        "job",
        "workload",
        "config_digest",
        "policy",
        "ladder",
        "cores",
        "outcome",
        "metrics",
        "wall_ns",
    ] {
        assert!(first.get(key).is_some(), "missing record key {key}");
    }
    assert_eq!(
        first.get("policy").and_then(|p| p.as_str()),
        Some("disabled")
    );
    assert_eq!(
        first.get("ladder").and_then(|l| l.as_u64()),
        Some(2),
        "both jobs run the paper's two-rail (depth-2) ladder"
    );
    assert_eq!(
        v.get("records")
            .and_then(|r| r.as_array())
            .expect("records")[1]
            .get("policy")
            .and_then(|p| p.as_str()),
        Some("dual-fsm")
    );
}

/// The per-job JSONL trace buffers of a fixed 2-job traced sweep:
/// mcf under VSV-with-FSMs on one core and on a 2-core chip, so the
/// bytes cover both the `job_start` header and the chip's per-core
/// `core_start` replay.
fn traced_sweep_bytes() -> Vec<Vec<u8>> {
    let sweep = Sweep::over_cores(
        Experiment {
            warmup_instructions: 5_000,
            instructions: 15_000,
        },
        &[twin("mcf").expect("mcf exists")],
        SystemConfig::vsv_with_fsms(),
        &[1, 2],
    );
    sweep.report_traced(2, TraceLevel::Events).1
}

/// The pinned digest of the traced sweep's concatenated JSONL bytes.
/// Regenerate as for [`PINNED_DIGEST`] (the `print_digest` helper
/// prints both).
const PINNED_TRACE_DIGEST: u64 = 0xdd75_e0bf_9878_284a;

#[test]
fn traced_sweep_jsonl_matches_pinned_digest() {
    let traces = traced_sweep_bytes();
    assert_eq!(traces.len(), 2);
    let single = String::from_utf8(traces[0].clone()).expect("utf-8 trace");
    let chip = String::from_utf8(traces[1].clone()).expect("utf-8 trace");
    for (name, text) in [("single-core", &single), ("2-core", &chip)] {
        let first = text.lines().next().expect("non-empty trace");
        assert!(
            first.contains("JobStart"),
            "{name} trace opens with {first}"
        );
    }
    assert!(
        !single.contains("CoreStart"),
        "single-core trace has no core markers"
    );
    assert_eq!(
        chip.matches("CoreStart").count(),
        2,
        "one marker per chip core"
    );
    let got = digest(&String::from_utf8(traces.concat()).expect("utf-8 trace"));
    assert_eq!(
        got, PINNED_TRACE_DIGEST,
        "traced-sweep JSONL bytes changed — deliberate trace/simulation change? \
         (new digest: {got:#018x})"
    );
}

#[test]
#[ignore = "helper: prints the digests for updating PINNED_DIGEST and PINNED_TRACE_DIGEST"]
fn print_digest() {
    println!("PINNED_DIGEST: {:#018x}", digest(&pinned_json()));
    let traces = traced_sweep_bytes().concat();
    let text = String::from_utf8(traces).expect("utf-8 trace");
    println!("PINNED_TRACE_DIGEST: {:#018x}", digest(&text));
}
