//! Integration tests for the fault-tolerant sweep contract
//! (ISSUE: typed simulation errors, per-job panic isolation, and
//! crash-recoverable checkpoint/resume).
//!
//! Pins the two acceptance criteria:
//!
//! 1. a sweep with one injected-deadlock cell completes every other
//!    cell and reports exactly one `Failed` record, in grid order;
//! 2. an interrupted checkpointed sweep resumed via `Sweep::resume`
//!    produces a `SweepReport` bit-identical (wall-clock fields
//!    zeroed) to an uninterrupted run — including when the
//!    interruption left a half-written final line.

use std::path::PathBuf;

use vsv::{Experiment, FaultKind, Sweep, SweepReport, SystemConfig};
use vsv_workloads::{twin, WorkloadParams};

fn quick() -> Experiment {
    Experiment {
        warmup_instructions: 1_000,
        instructions: 3_000,
    }
}

fn twins(names: &[&str]) -> Vec<WorkloadParams> {
    names
        .iter()
        .map(|n| twin(n).unwrap_or_else(|| panic!("twin {n} exists")))
        .collect()
}

/// Host timing is the only non-deterministic part of a report.
fn strip_wall_clock(report: &mut SweepReport) {
    report.wall_ns = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
}

/// A fresh path in the system temp dir (tests run in one process, so
/// a per-test name suffices — no timestamps needed).
fn temp_checkpoint(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("vsv-fault-tolerance-{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn injected_deadlock_is_a_typed_error_not_an_abort() {
    let e = quick();
    let p = twin("gzip").expect("gzip exists");
    let cfg = SystemConfig::baseline().with_injected_fault(FaultKind::Deadlock);
    let err = e.try_run(&p, cfg, None).expect_err("fault armed");
    assert_eq!(err.kind(), "deadlock");
    let rendered = err.to_string();
    assert!(rendered.contains("deadlock"), "{rendered}");
    // The diagnostic carries the recent mode-transition ring.
    assert!(rendered.contains("recent mode transitions"), "{rendered}");
}

#[test]
fn budget_exhaustion_is_a_typed_error() {
    let e = quick();
    let p = twin("gzip").expect("gzip exists");
    let cfg = SystemConfig::baseline().with_max_sim_ns(Some(50));
    let err = e.try_run(&p, cfg, None).expect_err("budget too small");
    assert_eq!(err.kind(), "budget-exhausted");
    assert!(err.to_string().contains("50"), "{err}");
}

#[test]
fn one_poisoned_cell_leaves_the_other_records_ok_and_in_grid_order() {
    let e = quick();
    let params = twins(&["gzip", "mcf", "ammp"]);
    let configs = [
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms().with_injected_fault(FaultKind::Panic),
    ];
    // Grid order is params-major: cell 3 = mcf under the poisoned
    // VSV config.
    let mut sweep = Sweep::over_grid(e, &params, &configs);
    for (i, job) in sweep.jobs_mut().iter_mut().enumerate() {
        if i != 3 {
            job.config.inject_fault = None;
        }
    }
    let report = sweep.report(4);
    assert_eq!(report.jobs, 6);
    assert_eq!(report.records.len(), 6);
    assert_eq!(report.failed_jobs(), 1);
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.job, i, "records must stay in grid order");
        assert_eq!(r.outcome.is_ok(), i != 3, "only cell 3 fails");
    }
    let failed = report.failures().next().expect("one failure");
    assert_eq!(failed.workload, "mcf");
    let err = failed.outcome.error().expect("failed cell has an error");
    assert_eq!(err.kind(), "panic");
    assert!(
        err.to_string().contains("injected panic fault"),
        "panic payload is preserved: {err}"
    );
    match &failed.outcome {
        vsv::JobOutcome::Failed { attempts, .. } => {
            assert_eq!(*attempts, 2, "panicking cells are retried once");
        }
        vsv::JobOutcome::Ok(_) => unreachable!("cell 3 failed"),
    }
}

#[test]
fn failed_sweep_matches_the_healthy_sweep_on_every_other_cell() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let healthy = Sweep::over_grid(e, &params, &configs).report(2);

    let mut sweep = Sweep::over_grid(e, &params, &configs);
    sweep.jobs_mut()[0].config.inject_fault = Some(FaultKind::Deadlock);
    let faulty = sweep.report(2);

    assert_eq!(faulty.failed_jobs(), 1);
    for (h, f) in healthy.records.iter().zip(&faulty.records).skip(1) {
        assert_eq!(
            h.outcome, f.outcome,
            "healthy cells are bit-identical to the all-success sweep"
        );
    }
}

#[test]
fn checkpoint_resume_after_truncation_is_bit_identical() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let sweep = Sweep::over_grid(e, &params, &configs);
    let path = temp_checkpoint("truncation");

    let mut uninterrupted = sweep
        .report_with_checkpoint(2, &path)
        .expect("checkpointed run succeeds");
    strip_wall_clock(&mut uninterrupted);

    let full = std::fs::read_to_string(&path).expect("checkpoint written");
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 records: {full}");

    // Simulate a kill: drop the last two complete records and leave a
    // half-written line behind.
    let half = &lines[2][..lines[2].len() / 2];
    let truncated = format!("{}\n{}\n{half}", lines[0], lines[1]);
    std::fs::write(&path, truncated).expect("rewrite checkpoint");

    let mut resumed = sweep.resume(2, &path).expect("resume succeeds");
    strip_wall_clock(&mut resumed);
    assert_eq!(
        resumed, uninterrupted,
        "resumed report must be bit-identical to the uninterrupted run"
    );

    // The repaired checkpoint is complete again: a second resume runs
    // nothing and still reproduces the report.
    let mut resumed_again = sweep.resume(2, &path).expect("second resume succeeds");
    strip_wall_clock(&mut resumed_again);
    assert_eq!(resumed_again, uninterrupted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_of_missing_file_degenerates_to_a_fresh_run() {
    let e = quick();
    let params = twins(&["gzip"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let sweep = Sweep::over_grid(e, &params, &configs);
    let path = temp_checkpoint("fresh");

    let mut resumed = sweep.resume(2, &path).expect("fresh resume succeeds");
    strip_wall_clock(&mut resumed);
    let mut plain = sweep.report(2);
    strip_wall_clock(&mut plain);
    assert_eq!(resumed, plain);
    // ... and it wrote a complete checkpoint while doing so.
    let written = std::fs::read_to_string(&path).expect("checkpoint created");
    assert_eq!(written.lines().count(), 3, "header + 2 records");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_for_a_different_grid_is_rejected() {
    let e = quick();
    let params = twins(&["gzip"]);
    let path = temp_checkpoint("digest-mismatch");

    let original = Sweep::over_grid(e, &params, &[SystemConfig::baseline()]);
    original
        .report_with_checkpoint(1, &path)
        .expect("checkpointed run succeeds");

    // Same shape, different configuration: the v4 header's grid
    // summary catches the divergence up front, before any per-record
    // digest check, and names the grid (not a job index).
    let other = Sweep::over_grid(e, &params, &[SystemConfig::vsv_with_fsms()]);
    let err = other.resume(1, &path).expect_err("grid mismatch");
    assert!(
        matches!(err, vsv::CheckpointError::GridMismatch { .. }),
        "{err}"
    );

    // A tampered record line still trips the per-record digest check:
    // the header matches (same grid), but the cached cell does not.
    let full = std::fs::read_to_string(&path).expect("checkpoint exists");
    let mut lines: Vec<String> = full.lines().map(str::to_owned).collect();
    let expected = vsv::config_digest(&SystemConfig::baseline());
    assert!(lines[1].contains(&expected), "record line carries digest");
    lines[1] = lines[1].replace(&expected, "deadbeefdeadbeef");
    std::fs::write(&path, lines.join("\n")).expect("rewrite checkpoint");
    let err = original.resume(1, &path).expect_err("digest mismatch");
    assert!(
        matches!(err, vsv::CheckpointError::DigestMismatch { job: 0, .. }),
        "{err}"
    );
    // Restore the intact checkpoint for the scale check below.
    original
        .report_with_checkpoint(1, &path)
        .expect("rewrite intact checkpoint");

    // A different experiment scale is caught by the header.
    let bigger = Experiment {
        warmup_instructions: 2_000,
        instructions: 3_000,
    };
    let rescaled = Sweep::over_grid(bigger, &params, &[SystemConfig::baseline()]);
    let err = rescaled.resume(1, &path).expect_err("header mismatch");
    assert!(
        matches!(err, vsv::CheckpointError::HeaderMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cells_are_checkpointed_and_survive_resume() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let path = temp_checkpoint("failed-cells");

    let mut sweep = Sweep::over_grid(e, &params, &configs);
    sweep.jobs_mut()[1].config.inject_fault = Some(FaultKind::Deadlock);
    let mut first = sweep
        .report_with_checkpoint(2, &path)
        .expect("checkpointed run completes despite the failure");
    strip_wall_clock(&mut first);
    assert_eq!(first.failed_jobs(), 1);

    // Resume re-runs nothing: the failure record was cached too.
    let mut resumed = sweep.resume(2, &path).expect("resume succeeds");
    strip_wall_clock(&mut resumed);
    assert_eq!(resumed, first);
    let _ = std::fs::remove_file(&path);
}
