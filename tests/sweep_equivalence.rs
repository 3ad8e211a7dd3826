//! Serial/parallel equivalence for the sweep engine: a [`Sweep`] with
//! one worker, a sweep with many workers, and a plain serial loop over
//! [`Experiment::try_run`] must produce bit-identical results, in the same
//! (grid) order, regardless of how the scheduler interleaves jobs.
//! This is the determinism guarantee DESIGN.md documents for the
//! engine; the field list matches `tests/determinism.rs`.

use vsv::{Experiment, RunResult, SimError, Sweep, SystemConfig};
use vsv_workloads::twin;

fn grid() -> (
    Experiment,
    Vec<vsv_workloads::WorkloadParams>,
    Vec<SystemConfig>,
) {
    let e = Experiment {
        warmup_instructions: 2_000,
        instructions: 8_000,
    };
    let twins = vec![
        twin("ammp").expect("ammp exists"),
        twin("gzip").expect("gzip exists"),
        twin("mcf").expect("mcf exists"),
    ];
    let configs = vec![
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms(),
        SystemConfig::vsv_with_fsms().with_timekeeping(true),
    ];
    (e, twins, configs)
}

/// The bit-exactness contract from `tests/determinism.rs`.
fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
    assert_eq!(a.pipeline_cycles, b.pipeline_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.mode, b.mode);
    assert_eq!(a.zero_issue_cycles, b.zero_issue_cycles);
    assert_eq!(a.mispredicts, b.mispredicts);
    assert!((a.energy_pj - b.energy_pj).abs() < 1e-6);
    assert!((a.mpki - b.mpki).abs() < 1e-12);
}

#[test]
fn one_worker_matches_serial_loop() -> Result<(), SimError> {
    let (e, twins, configs) = grid();
    // The reference: a plain serial loop in grid (params-major) order.
    let mut serial = Vec::new();
    for p in &twins {
        for c in &configs {
            serial.push(e.try_run(p, *c, None)?.0);
        }
    }
    let swept = Sweep::over_grid(e, &twins, &configs).run(1);
    assert_eq!(serial.len(), swept.len());
    for (s, w) in serial.iter().zip(&swept) {
        assert_eq!(s.workload, w.workload, "grid order must match serial order");
        assert_identical(s, w);
    }
    // The derived structs are fully comparable too: nothing about
    // engine execution may perturb any field.
    assert_eq!(serial, swept);
    Ok(())
}

#[test]
fn many_workers_match_one_worker() {
    let (e, twins, configs) = grid();
    let sweep = Sweep::over_grid(e, &twins, &configs);
    let one = sweep.run(1);
    for workers in [2, 4, 9] {
        let many = sweep.run(workers);
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.workload, b.workload, "order is scheduling-independent");
            assert_identical(a, b);
        }
        assert_eq!(one, many, "{workers} workers must be bit-identical to 1");
    }
}

/// Acceptance check for multi-core hosts: 4 workers must finish a
/// headline-shaped grid at least 2x faster than 1 worker. Ignored by
/// default because single-core CI boxes cannot demonstrate it; run
/// with `cargo test --test sweep_equivalence -- --ignored` on a
/// >= 4-core machine.
#[test]
#[ignore = "wall-clock speedup needs a >= 4-core host"]
fn four_workers_beat_one_by_2x() {
    assert!(
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get) >= 4,
        "this check is only meaningful on a >= 4-core host"
    );
    let e = Experiment {
        warmup_instructions: 10_000,
        instructions: 40_000,
    };
    let twins: Vec<_> = vsv_workloads::spec2k_twins();
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let sweep = Sweep::over_grid(e, &twins, &configs);
    let serial_ns = sweep.report(1).wall_ns;
    let parallel_ns = sweep.report(4).wall_ns;
    assert!(
        parallel_ns * 2 <= serial_ns,
        "4 workers took {parallel_ns} ns vs {serial_ns} ns on 1 worker \
         (speedup {:.2}x < 2x)",
        serial_ns as f64 / parallel_ns as f64
    );
}

#[test]
fn reports_agree_on_everything_but_wall_clock() {
    let (e, twins, configs) = grid();
    let sweep = Sweep::over_grid(e, &twins, &configs);
    let a = sweep.report(1);
    let b = sweep.report(4);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.workers, 1);
    assert_eq!(b.workers, 4);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.job, rb.job);
        assert_eq!(ra.workload, rb.workload);
        assert_eq!(ra.config_digest, rb.config_digest);
        let (a, b) = (
            ra.result().expect("cell succeeded"),
            rb.result().expect("cell succeeded"),
        );
        assert_identical(a, b);
    }
}
