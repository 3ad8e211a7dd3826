//! Bit-exact reproducibility: the entire stack (generator, core,
//! hierarchy, prefetcher, controller, power model) must produce
//! identical results for identical inputs, across runs and across
//! configurations.

use vsv::{Experiment, RunResult, SystemConfig};
use vsv_workloads::twin;

fn run_once(name: &str, cfg: SystemConfig) -> RunResult {
    let e = Experiment {
        warmup_instructions: 20_000,
        instructions: 40_000,
    };
    e.try_run(&twin(name).expect("twin exists"), cfg, None)
        .expect("run")
        .0
}

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
fn baseline_runs_are_bit_identical() {
    let a = run_once("ammp", SystemConfig::baseline());
    let b = run_once("ammp", SystemConfig::baseline());
    assert_identical(&a, &b);
}

#[test]
fn vsv_runs_are_bit_identical() {
    let a = run_once("mcf", SystemConfig::vsv_with_fsms());
    let b = run_once("mcf", SystemConfig::vsv_with_fsms());
    assert_identical(&a, &b);
}

#[test]
fn timekeeping_runs_are_bit_identical() {
    let a = run_once(
        "applu",
        SystemConfig::vsv_with_fsms().with_timekeeping(true),
    );
    let b = run_once(
        "applu",
        SystemConfig::vsv_with_fsms().with_timekeeping(true),
    );
    assert_identical(&a, &b);
}

#[test]
fn different_twins_differ() {
    let a = run_once("gzip", SystemConfig::baseline());
    let b = run_once("gcc", SystemConfig::baseline());
    assert_ne!(a.elapsed_ns, b.elapsed_ns);
}
