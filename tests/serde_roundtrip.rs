//! Round-trip the public configuration and result types through JSON
//! (the optional `serde` feature): a configuration written by one tool
//! must be readable by another without loss.

use vsv::{Comparison, DownPolicy, Experiment, SimError, SystemConfig, UpPolicy, VsvConfig};
use vsv_workloads::{twin, WorkloadParams};

#[test]
fn workload_params_round_trip() {
    for params in vsv_workloads::spec2k_twins() {
        let json = serde_json::to_string(&params).expect("serialize");
        let mut back: WorkloadParams = serde_json::from_str(&json).expect("deserialize");
        // The static name is serialize-only; everything else must
        // survive the trip exactly.
        assert_eq!(back.name, "custom");
        back.name = params.name;
        assert_eq!(params, back);
    }
}

#[test]
fn vsv_config_round_trip() {
    for cfg in [
        VsvConfig::disabled(),
        VsvConfig::with_fsms(),
        VsvConfig::without_fsms(),
    ] {
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: VsvConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }
}

#[test]
fn policies_round_trip_with_field_names() {
    let down = DownPolicy::Monitor {
        threshold: 3,
        period: 10,
    };
    let json = serde_json::to_string(&down).expect("serialize");
    assert!(json.contains("threshold"), "named fields survive: {json}");
    let back: DownPolicy = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(down, back);

    let up: UpPolicy = serde_json::from_str("\"LastReturn\"").expect("unit variant");
    assert_eq!(up, UpPolicy::LastReturn);
}

#[test]
fn run_results_serialize_for_downstream_tooling() -> Result<(), SimError> {
    let e = Experiment {
        warmup_instructions: 5_000,
        instructions: 10_000,
    };
    let params = twin("gzip").expect("twin exists");
    let (base, vsv_run, cmp) = e.compare(
        &params,
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms(),
    )?;
    let json = serde_json::to_string(&vsv_run).expect("RunResult serializes");
    assert!(json.contains("avg_power_w"));
    let cmp_json = serde_json::to_string(&cmp).expect("Comparison serializes");
    let back: Comparison = serde_json::from_str(&cmp_json).expect("deserialize");
    assert_eq!(cmp, back);
    let _ = base;
    Ok(())
}
