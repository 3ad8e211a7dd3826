//! Proves the quiescent-stall fast-forward is an *exact* optimisation:
//! with `SystemConfig::fast_forward` on or off, every workload in the
//! suite produces bit-identical [`RunResult`]s and bit-identical
//! per-nanosecond [`ModeTrace`]s, across the configuration grids of
//! all the bench bins (figure4/5/6/7, headline, table2, ablations) and
//! both FSM-threshold variants. Also pins the batch catch-up
//! primitives (FSM window drain, idle-cycle power accounting, leakage
//! span, controller edge math) against their per-cycle references.
//!
//! Chips fast-forward too: each core parks through its own quiescent
//! spans inside the lockstep loop. The chip half of the suite pins
//! that per-core parking leaves results, shared-fabric arbitration and
//! every core's mode trace untouched.

use vsv::{
    CounterId, DownPolicy, ModeTrace, MulticoreSystem, PolicySpec, RunResult, System, SystemConfig,
    TrafficSpec, UpPolicy, VsvController,
};
use vsv_mem::FabricCoreStats;
use vsv_power::{ActivitySample, PowerAccountant, PowerConfig};
use vsv_workloads::{high_mr_names, spec2k_twins, twin, WorkloadParams};

const WARMUP: u64 = 5_000;
const INSTS: u64 = 15_000;
const TRACE_CAP: usize = 1 << 16;

/// Runs `params` under `cfg` with the given fast-forward setting and
/// returns the measured window plus the full mode trace.
fn run_one(
    params: WorkloadParams,
    cfg: SystemConfig,
    fast_forward: bool,
) -> (RunResult, ModeTrace) {
    let mut sys = System::try_new(
        cfg.with_fast_forward(fast_forward),
        vsv_workloads::Generator::new(params),
    )
    .expect("valid config");
    sys.set_workload_name(params.name);
    sys.enable_trace(TRACE_CAP);
    sys.try_warm_up(WARMUP).expect("warm-up");
    let result = sys.try_run(INSTS).expect("run");
    let trace = sys.take_trace().expect("tracing was on");
    (result, trace)
}

/// Asserts bit-identical results and traces for one (workload, config)
/// cell.
fn assert_equivalent(params: WorkloadParams, cfg: SystemConfig, label: &str) {
    let (on, trace_on) = run_one(params, cfg, true);
    let (off, trace_off) = run_one(params, cfg, false);
    assert_eq!(
        on, off,
        "RunResult diverged for {} under {label}",
        params.name
    );
    assert_eq!(
        trace_on, trace_off,
        "ModeTrace diverged for {} under {label}",
        params.name
    );
}

/// Figure 4 / headline / table2 grid: every SPEC2K twin under the
/// baseline and both FSM variants.
#[test]
fn all_twins_equivalent_under_core_configs() {
    for params in spec2k_twins() {
        assert_equivalent(params, SystemConfig::baseline(), "baseline");
        assert_equivalent(params, SystemConfig::vsv_without_fsms(), "vsv-without-fsms");
        assert_equivalent(params, SystemConfig::vsv_with_fsms(), "vsv-with-fsms");
    }
}

/// Figure 5 grid: down-policy thresholds 0/1/3/5 on high-MR twins.
#[test]
fn down_policy_grid_equivalent() {
    let twins: Vec<_> = high_mr_names()
        .iter()
        .take(3)
        .map(|n| twin(n).expect("high-MR twin exists"))
        .collect();
    let downs = [
        DownPolicy::Immediate,
        DownPolicy::Monitor {
            threshold: 1,
            period: 10,
        },
        DownPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        DownPolicy::Monitor {
            threshold: 5,
            period: 10,
        },
    ];
    for params in &twins {
        for down in downs {
            let mut cfg = SystemConfig::vsv_with_fsms();
            cfg.vsv.down = down;
            assert_equivalent(*params, cfg, &format!("down={down:?}"));
        }
    }
}

/// Figure 6 grid: up-policies First-R / Last-R / monitored 1/3/5 on
/// high-MR twins.
#[test]
fn up_policy_grid_equivalent() {
    let twins: Vec<_> = high_mr_names()
        .iter()
        .take(3)
        .map(|n| twin(n).expect("high-MR twin exists"))
        .collect();
    let ups = [
        UpPolicy::FirstReturn,
        UpPolicy::LastReturn,
        UpPolicy::Monitor {
            threshold: 1,
            period: 10,
        },
        UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        UpPolicy::Monitor {
            threshold: 5,
            period: 10,
        },
    ];
    for params in &twins {
        for up in ups {
            let mut cfg = SystemConfig::vsv_with_fsms();
            cfg.vsv.up = up;
            assert_equivalent(*params, cfg, &format!("up={up:?}"));
        }
    }
}

/// Figure 7 grid: Time-Keeping prefetching on, baseline and VSV. The
/// prefetch-harvest cap is what this exercises: skips must never jump
/// a decay-table scan.
#[test]
fn timekeeping_configs_equivalent() {
    let names = ["mcf", "art", "gzip"];
    for name in names {
        let params = twin(name).expect("twin exists");
        assert_equivalent(
            params,
            SystemConfig::baseline().with_timekeeping(true),
            "baseline+tk",
        );
        assert_equivalent(
            params,
            SystemConfig::vsv_with_fsms().with_timekeeping(true),
            "vsv+tk",
        );
    }
}

/// Ablations grid corners: nonzero leakage (per-ns accounting must
/// batch exactly) and DCG off (idle cycles charge full clock energy).
#[test]
fn ablation_configs_equivalent() {
    let params = twin("mcf").expect("twin exists");
    let mut leaky = SystemConfig::vsv_with_fsms();
    leaky.power = leaky.power.with_leakage(4.0);
    assert_equivalent(params, leaky, "leakage-4w");

    let mut no_dcg = SystemConfig::vsv_with_fsms();
    no_dcg.power.dcg_enabled = false;
    assert_equivalent(params, no_dcg, "dcg-off");

    let mut per_unit = SystemConfig::vsv_with_fsms();
    per_unit.power.dcg_model = vsv_power::DcgModel::PerUnit;
    assert_equivalent(params, per_unit, "dcg-per-unit");
}

// ---- multicore: per-core parking inside the lockstep loop ----------

/// Everything a chip run produces that fast-forward could perturb.
type ChipRun = (RunResult, Vec<FabricCoreStats>, Vec<Option<ModeTrace>>, u64);

/// Runs `chip` (warm-up, then a measured window) with traces on and
/// returns the result, per-core fabric statistics, per-core mode
/// traces and the measured window's fast-forward batch count.
fn run_chip(mut chip: MulticoreSystem) -> ChipRun {
    chip.enable_traces(TRACE_CAP);
    chip.try_warm_up(WARMUP).expect("warm-up");
    let (result, metrics) = chip.try_run_with_metrics(INSTS).expect("run");
    let batches = metrics.get(CounterId::FastForwardBatches);
    (result, chip.fabric_stats(), chip.take_traces(), batches)
}

/// Asserts a chip built by `build` is bit-identical with fast-forward
/// on and off, and that the fast-forward run really parked cores.
/// Returns the result both runs share.
fn assert_chip_equivalent(build: impl Fn(bool) -> MulticoreSystem, label: &str) -> RunResult {
    let (on, fabric_on, traces_on, batches_on) = run_chip(build(true));
    let (off, fabric_off, traces_off, batches_off) = run_chip(build(false));
    assert_eq!(on, off, "RunResult diverged under {label}");
    assert_eq!(fabric_on, fabric_off, "fabric stats diverged under {label}");
    assert_eq!(
        traces_on, traces_off,
        "per-core ModeTraces diverged under {label}"
    );
    assert_eq!(batches_off, 0, "ns-stepped chip took batches under {label}");
    assert!(batches_on > 0, "no core ever parked under {label}");
    on
}

/// Homogeneous 2- and 4-core chips of memory- and compute-bound twins
/// under the baseline, the paper's FSMs and the 4-level ladder.
#[test]
fn chips_equivalent_under_core_configs() {
    let configs = [
        ("baseline", SystemConfig::baseline()),
        ("dual-fsm", SystemConfig::vsv_with_fsms()),
        (
            "ladder-fsm@4",
            SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4),
        ),
    ];
    for cores in [2, 4] {
        for name in ["mcf", "art", "gzip"] {
            let params = twin(name).expect("twin exists");
            for (policy, cfg) in configs {
                assert_chip_equivalent(
                    |ff| {
                        let cfg = cfg.with_cores(cores).with_fast_forward(ff);
                        MulticoreSystem::try_new(cfg, &params).expect("valid chip")
                    },
                    &format!("{name} x{cores} {policy}"),
                );
            }
        }
    }
}

/// The heterogeneous service chip: four different twins under
/// error-backoff on the 4-level ladder, with read errors (retries feed
/// the policy and gate parking) and an MMPP request train (arrivals
/// cap each core's park).
#[test]
fn heterogeneous_service_chip_equivalent() {
    let params: Vec<WorkloadParams> = ["mcf", "art", "gzip", "eon"]
        .iter()
        .map(|n| twin(n).expect("twin exists"))
        .collect();
    let traffic = TrafficSpec::mmpp(0.2, 1.0, 5_000, 5_000, 1_000).with_seed(5);
    let cfg = SystemConfig::with_policy(PolicySpec::ErrorBackoff)
        .with_ladder_depth(4)
        .with_cores(params.len())
        .with_error_rate(0.02)
        .with_error_seed(7)
        .with_traffic(Some(traffic));
    let build = |ff: bool| {
        MulticoreSystem::try_new_heterogeneous(cfg.with_fast_forward(ff), &params)
            .expect("valid chip")
    };
    let result = assert_chip_equivalent(build, "mcf/art/gzip/eon error-backoff+mmpp");
    assert!(result.read_retries > 0, "no read ever retried — dead test");
    assert!(
        result.requests_arrived > 0,
        "no request ever arrived — dead test"
    );
}

// ---- batch catch-up primitives vs per-cycle references -------------

/// `UpFsm::skip_idle_cycles(n)` must equal `n` calls to `on_cycle(0)`
/// whenever the caller-side guard (`would_trigger_on_idle`) holds.
#[test]
fn up_fsm_batch_matches_loop() {
    use vsv::UpFsm;
    for threshold in [1u32, 3, 5] {
        for outstanding in [1usize, 4] {
            for n in [1u64, 5, 9, 10, 11, 200] {
                let policy = UpPolicy::Monitor {
                    threshold,
                    period: 10,
                };
                let mut batched = UpFsm::new(policy);
                let mut stepped = UpFsm::new(policy);
                assert!(!batched.on_return(outstanding));
                assert!(!stepped.on_return(outstanding));
                assert!(!batched.would_trigger_on_idle());
                batched.skip_idle_cycles(n);
                for _ in 0..n {
                    assert!(!stepped.on_cycle(0), "threshold>0 never fires on idle");
                }
                assert_eq!(
                    batched.is_armed(),
                    stepped.is_armed(),
                    "t={threshold} n={n}"
                );
                assert_eq!(
                    batched.expiries(),
                    stepped.expiries(),
                    "t={threshold} n={n}"
                );
                assert_eq!(batched.triggers(), stepped.triggers());
                // Post-skip behaviour must also agree: feed an issuing
                // burst and compare trigger decisions cycle by cycle.
                for issued in [1u32, 1, 1, 1, 1] {
                    assert_eq!(batched.on_cycle(issued), stepped.on_cycle(issued));
                }
            }
        }
    }
}

/// `PowerAccountant::record_idle_cycles(n, vdd)` must equal `n` calls
/// to `record_cycle` with an all-zero activity sample, bit for bit.
#[test]
fn idle_cycle_power_batch_matches_loop() {
    for vdd in [1.8f64, 1.2] {
        for n in [1u64, 7, 64, 1000] {
            let mut batched = PowerAccountant::new(PowerConfig::baseline());
            let mut stepped = PowerAccountant::new(PowerConfig::baseline());
            let zero: ActivitySample = Default::default();
            batched.record_idle_cycles(n, vdd);
            for _ in 0..n {
                stepped.record_cycle(&zero, vdd);
            }
            assert_eq!(
                batched.total_energy_pj().to_bits(),
                stepped.total_energy_pj().to_bits(),
                "vdd={vdd} n={n}"
            );
            assert_eq!(batched.breakdown(), stepped.breakdown());
        }
    }
    // DCG off: idle cycles charge the full clock energy.
    let mut cfg = PowerConfig::baseline();
    cfg.dcg_enabled = false;
    let mut batched = PowerAccountant::new(cfg);
    let mut stepped = PowerAccountant::new(cfg);
    let zero: ActivitySample = Default::default();
    batched.record_idle_cycles(500, 1.2);
    for _ in 0..500 {
        stepped.record_cycle(&zero, 1.2);
    }
    assert_eq!(
        batched.total_energy_pj().to_bits(),
        stepped.total_energy_pj().to_bits()
    );
}

/// `PowerAccountant::record_leakage_span(ns, vdd)` must equal `ns`
/// calls to `record_leakage_ns`, bit for bit — including the nonzero
/// leakage extension.
#[test]
fn leakage_span_batch_matches_loop() {
    for watts in [0.0f64, 4.0, 8.0] {
        for vdd in [1.8f64, 1.2, 1.456] {
            let cfg = PowerConfig::baseline().with_leakage(watts);
            let mut batched = PowerAccountant::new(cfg);
            let mut stepped = PowerAccountant::new(cfg);
            batched.record_leakage_span(777, vdd);
            for _ in 0..777 {
                stepped.record_leakage_ns(vdd);
            }
            assert_eq!(
                batched.total_energy_pj().to_bits(),
                stepped.total_energy_pj().to_bits(),
                "watts={watts} vdd={vdd}"
            );
        }
    }
}

/// `VsvController::skip_quiescent` must advance the edge schedule,
/// residency counters and (in low mode) the up-FSM window exactly as a
/// per-nanosecond tick/on-cycle loop over the same idle window would.
#[test]
fn controller_skip_matches_ticked_loop() {
    use vsv::VsvConfig;
    // A controller held in Low with one miss outstanding and an open
    // up window: drive both copies to the same state, then batch one
    // and step the other.
    let into_low = |cfg: VsvConfig| {
        let mut c = VsvController::new(cfg);
        c.observe(&vsv_mem::VsvSignal::L2MissDetected {
            demand: true,
            at: 0,
            earliest_return: None,
        });
        for now in 0..40 {
            let plan = c.tick(now, 2);
            if plan.pipeline_edge {
                c.on_cycle(now, 0);
            }
        }
        c.observe(&vsv_mem::VsvSignal::L2MissReturned {
            demand: true,
            at: 40,
            outstanding_demand: 1,
        });
        c
    };
    for ns in [1u64, 2, 3, 17, 40] {
        let mut batched = into_low(VsvConfig::with_fsms());
        let mut stepped = batched.clone();
        assert!(batched.quiescent_skip_allowed(1));
        let from = 40u64;
        let (edges, vdd) = batched.skip_quiescent(from, ns);
        let mut stepped_edges = 0u64;
        for now in from..from + ns {
            let plan = stepped.tick(now, 1);
            assert_eq!(plan.vdd.to_bits(), vdd.to_bits());
            if plan.pipeline_edge {
                stepped_edges += 1;
                stepped.on_cycle(now, 0);
            }
        }
        assert_eq!(edges, stepped_edges, "ns={ns}");
        assert_eq!(batched.next_edge(), stepped.next_edge(), "ns={ns}");
        assert_eq!(batched.stats(), stepped.stats(), "ns={ns}");
        assert_eq!(batched.mode(), stepped.mode());
        assert_eq!(
            batched.policy_stats().up_expiries,
            stepped.policy_stats().up_expiries
        );
    }
    // Disabled controller (the baseline): pure edge arithmetic.
    for ns in [1u64, 9, 100] {
        let mut batched = VsvController::new(VsvConfig::disabled());
        let mut stepped = VsvController::new(VsvConfig::disabled());
        // Consume a few ticks so next_edge is mid-schedule.
        for now in 0..5 {
            let _ = batched.tick(now, 0);
            let _ = stepped.tick(now, 0);
        }
        assert!(batched.quiescent_skip_allowed(0));
        let (edges, _) = batched.skip_quiescent(5, ns);
        let mut stepped_edges = 0u64;
        for now in 5..5 + ns {
            if stepped.tick(now, 0).pipeline_edge {
                stepped_edges += 1;
            }
        }
        assert_eq!(edges, stepped_edges, "ns={ns}");
        assert_eq!(batched.next_edge(), stepped.next_edge());
        assert_eq!(batched.stats(), stepped.stats());
    }
}
