//! Cross-crate integration tests asserting the paper's *qualitative*
//! results end-to-end: who wins, in which direction, and by roughly
//! what ordering. Quantitative reproduction lives in the `vsv-bench`
//! binaries (see EXPERIMENTS.md); these tests guard the shapes.

use vsv::{Comparison, DownPolicy, Experiment, SimError, SystemConfig, UpPolicy};
use vsv_workloads::{twin, WorkloadParams};

fn quick() -> Experiment {
    Experiment {
        warmup_instructions: 30_000,
        instructions: 60_000,
    }
}

/// §6.1: VSV saves significant power on memory-bound programs with
/// bounded performance loss.
#[test]
fn memory_bound_twin_saves_power_with_small_degradation() -> Result<(), SimError> {
    let e = quick();
    let params = twin("mcf").expect("mcf twin exists");
    let (base, vsv_run, cmp) = e.compare(
        &params,
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms(),
    )?;
    assert!(
        base.mpki > 40.0,
        "mcf twin is very memory bound: {}",
        base.mpki
    );
    assert!(
        cmp.power_saving_pct > 20.0,
        "mcf should save >20% power, got {:.1}%",
        cmp.power_saving_pct
    );
    assert!(
        cmp.perf_degradation_pct < 6.0,
        "mcf degradation bounded, got {:.1}%",
        cmp.perf_degradation_pct
    );
    assert!(vsv_run.mode.low_residency() > 0.3);
    Ok(())
}

/// §6.1: programs with MR ≈ 0 neither save power nor lose performance.
#[test]
fn compute_bound_twin_is_untouched() -> Result<(), SimError> {
    let e = quick();
    let params = twin("crafty").expect("crafty twin exists");
    let (base, _, cmp) = e.compare(
        &params,
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms(),
    )?;
    assert!(base.mpki < 0.5, "crafty twin has ~no L2 misses");
    assert!(
        cmp.power_saving_pct.abs() < 1.0,
        "got {:.1}%",
        cmp.power_saving_pct
    );
    assert!(cmp.perf_degradation_pct.abs() < 1.0);
    Ok(())
}

/// Figure 4: the FSMs trade power for performance — less saving, much
/// less degradation than the no-FSM configuration on high-ILP
/// memory-bound programs.
#[test]
fn fsms_reduce_degradation_at_some_power_cost() -> Result<(), SimError> {
    let e = quick();
    let params = twin("applu").expect("applu twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let (no_fsm, _) = e.try_run(&params, SystemConfig::vsv_without_fsms(), None)?;
    let (fsm, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
    let c_no = Comparison::of(&base, &no_fsm);
    let c_fsm = Comparison::of(&base, &fsm);
    assert!(
        c_fsm.perf_degradation_pct < c_no.perf_degradation_pct,
        "FSMs must reduce degradation: {:.1} vs {:.1}",
        c_fsm.perf_degradation_pct,
        c_no.perf_degradation_pct
    );
    assert!(
        c_fsm.power_saving_pct < c_no.power_saving_pct + 0.5,
        "FSMs cannot save more than always-transitioning: {:.1} vs {:.1}",
        c_fsm.power_saving_pct,
        c_no.power_saving_pct
    );
    assert!(
        c_fsm.power_saving_pct > 5.0,
        "but should retain real savings"
    );
    Ok(())
}

/// Figure 5: lower down-thresholds save more power and degrade more.
#[test]
fn down_threshold_orders_power_and_performance() -> Result<(), SimError> {
    let e = quick();
    let params = twin("ammp").expect("ammp twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let mut results = Vec::new();
    for down in [
        DownPolicy::Immediate,
        DownPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        DownPolicy::Monitor {
            threshold: 5,
            period: 10,
        },
    ] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.down = down;
        let (run, _) = e.try_run(&params, cfg, None)?;
        results.push(Comparison::of(&base, &run));
    }
    // Power: immediate >= t3 >= t5 (small tolerance for noise).
    assert!(results[0].power_saving_pct >= results[1].power_saving_pct - 0.5);
    assert!(results[1].power_saving_pct >= results[2].power_saving_pct - 0.5);
    // Degradation: immediate >= t5.
    assert!(
        results[0].perf_degradation_pct >= results[2].perf_degradation_pct - 0.3,
        "immediate {:.2} vs t5 {:.2}",
        results[0].perf_degradation_pct,
        results[2].perf_degradation_pct
    );
    Ok(())
}

/// Figure 6: Last-R saves the most power and degrades the most;
/// First-R the least of both; the monitor sits between.
#[test]
fn up_policy_spectrum_first_monitor_last() -> Result<(), SimError> {
    let e = quick();
    let params = twin("ammp").expect("ammp twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let mut res = Vec::new();
    for up in [
        UpPolicy::FirstReturn,
        UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        UpPolicy::LastReturn,
    ] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.up = up;
        let (run, _) = e.try_run(&params, cfg, None)?;
        res.push(Comparison::of(&base, &run));
    }
    let (first, monitor, last) = (res[0], res[1], res[2]);
    assert!(
        last.power_saving_pct >= monitor.power_saving_pct - 0.5
            && monitor.power_saving_pct >= first.power_saving_pct - 0.5,
        "power must order First<=Monitor<=Last: {:.1} {:.1} {:.1}",
        first.power_saving_pct,
        monitor.power_saving_pct,
        last.power_saving_pct
    );
    assert!(
        last.perf_degradation_pct >= first.perf_degradation_pct - 0.3,
        "Last-R degrades at least as much as First-R: {:.1} vs {:.1}",
        last.perf_degradation_pct,
        first.perf_degradation_pct
    );
    Ok(())
}

/// §6.4: Time-Keeping prefetching reduces demand MR on learnable
/// (streaming) twins, shrinking but not eliminating VSV's savings.
#[test]
fn timekeeping_shrinks_but_does_not_remove_savings() -> Result<(), SimError> {
    let e = Experiment {
        warmup_instructions: 100_000,
        instructions: 200_000,
    };
    let params = twin("applu").expect("applu twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let (base_tk, _) = e.try_run(
        &params,
        SystemConfig::baseline().with_timekeeping(true),
        None,
    )?;
    assert!(
        base_tk.mpki < base.mpki * 0.7,
        "TK must cut applu's demand MR: {:.1} -> {:.1}",
        base.mpki,
        base_tk.mpki
    );
    let (vsv_tk, _) = e.try_run(
        &params,
        SystemConfig::vsv_with_fsms().with_timekeeping(true),
        None,
    )?;
    let cmp_tk = Comparison::of(&base_tk, &vsv_tk);
    let (vsv_plain, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
    let cmp_plain = Comparison::of(&base, &vsv_plain);
    assert!(
        cmp_tk.power_saving_pct < cmp_plain.power_saving_pct,
        "TK shrinks the opportunity: {:.1} vs {:.1}",
        cmp_tk.power_saving_pct,
        cmp_plain.power_saving_pct
    );
    assert!(
        cmp_tk.power_saving_pct > 0.0,
        "but does not eliminate it: {:.1}",
        cmp_tk.power_saving_pct
    );
    Ok(())
}

/// §6.4 / Table 2: Time-Keeping does *not* help the random-access twin
/// (art) — if anything it pollutes.
#[test]
fn timekeeping_does_not_help_random_twin() -> Result<(), SimError> {
    let e = quick();
    let params = twin("art").expect("art twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let (base_tk, _) = e.try_run(
        &params,
        SystemConfig::baseline().with_timekeeping(true),
        None,
    )?;
    assert!(
        base_tk.mpki > base.mpki * 0.9,
        "TK cannot learn random misses: {:.1} vs {:.1}",
        base.mpki,
        base_tk.mpki
    );
    Ok(())
}

/// §4.2: misses caused purely by prefetches never trigger the
/// low-power transition.
#[test]
fn prefetch_only_misses_do_not_engage_vsv() -> Result<(), SimError> {
    let e = quick();
    // A twin whose *only* far traffic is software prefetches: far loads
    // never execute because coverage is 1.0 and the demand loads all go
    // to the hot set.
    let mut p = WorkloadParams::compute_bound("prefetch-only");
    p.far_fraction = 0.0;
    p.sw_prefetch_coverage = 0.0;
    let (run, _) = e.try_run(&p, SystemConfig::vsv_with_fsms(), None)?;
    assert!(
        run.mode.down_transitions <= 2,
        "no demand misses → (almost) no transitions, got {}",
        run.mode.down_transitions
    );
    Ok(())
}

/// The low-power mode must actually halve the pipeline clock: with VSV
/// engaged, pipeline cycles < elapsed nanoseconds.
#[test]
fn low_mode_halves_the_clock() -> Result<(), SimError> {
    let e = quick();
    let params = twin("mcf").expect("mcf twin exists");
    let (run, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
    assert!(
        run.pipeline_cycles < run.elapsed_ns,
        "half-speed epochs must reduce edge count: {} vs {}",
        run.pipeline_cycles,
        run.elapsed_ns
    );
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    assert_eq!(
        base.pipeline_cycles, base.elapsed_ns,
        "baseline is full speed"
    );
    Ok(())
}

/// Energy accounting sanity across the whole stack: VSV burns less
/// energy *and* less average power on a stalled workload, and both
/// runs account energy > 0 for every major component.
#[test]
fn energy_accounting_is_consistent() -> Result<(), SimError> {
    let e = quick();
    let params = twin("ammp").expect("ammp twin exists");
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let (vsv_run, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
    assert!(vsv_run.energy_pj > 0.0 && base.energy_pj > 0.0);
    assert!(vsv_run.avg_power_w < base.avg_power_w);
    // Energy should not fall faster than power (time grew).
    let energy_saving = 1.0 - vsv_run.energy_pj / base.energy_pj;
    let power_saving = 1.0 - vsv_run.avg_power_w / base.avg_power_w;
    assert!(energy_saving <= power_saving + 1e-9);
    Ok(())
}

/// The issue histogram must be internally consistent with the cycle
/// counters it summarises.
#[test]
fn issue_histogram_is_consistent_with_counters() -> Result<(), SimError> {
    let e = quick();
    let params = twin("ammp").expect("ammp exists");
    let (r, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let h = r.issue_histogram;
    assert_eq!(h.cycles(), r.pipeline_cycles, "every cycle is bucketed");
    assert_eq!(
        h.buckets[0], r.zero_issue_cycles,
        "bucket 0 is the zero-issue count"
    );
    let issued_from_hist: u64 = h
        .buckets
        .iter()
        .enumerate()
        .map(|(n, c)| n as u64 * c)
        .sum();
    // Bucket 8 clamps; with an 8-wide core nothing exceeds it, so the
    // weighted sum equals total issues.
    assert!(
        issued_from_hist >= r.instructions,
        "all committed insts were issued"
    );
    Ok(())
}

/// A full System run's recorded trace renders to a timeline SVG with
/// every transition state present.
#[test]
fn trace_renders_to_timeline_svg() -> Result<(), SimError> {
    use vsv::{Mode, System};
    use vsv_workloads::Generator;

    let params = twin("ammp").expect("ammp exists");
    let mut sys = System::try_new(SystemConfig::vsv_with_fsms(), Generator::new(params))?;
    sys.enable_trace(3_000);
    sys.try_warm_up(20_000)?;
    sys.try_run(20_000)?;
    let trace = sys.take_trace().expect("tracing on");
    let modes: std::collections::HashSet<Mode> = trace.iter().map(|s| s.mode).collect();
    for m in [Mode::High, Mode::DownDistribute, Mode::RampDown, Mode::Low] {
        assert!(modes.contains(&m), "missing {m:?} in {}", trace.strip());
    }
    let svg = vsv_viz::TimelineChart::new(&trace).render();
    assert!(svg.contains("<polyline"), "voltage curve present");
    assert!(svg.matches("<rect").count() > 4, "mode bands present");
    Ok(())
}
