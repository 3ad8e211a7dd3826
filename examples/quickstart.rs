//! Quickstart: run one SPEC2K twin under the baseline and under VSV,
//! and print the paper's two metrics plus the Table 1 configuration.
//!
//! ```text
//! cargo run --release --example quickstart [twin-name]
//! ```

use vsv::{Comparison, Experiment, SimError, SystemConfig};
use vsv_workloads::twin;

fn main() -> Result<(), SimError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ammp".to_owned());
    let Some(params) = twin(&name) else {
        eprintln!("unknown twin '{name}'; try one of the SPEC2K names (e.g. mcf, ammp, applu)");
        std::process::exit(1);
    };

    // Print the Table 1 baseline the simulator implements.
    let cfg = SystemConfig::baseline();
    println!("== Table 1 baseline ==");
    println!(
        "core   : {}-way issue, {} RUU, {} LSQ, {}+{} int / {}+{} fp units, {}-cycle mispredict",
        cfg.core.issue_width,
        cfg.core.ruu_entries,
        cfg.core.lsq_entries,
        cfg.core.int_alu_units,
        cfg.core.int_muldiv_units,
        cfg.core.fp_alu_units,
        cfg.core.fp_muldiv_units,
        cfg.core.mispredict_penalty
    );
    println!(
        "caches : {} KB L1 I/D ({}-cycle), {} MB L2 ({} ns), MSHRs {}/{}/{}",
        cfg.mem.l1d.capacity_bytes / 1024,
        cfg.mem.l1d.hit_latency,
        cfg.mem.l2.capacity_bytes / 1024 / 1024,
        cfg.mem.l2.hit_latency,
        cfg.mem.il1_mshrs,
        cfg.mem.dl1_mshrs,
        cfg.mem.l2_mshrs
    );
    println!(
        "memory : {} ns DRAM behind a {}-byte bus ({} ns occupancy)",
        cfg.mem.dram.latency_ns, cfg.mem.bus.width_bytes, cfg.mem.bus.occupancy_ns
    );
    println!(
        "vsv    : VDDH {} V / VDDL {} V, {} ns ramps, 66 nJ per ramp\n",
        cfg.power.tech.vddh,
        cfg.power.tech.vddl,
        cfg.power.tech.ramp_time_ns()
    );

    // Run the twin under the baseline and under VSV with the FSMs.
    let e = Experiment::standard();
    println!(
        "running '{name}' ({} warm-up + {} measured instructions)...",
        e.warmup_instructions, e.instructions
    );
    let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
    let (vsv_run, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
    let cmp = Comparison::of(&base, &vsv_run);

    println!("\n== baseline ==");
    println!("IPC (full-speed cycles) : {:.2}", base.ipc);
    println!("L2 demand misses / 1k   : {:.1}", base.mpki);
    println!(
        "zero-issue cycles       : {:.0}%",
        base.zero_issue_fraction() * 100.0
    );
    println!("average power           : {:.1} W", base.avg_power_w);

    println!("\n== VSV (down-FSM 3/10, up-FSM 3/10) ==");
    println!("average power           : {:.1} W", vsv_run.avg_power_w);
    println!(
        "low-power residency     : {:.0}%",
        vsv_run.mode.low_residency() * 100.0
    );
    println!(
        "mode transitions        : {} down / {} up",
        vsv_run.mode.down_transitions, vsv_run.mode.up_transitions
    );

    println!("\n== VSV vs. baseline (the paper's Figure 4 metrics) ==");
    println!("power saving            : {:.1}%", cmp.power_saving_pct);
    println!("performance degradation : {:.1}%", cmp.perf_degradation_pct);

    println!("\n== where the energy goes (VSV run) ==");
    print!("{}", vsv_run.energy.table());

    println!("issue-rate distribution (baseline), the FSMs' raw signal:");
    for n in 0..=8 {
        let frac = base.issue_histogram.fraction(n);
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("  {n} issued: {:>5.1}%  {bar}", frac * 100.0);
    }
    Ok(())
}
