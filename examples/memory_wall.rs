//! Build a *custom* workload (not one of the SPEC2K twins) and watch
//! VSV react as the workload walks into the memory wall.
//!
//! We sweep the far-access rate of a pointer-chasing kernel from
//! compute-bound to memory-bound and report, at each point, the
//! baseline stall fraction, VSV's low-power residency, and the
//! power/performance trade-off — the crossover the paper's Figure 4
//! shows between its left (high-MR) and right (low-MR) sections.
//!
//! ```text
//! cargo run --release --example memory_wall
//! ```

use vsv::{Comparison, Experiment, SimError, SystemConfig};
use vsv_workloads::{AccessPattern, WorkloadParams};

fn main() -> Result<(), SimError> {
    println!("memory-wall sweep: pointer chase with rising far-access rate\n");
    println!(
        "{:>9} | {:>6} {:>6} {:>7} | {:>7} {:>8} {:>8}",
        "far frac", "IPC", "MR", "stall%", "lowres%", "power%", "perf%"
    );
    println!("{}", "-".repeat(66));

    let e = Experiment {
        warmup_instructions: 50_000,
        instructions: 150_000,
    };
    for step in 0..7 {
        let far = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2][step];
        let mut p = WorkloadParams::compute_bound("memory-wall");
        p.working_set_bytes = 32 * 1024 * 1024;
        p.pattern = AccessPattern::PermutationChase;
        p.far_fraction = far;
        p.chase_dependency = 0.8;
        p.miss_dependency = 1.0;
        p.ilp_chains = 2;

        let (base, _) = e.try_run(&p, SystemConfig::baseline(), None)?;
        let (vsv_run, _) = e.try_run(&p, SystemConfig::vsv_with_fsms(), None)?;
        let cmp = Comparison::of(&base, &vsv_run);
        println!(
            "{:>9.3} | {:>6.2} {:>6.1} {:>6.0}% | {:>6.0}% {:>7.1}% {:>7.1}%",
            far,
            base.ipc,
            base.mpki,
            base.zero_issue_fraction() * 100.0,
            vsv_run.mode.low_residency() * 100.0,
            cmp.power_saving_pct,
            cmp.perf_degradation_pct
        );
    }
    println!("{}", "-".repeat(66));
    println!(
        "\nreading: once the chase leaves the L2 (MR rises), the pipeline\n\
         stalls, VSV's residency tracks the stall fraction, and power\n\
         savings grow while degradation stays small — the paper's key\n\
         claim, reproduced on a workload of your own."
    );
    Ok(())
}
