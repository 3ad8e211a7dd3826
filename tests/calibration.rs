//! Calibration regression: the twins must keep tracking their Table 2
//! targets. Runs every twin at a reduced (but deterministic) scale, so
//! the bands are generous — the full-scale numbers live in
//! EXPERIMENTS.md; this test catches calibration-destroying changes.

use vsv::{Experiment, SimError, SystemConfig};
use vsv_workloads::{spec2k_twins, table2_reference};

fn quick() -> Experiment {
    Experiment {
        warmup_instructions: 40_000,
        instructions: 60_000,
    }
}

#[test]
fn baseline_mr_tracks_table2() -> Result<(), SimError> {
    let e = quick();
    let refs = table2_reference();
    for (params, paper) in spec2k_twins().iter().zip(&refs) {
        let (r, _) = e.try_run(params, SystemConfig::baseline(), None)?;
        if paper.mr_base >= 1.0 {
            let ratio = r.mpki / paper.mr_base;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: MR {:.1} vs paper {:.1} (ratio {ratio:.2})",
                params.name,
                r.mpki,
                paper.mr_base
            );
        } else {
            assert!(
                r.mpki < 1.0,
                "{}: near-zero-MR twin drifted to {:.2}",
                params.name,
                r.mpki
            );
        }
    }
    Ok(())
}

#[test]
fn baseline_ipc_is_in_band() -> Result<(), SimError> {
    let e = quick();
    let refs = table2_reference();
    for (params, paper) in spec2k_twins().iter().zip(&refs) {
        let (r, _) = e.try_run(params, SystemConfig::baseline(), None)?;
        let ratio = r.ipc / paper.ipc_base;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "{}: IPC {:.2} vs paper {:.2} (ratio {ratio:.2})",
            params.name,
            r.ipc,
            paper.ipc_base
        );
    }
    Ok(())
}

#[test]
fn high_mr_classification_matches_paper() -> Result<(), SimError> {
    // The Figure 4 "left section" must contain exactly the paper's
    // high-MR benchmarks (> 4 misses / 1000 insts).
    let e = quick();
    let refs = table2_reference();
    for (params, paper) in spec2k_twins().iter().zip(&refs) {
        let (r, _) = e.try_run(params, SystemConfig::baseline(), None)?;
        let paper_high = paper.mr_base > 4.0;
        let sim_high = r.mpki > 4.0;
        // Allow only benchmarks sitting right at the boundary to flip.
        if (paper.mr_base - 4.0).abs() > 1.5 {
            assert_eq!(
                sim_high, paper_high,
                "{}: high-MR classification flipped (MR {:.1}, paper {:.1})",
                params.name, r.mpki, paper.mr_base
            );
        }
    }
    Ok(())
}

#[test]
fn mcf_is_the_most_memory_bound() -> Result<(), SimError> {
    let e = quick();
    let mut worst = ("", 0.0f64);
    for params in spec2k_twins() {
        let (r, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
        if r.mpki > worst.1 {
            worst = (params.name, r.mpki);
        }
    }
    assert_eq!(
        worst.0, "mcf",
        "mcf must top the MR ordering, got {worst:?}"
    );
    Ok(())
}
