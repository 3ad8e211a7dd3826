//! Render publication-style artifacts without leaving Rust: a
//! Figure 4-style grouped bar chart over a few twins and a Figure 2/3
//! mode/voltage timeline, both as dependency-free SVG.
//!
//! ```text
//! cargo run --release --example render_figures [output-dir]
//! ```

use vsv::{Comparison, Experiment, SimError, System, SystemConfig};
use vsv_viz::{GroupedBarChart, TimelineChart};
use vsv_workloads::{twin, Generator};

fn main() -> Result<(), SimError> {
    let out_dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/figures".to_owned()),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // --- a small Figure 4 over three representative twins ---
    let e = Experiment {
        warmup_instructions: 40_000,
        instructions: 80_000,
    };
    let mut rows = Vec::new();
    for name in ["mcf", "ammp", "applu", "gzip"] {
        let params = twin(name).expect("twin exists");
        let (base, _) = e.try_run(&params, SystemConfig::baseline(), None)?;
        let (no_fsm, _) = e.try_run(&params, SystemConfig::vsv_without_fsms(), None)?;
        let (fsm, _) = e.try_run(&params, SystemConfig::vsv_with_fsms(), None)?;
        rows.push((
            name,
            Comparison::of(&base, &no_fsm).power_saving_pct,
            Comparison::of(&base, &fsm).power_saving_pct,
        ));
        println!("{name}: ran 3 configurations");
    }
    let chart = GroupedBarChart::new("CPU power savings (%)")
        .series(
            "without FSMs",
            &rows.iter().map(|(n, a, _)| (*n, *a)).collect::<Vec<_>>(),
        )
        .series(
            "with FSMs",
            &rows.iter().map(|(n, _, b)| (*n, *b)).collect::<Vec<_>>(),
        );
    let bar_path = out_dir.join("mini_figure4.svg");
    std::fs::write(&bar_path, chart.render()).expect("write svg");
    println!("wrote {}", bar_path.display());

    // --- a Figure 2/3 timeline from a live trace ---
    let mut sys = System::try_new(
        SystemConfig::vsv_with_fsms(),
        Generator::new(twin("ammp").expect("twin exists")),
    )?;
    sys.enable_trace(600);
    sys.try_warm_up(20_000)?;
    sys.try_run(20_000)?;
    let trace = sys.take_trace().expect("tracing enabled");
    let tl_path = out_dir.join("timeline.svg");
    std::fs::write(&tl_path, TimelineChart::new(&trace).render()).expect("write svg");
    println!("wrote {}", tl_path.display());
    println!(
        "\nthe timeline's coloured bands are the controller states; the\n\
         black curve is the pipeline-domain VDD walking the Figure 2/3\n\
         ramps between 1.8 V and 1.2 V."
    );
    Ok(())
}
