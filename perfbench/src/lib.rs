//! The repository benchmark: simulator speed and fidelity on four
//! workloads, and a per-layer traced run. `METRICS.md` beside this
//! crate is the metric catalogue; `run_timed` and `run_traced` are the
//! two kinds of run.

mod checks;
mod layers;
mod micro;
mod stats;
pub mod workload;

use std::path::PathBuf;
use std::time::Instant;

pub use layers::run_traced;
use stats::{percentile, quartiles};
use workload::{fidelity, run_round, Plan, Round, Scale, Workload, DEFAULT_SEED};

/// The paper's headline on the high-miss-rate twins: 20.7 % power
/// saving at 2.0 % slowdown.
const PAPER_POWER_SAVING_PCT: f64 = 20.7;
/// See [`PAPER_POWER_SAVING_PCT`].
const PAPER_PERF_LOSS_PCT: f64 = 2.0;

/// Digest of every simulated output of one round at [`DEFAULT_SEED`]
/// and the workload's default scale. A change that moves any simulated
/// number — a result field, a counter — changes it.
#[must_use]
pub(crate) fn pinned_digest(w: Workload) -> &'static str {
    match w {
        Workload::HighMr => "84615de58242411c",
        Workload::Ilp => "53c9e426ae04d5c4",
        Workload::Chip4Service => "320488fbcb5d729e",
        Workload::Campaign => "2218a048229a5330",
    }
}

/// One reported metric: its value and the per-round samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the median of `samples` when there are
    /// several).
    pub value: f64,
    /// Per-repetition samples (empty when the value is a single
    /// measurement or a simulated quantity).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its samples.
    #[must_use]
    pub(crate) fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value: quartiles(&samples).1,
            samples,
        }
    }

    /// A metric with a single value.
    #[must_use]
    pub(crate) fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Instructions per cell.
    pub scale: Scale,
    /// Rounds (repetitions of the whole workload) measured.
    pub rounds: usize,
    /// Operations attempted (cells, plus the merge for the campaign).
    pub attempted: usize,
    /// Operations failed: errors, panics and failed output checks.
    pub failures: Vec<String>,
    /// Whether every output check passed.
    pub correct: bool,
    /// Digest of one round's simulated outputs.
    pub digest: String,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Simulated power saving and slowdown against the baseline, %.
    pub saving_loss: Option<(f64, f64)>,
}

/// Host CPUs available to this process.
#[must_use]
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process, MB (`VmHWM`; 0 where the
/// platform does not report it).
#[must_use]
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision being measured: `git rev-parse HEAD` when the checkout
/// is a git repository, and in every case a digest of the simulator's
/// sources (`crates/`, `vendor/`, the root manifest), which identifies
/// the code in a checkout without history.
#[must_use]
pub(crate) fn revision() -> (String, String) {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(PathBuf::from(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut h = stats::Fnv::default();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    (git, h.hex())
}

fn collect_files(dir: PathBuf, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Scratch directory for the campaign's shard files, inside the
/// working directory; removed when the run ends.
#[must_use]
pub(crate) fn scratch_dir(w: Workload) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{}-{}", w.name(), std::process::id()))
}

/// Rounds of `plan` until `seconds` have passed (at least one).
///
/// # Errors
///
/// An error that stopped a round (I/O, campaign planning).
pub(crate) fn measure_rounds(plan: &Plan, seconds: f64) -> Result<Vec<Round>, String> {
    let dir = scratch_dir(plan.workload);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let outcome = loop {
        match run_round(plan, &dir) {
            Ok(r) => rounds.push(r),
            Err(e) => break Err(e),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break Ok(());
        }
    };
    // Best effort: a leftover directory is harmless and ignored by git.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    outcome.map(|()| rounds)
}

/// The smallest of `values` (0 for none).
fn min_of(values: impl Iterator<Item = u64>) -> f64 {
    values.min().unwrap_or(0) as f64
}

/// The timed run: rounds of the workload with tracing off for
/// `seconds`, reporting every end-to-end metric.
///
/// The host's noise only ever adds time, and it comes in phases of
/// several seconds at a few speed levels, so a run's median depends on
/// which phases it met. Each host-time metric is therefore taken from
/// the fastest repetition of each cell: its minimum over rounds. The
/// per-round figures behind it, with their median and quartiles, are in
/// the self-describing line.
///
/// # Errors
///
/// An error that stopped a round.
pub fn run_timed(w: Workload, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let plan = Plan::new(w, seed, scale);
    let rounds = measure_rounds(&plan, seconds)?;
    let first = &rounds[0];
    let cells = plan.cells.len();
    let sim_ns = first.sim_ns() as f64;
    let insts = first.insts() as f64;
    // The campaign's merge runs once per round, after its cells.
    let merge_ns = |r: &Round| r.campaign.as_ref().map_or(0, |c| c.merge_ns);

    // Per-round figures, for the self-describing line.
    let mut per_round: [Vec<f64>; 4] = Default::default();
    for r in &rounds {
        let window_s = r.cell_window_ns.iter().sum::<u64>() as f64 / 1e9;
        let busy_s = (0..cells).map(|i| r.cell_wall_ns(i)).sum::<u64>() + merge_ns(r);
        per_round[0].push(r.sim_ns() as f64 / window_s);
        per_round[1].push(r.insts() as f64 / (window_s * 1e6));
        per_round[2].push(r.setup_ns as f64 / 1e9);
        per_round[3].push(cells as f64 / (busy_s as f64 / 3.6e12));
    }
    // Each cell at its fastest repetition. A campaign cell's time is
    // the whole cell as its worker timed it, warm-up included; summed
    // over cells it is CPU time, since each cell holds one worker.
    let best = |f: &dyn Fn(&Round, usize) -> u64| -> Vec<f64> {
        (0..cells)
            .map(|i| min_of(rounds.iter().map(|r| f(r, i))))
            .collect()
    };
    let cell_wall = best(&|r, i| r.cell_wall_ns(i));
    let window_s = best(&|r, i| r.cell_window_ns[i]).iter().sum::<f64>() / 1e9;
    let setup_s = if first.campaign.is_some() {
        min_of(rounds.iter().map(|r| r.setup_ns)) / 1e9
    } else {
        best(&|r, i| r.cell_setup_ns[i]).iter().sum::<f64>() / 1e9
    };
    let busy_s = (cell_wall.iter().sum::<f64>() + min_of(rounds.iter().map(merge_ns))) / 1e9;
    let cell_ms: Vec<f64> = cell_wall.iter().map(|ns| ns / 1e6).collect();

    let digest = first.digest();
    let mut failures: Vec<String> = rounds.iter().flat_map(|r| r.failures.clone()).collect();
    // Cells, campaign merges, and the two whole-output checks below.
    let mut attempted: usize = rounds
        .iter()
        .map(|r| r.attempted() + usize::from(r.campaign.is_some()))
        .sum();
    attempted += 1;
    if let Some(i) = rounds.iter().position(|r| r.digest() != digest) {
        failures.push(format!(
            "round {i} simulated different outputs than round 0"
        ));
    }
    let pinned = seed == DEFAULT_SEED && scale == w.scale();
    attempted += usize::from(pinned);
    if pinned && digest != pinned_digest(w) {
        failures.push(format!(
            "digest {digest} differs from the pinned {}",
            pinned_digest(w)
        ));
    }
    let cmp = fidelity(&plan, &first.results);
    if cmp.is_none() {
        failures.push("a fidelity pair has no result".to_owned());
    }
    let cmp = cmp.unwrap_or(vsv::Comparison {
        perf_degradation_pct: 0.0,
        power_saving_pct: 0.0,
    });
    let [sim_rounds, mips_rounds, setup_rounds, cells_rounds] = per_round;
    let with = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let metrics = vec![
        with("sim_ns_per_s", "ns/s", sim_ns / window_s, sim_rounds),
        with("mips", "inst/us", insts / (window_s * 1e6), mips_rounds),
        with("setup_s", "s", setup_s, setup_rounds),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb()),
        with(
            "cells_per_hour_per_cpu",
            "1/h",
            cells as f64 / (busy_s / 3600.0),
            cells_rounds,
        ),
        with(
            "cell_wall_p50_ms",
            "ms",
            percentile(&cell_ms, 50.0),
            cell_ms.clone(),
        ),
        with(
            "cell_wall_p90_ms",
            "ms",
            percentile(&cell_ms, 90.0),
            cell_ms,
        ),
        Metric::single("power_vs_baseline_pct", "%", 100.0 - cmp.power_saving_pct),
        Metric::single(
            "time_vs_baseline_pct",
            "%",
            100.0 + cmp.perf_degradation_pct,
        ),
    ];
    Ok(Outcome {
        workload: w,
        seed,
        scale,
        rounds: rounds.len(),
        attempted,
        correct: failures.is_empty(),
        failures,
        digest,
        metrics,
        saving_loss: Some((cmp.power_saving_pct, cmp.perf_degradation_pct)),
    })
}

/// Formats a float for JSON: every digit Rust's shortest round-trip
/// form gives, and 0 for a non-finite value (JSON has none).
#[must_use]
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The self-describing line: host, revision, scale, seed,
    /// repetitions, and the median and quartiles of every metric.
    #[must_use]
    pub fn describe(&self, trace: bool) -> String {
        let (git, source) = revision();
        let mut metrics = Vec::new();
        for m in &self.metrics {
            let (q1, med, q3) = if m.samples.is_empty() {
                (m.value, m.value, m.value)
            } else {
                quartiles(&m.samples)
            };
            metrics.push(format!(
                "{}:{{\"unit\":{},\"value\":{},\"median\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
                json_str(m.name),
                json_str(m.unit),
                json_num(m.value),
                json_num(med),
                json_num(q1),
                json_num(q3),
                m.samples.len().max(1)
            ));
        }
        let fidelity = self.saving_loss.map_or_else(String::new, |(s, l)| {
            format!(
                ",\"fidelity\":{{\"power_saving_pct\":{},\"paper_power_saving_pct\":{},\"perf_loss_pct\":{},\"paper_perf_loss_pct\":{}}}",
                json_num(s),
                json_num(PAPER_POWER_SAVING_PCT),
                json_num(l),
                json_num(PAPER_PERF_LOSS_PCT)
            )
        });
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"perfbench\":{{\"workload\":{},\"trace\":{},\"seed\":{},\"host_cpus\":{},\"git_revision\":{},\"source_digest\":{},\"scale\":{{\"warmup_insts\":{},\"insts\":{}}},\"rounds\":{},\"digest\":{},\"pinned_digest\":{}{},\"failures\":[{}],\"metrics\":{{{}}}}}}}",
            json_str(self.workload.name()),
            u8::from(trace),
            self.seed,
            host_cpus(),
            json_str(&git),
            json_str(&source),
            self.scale.warmup,
            self.scale.insts,
            self.rounds,
            json_str(&self.digest),
            json_str(pinned_digest(self.workload)),
            fidelity,
            failures.join(","),
            metrics.join(",")
        )
    }

    /// The result line the benchmark contract asks for.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        )
    }
}
