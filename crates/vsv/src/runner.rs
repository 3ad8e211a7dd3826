//! Experiment driving: warm-up + measurement over workload twins.

use vsv_workloads::{Generator, WorkloadParams};

use crate::error::SimError;
use crate::metrics::MetricsRegistry;
use crate::multicore::MulticoreSystem;
use crate::report::{Comparison, RunResult};
use crate::system::{System, SystemConfig};
use crate::trace::{CaptureSink, EventBuf, TraceEvent, TraceLevel, TraceSink};

/// Simulation-length policy for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Instructions to warm caches/predictors before measuring.
    pub warmup_instructions: u64,
    /// Instructions in the measured window.
    pub instructions: u64,
}

impl Experiment {
    /// A fast smoke-test scale (CI, unit tests).
    #[must_use]
    pub fn quick() -> Self {
        Experiment {
            warmup_instructions: 20_000,
            instructions: 60_000,
        }
    }

    /// The scale used for the paper-reproduction tables and figures.
    /// (The paper simulates 1 B instructions after a 2 B fast-forward;
    /// our synthetic twins are stationary, so far shorter windows
    /// converge.)
    #[must_use]
    pub fn standard() -> Self {
        Experiment {
            warmup_instructions: 100_000,
            instructions: 300_000,
        }
    }

    /// Runs one workload under one configuration: builds the machine,
    /// warms it up, then measures the window. Failures (invalid
    /// configuration, deadlock, exhausted budget, injected fault)
    /// come back as typed errors, so a bad [`crate::Sweep`] cell
    /// becomes a per-cell failure record rather than a dead sweep.
    ///
    /// Returns the result and the measured window's
    /// [`MetricsRegistry`]. With `trace` set, structured
    /// [`TraceEvent`]s at that level go to the sink during the
    /// measured window (the warm-up is never traced, so traces start
    /// at the measurement anchor); the sink is flushed and dropped
    /// before returning. A caller that wants a header line (such as
    /// a [`TraceEvent::JobStart`]) records it into the sink before
    /// passing the sink in.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised during construction, warm-up, or the
    /// measured window.
    pub fn try_run(
        &self,
        params: &WorkloadParams,
        cfg: SystemConfig,
        trace: Option<(TraceLevel, Box<dyn TraceSink>)>,
    ) -> Result<(RunResult, MetricsRegistry), SimError> {
        if cfg.cores > 1 {
            return self.try_run_multicore(params, cfg, trace);
        }
        let mut sys = System::try_new(cfg, Generator::new(*params))?;
        sys.set_workload_name(params.name);
        sys.try_warm_up(self.warmup_instructions)?;
        if let Some((level, sink)) = trace {
            sys.set_event_sink(level, sink);
        }
        let result = sys.try_run(self.instructions);
        drop(sys.take_event_sink());
        Ok((result?, sys.window_metrics().clone()))
    }

    /// The `cores > 1` arm of [`Experiment::try_run`]: builds a
    /// [`MulticoreSystem`], warms up, then runs the measured window
    /// with one in-memory [`CaptureSink`] per core. Afterwards the
    /// captured streams are replayed into the caller's single sink,
    /// each core's events behind a [`TraceEvent::CoreStart`] marker,
    /// so one JSONL trace carries the whole chip while single-core
    /// byte streams stay unchanged (they never contain a
    /// `CoreStart`).
    fn try_run_multicore(
        &self,
        params: &WorkloadParams,
        cfg: SystemConfig,
        trace: Option<(TraceLevel, Box<dyn TraceSink>)>,
    ) -> Result<(RunResult, MetricsRegistry), SimError> {
        let mut chip = MulticoreSystem::try_new(cfg, params)?;
        chip.try_warm_up(self.warmup_instructions)?;
        let mut capture: Option<Vec<EventBuf>> = None;
        if let Some((level, _)) = &trace {
            let bufs: Vec<EventBuf> = (0..chip.cores()).map(|_| EventBuf::default()).collect();
            for (sys, buf) in chip.systems_mut().iter_mut().zip(&bufs) {
                sys.set_event_sink(*level, Box::new(CaptureSink::new(buf.clone())));
            }
            capture = Some(bufs);
        }
        let result = chip.try_run_with_metrics(self.instructions);
        for sys in chip.systems_mut() {
            drop(sys.take_event_sink());
        }
        let (result, metrics) = result?;
        if let (Some(bufs), Some((_, mut out))) = (capture, trace) {
            for (i, buf) in bufs.into_iter().enumerate() {
                out.record(&TraceEvent::CoreStart { core: i as u64 });
                for event in buf.take() {
                    out.record(&event);
                }
            }
            out.flush();
        }
        Ok((result, metrics))
    }

    /// Runs a (baseline, variant) pair over the same workload and
    /// compares them with the paper's metrics.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] either run raises.
    pub fn compare(
        &self,
        params: &WorkloadParams,
        baseline: SystemConfig,
        variant: SystemConfig,
    ) -> Result<(RunResult, RunResult, Comparison), SimError> {
        let (base, _) = self.try_run(params, baseline, None)?;
        let (vsv, _) = self.try_run(params, variant, None)?;
        let cmp = Comparison::of(&base, &vsv);
        Ok((base, vsv, cmp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_workloads::twin;

    #[test]
    fn quick_experiment_runs_a_twin() {
        let e = Experiment::quick();
        let (r, _) = e
            .try_run(
                &twin("gzip").expect("gzip exists"),
                SystemConfig::baseline(),
                None,
            )
            .expect("baseline runs");
        assert_eq!(r.workload, "gzip");
        assert!((e.instructions..e.instructions + 8).contains(&r.instructions));
        assert!(r.ipc > 0.2);
    }

    #[test]
    fn try_run_reports_typed_errors() {
        let e = Experiment::quick();
        let p = twin("gzip").expect("gzip exists");
        let mut cfg = SystemConfig::baseline();
        cfg.core.fetch_width = 0;
        let err = e.try_run(&p, cfg, None).expect_err("invalid config");
        assert_eq!(err.kind(), "invalid-config");
        let cfg = SystemConfig::baseline().with_injected_fault(crate::FaultKind::Deadlock);
        let err = e.try_run(&p, cfg, None).expect_err("fault armed");
        assert_eq!(err.kind(), "deadlock");
        assert!(e.try_run(&p, SystemConfig::baseline(), None).is_ok());
    }

    #[test]
    fn compare_produces_paper_metrics() {
        let e = Experiment::quick();
        let p = twin("ammp").expect("ammp exists");
        let (base, vsv, cmp) = e
            .compare(&p, SystemConfig::baseline(), SystemConfig::vsv_with_fsms())
            .expect("pair runs");
        assert!(base.mpki > 1.0, "ammp twin misses, got {}", base.mpki);
        assert!(vsv.mode.down_transitions > 0);
        assert!(cmp.power_saving_pct > 0.0, "got {}", cmp.power_saving_pct);
    }
}

/// Mean and population standard deviation of a set of comparisons —
/// for robustness checks across workload seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonSpread {
    /// Mean of the two percentages.
    pub mean: crate::report::Comparison,
    /// Standard deviation of the power-saving percentage.
    pub power_std: f64,
    /// Standard deviation of the degradation percentage.
    pub perf_std: f64,
}

impl Experiment {
    /// Runs the (baseline, variant) pair over `seeds` reseeded copies
    /// of `params` and reports the spread of the paper metrics. The
    /// twins are deterministic per seed, so this quantifies how much
    /// of a result is the parameter point versus the particular
    /// pseudo-random interleaving.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] any run raises.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn compare_across_seeds(
        &self,
        params: &WorkloadParams,
        baseline: SystemConfig,
        variant: SystemConfig,
        seeds: &[u64],
    ) -> Result<ComparisonSpread, SimError> {
        assert!(!seeds.is_empty(), "need at least one seed");
        let mut comparisons = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let mut p = *params;
            p.seed = seed;
            let (_, _, cmp) = self.compare(&p, baseline, variant)?;
            comparisons.push(cmp);
        }
        let mean = crate::report::mean_comparison(&comparisons);
        let n = comparisons.len() as f64;
        let var = |f: &dyn Fn(&crate::report::Comparison) -> f64, mu: f64| {
            comparisons.iter().map(|c| (f(c) - mu).powi(2)).sum::<f64>() / n
        };
        Ok(ComparisonSpread {
            mean,
            power_std: var(&|c| c.power_saving_pct, mean.power_saving_pct).sqrt(),
            perf_std: var(&|c| c.perf_degradation_pct, mean.perf_degradation_pct).sqrt(),
        })
    }
}

#[cfg(test)]
mod seed_tests {
    use super::*;
    use vsv_workloads::twin;

    #[test]
    fn seed_spread_is_small_for_a_memory_bound_twin() {
        let e = Experiment {
            warmup_instructions: 15_000,
            instructions: 40_000,
        };
        let p = twin("ammp").expect("ammp exists");
        let spread = e
            .compare_across_seeds(
                &p,
                SystemConfig::baseline(),
                SystemConfig::vsv_with_fsms(),
                &[1, 2, 3],
            )
            .expect("seeds run");
        assert!(spread.mean.power_saving_pct > 5.0);
        // The effect is a property of the parameter point, not of one
        // lucky seed: the spread is small relative to the mean.
        assert!(
            spread.power_std < spread.mean.power_saving_pct,
            "std {} vs mean {}",
            spread.power_std,
            spread.mean.power_saving_pct
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        let e = Experiment::quick();
        let p = twin("gzip").expect("gzip exists");
        let _ = e.compare_across_seeds(
            &p,
            SystemConfig::baseline(),
            SystemConfig::vsv_with_fsms(),
            &[],
        );
    }
}
