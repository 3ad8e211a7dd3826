//! The traced run: per-layer metrics, kept apart from the timed run.
//!
//! It times calls into each layer's public functions from this file:
//! a counting `InstStream` around `Generator`, a timing `TraceSink`,
//! the layers' public statistics, and a replay of each cell's recorded
//! instruction stream through `Core::tick_mem` (`Hierarchy::tick`),
//! `Core::cycle`, `VsvController::tick`/`on_cycle` and
//! `PowerAccountant::record_cycle`, each call bracketed by `Instant`
//! readings. A layer's wall share in the traced pass is its calls in
//! that pass times its cost per call in the replay; what is left is
//! `system.other_wall_share` (the run loop, fast-forward, traffic and
//! metrics bookkeeping). A change to a layer's API breaks only this
//! file, never the timed run.

use std::cell::Cell as StdCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vsv::{
    CounterId, MetricsRegistry, MulticoreSystem, ReportAggregator, RingSink, RunResult, System,
    SystemConfig, TraceEvent, TraceLevel, TraceSink, VsvController,
};
use vsv_isa::{Inst, InstStream, VecStream};
use vsv_mem::{FabricCoreStats, Hierarchy};
use vsv_power::{ActivitySample, PowerAccountant, StructureId};
use vsv_uarch::{Core, CycleActivity};
use vsv_workloads::{Generator, WorkloadParams};

use crate::checks::check;
use crate::micro;
use crate::stats::{median, Fnv};
use crate::workload::{run_round, Cell, Plan, Scale, Workload, CHIP4_TWINS, DEFAULT_SEED};
use crate::{scratch_dir, Metric, Outcome};

/// Instructions each cell's replay times, after an untimed warm-up of
/// the cell's own warm-up length.
const REPLAY_INSTS: u64 = 20_000;

/// Instructions fetched ahead of commit that a replay's recorded
/// stream must cover (the window and fetch queue, with margin).
const FETCH_SLACK: u64 = 4_096;

/// Instructions per cell fed to the microbenchmarks, and their total.
const MICRO_INSTS_PER_CELL: usize = 20_000;
const MICRO_INSTS_TOTAL: usize = 200_000;

/// Recorded memory-event pattern entries kept per replay.
const MAX_EVENT_PATTERN: usize = 50_000;

/// Instructions per generator-replay repetition.
const GENERATOR_INSTS: u64 = 100_000;

/// An `InstStream` that counts the instructions pulled through it.
struct Counting<S> {
    inner: S,
    pulled: Rc<StdCell<u64>>,
}

impl<S: InstStream> InstStream for Counting<S> {
    fn next_inst(&mut self) -> Option<Inst> {
        self.pulled.set(self.pulled.get() + 1);
        self.inner.next_inst()
    }
}

/// A `TraceSink` that keeps the most recent events in a ring and
/// accumulates the time spent recording them.
#[derive(Debug)]
struct TimingSink {
    ring: RingSink,
    ns: Arc<AtomicU64>,
    events: Arc<AtomicU64>,
}

impl TraceSink for TimingSink {
    fn record(&mut self, event: &TraceEvent) {
        let t = Instant::now();
        self.ring.record(event);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: no other data is published through these.
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One cell of a pass over the plan, run directly (not through the
/// timed round) so its layers can be observed.
#[derive(Debug, Clone)]
struct CellPass {
    /// System construction, ns.
    construct_ns: u64,
    /// The measured window's wall time, ns.
    window_ns: u64,
    result: RunResult,
    metrics: MetricsRegistry,
    /// Instructions pulled from the generator during the window
    /// (single-core cells; `None` for chips).
    pulled: Option<u64>,
    /// Time inside the trace sink, ns, and events it received.
    sink_ns: u64,
    events: u64,
    fabric: Vec<FabricCoreStats>,
}

fn run_pass_cell(cell: &Cell, scale: Scale, traced: bool) -> Result<CellPass, String> {
    let e = |e: vsv::SimError| e.to_string();
    match cell {
        Cell::Single { params, cfg } if cfg.cores == 1 => {
            let pulled = Rc::new(StdCell::new(0));
            let stream = Counting {
                inner: Generator::new(*params),
                pulled: Rc::clone(&pulled),
            };
            let t = Instant::now();
            let mut sys = System::try_new(*cfg, stream).map_err(e)?;
            let construct_ns = nanos(t);
            sys.set_workload_name(params.name);
            sys.try_warm_up(scale.warmup).map_err(e)?;
            let ns = Arc::new(AtomicU64::new(0));
            let events = Arc::new(AtomicU64::new(0));
            if traced {
                sys.set_event_sink(
                    TraceLevel::Events,
                    Box::new(TimingSink {
                        ring: RingSink::new(1024),
                        ns: Arc::clone(&ns),
                        events: Arc::clone(&events),
                    }),
                );
            }
            let before = pulled.get();
            let t = Instant::now();
            let result = sys.try_run(scale.insts).map_err(e)?;
            let window_ns = nanos(t);
            drop(sys.take_event_sink());
            Ok(CellPass {
                construct_ns,
                window_ns,
                result,
                metrics: sys.window_metrics().clone(),
                pulled: Some(pulled.get() - before),
                sink_ns: ns.load(Ordering::Relaxed),
                events: events.load(Ordering::Relaxed),
                fabric: Vec::new(),
            })
        }
        Cell::Single { cfg, .. } | Cell::Chip { cfg, .. } => {
            let t = Instant::now();
            let mut chip = match cell {
                Cell::Chip { params, .. } => MulticoreSystem::try_new_heterogeneous(*cfg, params),
                Cell::Single { params, .. } => MulticoreSystem::try_new(*cfg, params),
            }
            .map_err(e)?;
            let construct_ns = nanos(t);
            chip.try_warm_up(scale.warmup).map_err(e)?;
            let t = Instant::now();
            let (result, metrics) = chip.try_run_with_metrics(scale.insts).map_err(e)?;
            let window_ns = nanos(t);
            Ok(CellPass {
                construct_ns,
                window_ns,
                result,
                metrics,
                pulled: None,
                sink_ns: 0,
                events: 0,
                fabric: chip.fabric_stats(),
            })
        }
    }
}

/// A pass over every cell of the plan, each cell run untraced and
/// traced back to back (in the order `flip` picks), so both see the
/// same host phase. Returns the (untraced, traced) runs; failures are
/// errors and failed checks.
fn run_pass(plan: &Plan, flip: bool, failures: &mut Vec<String>) -> (Vec<CellPass>, Vec<CellPass>) {
    let mut runs = (Vec::new(), Vec::new());
    for cell in &plan.cells {
        for traced in [flip, !flip] {
            match run_pass_cell(cell, plan.scale, traced) {
                Ok(p) => {
                    failures.extend(check(&p.result));
                    if traced {
                        runs.1.push(p);
                    } else {
                        runs.0.push(p);
                    }
                }
                Err(err) => failures.push(err),
            }
        }
    }
    runs
}

fn pass_digest(pass: &[CellPass]) -> String {
    let mut h = Fnv::default();
    for c in pass {
        // Formatted as the timed round formats its results.
        h.write(format!("{:?}", Some(&c.result)).as_bytes());
    }
    h.hex()
}

/// What one replay measured, summed over its timed window.
#[derive(Debug, Clone, Default)]
struct Replay {
    steps: u64,
    cycles: u64,
    mem_ns: f64,
    uarch_ns: f64,
    ctl_ns: f64,
    power_ns: f64,
    record_cycle_ns: f64,
    /// Instructions pulled in the timed window.
    pulled_window: u64,
    /// Instructions pulled and committed over the whole replay.
    pulled: u64,
    committed: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    /// (scheduled at, fires at) of each new next memory event.
    events: Vec<(u64, u64)>,
    /// The stream replayed: the first instructions the cell consumed.
    insts: Vec<Inst>,
}

impl Replay {
    fn per_step(&self, ns: f64) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            ns / self.steps as f64
        }
    }
}

/// The power model's per-structure activity for one cycle, as the
/// simulator derives it from the core's report.
fn activity_sample(act: &CycleActivity) -> ActivitySample {
    let mut s: ActivitySample = Default::default();
    s[StructureId::Fetch.index()] = act.fetched;
    s[StructureId::Rename.index()] = act.dispatched;
    s[StructureId::Ruu.index()] = act.ruu_reads + act.ruu_writes + act.ruu_wakeups;
    s[StructureId::Lsq.index()] = act.lsq_accesses;
    s[StructureId::RegFile.index()] = act.regfile_reads + act.regfile_writes;
    s[StructureId::IL1.index()] = act.il1_accesses;
    s[StructureId::DL1.index()] = act.dl1_accesses;
    s[StructureId::Bpred.index()] = act.bpred_accesses;
    s[StructureId::IntAlu.index()] = act.int_alu_ops;
    s[StructureId::IntMulDiv.index()] = act.int_muldiv_ops;
    s[StructureId::FpAlu.index()] = act.fp_alu_ops;
    s[StructureId::FpMulDiv.index()] = act.fp_muldiv_ops;
    s[StructureId::ResultBus.index()] = act.resultbus_ops;
    s
}

/// Replays one core's recorded stream through its layers, ns-stepped
/// (no fast-forward), on a private hierarchy: an untimed warm-up, then
/// a window in which every layer call is bracketed by `Instant`
/// readings, less `instant_ns` per bracket.
fn replay(params: WorkloadParams, cfg: &SystemConfig, warmup: u64, instant_ns: f64) -> Replay {
    let mut gen = Generator::new(params);
    let recorded = warmup + REPLAY_INSTS + FETCH_SLACK;
    let insts: Vec<Inst> = (0..recorded).map_while(|_| gen.next_inst()).collect();
    let pulled = Rc::new(StdCell::new(0));
    let stream = Counting {
        inner: VecStream::new(insts.clone()),
        pulled: Rc::clone(&pulled),
    };
    let mut core = Core::new(cfg.core, Hierarchy::new(cfg.mem), stream);
    let mut ctl = VsvController::new(cfg.vsv);
    let mut power = PowerAccountant::new(cfg.power);
    let mut out = Replay::default();
    let limit = 1_000 * (warmup + REPLAY_INSTS);
    let mut now = 0u64;
    let mut last_event = None;
    let mut timed = false;
    let mut pulled_at_warm = 0;
    let c = instant_ns;
    while core.committed() < warmup + REPLAY_INSTS && !core.done() && now < limit {
        if !timed && core.committed() >= warmup {
            timed = true;
            pulled_at_warm = pulled.get();
        }
        let t0 = Instant::now();
        core.tick_mem(now);
        let t1 = Instant::now();
        core.mem_mut().visit_vsv_signals(|sig| ctl.observe(sig));
        let plan = ctl.tick(now, core.mem().outstanding_demand_misses());
        let t2 = Instant::now();
        if ctl.take_ramps() > 0 {
            ctl.drain_ramp_scales(|scale| power.record_ramp_scaled(scale));
        }
        power.record_leakage_ns(plan.vdd);
        let t3 = Instant::now();
        if timed {
            out.steps += 1;
            out.mem_ns += (t1 - t0).as_nanos() as f64 - c;
            out.ctl_ns += (t2 - t1).as_nanos() as f64 - c;
            out.power_ns += (t3 - t2).as_nanos() as f64 - c;
            let next = core.mem().next_event_time();
            if next != last_event {
                last_event = next;
                if let Some(at) = next.filter(|&at| at > now) {
                    if out.events.len() < MAX_EVENT_PATTERN {
                        out.events.push((now, at));
                    }
                }
            }
        }
        if plan.pipeline_edge {
            let t3 = Instant::now();
            let act = core.cycle(now);
            let t4 = Instant::now();
            ctl.on_cycle(now, act.issued);
            let t5 = Instant::now();
            power.record_cycle(&activity_sample(&act), plan.vdd);
            let t6 = Instant::now();
            if timed {
                out.cycles += 1;
                out.uarch_ns += (t4 - t3).as_nanos() as f64 - c;
                out.ctl_ns += (t5 - t4).as_nanos() as f64 - c;
                let record = (t6 - t5).as_nanos() as f64 - c;
                out.power_ns += record;
                out.record_cycle_ns += record;
            }
        }
        now += 1;
    }
    let l1d = core.mem().cache_stats().1;
    out.l1d_accesses = l1d.accesses();
    out.l1d_misses = l1d.misses;
    out.pulled = pulled.get();
    out.pulled_window = out.pulled - pulled_at_warm;
    out.committed = core.committed();
    for ns in [
        &mut out.mem_ns,
        &mut out.uarch_ns,
        &mut out.ctl_ns,
        &mut out.power_ns,
        &mut out.record_cycle_ns,
    ] {
        *ns = ns.max(0.0);
    }
    out.insts = insts;
    out
}

/// Generator cost, ns per instruction (median of three repetitions).
fn generator_ns_per_inst(params: WorkloadParams) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut gen = Generator::new(params);
            let t = Instant::now();
            for _ in 0..GENERATOR_INSTS {
                std::hint::black_box(gen.next_inst());
            }
            t.elapsed().as_nanos() as f64 / GENERATOR_INSTS as f64
        })
        .collect();
    median(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums the layers spend across one traced pass.
#[derive(Debug, Default)]
struct Ledger {
    workloads: f64,
    uarch: f64,
    mem: f64,
    controller: f64,
    power: f64,
    trace: f64,
    /// Stepped core-nanoseconds (simulated ns not fast-forwarded,
    /// times the cores stepped in each).
    stepped: f64,
}

/// The traced run: per-layer metrics for `w`.
///
/// # Errors
///
/// An error that stopped a pass or the campaign round.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let plan = Plan::new(w, seed, scale);
    let instant_ns = micro::instant_overhead_ns();
    let mut failures = Vec::new();
    let mut attempted = 0;

    // Passes over the cells, each cell untraced and traced back to back,
    // for at least two passes and half of `seconds`. Like the timed
    // run, each cell counts at its fastest run.
    let start = Instant::now();
    let mut fastest = [
        vec![u64::MAX; plan.cells.len()],
        vec![u64::MAX; plan.cells.len()],
    ];
    let mut reference: Option<String> = None;
    let mut passes = 0;
    let pass = loop {
        let (untraced, traced) = run_pass(&plan, passes % 2 == 1, &mut failures);
        passes += 1;
        attempted += 2 * plan.cells.len() + 1;
        for (runs, best) in [&untraced, &traced].into_iter().zip(&mut fastest) {
            let digest = pass_digest(runs);
            if *reference.get_or_insert_with(|| digest.clone()) != digest {
                failures.push(format!("pass {passes} simulated different outputs"));
            }
            for (b, p) in best.iter_mut().zip(runs) {
                *b = (*b).min(p.window_ns);
            }
        }
        if passes >= 2 && start.elapsed().as_secs_f64() >= seconds / 2.0 {
            // The traced runs' counts feed the layer estimates.
            break traced;
        }
    };
    let sum = |v: &[u64]| v.iter().map(|&ns| ns as f64).sum::<f64>();
    let (untraced_ns, traced_ns) = (sum(&fastest[0]), sum(&fastest[1]));

    // Replays of every core of every cell.
    let mut ledger = Ledger::default();
    let mut replays: Vec<Replay> = Vec::new();
    let mut pulled_total = 0.0;
    for (cell, p) in plan.cells.iter().zip(&pass) {
        let cores = cell.core_params();
        // The run loop steps every core each simulated ns it does not
        // fast-forward (chips never fast-forward).
        let ff_ns = p.metrics.get(CounterId::FastForwardNs) as f64;
        let stepped = (p.result.elapsed_ns as f64 - ff_ns).max(0.0);
        for params in cores.iter() {
            let r = replay(*params, cell.cfg(), scale.warmup, instant_ns);
            let gen_ns = generator_ns_per_inst(*params);
            let pulled = match p.pulled {
                Some(n) => n as f64,
                None => stepped * r.per_step(r.pulled_window as f64),
            };
            ledger.workloads += pulled * gen_ns;
            pulled_total += pulled;
            ledger.uarch += stepped * r.per_step(r.uarch_ns);
            ledger.mem += stepped * r.per_step(r.mem_ns);
            ledger.controller += stepped * r.per_step(r.ctl_ns);
            ledger.power += stepped * r.per_step(r.power_ns);
            ledger.stepped += stepped;
            replays.push(r);
        }
        ledger.trace += (p.sink_ns as f64 - p.events as f64 * instant_ns).max(0.0);
    }

    let mut metrics = layer_metrics(
        &plan,
        &pass,
        &replays,
        &ledger,
        traced_ns,
        untraced_ns,
        ratio(ledger.workloads, pulled_total),
        instant_ns,
    );
    metrics.extend(micro_metrics(&plan, &replays, instant_ns));
    let (sweep, campaign_failures) = sweep_metrics(&plan, &pass)?;
    attempted += usize::from(w == Workload::Campaign);
    failures.extend(campaign_failures);
    metrics.extend(sweep);

    let digest = reference.unwrap_or_default();
    if seed == DEFAULT_SEED && scale == w.scale() {
        // The per-cell runs simulate what the timed rounds simulate;
        // their digest is pinned with the same contract.
        attempted += 1;
        if digest != crate::pinned_digest(w) {
            failures.push(format!(
                "digest {digest} differs from the pinned {}",
                crate::pinned_digest(w)
            ));
        }
    }
    Ok(Outcome {
        workload: w,
        seed,
        scale,
        rounds: passes,
        attempted,
        correct: failures.is_empty(),
        failures,
        digest,
        metrics,
        saving_loss: None,
    })
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    plan: &Plan,
    pass: &[CellPass],
    replays: &[Replay],
    ledger: &Ledger,
    traced_ns: f64,
    untraced_ns: f64,
    gen_ns_per_inst: f64,
    instant_ns: f64,
) -> Vec<Metric> {
    let results: Vec<&RunResult> = pass.iter().map(|p| &p.result).collect();
    let sum = |f: &dyn Fn(&RunResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>();
    let counter = |id: CounterId| pass.iter().map(|p| p.metrics.get(id) as f64).sum::<f64>();
    let insts = sum(&|r| r.instructions as f64);
    let cycles = sum(&|r| r.pipeline_cycles as f64);
    let sim_us = sum(&|r| r.elapsed_ns as f64) / 1e3;
    let rsum = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();

    // Wall shares of the traced pass; what no layer accounts for is the
    // run loop's own ("other"). Estimates above the measured total are
    // scaled down to it.
    let layers = [
        ledger.workloads,
        ledger.uarch,
        ledger.mem,
        ledger.controller,
        ledger.power,
        ledger.trace,
    ];
    let accounted: f64 = layers.iter().sum();
    let scale = if accounted > traced_ns {
        traced_ns / accounted
    } else {
        1.0
    };
    let share = |ns: f64| ratio(ns * scale, traced_ns);
    let other = (1.0 - layers.iter().map(|&ns| share(ns)).sum::<f64>()).max(0.0);

    // Pulled / committed: the run's own counter where the cell is
    // single-core, else the replay's.
    let (pulled, committed) = pass.iter().fold((0.0, 0.0), |acc, p| match p.pulled {
        Some(n) => (acc.0 + n as f64, acc.1 + p.result.instructions as f64),
        None => acc,
    });
    let insts_per_commit = if committed > 0.0 {
        pulled / committed
    } else {
        ratio(rsum(&|r| r.pulled as f64), rsum(&|r| r.committed as f64))
    };

    // Multicore cells: shared-fabric statistics over cores × window.
    let (mut bus_wait, mut core_ns, mut mshr_stalls, mut chip_insts) = (0.0, 0.0, 0.0, 0.0);
    for p in pass.iter().filter(|p| !p.fabric.is_empty()) {
        for f in &p.fabric {
            bus_wait += f.bus_wait_ns as f64;
            mshr_stalls += f.shared_mshr_stalls as f64;
        }
        core_ns += p.fabric.len() as f64 * p.result.elapsed_ns as f64;
        chip_insts += p.result.instructions as f64;
    }

    // Controller residency over the cells that run a DVS policy.
    let (mut low, mut resident) = (0.0, 0.0);
    for (cell, r) in plan.cells.iter().zip(&results) {
        if cell.cfg().policy_name() != "disabled" {
            let ns: u64 = r.mode.ns_in_mode.iter().sum();
            low += r.mode.low_residency() * ns as f64;
            resident += ns as f64;
        }
    }
    let fires = counter(CounterId::PolicyDownFires) + counter(CounterId::PolicyUpFires);
    let declines = counter(CounterId::PolicyDownDeclines) + counter(CounterId::PolicyUpDeclines);
    let ff_ns = counter(CounterId::FastForwardNs);
    let events: f64 = pass.iter().map(|p| p.events as f64).sum();
    let sink_ns: f64 = pass.iter().map(|p| p.sink_ns as f64).sum();

    vec![
        Metric::single("workloads.insts_per_commit", "ratio", insts_per_commit),
        Metric::single("workloads.ns_per_inst", "ns", gen_ns_per_inst),
        Metric::single("workloads.wall_share", "ratio", share(ledger.workloads)),
        Metric::single("uarch.ipc", "inst/cycle", ratio(insts, cycles)),
        Metric::single(
            "uarch.zero_issue_share",
            "ratio",
            ratio(sum(&|r| r.zero_issue_cycles as f64), cycles),
        ),
        Metric::single(
            "uarch.mispredict_rate",
            "ratio",
            ratio(sum(&|r| r.mispredicts as f64), sum(&|r| r.branches as f64)),
        ),
        Metric::single(
            "uarch.ns_per_cycle",
            "ns",
            ratio(rsum(&|r| r.uarch_ns), rsum(&|r| r.cycles as f64)),
        ),
        Metric::single("uarch.wall_share", "ratio", share(ledger.uarch)),
        Metric::single(
            "mem.l2_demand_mpki",
            "1/kinst",
            ratio(sum(&|r| r.mpki * r.instructions as f64), insts),
        ),
        Metric::single(
            "mem.l1d_miss_ratio",
            "ratio",
            ratio(
                rsum(&|r| r.l1d_misses as f64),
                rsum(&|r| r.l1d_accesses as f64),
            ),
        ),
        Metric::single(
            "mem.ns_per_tick",
            "ns",
            ratio(rsum(&|r| r.mem_ns), rsum(&|r| r.steps as f64)),
        ),
        Metric::single("mem.wall_share", "ratio", share(ledger.mem)),
        Metric::single(
            "mem.fabric_bus_wait_share",
            "ratio",
            ratio(bus_wait, core_ns),
        ),
        Metric::single(
            "mem.fabric_mshr_stalls_per_kinst",
            "1/kinst",
            ratio(mshr_stalls * 1e3, chip_insts),
        ),
        Metric::single(
            "mem.read_retries_per_kinst",
            "1/kinst",
            ratio(sum(&|r| r.read_retries as f64) * 1e3, insts),
        ),
        Metric::single(
            "controller.transitions_per_sim_us",
            "1/us",
            ratio(
                sum(&|r| (r.mode.down_transitions + r.mode.up_transitions) as f64),
                sim_us,
            ),
        ),
        Metric::single("controller.low_residency", "ratio", ratio(low, resident)),
        Metric::single(
            "controller.policy_fire_ratio",
            "ratio",
            ratio(fires, fires + declines),
        ),
        Metric::single(
            "controller.ns_per_tick",
            "ns",
            ratio(rsum(&|r| r.ctl_ns), rsum(&|r| r.steps as f64)),
        ),
        Metric::single("controller.wall_share", "ratio", share(ledger.controller)),
        Metric::single("system.ff_ns_share", "ratio", ratio(ff_ns, sim_us * 1e3)),
        Metric::single(
            "system.ff_mean_span_ns",
            "ns",
            ratio(ff_ns, counter(CounterId::FastForwardBatches)),
        ),
        Metric::single(
            "system.host_ns_per_stepped_ns",
            "ns/ns",
            ratio(traced_ns, ledger.stepped),
        ),
        Metric::single("system.other_wall_share", "ratio", other),
        Metric::single(
            "power.ns_per_cycle_record",
            "ns",
            ratio(rsum(&|r| r.record_cycle_ns), rsum(&|r| r.cycles as f64)),
        ),
        Metric::single(
            "power.ramps_per_sim_us",
            "1/us",
            ratio(counter(CounterId::SupplyRamps), sim_us),
        ),
        Metric::single("power.wall_share", "ratio", share(ledger.power)),
        Metric::single("trace.events_per_sim_us", "1/us", ratio(events, sim_us)),
        Metric::single(
            "trace.ns_per_event",
            "ns",
            ratio((sink_ns - events * instant_ns).max(0.0), events),
        ),
        Metric::single(
            "trace.overhead_pct",
            "%",
            100.0 * ratio(traced_ns - untraced_ns, untraced_ns),
        ),
        Metric::single("trace.wall_share", "ratio", share(ledger.trace)),
    ]
}

/// The hot-structure microbenchmarks on the replays' recorded inputs.
fn micro_metrics(plan: &Plan, replays: &[Replay], instant_ns: f64) -> Vec<Metric> {
    let mut insts = Vec::new();
    for r in replays {
        let take = MICRO_INSTS_PER_CELL.min(MICRO_INSTS_TOTAL - insts.len());
        insts.extend_from_slice(&r.insts[..take.min(r.insts.len())]);
        if insts.len() >= MICRO_INSTS_TOTAL {
            break;
        }
    }
    let cfg = plan.cells[0].cfg();
    let accesses = micro::data_accesses(&insts);
    let (lookup, misses) = micro::cache_lookup(&accesses, cfg.mem.l1d);
    let scan = micro::ruu_scan(&insts, &cfg.core, instant_ns);
    let pattern = replays
        .iter()
        .max_by_key(|r| r.events.len())
        .map(|r| r.events.as_slice())
        .unwrap_or_default();
    let queue = micro::event_queue(pattern);
    let fabric = micro::fabric_access(&misses, cfg.mem, CHIP4_TWINS.len());
    vec![
        Metric::median_of("mem.cache_lookup_ns", "ns", lookup),
        Metric::median_of("uarch.ruu_scan_ns", "ns", scan),
        Metric::median_of("mem.event_queue_ns", "ns", queue),
        Metric::median_of("mem.fabric_access_ns", "ns", fabric),
    ]
}

/// Sweep and campaign metrics: per-cell construction time for every
/// workload; for the campaign, one checkpointed two-shard round with
/// its merge, and the report fold over its records.
fn sweep_metrics(plan: &Plan, pass: &[CellPass]) -> Result<(Vec<Metric>, Vec<String>), String> {
    let construct: Vec<f64> = pass.iter().map(|p| p.construct_ns as f64 / 1e6).collect();
    let mut metrics = vec![Metric::median_of("sweep.cell_setup_ms", "ms", construct)];
    let (mut busy, mut report_s, mut bytes_per_cell, mut merge_s) = (0.0, 0.0, 0.0, 0.0);
    let mut failures = Vec::new();
    if plan.workload == Workload::Campaign {
        let dir = scratch_dir(plan.workload);
        let round = run_round(plan, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".perfbench_tmp");
        let round = round?;
        failures.extend(round.failures.iter().cloned());
        if let Some(c) = &round.campaign {
            let cell_ns: f64 = round.cell_window_ns.iter().map(|&n| n as f64).sum();
            let shard_ns: f64 = c.shard_ns.iter().map(|&n| n as f64).sum();
            busy = ratio(cell_ns, shard_ns * c.workers as f64);
            bytes_per_cell = ratio(c.checkpoint_bytes as f64, round.results.len() as f64);
            merge_s = c.merge_ns as f64 / 1e9;
            let t = Instant::now();
            let mut agg = ReportAggregator::new();
            for rec in &c.records {
                agg.fold(rec);
            }
            std::hint::black_box(agg.into_metrics());
            report_s = t.elapsed().as_secs_f64();
        }
    }
    metrics.extend([
        Metric::single("sweep.worker_busy_share", "ratio", busy),
        Metric::single("sweep.report_s", "s", report_s),
        Metric::single(
            "campaign.checkpoint_bytes_per_cell",
            "bytes",
            bytes_per_cell,
        ),
        Metric::single("campaign.merge_s", "s", merge_s),
    ]);
    Ok((metrics, failures))
}
