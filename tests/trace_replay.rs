//! Replays of the per-nanosecond sample stream — the
//! [`TraceEvent::Sample`]s a [`TraceLevel::Full`] sink receives.
//!
//! * The stream itself is pinned: an FNV-1a digest folded over
//!   `(ns, mode, vdd_mv, edge)` of every sample of every run in a
//!   policy × ladder-depth × fast-forward grid (plus a heterogeneous
//!   two-core chip, per core) must equal a recorded constant, so a
//!   change in how samples are produced cannot move the timeline
//!   unnoticed.
//! * The stream tells the same story as the [`RunResult`]: per-mode
//!   residency rebuilt from each core's measured-window samples sums
//!   to the window's elapsed time and matches
//!   [`vsv::ModeStats::ns_in_mode`] up to the documented
//!   decision-nanosecond convention (`docs/observability.md`).

mod samples;

use samples::{Sample, SampleLog};
use vsv::{
    CaptureSink, EventBuf, Experiment, Mode, MulticoreSystem, PolicySpec, RunResult, System,
    SystemConfig, TraceEvent, TraceLevel,
};
use vsv_workloads::{twin, Generator};

const WARMUP: u64 = 2_000;
const INSTS: u64 = 6_000;

/// The pinned digest of [`sample_stream_matches_pinned_digest`]'s grid.
const PINNED_SAMPLE_DIGEST: u64 = 0xf252_842d_94a9_a3d4;

/// Streaming FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest of one core's whole (warm-up + measured window) sample
/// stream.
fn digest(samples: &[Sample]) -> u64 {
    let mut h = Fnv::new();
    for &(at, mode, vdd_mv, edge) in samples {
        h.bytes(&at.to_le_bytes());
        h.bytes(&[mode.index() as u8]);
        h.bytes(&vdd_mv.to_le_bytes());
        h.bytes(&[u8::from(edge)]);
    }
    h.0
}

fn single_core(name: &str, cfg: SystemConfig) -> u64 {
    let params = twin(name).expect("twin exists");
    let mut sys = System::try_new(cfg, Generator::new(params)).expect("valid config");
    let log = SampleLog::default();
    sys.set_event_sink(TraceLevel::Full, log.sink());
    sys.try_warm_up(WARMUP).expect("warm-up");
    sys.try_run(INSTS).expect("run");
    drop(sys.take_event_sink());
    digest(&log.take())
}

fn mcf_gzip_chip(cfg: SystemConfig) -> Vec<u64> {
    let params = [twin("mcf").expect("mcf"), twin("gzip").expect("gzip")];
    let mut chip = MulticoreSystem::try_new_heterogeneous(cfg.with_cores(2), &params)
        .expect("valid chip config");
    let logs = [SampleLog::default(), SampleLog::default()];
    for (core, log) in logs.iter().enumerate() {
        chip.set_event_sink(core, TraceLevel::Full, log.sink());
    }
    chip.try_warm_up(WARMUP).expect("warm-up");
    chip.try_run(INSTS).expect("run");
    for core in 0..2 {
        drop(chip.take_event_sink(core));
    }
    logs.iter().map(|log| digest(&log.take())).collect()
}

/// mcf and gzip under every policy at ladder depths 2 and 4, with
/// fast-forward on and off, plus a heterogeneous mcf+gzip chip: the
/// per-run sample digests, folded in grid order, equal the pin — and
/// fast-forward never changes a run's stream.
#[test]
fn sample_stream_matches_pinned_digest() {
    let mut all = Fnv::new();
    for name in ["mcf", "gzip"] {
        for policy in PolicySpec::ALL {
            for depth in [2, 4] {
                let cfg = SystemConfig::with_policy(policy).with_ladder_depth(depth);
                let on = single_core(name, cfg.with_fast_forward(true));
                let off = single_core(name, cfg.with_fast_forward(false));
                assert_eq!(
                    on,
                    off,
                    "fast-forward moved the sample stream of {name} under {}@d{depth}",
                    policy.name()
                );
                all.bytes(&on.to_le_bytes());
            }
        }
    }
    for ff in [true, false] {
        for d in mcf_gzip_chip(SystemConfig::vsv_with_fsms().with_fast_forward(ff)) {
            all.bytes(&d.to_le_bytes());
        }
    }
    assert_eq!(
        all.0, PINNED_SAMPLE_DIGEST,
        "sample-stream digest moved: got {:#018x}",
        all.0
    );
}

/// Splits a measured-window trace into per-core streams: a chip's
/// trace heads each core's events with a `CoreStart`, a single core's
/// has none.
fn per_core(events: Vec<TraceEvent>) -> Vec<Vec<TraceEvent>> {
    let mut cores = vec![Vec::new()];
    for event in events {
        match event {
            TraceEvent::CoreStart { core: 0 } => {}
            TraceEvent::CoreStart { .. } => cores.push(Vec::new()),
            e => cores.last_mut().expect("nonempty").push(e),
        }
    }
    cores
}

/// Per-mode residency rebuilt from the samples before the core's first
/// `WindowClosed` — its measured window (a chip core keeps running,
/// and sampling, as background load after its window closes).
fn replayed_residency(events: &[TraceEvent]) -> [u64; Mode::COUNT] {
    let mut ns_in_mode = [0; Mode::COUNT];
    for e in events {
        match *e {
            TraceEvent::Sample { mode, .. } => ns_in_mode[mode.index()] += 1,
            TraceEvent::WindowClosed { .. } => return ns_in_mode,
            _ => {}
        }
    }
    panic!("the measured window never closed");
}

/// Replays every core window of mcf under every policy at ladder
/// depths 2 and 4, fast-forward on and off, on one core and on a
/// two-core chip, and checks the rebuilt residency against the
/// window's `RunResult`:
///
/// * it sums to `elapsed_ns` exactly;
/// * `RampDown` and `RampUp` match exactly;
/// * the decision nanosecond that starts a transition counts under
///   the old mode in `ns_in_mode` and under the new one in the
///   stream, so `DownDistribute` exceeds the result by at most one ns
///   per down step, `UpDistribute` by at most one per up step, and
///   the replayed `High` and `Low` never exceed the result's.
#[test]
fn replayed_residency_matches_run_result() {
    let e = Experiment {
        warmup_instructions: 1_000,
        instructions: 3_000,
    };
    let params = twin("mcf").expect("twin exists");
    let mut windows = 0;
    let mut steps = (0, 0);
    for policy in PolicySpec::ALL {
        for depth in [2, 4] {
            for ff in [true, false] {
                for cores in [1, 2] {
                    let cfg = SystemConfig::with_policy(policy)
                        .with_ladder_depth(depth)
                        .with_fast_forward(ff)
                        .with_cores(cores);
                    let buf = EventBuf::default();
                    let sink = Box::new(CaptureSink::new(buf.clone()));
                    let (result, _) = e
                        .try_run(&params, cfg, Some((TraceLevel::Full, sink)))
                        .expect("run");
                    let results: Vec<RunResult> = if cores == 1 {
                        vec![result]
                    } else {
                        result.core_results
                    };
                    let streams = per_core(buf.take());
                    assert_eq!(streams.len(), results.len(), "one stream per core");
                    for (core, (r, stream)) in results.iter().zip(&streams).enumerate() {
                        let cell =
                            format!("{}@d{depth} ff={ff} x{cores} core {core}", policy.name());
                        check_residency(&replayed_residency(stream), r, &cell);
                        windows += 1;
                        steps.0 += r.mode.down_transitions;
                        steps.1 += r.mode.up_transitions;
                    }
                }
            }
        }
    }
    assert_eq!(windows, 7 * 2 * 2 * 3);
    assert!(steps.0 > 0 && steps.1 > 0, "the grid must transition");
}

fn check_residency(replayed: &[u64; Mode::COUNT], r: &RunResult, cell: &str) {
    let counted = &r.mode.ns_in_mode;
    let excess = |m: Mode| replayed[m.index()] as i64 - counted[m.index()] as i64;
    assert_eq!(
        replayed.iter().sum::<u64>(),
        r.elapsed_ns,
        "residency does not sum to the window on {cell}"
    );
    for m in [Mode::RampDown, Mode::RampUp] {
        assert_eq!(excess(m), 0, "{m:?} residency diverged on {cell}");
    }
    let down = r.mode.down_transitions as i64;
    let up = r.mode.up_transitions as i64;
    assert!(
        (0..=down).contains(&excess(Mode::DownDistribute)),
        "DownDistribute excess {} outside 0..={down} on {cell}",
        excess(Mode::DownDistribute)
    );
    assert!(
        (0..=up).contains(&excess(Mode::UpDistribute)),
        "UpDistribute excess {} outside 0..={up} on {cell}",
        excess(Mode::UpDistribute)
    );
    for m in [Mode::High, Mode::Low] {
        assert!(
            excess(m) <= 0,
            "replayed {m:?} exceeds the result by {} on {cell}",
            excess(m)
        );
    }
}
