//! The benchmark's own tests, at a tiny scale: every workload emits
//! every metric `BENCHMARK.json` names, with its unit; simulated
//! outputs repeat exactly at one seed; and every check passes at a
//! seed not used to build the benchmark.

use vsv_perfbench::workload::{Scale, Workload};
use vsv_perfbench::{run_timed, run_traced, Outcome};

const TINY: Scale = Scale {
    warmup: 2_000,
    insts: 6_000,
};

/// A seed no pinned digest or calibration was taken at.
const HELD_OUT_SEED: u64 = 977;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

fn assert_same_metrics(o: &Outcome, section: &str) {
    let mut want = declared(section);
    let mut got = emitted(o);
    want.sort();
    got.sort();
    assert_eq!(got, want, "{} {section}", o.workload.name());
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{} {}", o.workload.name(), m.name);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let o = run_timed(w, HELD_OUT_SEED, 0.0, TINY).expect("timed run");
        assert!(o.correct, "{}: {:?}", w.name(), o.failures);
        assert!(o.attempted > 0);
        assert_same_metrics(&o, "end_to_end");
        // The end-to-end metrics must never read 0.
        for m in &o.metrics {
            assert!(m.value > 0.0, "{} {} is 0", w.name(), m.name);
        }
        let last = o.result_line();
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        let o = run_traced(w, HELD_OUT_SEED, 0.0, TINY).expect("traced run");
        assert!(o.correct, "{}: {:?}", w.name(), o.failures);
        assert_same_metrics(&o, "per_layer");
        let shares: f64 = o
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".wall_share") || m.name == "system.other_wall_share")
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            w.name()
        );
    }
}

#[test]
fn same_seed_gives_identical_simulated_outputs() {
    for w in Workload::ALL {
        let a = run_timed(w, 3, 0.0, TINY).expect("first run");
        let b = run_timed(w, 3, 0.0, TINY).expect("second run");
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.saving_loss, b.saving_loss, "{}", w.name());
        let c = run_timed(w, 4, 0.0, TINY).expect("other seed");
        assert_ne!(
            a.digest,
            c.digest,
            "{}: the seed must reach the simulator",
            w.name()
        );
    }
}
