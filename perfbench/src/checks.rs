//! Output checks: the conservation invariants every simulated result
//! must satisfy. Each violated invariant is one failure message.

use vsv::RunResult;

/// Relative tolerance for energy sums (the library sums the same terms
/// in a different order, so the totals may differ in the last bits).
const ENERGY_RTOL: f64 = 1e-9;

/// Checks one result — and, for a chip, each core's result and the
/// chip totals against their sum — returning every violation.
#[must_use]
pub fn check(r: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    check_window(r, &mut bad);
    if !r.core_results.is_empty() {
        for c in &r.core_results {
            check_window(c, &mut bad);
        }
        check_chip_sums(r, &mut bad);
    }
    bad
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_RTOL * a.abs().max(b.abs())
}

/// Invariants of one measured window.
fn check_window(r: &RunResult, bad: &mut Vec<String>) {
    let name = &r.workload;
    let resident: u64 = r.mode.ns_in_mode.iter().sum();
    // A chip's residency is summed over its cores' windows.
    let expected = if r.core_results.is_empty() {
        r.elapsed_ns
    } else {
        r.core_results.iter().map(|c| c.elapsed_ns).sum()
    };
    if resident != expected {
        bad.push(format!(
            "{name}: mode residency {resident} ns != elapsed {expected} ns"
        ));
    }
    if !close(r.energy.total_pj(), r.energy_pj) {
        bad.push(format!(
            "{name}: energy breakdown {} pJ != energy {} pJ",
            r.energy.total_pj(),
            r.energy_pj
        ));
    }
    if r.requests_completed > r.requests_arrived {
        bad.push(format!(
            "{name}: {} requests completed > {} arrived",
            r.requests_completed, r.requests_arrived
        ));
    }
    if r.elapsed_ns == 0 || r.instructions == 0 {
        bad.push(format!("{name}: empty window"));
    }
    let floats = [r.ipc, r.mpki, r.energy_pj, r.avg_power_w];
    if floats.iter().any(|v| !v.is_finite() || *v < 0.0) {
        bad.push(format!("{name}: non-finite or negative rate"));
    }
}

/// A chip's totals must equal the sum (or, for time, the maximum) of
/// its cores' windows.
fn check_chip_sums(r: &RunResult, bad: &mut Vec<String>) {
    let cores = &r.core_results;
    let name = &r.workload;
    let sum = |f: fn(&RunResult) -> u64| cores.iter().map(f).sum::<u64>();
    let pairs = [
        ("instructions", r.instructions, sum(|c| c.instructions)),
        (
            "pipeline cycles",
            r.pipeline_cycles,
            sum(|c| c.pipeline_cycles),
        ),
        ("read retries", r.read_retries, sum(|c| c.read_retries)),
        (
            "requests arrived",
            r.requests_arrived,
            sum(|c| c.requests_arrived),
        ),
        (
            "requests completed",
            r.requests_completed,
            sum(|c| c.requests_completed),
        ),
        (
            "elapsed (max)",
            r.elapsed_ns,
            cores.iter().map(|c| c.elapsed_ns).max().unwrap_or(0),
        ),
    ];
    for (what, chip, cores_total) in pairs {
        if chip != cores_total {
            bad.push(format!(
                "{name}: chip {what} {chip} != per-core {cores_total}"
            ));
        }
    }
    let energy: f64 = cores.iter().map(|c| c.energy_pj).sum();
    if !close(r.energy_pj, energy) {
        bad.push(format!(
            "{name}: chip energy {} pJ != per-core sum {energy} pJ",
            r.energy_pj
        ));
    }
}
