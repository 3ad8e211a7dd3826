//! Helpers shared by the trace-determinism suites.

use vsv::{
    Experiment, JsonlSink, MetricsRegistry, RunResult, SharedBuf, SimError, SystemConfig,
    TraceLevel,
};
use vsv_workloads::WorkloadParams;

/// Runs one workload with a JSONL trace of its measured window at
/// `level`: returns the result, the window's metrics, and the trace
/// bytes (one serialized `TraceEvent` per line).
pub fn run_traced(
    e: &Experiment,
    params: &WorkloadParams,
    cfg: SystemConfig,
    level: TraceLevel,
) -> Result<(RunResult, MetricsRegistry, Vec<u8>), SimError> {
    let buf = SharedBuf::default();
    let sink = Box::new(JsonlSink::new(buf.clone()));
    let (result, metrics) = e.try_run(params, cfg, Some((level, sink)))?;
    Ok((result, metrics, buf.take()))
}
