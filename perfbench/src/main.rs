//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload from the repository root and prints a
//! self-describing JSON line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. `--trace 0`
//! reports the end-to-end metrics of untraced timed rounds; `--trace 1`
//! the per-layer metrics of a separate traced run. Exit status: 0 when
//! every output check passed, 1 when one failed, 2 on a usage error.

use vsv_perfbench::workload::Workload;
use vsv_perfbench::{run_timed, run_traced};

const USAGE: &str = "usage: perfbench --workload high_mr|ilp|chip4_service|campaign \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(vsv_perfbench::workload::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scale = args.workload.scale();
    let outcome = if args.trace {
        run_traced(args.workload, args.seed, args.seconds, scale)
    } else {
        run_timed(args.workload, args.seed, args.seconds, scale)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.describe(args.trace));
            println!("{}", o.result_line());
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
