//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when a correctness check fails.

use fet_perfbench::layers::{per_layer, select, END_TO_END};
use fet_perfbench::run_workload;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (full, tracer, hook_samples) =
        match run_workload(&args.workload, args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut report = select(&full, &catalogue);
    report.checks = full.checks;
    for name in report.names().map(str::to_string).collect::<Vec<_>>() {
        let v = report.get(&name).unwrap_or(f64::NAN);
        report.checks.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    if args.trace {
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path, &hook_samples) {
            Ok(n) => eprintln!(
                "perfbench: {n} of {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for f in report.checks.failures() {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
