//! End-to-end and per-layer benchmark of the NetSeer path: simulated
//! packet → detect → dedup → 24 B extract → CEBP batch → switch CPU →
//! transport → collector admit/spill → analytics → `/metrics` render.
//!
//! Run `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line of stdout is the JSON result. README.md describes the workloads
//! and what each metric means. Everything runs in one process: no
//! traffic crosses a real link or the loopback interface.

pub mod backend;
pub mod fleet;
pub mod hooks;
pub mod ingest;
pub mod layers;
pub mod report;
pub mod trace;

use fleet::Fleet;
use hooks::HookSample;
use report::Report;
use trace::Tracer;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["fleet_faulted", "fleet_sharded", "collector_ingest"];

/// Run workload `name` for `seconds` on inputs generated from `seed`.
/// Returns the full report (every metric the workload measured), the
/// traced run's spans and its sampled hook spans.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Report, Tracer, Vec<HookSample>), String> {
    match name {
        "fleet_faulted" => Ok(fleet::run(Fleet::Faulted, seed, seconds, trace)),
        "fleet_sharded" => Ok(fleet::run(Fleet::Sharded, seed, seconds, trace)),
        "collector_ingest" => {
            let (report, tracer) = ingest::run(seed, seconds, trace, &ingest::Load::full());
            Ok((report, tracer, Vec::new()))
        }
        _ => Err(format!("unknown workload {name:?}; expected one of {WORKLOADS:?}")),
    }
}
