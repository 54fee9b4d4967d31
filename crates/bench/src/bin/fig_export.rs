//! `fig_export` — telemetry-egress cost: registry update throughput and
//! full-snapshot render latency at scrape-scale cardinality.
//!
//! Three legs:
//!
//! * **registry updates** — counter/gauge/histogram writes spread over
//!   10k live series across 20 families: the per-event bookkeeping cost
//!   a pull exporter adds to the hot path.
//! * **Prometheus render** — full text-exposition snapshots of those 10k
//!   series (HELP/TYPE, escaping, cumulative histogram ladders).
//! * **OTel render** — the same registry as OTLP-shaped JSON, validated
//!   once for structure.
//!
//! Acceptance bar (conservative; the registry is a BTreeMap, not a
//! lock-free hot path): >= 1M updates/s and >= 20 full renders/s of
//! either encoding at 10k series.

use fet_export::{
    parse_exposition, render_otel, render_prometheus, validate_json, MetricRegistry, RegistryConfig,
};
use fet_netsim::rng::Pcg32;
use std::time::Instant;

/// Live series target: 20 families x 500 series.
const FAMILIES: usize = 20;
const SERIES_PER_FAMILY: usize = 500;
const UPDATES: usize = 2_000_000;
const RENDERS: usize = 20;
const BOUNDS: [f64; 6] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Family names are `'static` in the registry; the bench builds its 20
/// once and keeps them for the life of the process.
fn family_name(f: usize) -> &'static str {
    let name = match f % 3 {
        0 => format!("fet_bench_counter_{f}_total"),
        1 => format!("fet_bench_gauge_{f}"),
        _ => format!("fet_bench_hist_{f}_ns"),
    };
    name.leak()
}

fn main() {
    println!(
        "fig_export: {FAMILIES} families x {SERIES_PER_FAMILY} series, \
         {UPDATES} updates, {RENDERS} full renders"
    );
    let mut report = fet_bench::BenchReport::new("fig_export");
    report.metric("cores", fet_bench::host_cores() as f64);

    let mut reg = MetricRegistry::new(RegistryConfig {
        max_families: FAMILIES + 8, // headroom for the meta families
        max_series_per_family: SERIES_PER_FAMILY,
    });
    let names: Vec<&'static str> = (0..FAMILIES).map(family_name).collect();
    let labels: Vec<String> = (0..SERIES_PER_FAMILY).map(|s| format!("dev{s}")).collect();

    // (a) update throughput over a uniformly random series schedule.
    let mut rng = Pcg32::new(0xF16_E690, 1);
    let schedule: Vec<(u32, u32, u32)> = (0..UPDATES)
        .map(|_| {
            (
                rng.next_below(FAMILIES as u32),
                rng.next_below(SERIES_PER_FAMILY as u32),
                rng.next_below(1_000_000),
            )
        })
        .collect();
    let t0 = Instant::now();
    for &(f, s, v) in &schedule {
        let name = names[f as usize];
        let lbls = [("device", labels[s as usize].as_str())];
        match f % 3 {
            0 => reg.counter_add(name, "Bench counter.", &lbls, u64::from(v)),
            1 => reg.gauge_set(name, "Bench gauge.", &lbls, f64::from(v)),
            _ => reg.histogram_observe(name, "Bench histogram.", &BOUNDS, &lbls, f64::from(v)),
        }
    }
    let upd_dt = t0.elapsed();
    assert_eq!(reg.series_count(), FAMILIES * SERIES_PER_FAMILY, "every series must be live");
    assert_eq!(reg.series_rejected, 0, "the schedule must stay inside the caps");
    let upd_per_s = UPDATES as f64 / upd_dt.as_secs_f64();
    report.metric("updates_per_s", upd_per_s);
    println!(
        "\n(a) registry updates: {:>12.0} updates/s  ({:.1} ms, {} live series)",
        upd_per_s,
        upd_dt.as_secs_f64() * 1e3,
        reg.series_count()
    );

    // (b) full Prometheus text renders.
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..RENDERS {
        bytes += render_prometheus(&reg).len();
    }
    let prom_dt = t0.elapsed();
    let prom_per_s = RENDERS as f64 / prom_dt.as_secs_f64();
    report.metric("prom_renders_per_s", prom_per_s);
    let text = render_prometheus(&reg);
    assert!(parse_exposition(&text).is_some(), "rendered text must parse");
    println!(
        "(b) Prometheus render: {:>10.1} renders/s  ({:.2} ms/render, {} KiB/render)",
        prom_per_s,
        prom_dt.as_secs_f64() * 1e3 / RENDERS as f64,
        bytes / RENDERS / 1024
    );

    // (c) full OTel JSON renders.
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for i in 0..RENDERS {
        bytes += render_otel(&reg, 0, i as u64).len();
    }
    let otel_dt = t0.elapsed();
    let otel_per_s = RENDERS as f64 / otel_dt.as_secs_f64();
    report.metric("otel_renders_per_s", otel_per_s);
    assert!(validate_json(&render_otel(&reg, 0, 1)), "rendered JSON must validate");
    println!(
        "(c) OTel render:       {:>10.1} renders/s  ({:.2} ms/render, {} KiB/render)",
        otel_per_s,
        otel_dt.as_secs_f64() * 1e3 / RENDERS as f64,
        bytes / RENDERS / 1024
    );

    assert!(upd_per_s >= 1e6, "update throughput regressed below 1M/s: {upd_per_s:.0}");
    assert!(prom_per_s >= 20.0, "Prometheus render slower than 20/s: {prom_per_s:.1}");
    assert!(otel_per_s >= 20.0, "OTel render slower than 20/s: {otel_per_s:.1}");
    report.write().expect("write BENCH_fig_export.json");
    println!("\nfig_export: wrote BENCH_fig_export.json");
}
