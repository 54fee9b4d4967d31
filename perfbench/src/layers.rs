//! The metric catalogue and the traced run's per-layer accounting.
//!
//! Every workload prints every metric of the catalogue; a layer a
//! workload does not exercise reads 0 there. Layer self times are
//! reconciled against the traced wall time: the sum of every layer's self
//! time plus `trace.unaccounted_s` equals `trace.wall_s`.

use crate::backend::Work;
use crate::hooks::{HookTotals, HOOKS};
use crate::report::Report;
use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("report_latency_p50_us", "us"),
    ("report_latency_p99_us", "us"),
    ("event_recall", "ratio"),
    ("scrape_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time the traced run reports, as span-name prefixes.
/// `monitor` is the hook-timing wrapper's total; `bench` is the
/// benchmark's own checks; `idle` is the open loop's wait for the next
/// due input.
pub const LAYERS: [&str; 10] = [
    "setup",
    "netsim",
    "monitor",
    "harvest",
    "collector",
    "wire",
    "analytics",
    "export",
    "bench",
    "idle",
];

/// Per-layer metrics: `(name, unit)`, printed by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("netsim.run_s", "s"),
        ("netsim.self_ns_per_pkt", "ns"),
        ("netsim.events_per_pkt", "ratio"),
        ("netsim.sync.epochs_executed", "count"),
        ("netsim.sync.epochs_batched", "count"),
        ("netsim.sync.ring_messages", "count"),
        ("netsim.sync.ring_stalls", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for h in HOOKS {
        v.push((format!("monitor.{h}.calls"), "count"));
        v.push((format!("monitor.{h}.ns_per_call"), "ns"));
    }
    for (n, u) in [
        ("netseer.packets_seen", "count"),
        ("netseer.event_packets", "count"),
        ("netseer.dedup_reports", "count"),
        ("netseer.final_reports", "count"),
        ("netseer.fp_eliminated", "count"),
        ("netseer.retransmissions", "count"),
        ("netseer.crc_failures", "count"),
        ("netseer.mmu_redirect_missed", "count"),
        ("netseer.selection_ratio", "ratio"),
        ("netseer.dedup_ratio", "ratio"),
        ("netseer.mgmt_overhead_ppm", "ppm"),
        ("netseer.matched_events", "count"),
        ("ledger.generated", "count"),
        ("ledger.delivered", "count"),
        ("ledger.shed", "count"),
        ("ledger.corrupted", "count"),
        ("ledger.pending", "count"),
        ("ledger.buffered", "count"),
        ("ledger.fail_ratio", "ratio"),
        ("collector.ingest.ns_per_event", "ns"),
        ("collector.pump_spill.ns_per_event", "ns"),
        ("collector.drain.ns_per_event", "ns"),
        ("collector.spilled", "count"),
        ("collector.spill_applied", "count"),
        ("collector.overflow_refused", "count"),
        ("collector.backlog_max", "count"),
        ("spill.fsyncs", "count"),
        ("spill.rotations", "count"),
        ("wire.ns_per_datagram", "ns"),
        ("wire.records_decoded", "count"),
        ("wire.records_malformed", "count"),
        ("wire.datagrams_rejected", "count"),
        ("wire.decode_yield", "ratio"),
        ("analytics.poll.ns_per_event", "ns"),
        ("analytics.ingested", "count"),
        ("analytics.late_admitted", "count"),
        ("analytics.late_shed", "count"),
        ("analytics.sketch_absorbed", "count"),
        ("analytics.pending_reorder_max", "count"),
        ("export.scrape.ns", "ns"),
        ("export.render_prom.ns", "ns"),
        ("export.render_otel.ns", "ns"),
        ("export.series", "count"),
        ("export.bytes", "bytes"),
        ("export.series_rejected", "count"),
        ("setup.topology_s", "s"),
        ("setup.routes_s", "s"),
        ("setup.deploy_s", "s"),
        ("setup.traffic_s", "s"),
        ("setup.backend_s", "s"),
        ("loadgen.offered_per_s", "1/s"),
        ("loadgen.lag_p99_us", "us"),
        ("loadgen.lag_max_us", "us"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.unaccounted_s", "s"),
    ] {
        v.push((n.to_string(), u));
    }
    for l in LAYERS {
        v.push((format!("selftime.{l}_s"), "s"));
    }
    v
}

/// Keep only the catalogue's metrics, in catalogue order, reading 0
/// where the workload did not set one.
pub fn select(report: &Report, catalogue: &[(String, &'static str)]) -> Report {
    let mut out = Report::default();
    out.attempted = report.attempted;
    out.failed = report.failed;
    for (name, unit) in catalogue {
        out.set(name, report.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// What the traced phase of a run measured.
pub struct TracedPhase<'a> {
    /// Spans of every traced repetition or session.
    pub tracer: &'a Tracer,
    /// Hook counters summed over traced repetitions.
    pub hooks: HookTotals,
    /// Worker threads the simulator ran on (hook time is spread over them).
    pub shards: usize,
    /// Wall time of the traced phase, ns.
    pub wall_ns: u64,
    /// Backend work summed over traced repetitions.
    pub work: Work,
    /// Data packets simulated during the traced phase.
    pub pkts: u64,
    /// Traced ÷ untraced wall time of the same work.
    pub overhead_ratio: f64,
}

/// Set the span-derived per-layer metrics.
pub fn set_traced(report: &mut Report, p: &TracedPhase<'_>) {
    let selfs = p.tracer.self_ns();
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0);
    // Hooks run inside the run spans; on N shards they overlap N ways.
    let hook_wall_ns = p.hooks.total_nanos() / p.shards.max(1) as u64;
    let (run_ns, _) = p.tracer.total("netsim.run");
    let netsim_self = self_of("netsim.run").saturating_sub(hook_wall_ns);
    report.set("netsim.run_s", run_ns as f64 / 1e9, "s");
    report.set("netsim.self_ns_per_pkt", per(netsim_self, p.pkts), "ns");
    for (h, name) in HOOKS.iter().enumerate() {
        report.set(
            &format!("monitor.{name}.ns_per_call"),
            per(p.hooks.nanos[h], p.hooks.calls[h]),
            "ns",
        );
    }
    report.set(
        "collector.ingest.ns_per_event",
        per(self_of("collector.ingest"), p.work.ingested),
        "ns",
    );
    report.set(
        "collector.pump_spill.ns_per_event",
        per(self_of("collector.pump_spill"), p.work.pumped),
        "ns",
    );
    report.set(
        "collector.drain.ns_per_event",
        per(self_of("collector.drain"), p.work.drained),
        "ns",
    );
    report.set("wire.ns_per_datagram", per(self_of("wire.ingest"), p.work.datagrams), "ns");
    report.set("analytics.poll.ns_per_event", per(self_of("analytics.poll"), p.work.drained), "ns");
    for (span, metric) in [
        ("export.scrape", "export.scrape.ns"),
        ("export.render_prom", "export.render_prom.ns"),
        ("export.render_otel", "export.render_otel.ns"),
    ] {
        let (ns, n) = p.tracer.total(span);
        report.set(metric, per(ns, n), "ns");
    }

    let mut layer_ns = [0u64; LAYERS.len()];
    for (name, ns) in &selfs {
        let prefix = name.split('.').next().unwrap_or(name);
        if let Some(i) = LAYERS.iter().position(|l| *l == prefix) {
            layer_ns[i] += ns;
        }
    }
    let netsim = LAYERS.iter().position(|l| *l == "netsim").expect("netsim layer");
    let monitor = LAYERS.iter().position(|l| *l == "monitor").expect("monitor layer");
    layer_ns[netsim] = layer_ns[netsim].saturating_sub(hook_wall_ns);
    layer_ns[monitor] += hook_wall_ns;
    for (l, ns) in LAYERS.iter().zip(layer_ns) {
        report.set(&format!("selftime.{l}_s"), ns as f64 / 1e9, "s");
    }
    let unaccounted = p.wall_ns as f64 - p.tracer.top_level_ns() as f64;
    report.set("trace.wall_s", p.wall_ns as f64 / 1e9, "s");
    report.set("trace.unaccounted_s", unaccounted / 1e9, "s");
    report.set("trace.overhead_ratio", p.overhead_ratio, "ratio");
}
