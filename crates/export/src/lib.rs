//! `fet-export`: Prometheus- and OTel-shaped telemetry egress.
//!
//! The observability half the collector stack was missing: a
//! deterministic, allocation-bounded [`registry::MetricRegistry`] fed by
//! pull-shaped `scrape` adapters over every existing stat surface
//! (delivery ledgers, collector spill counters, analytics SLA/top-k,
//! wire reject taxonomy, watchdog incidents, fleet reliability
//! counters), rendered by two zero-dependency encoders — Prometheus text
//! exposition v0.0.4 (`prom`) and OTLP-shaped JSON (`otel`) — and
//! served by a thin `std::net` scrape endpoint (`server`).
//!
//! Design rules, enforced by tests:
//!
//! * **Deterministic**: families and series iterate in name and
//!   label-set order and all timestamps are sim time, so the same system state renders
//!   byte-identical output on any machine, shard count, or run.
//! * **Bounded**: hard caps on family and per-family series counts;
//!   past the cap the registry *refuses and counts* (`fet_export_*`
//!   self-metrics) — a hostile workload can never grow the exporter.
//! * **Consistent**: scrapes serve immutable pre-rendered snapshots
//!   published at quiescent points ([`server::SnapshotHandle`]) — never
//!   a torn read mid-pump.
//! * **Closed-loop**: the mixed sim/real replay (`replay`) merges a
//!   simulated faulted fleet with captured hostile NetFlow bytes and
//!   asserts the conservation identity *from the Prometheus output
//!   itself* — the exporter is the test oracle.

#![warn(missing_docs)]

mod otel;
mod prom;
mod registry;
mod replay;
mod scrape;
mod server;

pub use otel::{render_otel, validate_json};
pub use prom::{parse_exposition, render_prometheus, Sample};
pub use registry::{MetricRegistry, RegistryConfig};
pub use replay::{merge_ledgers, run_mixed_replay, MixedReplayConfig};
pub use scrape::{
    scrape_analytics, scrape_breaches, scrape_collector, scrape_fleet, scrape_ledger,
    scrape_sim_sync, scrape_watchdog, scrape_wire,
};
pub use server::{http_get, ExportServer, RenderedSnapshot, SnapshotHandle};
