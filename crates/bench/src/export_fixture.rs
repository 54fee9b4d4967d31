//! One `/metrics` scrape over a small live system, shared by the
//! allocation test (`tests/export_allocs.rs`) and the
//! `export/scrape_render` micro row.
//!
//! The fixture is the paper's testbed fat-tree (10 switches, 8 hosts)
//! with NetSeer on every switch and NIC and two lossy edge links, a
//! collector fed by a hostile NetFlow/IPFIX exporter through a wire
//! session, and an analytics engine holding the fleet's deliveries, so
//! every scrape adapter publishes live, labelled series. [`scrape`] makes
//! the scrape the way the benchmark backend does: every adapter into a
//! fresh registry, then both renders.
//!
//! [`scrape`]: ScrapeFixture::scrape

use fet_analytics::{AnalyticsConfig, AnalyticsEngine, BreachWindow, LinkMap};
use fet_export::{
    merge_ledgers, render_otel, render_prometheus, scrape_analytics, scrape_breaches,
    scrape_collector, scrape_fleet, scrape_ledger, scrape_sim_sync, scrape_watchdog, scrape_wire,
    MetricRegistry,
};
use fet_netsim::host::FlowSpec;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::{HostileExporter, HostileExporterConfig, Simulator};
use fet_packet::FlowKey;
use netseer::deploy::{delivered_history, deploy, fleet_ledger, DeployOptions};
use netseer::watchdog::WatchdogLog;
use netseer::{Collector, CollectorConfig, WireConfig, WireIngest};

/// Top-k flows each scrape exports (as the benchmark backend does).
const TOP_N: usize = 8;

/// The system one scrape reads.
pub struct ScrapeFixture {
    sim: Simulator,
    collector: Collector,
    engine: AnalyticsEngine,
    wire: WireIngest,
    breaches: Vec<BreachWindow>,
}

impl ScrapeFixture {
    /// Build and run the fixture (a few milliseconds of sim time).
    pub fn new() -> Self {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        install_ecmp_routes(&mut sim);
        deploy(&mut sim, &DeployOptions { on_nics: true, ..DeployOptions::default() });
        for s in 0..4usize {
            let key = FlowKey::tcp(ft.host_ips[s], 3000 + s as u16, ft.host_ips[7 - s], 80);
            let h = ft.hosts[s];
            let idx = sim.host_mut(h).add_flow(FlowSpec {
                key,
                total_bytes: 1_000_000,
                pkt_payload: 1000,
                rate_gbps: 5.0,
                start_ns: 0,
                dscp: 0,
            });
            sim.schedule_flow(h, idx);
        }
        for port in 0..2 {
            let tor = ft.edges[0][0];
            sim.link_direction_mut(tor, port).expect("edge port").faults.drop_prob = 0.02;
        }
        sim.run_until(5 * MILLIS);

        let mut collector = Collector::with_config(CollectorConfig {
            memory_watermark: 128,
            max_spill_bytes: 64 * 1024,
            spill_segment_bytes: 8 * 1024,
        });
        let mut wire = WireIngest::new(WireConfig::default());
        let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        engine.attach(&mut collector);
        let mut exporter = HostileExporter::new(HostileExporterConfig::default());
        for tick in 0..300u64 {
            if let Some(datagram) = exporter.emit() {
                wire.ingest_datagram(&mut collector, &datagram, tick * 10 * MICROS);
            }
        }
        engine.poll(&mut collector);
        engine.ingest_slice(&delivered_history(&sim));
        engine.ingest_upstream_loss(wire.upstream_losses());
        let breaches = engine.finish_breaches();
        ScrapeFixture { sim, collector, engine, wire, breaches }
    }

    /// One scrape: every adapter into a fresh registry, then the
    /// Prometheus and OTel renders, returned in that order.
    pub fn scrape(&self) -> (String, String) {
        let mut merged =
            merge_ledgers(&fleet_ledger(&self.sim), &self.wire.ledger(&self.collector));
        self.collector.refine_fleet_ledger(&mut merged);
        let mut reg = MetricRegistry::default();
        scrape_ledger(&mut reg, "merged", &merged);
        scrape_fleet(&mut reg, &self.sim);
        scrape_sim_sync(&mut reg, &self.sim);
        scrape_collector(&mut reg, &self.collector);
        scrape_analytics(&mut reg, &self.engine, TOP_N);
        scrape_breaches(&mut reg, &self.breaches);
        scrape_wire(&mut reg, &self.wire);
        scrape_watchdog(&mut reg, &WatchdogLog::default());
        (render_prometheus(&reg), render_otel(&reg, 0, 5 * MILLIS))
    }
}

impl Default for ScrapeFixture {
    fn default() -> Self {
        ScrapeFixture::new()
    }
}
