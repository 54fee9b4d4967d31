//! The backend half of the path, shared by every workload: collector
//! admission (memory → spill → shed), the analytics engine, and the
//! `/metrics` scrape with both renders — each call wrapped in a span.

use crate::report::Checks;
use crate::trace::Tracer;
use fet_analytics::{AnalyticsConfig, AnalyticsEngine, BreachWindow, LinkMap};
use fet_export::{
    parse_exposition, render_otel, render_prometheus, scrape_analytics, scrape_breaches,
    scrape_collector, scrape_fleet, scrape_ledger, scrape_sim_sync, scrape_watchdog, scrape_wire,
    validate_json, MetricRegistry, RenderedSnapshot,
};
use fet_netsim::Simulator;
use netseer::watchdog::WatchdogLog;
use netseer::{Collector, CollectorConfig, DeliveryLedger, WireIngest};
use std::time::Instant;

/// Top-k flows each scrape exports.
const TOP_N: usize = 8;

/// Collector + analytics engine (+ the wire socket, when the workload has
/// one).
pub struct Backend {
    /// The collector every delivery enters through.
    pub collector: Collector,
    /// The streaming analytics engine.
    pub engine: AnalyticsEngine,
    /// The wire-ingest adapter (collector workload only).
    pub wire: Option<WireIngest>,
    sub: u32,
    /// Largest event-time reorder-buffer occupancy seen after a poll.
    pub pending_reorder_max: u64,
    /// Largest undrained collector backlog seen before a poll.
    pub backlog_max: u64,
    /// Work done per call site, the denominators of the per-event costs.
    pub work: Work,
}

/// Events each backend call site handled.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Events offered to `Collector::ingest` directly.
    pub ingested: u64,
    /// Events drained to the analytics engine.
    pub drained: u64,
    /// Events applied from the spill.
    pub pumped: u64,
    /// Datagrams offered to the wire socket.
    pub datagrams: u64,
}

/// What one scrape produced and cost.
pub struct Scraped {
    /// Both renders.
    pub snapshot: RenderedSnapshot,
    /// The `merged` ledger the snapshot published.
    pub merged: DeliveryLedger,
    /// Wall time of registry fill plus both renders, seconds.
    pub secs: f64,
    /// Series in the registry.
    pub series: u64,
    /// Series the registry refused at its cardinality cap.
    pub series_rejected: u64,
}

impl Backend {
    /// Build the backend.
    pub fn new(
        collector: CollectorConfig,
        analytics: AnalyticsConfig,
        links: LinkMap,
        wire: Option<WireIngest>,
    ) -> Self {
        let mut collector = Collector::with_config(collector);
        let sub = collector.subscribe();
        Backend {
            collector,
            engine: AnalyticsEngine::new(analytics, links),
            wire,
            sub,
            pending_reorder_max: 0,
            backlog_max: 0,
            work: Work::default(),
        }
    }

    /// Hand deliveries to the collector's admission path.
    pub fn ingest(&mut self, tr: &mut Tracer, events: &[netseer::StoredEvent]) -> u64 {
        let t = tr.enter("collector.ingest");
        let accepted = self.collector.ingest(events);
        tr.exit(t);
        self.work.ingested += events.len() as u64;
        accepted
    }

    /// Hand one untrusted datagram to the wire-ingest adapter, which
    /// decodes it and admits its records through the collector.
    pub fn ingest_datagram(&mut self, tr: &mut Tracer, datagram: &[u8], now_ns: u64) {
        let wire = self.wire.as_mut().expect("backend built without a wire socket");
        let t = tr.enter("wire.ingest");
        wire.ingest_datagram(&mut self.collector, datagram, now_ns);
        tr.exit(t);
        self.work.datagrams += 1;
    }

    /// The wire adapter's own ledger terms, before spill refinement (the
    /// merged ledger refines once, on the shared collector).
    pub fn wire_ledger(&self) -> DeliveryLedger {
        self.wire.as_ref().map_or_else(DeliveryLedger::default, |w| DeliveryLedger {
            generated: w.generated(),
            delivered: w.delivered(),
            shed_cpu_overload: w.shed(),
            malformed: w.malformed(),
            ..DeliveryLedger::default()
        })
    }

    /// Drain the collector into the analytics engine until neither the
    /// drain nor the spill pump makes progress. This is
    /// `AnalyticsEngine::poll`'s loop with the drain and the pump as
    /// separate calls, so each gets its own span. Returns events processed.
    pub fn poll(&mut self, tr: &mut Tracer) -> u64 {
        self.backlog_max = self.backlog_max.max(self.collector.backlog() as u64);
        let t = tr.enter("analytics.poll");
        let mut total = 0u64;
        loop {
            let d = tr.enter("collector.drain");
            let drained = self.collector.drain_ordered(self.sub);
            tr.exit(d);
            self.engine.ingest_slice(&drained);
            total += drained.len() as u64;
            let p = tr.enter("collector.pump_spill");
            let applied = self.collector.pump_spill();
            tr.exit(p);
            self.work.pumped += applied;
            if applied == 0 && drained.is_empty() {
                break;
            }
        }
        tr.exit(t);
        self.work.drained += total;
        self.pending_reorder_max =
            self.pending_reorder_max.max(self.engine.ledger().pending_reorder);
        total
    }

    /// Fill a fresh registry from every scrape adapter that applies and
    /// render both encodings at sim/logical time `now_ns`. `sources` sums
    /// the ledgers of everything feeding the collector; the collector's
    /// spill occupancy is re-bucketed into it and it is published under
    /// scope `merged`.
    pub fn scrape(
        &self,
        tr: &mut Tracer,
        sources: impl FnOnce() -> DeliveryLedger,
        sim: Option<&Simulator>,
        breaches: &[BreachWindow],
        now_ns: u64,
    ) -> Scraped {
        let start = Instant::now();
        let t = tr.enter("export.scrape");
        let mut merged = sources();
        self.collector.refine_fleet_ledger(&mut merged);
        let mut reg = MetricRegistry::default();
        scrape_ledger(&mut reg, "merged", &merged);
        if let Some(sim) = sim {
            scrape_fleet(&mut reg, sim);
            scrape_sim_sync(&mut reg, sim);
        }
        scrape_collector(&mut reg, &self.collector);
        scrape_analytics(&mut reg, &self.engine, TOP_N);
        scrape_breaches(&mut reg, breaches);
        if let Some(w) = &self.wire {
            scrape_wire(&mut reg, w);
        }
        scrape_watchdog(&mut reg, &WatchdogLog::default());
        tr.exit(t);
        let t = tr.enter("export.render_prom");
        let prometheus = render_prometheus(&reg);
        tr.exit(t);
        let t = tr.enter("export.render_otel");
        let otel = render_otel(&reg, 0, now_ns);
        tr.exit(t);
        Scraped {
            snapshot: RenderedSnapshot { prometheus, otel, rendered_at_ns: now_ns },
            merged,
            secs: start.elapsed().as_secs_f64(),
            series: reg.series_count() as u64,
            series_rejected: reg.series_rejected,
        }
    }

    /// Flush the engine's reorder buffers and check the analytics ledger:
    /// balanced, nothing left parked, and one ingest per stored event.
    pub fn finish(&mut self, checks: &mut Checks) {
        self.engine.flush();
        let l = self.engine.ledger();
        checks.check(l.balanced(), || format!("analytics ledger imbalance: {l:?}"));
        checks.check(l.pending_reorder == 0, || {
            format!("{} events still parked after flush", l.pending_reorder)
        });
        let stored = self.collector.len() as u64;
        checks.check(l.ingested == stored, || {
            format!("analytics ingested {} of {stored} stored events", l.ingested)
        });
    }
}

/// Check a rendered snapshot: the Prometheus text parses, the OTel JSON
/// validates, and the `merged` conservation identity read back from the
/// text equals the in-memory ledger term by term.
pub fn check_snapshot(snap: &RenderedSnapshot, merged: &DeliveryLedger, checks: &mut Checks) {
    checks.check(validate_json(&snap.otel), || "OTel output fails validate_json".to_string());
    let Some(doc) = parse_exposition(&snap.prometheus) else {
        checks.check(false, || "Prometheus output fails parse_exposition".to_string());
        return;
    };
    let scope = [("scope", "merged")];
    let term = |name: &str| doc.value(name, &scope).unwrap_or(f64::NAN) as u64;
    let shed: f64 = doc
        .samples
        .iter()
        .filter(|s| {
            s.name == "fet_events_shed_total"
                && s.labels.iter().any(|(k, v)| k == "scope" && v == "merged")
        })
        .map(|s| s.value)
        .sum();
    let read = [
        ("generated", term("fet_events_generated_total"), merged.generated),
        ("delivered", term("fet_events_delivered_total"), merged.delivered),
        ("shed", shed as u64, merged.shed_total()),
        ("pending", term("fet_events_pending"), merged.pending),
        ("buffered", term("fet_events_buffered"), merged.buffered),
        ("lost_to_crash", term("fet_events_lost_to_crash_total"), merged.lost_to_crash),
        ("corrupted", term("fet_events_corrupted_total"), merged.corrupted),
        ("malformed", term("fet_events_malformed_total"), merged.malformed),
    ];
    for (name, text, mem) in read {
        checks.check(text == mem, || format!("rendered {name}={text} but in-memory {mem}"));
    }
    let accounted: u64 = read[1..].iter().map(|r| r.1).sum();
    checks.check(read[0].1 == accounted, || {
        format!("rendered identity broken: generated {} != accounted {accounted}", read[0].1)
    });
}

/// Failed events over generated: every shed term plus `lost_to_crash` and
/// `corrupted` (malformed wire records excluded).
pub fn fail_ratio(l: &DeliveryLedger) -> f64 {
    (l.shed_total() + l.lost_to_crash + l.corrupted) as f64
        / l.generated.saturating_sub(l.malformed).max(1) as f64
}
