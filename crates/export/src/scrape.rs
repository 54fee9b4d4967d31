//! Scrape adapters: read the system's existing stat surfaces into the
//! registry under the `fet_*` naming scheme.
//!
//! Adapters are *pull*-shaped and stateless: each snapshot rebuilds its
//! families from the authoritative counters (collector ledger and spill
//! store, analytics SLA/top-k, wire reject taxonomy, watchdog incidents,
//! fleet monitor counters), so the registry can never drift from the
//! system of record and re-scraping is idempotent. Every label value is
//! derived from bounded sets (ledger terms, reject reasons, device ids,
//! capped top-k/stream maps), and the registry's hard cardinality caps
//! backstop anything a hostile workload could mint.

use crate::registry::MetricRegistry;
use fet_analytics::{AnalyticsEngine, BreachWindow};
use fet_netsim::engine::Simulator;
use fet_wire::{ALL_CLOCK_LIES, ALL_REASONS};
use netseer::deploy::fleet_summary;
use netseer::recovery::Collector;
use netseer::watchdog::WatchdogLog;
use netseer::{DeliveryLedger, WireIngest};
use std::fmt::Write;

/// SLA breach-window duration buckets, ns (windows are ~1 ms wide and
/// merge while contiguous).
pub(crate) const BREACH_DURATION_BOUNDS_NS: [f64; 4] = [1e6, 2e6, 4e6, 8e6];

/// Publish one [`DeliveryLedger`]'s terms under a `scope` label
/// (`fleet`, `wire`, `merged`, ...). Occupancy-style terms (`pending`,
/// `buffered`) are gauges; terminal dispositions are counters.
pub fn scrape_ledger(reg: &mut MetricRegistry, scope: &str, l: &DeliveryLedger) {
    // Exhaustive on purpose: a new ledger term fails to compile here until
    // it is published.
    let DeliveryLedger {
        generated,
        delivered,
        shed_stack,
        shed_pcie,
        shed_cpu_overload,
        shed_false_positive,
        shed_transport,
        pending,
        buffered,
        lost_to_crash,
        corrupted,
        malformed,
    } = *l;
    let s = [("scope", scope)];
    reg.counter_add(
        "fet_events_generated_total",
        "Event records handed to the reporting path (post-dedup).",
        &s,
        generated,
    );
    reg.counter_add(
        "fet_events_delivered_total",
        "Events that reached the backend store.",
        &s,
        delivered,
    );
    for (reason, v) in [
        ("stack", shed_stack),
        ("pcie", shed_pcie),
        ("cpu_overload", shed_cpu_overload),
        ("false_positive", shed_false_positive),
        ("transport", shed_transport),
    ] {
        reg.counter_add(
            "fet_events_shed_total",
            "Events shed at a named, counted choke point.",
            &[("scope", scope), ("reason", reason)],
            v,
        );
    }
    reg.gauge_set(
        "fet_events_pending",
        "Events still in flight (batcher stack + open CEBP).",
        &s,
        pending as f64,
    );
    reg.gauge_set(
        "fet_events_buffered",
        "Events parked in the collector's durable spill buffer.",
        &s,
        buffered as f64,
    );
    reg.counter_add(
        "fet_events_lost_to_crash_total",
        "Events lost to hard kills (bounded by the fsync window).",
        &s,
        lost_to_crash,
    );
    reg.counter_add(
        "fet_events_corrupted_total",
        "Events whose report failed CRC on every transmission attempt.",
        &s,
        corrupted,
    );
    reg.counter_add(
        "fet_events_malformed_total",
        "Wire-claimed records the collector could not decode.",
        &s,
        malformed,
    );
}

/// Publish the collector's admission, spill, quarantine, and
/// exactly-once gate counters.
pub fn scrape_collector(reg: &mut MetricRegistry, c: &Collector) {
    reg.gauge_set(
        "fet_collector_backlog",
        "Events admitted to memory, not yet drained by a subscriber.",
        &[],
        c.backlog() as f64,
    );
    reg.gauge_set(
        "fet_collector_backpressure_level",
        "Load over watermark; monitors widen flush strides to 2^level.",
        &[],
        f64::from(c.backpressure_level()),
    );
    reg.counter_add(
        "fet_collector_duplicates_rejected_total",
        "Redeliveries dropped by the per-device epoch/seq gates.",
        &[],
        c.duplicates_rejected(),
    );
    reg.counter_add(
        "fet_collector_stale_epoch_rejected_total",
        "Deliveries from superseded epochs dropped at the gate.",
        &[],
        c.stale_epoch_rejected(),
    );
    reg.counter_add(
        "fet_collector_poison_quarantined_total",
        "Poison frames offered to the quarantine (CRC failures, wire rejects).",
        &[],
        c.poison_seen,
    );
    reg.gauge_set(
        "fet_collector_quarantine_held",
        "Poison frames currently retained (retention-bounded).",
        &[],
        c.quarantine().len() as f64,
    );
    reg.counter_add(
        "fet_collector_restarts_total",
        "Collector crash/restart cycles.",
        &[],
        c.restarts,
    );
    let sp = c.spill();
    for (name, help, v) in [
        ("fet_spill_records_appended_total", "Records written to the spill store.", sp.appended),
        ("fet_spill_records_drained_total", "Records applied out of the spill.", sp.drained),
        ("fet_spill_records_replayed_total", "Records re-read after a crash rewind.", sp.replayed),
        ("fet_spill_records_refused_total", "Appends refused by the byte budget.", sp.refused),
        ("fet_spill_records_torn_total", "Records destroyed by torn tails.", sp.torn_records),
        ("fet_spill_fsyncs_total", "Spill fsync calls.", sp.fsyncs),
        ("fet_spill_commits_total", "Durable-cursor commits.", sp.commits),
        ("fet_spill_rotations_total", "Segment rotations.", sp.rotations),
        ("fet_spill_segments_acked_total", "Fully-acked segments deleted.", sp.acked_segments),
        ("fet_spill_crashes_total", "Crash/tear cycles applied to the store.", sp.crashes),
    ] {
        reg.counter_add(name, help, &[], v);
    }
    reg.gauge_set(
        "fet_spill_records_pending",
        "Records currently parked on disk.",
        &[],
        sp.pending() as f64,
    );
}

/// Publish the analytics engine's ledger, top-k, and upstream-loss
/// scrapes. `top_n` bounds the per-flow series (cardinality <= n).
pub fn scrape_analytics(reg: &mut MetricRegistry, e: &AnalyticsEngine, top_n: usize) {
    let l = e.ledger();
    reg.counter_add(
        "fet_analytics_ingested_total",
        "Events handed to the analytics shards.",
        &[],
        l.ingested,
    );
    reg.counter_add(
        "fet_analytics_aggregated_total",
        "Events counted in the per-key totals tables.",
        &[],
        l.aggregated,
    );
    reg.counter_add(
        "fet_analytics_sketch_absorbed_total",
        "Events absorbed by the top-k sketches past the per-key table caps.",
        &[],
        l.sketch_absorbed,
    );
    reg.counter_add(
        "fet_analytics_shed_total",
        "Events refused by both the per-key table and the sketch (counted shed).",
        &[],
        l.shed_analytics,
    );
    reg.counter_add(
        "fet_time_late_admitted_total",
        "Late events admitted within the lateness bound (also disposed normally).",
        &[],
        l.late_admitted,
    );
    reg.counter_add(
        "fet_time_late_shed_total",
        "Events older than the watermark's lateness bound, shed with account.",
        &[],
        l.late_shed,
    );
    reg.gauge_set(
        "fet_time_pending_reorder",
        "Events held in the event-time reorder buffers, awaiting the watermark.",
        &[],
        l.pending_reorder as f64,
    );
    reg.counter_add(
        "fet_analytics_processed_total",
        "Events processed since engine construction.",
        &[],
        e.processed,
    );
    reg.counter_add(
        "fet_analytics_restarts_total",
        "Engine crash/restart cycles.",
        &[],
        e.restarts,
    );
    // One scratch buffer per label value, reused across series: the
    // registry copies a value only when it admits a new series.
    let mut flow = String::new();
    for entry in e.top_flows(top_n) {
        flow.clear();
        let _ = write!(flow, "{}", entry.flow);
        reg.gauge_set(
            "fet_analytics_top_flow_events",
            "Estimated event weight of a top-k victim flow (overestimate).",
            &[("flow", &flow)],
            entry.count as f64,
        );
        reg.gauge_set(
            "fet_analytics_top_flow_error",
            "Maximum overestimation of the flow's weight.",
            &[("flow", &flow)],
            entry.error as f64,
        );
    }
    let (mut domain, mut proto) = (String::new(), String::new());
    for r in e.upstream_losses() {
        domain.clear();
        let _ = write!(domain, "{}", r.domain);
        proto.clear();
        let _ = write!(proto, "{}", r.protocol.version());
        let lbls = [("domain", domain.as_str()), ("protocol", proto.as_str())];
        reg.counter_add(
            "fet_wire_upstream_lost_total",
            "Records lost before the collector's doorstep (sequence gaps).",
            &lbls,
            r.lost,
        );
        reg.counter_add(
            "fet_wire_upstream_gaps_total",
            "Distinct sequence gaps per exporter stream.",
            &lbls,
            r.gaps,
        );
    }
}

/// Publish finished SLA breach windows: per-device counts/drop weight
/// plus a duration histogram.
pub fn scrape_breaches(reg: &mut MetricRegistry, breaches: &[BreachWindow]) {
    let mut device = String::new();
    for b in breaches {
        device.clear();
        let _ = write!(device, "{}", b.device);
        let lbls = [("device", device.as_str())];
        reg.counter_add(
            "fet_sla_breach_windows_total",
            "Contiguous SLA violation spans per device.",
            &lbls,
            1,
        );
        reg.counter_add(
            "fet_sla_breach_drops_total",
            "Dropped-packet weight inside breach spans.",
            &lbls,
            b.drops,
        );
        reg.histogram_observe(
            "fet_sla_breach_duration_ns",
            "Distribution of breach-span durations.",
            &BREACH_DURATION_BOUNDS_NS,
            &[],
            (b.to_ns - b.from_ns) as f64,
        );
    }
}

/// Publish the wire-ingest session: datagram dispositions, the
/// per-reason reject taxonomy (fatal and soft), and template-cache
/// pressure.
pub fn scrape_wire(reg: &mut MetricRegistry, w: &WireIngest) {
    let stats = w.session().stats();
    reg.counter_add(
        "fet_wire_datagrams_total",
        "Datagrams offered to the wire session.",
        &[],
        stats.datagrams,
    );
    reg.counter_add(
        "fet_wire_datagrams_accepted_total",
        "Datagrams that decoded (possibly with soft defects).",
        &[],
        stats.accepted,
    );
    reg.counter_add(
        "fet_wire_datagrams_rejected_total",
        "Datagrams rejected outright and quarantined.",
        &[],
        stats.rejected,
    );
    reg.counter_add(
        "fet_wire_records_decoded_total",
        "Flow records decoded into FET events.",
        &[],
        stats.decoded,
    );
    for reason in ALL_REASONS {
        let lbls = [("reason", reason.as_str())];
        reg.counter_add(
            "fet_wire_rejects_total",
            "Datagram-fatal rejects by reason.",
            &lbls,
            stats.rejects[reason.index()],
        );
        reg.counter_add(
            "fet_wire_soft_rejects_total",
            "Per-record soft damage by reason (booked as malformed).",
            &lbls,
            stats.soft[reason.index()],
        );
    }
    for lie in ALL_CLOCK_LIES {
        reg.counter_add(
            "fet_time_clock_lies_total",
            "Exporter clock lies vetted at ingest, by kind (always soft).",
            &[("kind", lie.as_str())],
            stats.clock_lies[lie.index()],
        );
    }
    reg.counter_add(
        "fet_time_clamped_stamps_total",
        "Datagram event times clamped to the collector's receive clock.",
        &[],
        stats.clamped_stamps,
    );
    let cache = w.session().cache();
    reg.gauge_set(
        "fet_wire_template_domains",
        "Observation domains currently cached (hard-capped).",
        &[],
        cache.domain_count() as f64,
    );
    reg.gauge_set(
        "fet_wire_template_max_domain",
        "Templates in the busiest cached domain (hard-capped).",
        &[],
        cache.max_domain_len() as f64,
    );
    let ts = cache.stats();
    for (name, help, v) in [
        ("fet_wire_templates_installed_total", "Templates accepted.", ts.installed),
        ("fet_wire_templates_refreshed_total", "Template re-announcements.", ts.refreshed),
        ("fet_wire_templates_evicted_total", "Templates LRU-evicted.", ts.evicted_lru),
        ("fet_wire_template_domains_evicted_total", "Whole domains evicted.", ts.evicted_domains),
        ("fet_wire_templates_expired_total", "Templates dropped as stale.", ts.expired),
        ("fet_wire_templates_rejected_total", "Announcements refused by bounds.", ts.rejected),
    ] {
        reg.counter_add(name, help, &[], v);
    }
}

/// Publish watchdog supervision outcomes.
pub fn scrape_watchdog(reg: &mut MetricRegistry, log: &WatchdogLog) {
    reg.counter_add(
        "fet_watchdog_incidents_total",
        "Monitors declared suspect and hard-killed by the watchdog.",
        &[],
        log.incidents().len() as u64,
    );
    reg.counter_add(
        "fet_watchdog_restarts_total",
        "Supervised restarts completed.",
        &[],
        log.restarts().len() as u64,
    );
    reg.gauge_set(
        "fet_time_watchdog_max_skew_ns",
        "Largest absolute monitor-clock skew observed at a liveness check.",
        &[],
        log.max_abs_skew_ns() as f64,
    );
    reg.counter_add(
        "fet_time_watchdog_drift_flagged_total",
        "Liveness checks whose observed skew exceeded the drift tolerance (observational; never kills).",
        &[],
        log.drift_flagged(),
    );
}

/// Publish the fleet-wide monitor surfaces: the summed delivery ledger
/// (scope `fleet`) and the reliability counters.
pub fn scrape_fleet(reg: &mut MetricRegistry, sim: &Simulator) {
    let (ledger, fs) = fleet_summary(sim);
    scrape_ledger(reg, "fleet", &ledger);
    for (name, help, v) in [
        (
            "fet_fleet_crc_failures_total",
            "CEBP batches failing CRC-32C (implicit NACKs).",
            fs.crc_failures,
        ),
        (
            "fet_fleet_wal_records_rejected_total",
            "WAL records rejected by torn-tail replay.",
            fs.wal_records_rejected,
        ),
        (
            "fet_fleet_flushes_skipped_total",
            "Partial flushes held back by widened strides.",
            fs.flushes_skipped,
        ),
        ("fet_fleet_retransmissions_total", "Transport retransmissions.", fs.retransmissions),
        (
            "fet_fleet_notification_drops_total",
            "Loss-notification copies dropped.",
            fs.notification_copies_dropped,
        ),
        ("fet_fleet_monitor_restarts_total", "Monitor restarts completed.", fs.restarts),
    ] {
        reg.counter_add(name, help, &[], v);
    }
    reg.counter_add(
        "fet_fleet_mgmt_bytes_total",
        "Bytes carried on the management network.",
        &[],
        sim.mgmt.total_bytes(),
    );
}

/// Publish the parallel executor's cross-shard synchronization counters.
///
/// All-zero under serial execution; under sharded execution the values are
/// a deterministic function of (scenario, shard count, ring capacity) —
/// they belong in same-configuration determinism fingerprints but NOT in
/// serial-vs-parallel comparisons.
pub fn scrape_sim_sync(reg: &mut MetricRegistry, sim: &Simulator) {
    let s = sim.sync_stats();
    for (name, help, v) in [
        (
            "fet_sim_segments_total",
            "Conservative-parallel segments executed between management barriers.",
            s.segments,
        ),
        (
            "fet_sim_epochs_executed_total",
            "Synchronization rounds (barrier crossings) summed over workers.",
            s.epochs_executed,
        ),
        (
            "fet_sim_epochs_batched_total",
            "Extra lookahead epochs folded into a single synchronization round.",
            s.epochs_batched,
        ),
        (
            "fet_sim_ring_messages_total",
            "Cross-shard events carried over the SPSC rings.",
            s.ring_messages,
        ),
        (
            "fet_sim_ring_stalls_total",
            "Ring-full occurrences diverted to the overflow spill path.",
            s.ring_stalls,
        ),
    ] {
        reg.counter_add(name, help, &[], v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{parse_exposition, render_prometheus};
    use fet_analytics::{AnalyticsConfig, LinkMap};

    #[test]
    fn ledger_terms_scrape_exactly() {
        let l = DeliveryLedger {
            generated: 100,
            delivered: 60,
            shed_cpu_overload: 10,
            pending: 5,
            buffered: 15,
            lost_to_crash: 4,
            corrupted: 3,
            malformed: 3,
            ..Default::default()
        };
        assert!(l.balanced());
        let mut reg = MetricRegistry::default();
        scrape_ledger(&mut reg, "fleet", &l);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        let get = |n: &str| doc.value(n, &[("scope", "fleet")]).unwrap();
        let shed: f64 = doc.sum("fet_events_shed_total");
        assert_eq!(get("fet_events_generated_total"), 100.0);
        assert_eq!(
            get("fet_events_generated_total"),
            get("fet_events_delivered_total")
                + shed
                + get("fet_events_pending")
                + get("fet_events_buffered")
                + get("fet_events_lost_to_crash_total")
                + get("fet_events_corrupted_total")
                + get("fet_events_malformed_total"),
            "the scraped identity must balance"
        );
    }

    #[test]
    fn every_ledger_term_is_rendered() {
        // 12 distinct non-zero terms: a dropped or crossed term shows up.
        let l = DeliveryLedger {
            generated: 1,
            delivered: 2,
            shed_stack: 3,
            shed_pcie: 4,
            shed_cpu_overload: 5,
            shed_false_positive: 6,
            shed_transport: 7,
            pending: 8,
            buffered: 9,
            lost_to_crash: 10,
            corrupted: 11,
            malformed: 12,
        };
        let mut reg = MetricRegistry::default();
        scrape_ledger(&mut reg, "fleet", &l);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        let get = |n: &str| doc.value(n, &[("scope", "fleet")]);
        let shed =
            |r: &str| doc.value("fet_events_shed_total", &[("scope", "fleet"), ("reason", r)]);
        assert_eq!(get("fet_events_generated_total"), Some(1.0));
        assert_eq!(get("fet_events_delivered_total"), Some(2.0));
        assert_eq!(shed("stack"), Some(3.0));
        assert_eq!(shed("pcie"), Some(4.0));
        assert_eq!(shed("cpu_overload"), Some(5.0));
        assert_eq!(shed("false_positive"), Some(6.0));
        assert_eq!(shed("transport"), Some(7.0));
        assert_eq!(get("fet_events_pending"), Some(8.0));
        assert_eq!(get("fet_events_buffered"), Some(9.0));
        assert_eq!(get("fet_events_lost_to_crash_total"), Some(10.0));
        assert_eq!(get("fet_events_corrupted_total"), Some(11.0));
        assert_eq!(get("fet_events_malformed_total"), Some(12.0));
    }

    #[test]
    fn collector_and_wire_scrapes_cover_their_counters() {
        let mut c = Collector::new();
        let _sub = c.subscribe();
        let mut w = WireIngest::default();
        // One good datagram and one fatal reject.
        let dg = fet_wire::builder::v5_datagram(
            0,
            0,
            1,
            &[fet_wire::FlowSample {
                flow: fet_packet::FlowKey::tcp(
                    fet_packet::Ipv4Addr::from_octets([10, 0, 0, 1]),
                    1,
                    fet_packet::Ipv4Addr::from_octets([10, 0, 0, 2]),
                    80,
                ),
                in_port: 0,
                out_port: 1,
                packets: 1,
                bytes: 100,
                tcp_flags: 0,
                forwarding_status: None,
                first_ms: 0,
                last_ms: 0,
            }],
        );
        w.ingest_datagram(&mut c, &dg, 0);
        w.ingest_datagram(&mut c, &[0, 99, 0, 0], 0);
        let mut reg = MetricRegistry::default();
        scrape_collector(&mut reg, &c);
        scrape_wire(&mut reg, &w);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        assert_eq!(doc.value("fet_wire_datagrams_total", &[]), Some(2.0));
        assert_eq!(doc.value("fet_wire_datagrams_rejected_total", &[]), Some(1.0));
        assert_eq!(doc.value("fet_wire_rejects_total", &[("reason", "bad-version")]), Some(1.0));
        assert_eq!(doc.value("fet_collector_poison_quarantined_total", &[]), Some(1.0));
        assert_eq!(doc.value("fet_collector_backlog", &[]), Some(1.0));
    }

    #[test]
    fn sim_sync_scrape_covers_serial_and_parallel() {
        // Serial execution: every sync family exists and reads zero.
        let sim = Simulator::new();
        let mut reg = MetricRegistry::default();
        scrape_sim_sync(&mut reg, &sim);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        for name in [
            "fet_sim_segments_total",
            "fet_sim_epochs_executed_total",
            "fet_sim_epochs_batched_total",
            "fet_sim_ring_messages_total",
            "fet_sim_ring_stalls_total",
        ] {
            assert_eq!(doc.value(name, &[]), Some(0.0), "{name} missing or nonzero");
        }

        // Sharded execution: barrier rounds must show up in the scrape.
        let mut sim = Simulator::new();
        let ft = fet_netsim::topology::build_fat_tree(
            &mut sim,
            &fet_netsim::topology::FatTreeParams::default(),
        );
        fet_netsim::routing::install_ecmp_routes(&mut sim);
        let key = fet_packet::FlowKey::tcp(ft.host_ips[0], 3000, ft.host_ips[7], 80);
        let idx = sim.host_mut(ft.hosts[0]).add_flow(fet_netsim::host::FlowSpec {
            key,
            total_bytes: 100_000,
            pkt_payload: 1000,
            rate_gbps: 5.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(ft.hosts[0], idx);
        sim.run_until_parallel(1_000_000, 2);
        let mut reg = MetricRegistry::default();
        scrape_sim_sync(&mut reg, &sim);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        assert!(doc.value("fet_sim_segments_total", &[]).unwrap() >= 1.0);
        assert!(doc.value("fet_sim_epochs_executed_total", &[]).unwrap() >= 1.0);
    }

    #[test]
    fn time_fault_families_scrape() {
        let mut c = Collector::new();
        let mut w = WireIngest::default();
        // A datagram claiming a far-future export time: accepted, lie
        // booked, stamp clamped — all three must surface as fet_time_*.
        let dg = fet_wire::builder::v5_datagram_with_times(
            0,
            0,
            1,
            &[fet_wire::FlowSample::default()],
            1,
            1_000,
            2_000_000_000,
        );
        w.ingest_datagram(&mut c, &dg, 1_000_000_000);
        let mut reg = MetricRegistry::default();
        scrape_wire(&mut reg, &w);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        assert_eq!(doc.value("fet_time_clock_lies_total", &[("kind", "future-export")]), Some(1.0));
        assert_eq!(
            doc.value("fet_time_clock_lies_total", &[("kind", "frozen-sysuptime")]),
            Some(0.0)
        );
        assert_eq!(doc.value("fet_time_clamped_stamps_total", &[]), Some(1.0));

        let eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        let mut reg = MetricRegistry::default();
        scrape_analytics(&mut reg, &eng, 8);
        let doc = parse_exposition(&render_prometheus(&reg)).unwrap();
        for name in
            ["fet_time_late_admitted_total", "fet_time_late_shed_total", "fet_time_pending_reorder"]
        {
            assert_eq!(doc.value(name, &[]), Some(0.0), "{name} missing");
        }
    }

    #[test]
    fn analytics_scrape_is_idempotent() {
        let eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        let mut a = MetricRegistry::default();
        scrape_analytics(&mut a, &eng, 8);
        let text_a = render_prometheus(&a);
        let mut b = MetricRegistry::default();
        scrape_analytics(&mut b, &eng, 8);
        assert_eq!(text_a, render_prometheus(&b), "same source state, same snapshot");
    }
}
