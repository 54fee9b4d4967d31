//! Integration tests for the streaming analytics engine against a real
//! simulated fleet: localization accuracy, top-k recall versus a naive
//! recomputation, window-total parity, and the extended ledger identity —
//! plus seeded random streams (ledger identity under tiny caps, shard-count
//! invariance) and the wire-clock watermark regression.

use fet_analytics::{
    harvest_gap_reports, link_map_from_sim, AnalyticsConfig, AnalyticsEngine, LinkId, LinkMap,
};
use fet_netsim::host::FlowSpec;
use fet_netsim::rng::Pcg32;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::MILLIS;
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use fet_packet::{FlowKey, Ipv4Addr};
use netseer::deploy::{delivered_history, deploy, DeployOptions};
use netseer::{Collector, FaultPlan, NetSeerConfig, StoredEvent};
use std::collections::HashMap;

fn setup(seed: u64) -> (Simulator, FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    let faults = FaultPlan { seed, ..FaultPlan::default() };
    deploy(
        &mut sim,
        &DeployOptions { cfg: NetSeerConfig { faults, ..Default::default() }, on_nics: true },
    );
    (sim, ft)
}

fn add_flow(sim: &mut Simulator, ft: &FatTree, src: usize, dst: usize, sport: u16, bytes: u64) {
    let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
    let h = ft.hosts[src];
    let idx = sim.host_mut(h).add_flow(FlowSpec {
        key,
        total_bytes: bytes,
        pkt_payload: 1000,
        rate_gbps: 5.0,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h, idx);
}

/// Cross-pod traffic (3 flows per source host) with every uplink of both
/// pods' first ToRs given elevated loss — a workload that victimizes many
/// distinct flows. Returns the sim and the delivered stream.
fn lossy_fabric_run(seed: u64, drop_prob: f64) -> (Simulator, Vec<StoredEvent>) {
    let (mut sim, ft) = setup(seed);
    for s in 0..8usize {
        for rep in 0..3u16 {
            add_flow(&mut sim, &ft, s, 7 - s, 2000 + (s as u16) * 8 + rep, 2_000_000);
        }
    }
    for pod in 0..2 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = drop_prob;
        }
    }
    sim.run_until(30 * MILLIS);
    let deliveries = delivered_history(&sim);
    (sim, deliveries)
}

/// Feed a delivered stream through collector + engine the production way.
fn engine_over(
    sim: &Simulator,
    deliveries: &[StoredEvent],
    cfg: AnalyticsConfig,
) -> AnalyticsEngine {
    let mut collector = Collector::new();
    let mut engine = AnalyticsEngine::new(cfg, link_map_from_sim(sim));
    engine.attach(&mut collector);
    collector.ingest(deliveries);
    engine.poll(&mut collector);
    engine.ingest_gap_reports(harvest_gap_reports(sim));
    engine
}

/// Naive per-flow loss/congestion weight over the raw delivered stream —
/// the ground truth the sketch's recall is measured against.
fn naive_flow_weights(deliveries: &[StoredEvent]) -> Vec<(FlowKey, u64)> {
    let mut w: HashMap<FlowKey, u64> = HashMap::new();
    for e in deliveries {
        if e.record.ty.is_drop() || e.record.ty == EventType::Congestion {
            *w.entry(e.record.flow).or_default() += u64::from(e.record.counter.max(1));
        }
    }
    let mut v: Vec<(FlowKey, u64)> = w.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Acceptance: the correlator names the exact lossy link, corroborated by
/// both ends, even with a second (much weaker) lossy link as a decoy.
#[test]
fn correlator_names_the_exact_lossy_link() {
    let (mut sim, ft) = setup(0x10CA_112E);
    for s in 0..8usize {
        for rep in 0..3u16 {
            add_flow(&mut sim, &ft, s, 7 - s, 2000 + (s as u16) * 8 + rep, 2_000_000);
        }
    }
    let tor = ft.edges[0][0];
    sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.05;
    let (down, down_port) = sim.peer_of(tor, 0).expect("uplink is wired");
    let guilty = LinkId { up: tor, up_port: 0, down, down_port };
    // Decoy: a 10x-weaker lossy link on the other pod's ToR.
    let decoy_tor = ft.edges[1][0];
    sim.link_direction_mut(decoy_tor, 1).unwrap().faults.drop_prob = 0.005;
    sim.run_until(30 * MILLIS);

    let deliveries = delivered_history(&sim);
    let engine = engine_over(&sim, &deliveries, AnalyticsConfig::default());

    let verdict = engine.culprit().expect("a corroborated verdict must exist");
    assert_eq!(verdict.link, guilty, "the correlator must name the exact link");
    assert!(verdict.upstream_reports > 0 && verdict.downstream_gaps > 0);
    // The decoy ranks behind the real culprit.
    let ranking = engine.localize();
    assert_eq!(ranking[0].link, guilty);
    engine.ledger().assert_balanced();
}

/// Acceptance: top-k (k=32) recall of the true top-8 loss flows >= 0.95,
/// with the sketch's per-entry error bounds verified against truth.
#[test]
fn topk_recall_of_true_top8_meets_bar() {
    let (sim, deliveries) = lossy_fabric_run(0x7075, 0.05);
    let engine = engine_over(&sim, &deliveries, AnalyticsConfig::default());

    let truth = naive_flow_weights(&deliveries);
    assert!(truth.len() >= 8, "workload must victimize at least 8 flows, got {}", truth.len());
    let top8: Vec<FlowKey> = truth.iter().take(8).map(|&(f, _)| f).collect();
    let reported = engine.top_flows(32);
    let hit = top8.iter().filter(|f| reported.iter().any(|e| e.flow == **f)).count();
    let recall = hit as f64 / top8.len() as f64;
    assert!(recall >= 0.95, "top-k recall {recall:.2} below the 0.95 bar");

    // Error bounds: count is an overestimate, count - error a lower bound.
    let exact: HashMap<FlowKey, u64> = truth.iter().copied().collect();
    for e in &reported {
        let t = exact.get(&e.flow).copied().unwrap_or(0);
        assert!(t <= e.count, "true {t} > estimate {} for {:?}", e.count, e.flow);
        assert!(e.guaranteed() <= t, "lower bound {} > true {t}", e.guaranteed());
    }
}

/// Window totals equal a naive recomputation over the delivered stream,
/// and every delivered event has exactly one ledger disposition.
#[test]
fn window_totals_match_naive_recompute() {
    let (sim, deliveries) = lossy_fabric_run(0xA66, 0.03);
    assert!(!deliveries.is_empty());
    let engine = engine_over(&sim, &deliveries, AnalyticsConfig::default());

    let mut naive: HashMap<(u32, u8, u8), (u64, u64)> = HashMap::new();
    for e in &deliveries {
        let reason = match e.record.detail {
            EventDetail::Drop { code, .. } => code.code(),
            _ => 0,
        };
        let k = (e.device, e.record.ty.code(), reason);
        let entry = naive.entry(k).or_default();
        entry.0 += 1;
        entry.1 += u64::from(e.record.counter.max(1));
    }
    let totals = engine.totals();
    assert_eq!(totals.len(), naive.len(), "same key set");
    for (key, stats) in &totals {
        let k = (key.device, key.ty.code(), key.reason.map_or(0, |c| c.code()));
        let &(events, weight) = naive.get(&k).expect("key must exist in the naive recompute");
        assert_eq!((stats.events, stats.weight), (events, weight), "totals diverged for {key:?}");
    }

    let ledger = engine.ledger();
    ledger.assert_balanced();
    assert_eq!(ledger.ingested, deliveries.len() as u64);
    assert_eq!(ledger.shed_analytics, 0, "default budgets must not shed this workload");
}

/// SLA evaluation produces breach windows on the lossy run and none on a
/// clean one.
#[test]
fn sla_breaches_appear_only_under_loss() {
    // A strict policy: more than 4 dropped packets per 1 ms window on any
    // device is a breach.
    let cfg = AnalyticsConfig {
        sla: fet_analytics::SlaPolicy {
            window_ns: MILLIS,
            max_drops_per_window: 4,
            max_congestion_latency_us: 400,
        },
        ..AnalyticsConfig::default()
    };
    let (sim, deliveries) = lossy_fabric_run(0x51A, 0.05);
    let mut engine = engine_over(&sim, &deliveries, cfg);
    let breaches = engine.finish_breaches();
    assert!(!breaches.is_empty(), "5% fabric loss must breach the strict SLA");
    for b in &breaches {
        assert!(b.to_ns > b.from_ns);
        assert!(
            b.drops > cfg.sla.max_drops_per_window
                || b.peak_latency_us > cfg.sla.max_congestion_latency_us
        );
    }

    let (clean_sim, clean_deliveries) = lossy_fabric_run(0x51A, 0.0);
    let mut clean_engine = engine_over(&clean_sim, &clean_deliveries, cfg);
    let clean_drop_breaches: Vec<_> =
        clean_engine.finish_breaches().into_iter().filter(|b| b.drops > 0).collect();
    assert!(clean_drop_breaches.is_empty(), "no loss, no drop breaches: {clean_drop_breaches:?}");
}

/// A seeded random stream over 6 devices, 48 flows, every event type,
/// and counters 0..5 (drop classes carry a drop detail).
fn random_stream(rng: &mut Pcg32, max_len: u32) -> Vec<StoredEvent> {
    (0..rng.next_below(max_len))
        .map(|_| {
            let time_ns = u64::from(rng.next_below(1_000_000));
            let ty = EventType::from_code(1 + rng.next_below(6) as u8).unwrap();
            let fl = rng.next_below(48);
            let detail = if ty.is_drop() {
                let code =
                    if fl.is_multiple_of(2) { DropCode::TableMiss } else { DropCode::LinkLoss };
                EventDetail::Drop { ingress_port: 0, egress_port: 1, code }
            } else {
                EventDetail::Pause { egress_port: 0, queue: 0 }
            };
            let flow = FlowKey::tcp(
                Ipv4Addr::from_u32(0x0a00_0000 | fl),
                fl as u16,
                Ipv4Addr::from_octets([10, 200, 0, 1]),
                80,
            );
            StoredEvent {
                time_ns,
                device: rng.next_below(6),
                epoch: 0,
                seq: time_ns,
                record: EventRecord {
                    ty,
                    flow,
                    detail,
                    counter: rng.next_below(5) as u16,
                    hash: fl,
                },
            }
        })
        .collect()
}

#[test]
fn ledger_identity_holds_under_random_tiny_caps() {
    // Whatever the budgets, every event takes exactly one disposition,
    // and only boring events (neither drop nor congestion) may shed:
    // the sketch always takes the interesting ones.
    let mut rng = Pcg32::new(0xA7A1_CA95, 1);
    for _ in 0..150 {
        let events = random_stream(&mut rng, 300);
        let cfg = AnalyticsConfig {
            shards: 1 + rng.next_below(4) as usize,
            max_agg_keys: 1 + rng.next_below(5) as usize,
            topk_k: 1 + rng.next_below(5) as usize,
            ..AnalyticsConfig::default()
        };
        let mut eng = AnalyticsEngine::new(cfg, LinkMap::default());
        eng.ingest_slice(&events);
        let ledger = eng.ledger();
        ledger.assert_balanced();
        assert_eq!(ledger.ingested, events.len() as u64);
        let boring = events
            .iter()
            .filter(|e| !e.record.ty.is_drop() && e.record.ty != EventType::Congestion)
            .count() as u64;
        assert!(ledger.shed_analytics <= boring, "an interesting event was shed: {ledger:?}");
    }
}

#[test]
fn totals_and_ledger_are_shard_count_invariant() {
    let mut rng = Pcg32::new(0x0054_A2D5, 1);
    for _ in 0..60 {
        let events = random_stream(&mut rng, 250);
        let run = |shards: usize| {
            let cfg = AnalyticsConfig { shards, ..AnalyticsConfig::default() };
            let mut eng = AnalyticsEngine::new(cfg, LinkMap::default());
            eng.ingest_slice(&events);
            (eng.totals(), eng.ledger())
        };
        let serial = run(1);
        for shards in [2, 3, 5] {
            assert_eq!(run(shards), serial, "diverged at {shards} shards");
        }
    }
}

#[test]
fn in_slack_future_wire_stamp_does_not_late_shed_honest_traffic() {
    use fet_wire::builder::{v5_datagram, v5_datagram_with_times};
    use fet_wire::FlowSample;
    use netseer::{WireConfig, WireIngest};

    let sample = |sport: u16| FlowSample {
        flow: FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            sport,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        ),
        in_port: 1,
        out_port: 2,
        packets: 1,
        bytes: 100,
        tcp_flags: 0,
        forwarding_status: None,
        first_ms: 0,
        last_ms: 0,
    };
    let cfg = AnalyticsConfig {
        shards: 1,
        lateness_bound_ns: 1_000_000,
        reorder_cap: 64,
        ..AnalyticsConfig::default()
    };
    let mut c = Collector::new();
    let mut eng = AnalyticsEngine::new(cfg, LinkMap::default());
    eng.attach(&mut c);
    let mut wire = WireIngest::new(WireConfig::default());
    // A bit-flipped export time of 1 s at 5 ms of receive time: inside
    // the 1 s future slack, so trusted, but never stamped past now.
    let lie = v5_datagram_with_times(0, 0, 1, &[sample(1)], 1, 0, 1);
    wire.ingest_datagram(&mut c, &lie, 5_000_000);
    // Honest traffic after it carries no export time: receive-stamped.
    for i in 1..40u32 {
        let dg = v5_datagram(i, 0, 1, &[sample(1 + i as u16)]);
        wire.ingest_datagram(&mut c, &dg, 5_000_000 + u64::from(i) * 100_000);
    }
    eng.poll(&mut c);
    eng.flush();
    let ledger = eng.ledger();
    ledger.assert_balanced();
    assert_eq!(ledger.ingested, 40);
    assert_eq!(ledger.late_shed, 0, "an in-slack stamp must not jump the watermark");
}
