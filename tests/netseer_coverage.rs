//! Full-system integration: NetSeer deployed across the paper's testbed
//! topology must achieve full flow-event coverage with zero false
//! negatives (and zero false positives after CPU elimination) while
//! operating within capacity — the central claim of §5.2.

use fet_netsim::host::FlowSpec;
use fet_netsim::link::BurstDrop;
use fet_netsim::routing::{install_ecmp_routes, remove_route};
use fet_netsim::time::{MILLIS, SECONDS};
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use netseer::deploy::{aggregate_stats, collect_events, deploy, monitor_of, DeployOptions};
use netseer::monitor::acl_rule_flow;

fn setup(params: FatTreeParams) -> (Simulator, FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions::default());
    (sim, ft)
}

fn add_flow(
    sim: &mut Simulator,
    ft: &FatTree,
    src: usize,
    dst: usize,
    sport: u16,
    bytes: u64,
    rate: f64,
) -> FlowKey {
    let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
    let h = ft.hosts[src];
    let idx = sim.host_mut(h).add_flow(FlowSpec {
        key,
        total_bytes: bytes,
        pkt_payload: 1000,
        rate_gbps: rate,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h, idx);
    key
}

/// Inter-switch silent drops: the upstream switch must recover the exact
/// victim flows from its ring buffer (Figure 5's full loop, in situ).
#[test]
fn interswitch_drop_full_coverage() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    for s in 0..4 {
        add_flow(&mut sim, &ft, s, 4 + s, 1000 + s as u16, 100_000, 5.0);
    }
    // Break tor0_0's both uplinks briefly.
    let tor = ft.edges[0][0];
    for port in 0..2 {
        sim.link_direction_mut(tor, port).unwrap().faults.burst_drop =
            Some(BurstDrop { at_ns: 50_000, count: 4, corrupt: false });
    }
    sim.run_until(SECONDS);

    let gt = sim.gt.flow_events(EventType::InterSwitchDrop);
    assert!(!gt.is_empty(), "fault must have produced drops");
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::InterSwitchDrop);
    for fe in &gt {
        assert!(seen.contains(fe), "missed inter-switch drop {fe:?}");
    }
}

/// Corruption drops are detected the same way (downstream MAC discards,
/// gap reveals them).
#[test]
fn corruption_detected_as_interswitch_drop() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    add_flow(&mut sim, &ft, 0, 6, 1000, 100_000, 5.0);
    let tor = ft.edges[0][0];
    for port in 0..2 {
        sim.link_direction_mut(tor, port).unwrap().faults.burst_drop =
            Some(BurstDrop { at_ns: 30_000, count: 3, corrupt: true });
    }
    sim.run_until(SECONDS);
    let gt = sim.gt.flow_events(EventType::InterSwitchDrop);
    assert!(!gt.is_empty());
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::InterSwitchDrop);
    for fe in &gt {
        assert!(seen.contains(fe), "missed corruption {fe:?}");
    }
}

/// Pipeline drops from a routing blackhole: victim flow + TableMiss code.
#[test]
fn blackhole_pipeline_drop_coverage() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    let key = add_flow(&mut sim, &ft, 0, 7, 1000, 100_000, 5.0);
    let tor = ft.edges[0][0];
    let victim = ft.host_ips[7];
    sim.schedule_control(40_000, move |s| remove_route(s, tor, victim));
    sim.run_until(SECONDS);

    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::PipelineDrop);
    assert!(seen.contains(&(tor, key)), "blackhole victim not reported");
    // Zero false positives at flow-event granularity: everything reported
    // exists in ground truth.
    let gt = sim.gt.flow_events(EventType::PipelineDrop);
    for fe in &seen {
        assert!(gt.contains(fe), "false positive {fe:?}");
    }
}

/// ACL misconfiguration: reported at rule granularity.
#[test]
fn acl_drop_aggregated_by_rule() {
    use fet_pdp::table::{AclAction, AclRule};
    let (mut sim, ft) = setup(FatTreeParams::default());
    add_flow(&mut sim, &ft, 0, 7, 2222, 200_000, 5.0);
    let tor = ft.edges[0][0];
    sim.schedule_control(10_000, move |s| {
        s.switch_mut(tor).acl.install(AclRule {
            rule_id: 99,
            priority: 1,
            src: None,
            dst: None,
            sport: None,
            dport: Some(80),
            proto: None,
            action: AclAction::Deny,
        });
    });
    sim.run_until(SECONDS);
    let store = collect_events(&mut sim);
    // Rule-granularity events: flow is the synthetic rule flow.
    let acl_events: Vec<_> = store
        .events()
        .iter()
        .filter(|e| e.record.ty == EventType::PipelineDrop && e.record.flow == acl_rule_flow(99))
        .collect();
    assert!(!acl_events.is_empty(), "ACL rule 99 drops not reported");
    // Aggregation: far fewer reports than dropped packets.
    let dropped = sim.gt.count(EventType::PipelineDrop);
    assert!(dropped > 20);
    assert!(acl_events.len() < dropped / 5);
}

/// Incast congestion: congestion and MMU-drop flow events covered.
#[test]
fn incast_congestion_and_mmu_coverage() {
    let mut params = FatTreeParams::default();
    params.switch_config.mmu.total_bytes = 64 * 1024;
    // The switch is the only place the threshold is set: NetSeer takes the
    // switch's congestion verdict, so it must cover every 5 us event.
    params.switch_config.congestion_threshold_ns = 5 * fet_netsim::MICROS;
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg: netseer::NetSeerConfig::default(), on_nics: true });
    for s in 1..8 {
        add_flow(&mut sim, &ft, s, 0, 3000 + s as u16, 1_000_000, 25.0);
    }
    sim.run_until(30 * MILLIS);

    let store = collect_events(&mut sim);
    for ty in [EventType::Congestion, EventType::MmuDrop] {
        let gt = sim.gt.flow_events(ty);
        assert!(!gt.is_empty(), "{ty} not produced by incast");
        let seen = store.flow_events(ty);
        let covered = gt.iter().filter(|fe| seen.contains(fe)).count();
        assert_eq!(covered, gt.len(), "{ty}: covered {covered}/{}", gt.len());
    }
}

/// Path change after rerouting: the affected flows are reported at the
/// switches whose port choice changed.
#[test]
fn path_change_coverage() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    let key = add_flow(&mut sim, &ft, 0, 7, 4000, 500_000, 2.0);
    let tor = ft.edges[0][0];
    let victim = ft.host_ips[7];
    // Reroute: pin the victim's route to the second uplink only.
    sim.schedule_control(500_000, move |s| {
        fet_netsim::routing::override_route(s, tor, victim, vec![1]);
    });
    sim.run_until(SECONDS);
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::PathChange);
    // At minimum the flow is known at the ToR (new flow + possible change).
    assert!(seen.contains(&(tor, key)), "path change at ToR missed");
    let gt = sim.gt.flow_events(EventType::PathChange);
    let covered = gt.iter().filter(|fe| seen.contains(fe)).count();
    assert_eq!(covered, gt.len(), "covered {covered}/{}", gt.len());
}

/// The overhead headline: monitoring traffic ≤ 0.1% of traffic volume
/// under a healthy steady workload (paper: ~0.01% under production mix).
#[test]
fn overhead_is_tiny_on_healthy_network() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    for s in 0..8 {
        for f in 0..4 {
            add_flow(&mut sim, &ft, s, (s + 1 + f) % 8, (5000 + 16 * s + f) as u16, 200_000, 2.0);
        }
    }
    sim.run_until(SECONDS);
    let stats = aggregate_stats(&sim);
    assert!(stats.packets_seen > 1_000);
    let data_bytes = sim.switch_tx_bytes().max(1);
    let overhead = stats.final_bytes as f64 / data_bytes as f64;
    assert!(overhead < 1e-3, "overhead {overhead}");
    // Event packets are a small fraction (healthy network: only path
    // change events for new flows).
    let ratio = stats.event_packets as f64 / stats.packets_seen as f64;
    assert!(ratio < 0.10, "event packet ratio {ratio}");
}

/// NIC deployment covers the edge link: drops between ToR and host are
/// detected by the host NIC's gap detector and logged locally.
#[test]
fn edge_link_drops_covered_by_nic() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    let key = add_flow(&mut sim, &ft, 0, 1, 6000, 100_000, 5.0);
    // hosts[1] hangs off tor0_0 port 2 (ports 0,1 = aggs; 2,3 = hosts).
    let tor = ft.edges[0][0];
    sim.link_direction_mut(tor, 3).unwrap().faults.burst_drop =
        Some(BurstDrop { at_ns: 50_000, count: 3, corrupt: false });
    sim.run_until(SECONDS);
    let gt = sim.gt.flow_events(EventType::InterSwitchDrop);
    assert!(gt.contains(&(tor, key)), "fault should hit the edge link");
    // The upstream (ToR) reports the drops after the NIC's notification.
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::InterSwitchDrop);
    assert!(seen.contains(&(tor, key)), "edge drop not recovered");
}

/// Determinism: the full NetSeer deployment is bit-reproducible.
#[test]
fn full_deployment_is_deterministic() {
    let run = || {
        let (mut sim, ft) = setup(FatTreeParams::default());
        for s in 0..4 {
            add_flow(&mut sim, &ft, s, 7 - s, 7000 + s as u16, 100_000, 5.0);
        }
        let tor = ft.edges[0][0];
        sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.01;
        sim.run_until(100 * MILLIS);
        let store = collect_events(&mut sim);
        (store.len(), sim.gt.events().len(), sim.mgmt.total_bytes())
    };
    assert_eq!(run(), run());
}

/// Events answer operator queries: "what happened to this flow?"
#[test]
fn operator_query_workflow() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    let victim = add_flow(&mut sim, &ft, 0, 7, 8000, 200_000, 5.0);
    let _noise = add_flow(&mut sim, &ft, 1, 6, 8001, 200_000, 5.0);
    let tor = ft.edges[0][0];
    let vip = ft.host_ips[7];
    sim.schedule_control(100_000, move |s| remove_route(s, tor, vip));
    sim.run_until(SECONDS);
    let store = collect_events(&mut sim);
    // Query by flow: the victim has drop events; we learn the device.
    let hits = store.query(&netseer::Query::any().flow(victim).ty(EventType::PipelineDrop));
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|e| e.device == tor));
    // Query by device + window.
    let at_tor = store.query(&netseer::Query::any().device(tor).window(0, u64::MAX));
    assert!(at_tor.len() >= hits.len());
}

/// Stats sanity for Figure 13: per-step reductions hold on a drop-heavy run.
#[test]
fn per_step_reduction_shape() {
    let (mut sim, ft) = setup(FatTreeParams::default());
    for s in 0..4 {
        add_flow(&mut sim, &ft, s, 4 + s, 9000 + s as u16, 500_000, 5.0);
    }
    let tor = ft.edges[0][0];
    sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.02;
    sim.link_direction_mut(tor, 1).unwrap().faults.drop_prob = 0.02;
    sim.run_until(SECONDS);
    let m = monitor_of(&sim, tor);
    // Dedup suppressed most event packets (per-flow aggregation).
    assert!(m.stats.event_packets > 0);
    // Extraction compressed each report to 24 bytes.
    assert!(m.extractor.records > 0);
    assert!(m.extractor.reduction() > 0.5);
}
