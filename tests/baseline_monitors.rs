//! Baselines behave like their real counterparts on the full simulation:
//! NetSight sees everything and pays for it; sampling thins linearly;
//! SNMP knows drops happened but not whose; EverFlow is blind off its
//! match set; Pingmesh raises existence alarms without naming flows.

use fet_bench::{
    coverage_of, deploy_monitor, filter_gt, overhead_of, packet_coverage_of, run_experiment,
    InjectSpec, MonitorKind,
};
use fet_netsim::engine::Node;
use fet_netsim::time::MILLIS;
use fet_packet::event::EventType;
use fet_workloads::distributions::{DCTCP, WEB};
use netseer::NetSeerConfig;

#[test]
fn netsight_full_coverage_heavy_overhead() {
    let inject = InjectSpec::default();
    let mut out = run_experiment(&WEB, MonitorKind::NetSight, &inject, 7, 10 * MILLIS);
    let gt = filter_gt(&out.sim.gt, |_| true);
    for ty in [EventType::PipelineDrop, EventType::InterSwitchDrop, EventType::Congestion] {
        let (c, t) = coverage_of(&mut out.sim, MonitorKind::NetSight, &gt, ty);
        assert!(t > 0);
        assert_eq!(c, t, "{ty}: {c}/{t}");
    }
    // Overhead orders of magnitude above NetSeer's.
    assert!(overhead_of(&out.sim) > 0.02, "netsight overhead {}", overhead_of(&out.sim));
}

#[test]
fn sampling_thins_with_k() {
    let inject = InjectSpec { interswitch_burst: 0, blackhole: false, reroute: false };
    let mut ratios = Vec::new();
    for k in [10u64, 100, 1000] {
        let mut out = run_experiment(&DCTCP, MonitorKind::Sampling(k), &inject, 7, 10 * MILLIS);
        let gt = filter_gt(&out.sim.gt, |e| e.ty == EventType::Congestion);
        let (c, t) =
            packet_coverage_of(&mut out.sim, MonitorKind::Sampling(k), &gt, EventType::Congestion);
        assert!(t > 0);
        let r = c as f64 / t as f64;
        // Within 3x of 1/k.
        assert!(r < 3.0 / k as f64 && r > 1.0 / (3.0 * k as f64), "1:{k} coverage {r}");
        ratios.push(r);
    }
    assert!(ratios[0] > ratios[1] && ratios[1] > ratios[2]);
}

#[test]
fn snmp_sees_device_level_drops_only() {
    use fet_baselines::SnmpMonitor;
    let inject = InjectSpec::default();
    let out = run_experiment(&WEB, MonitorKind::Snmp, &inject, 7, 10 * MILLIS);
    // Some switch saw drops at the counter level...
    let mut any_saw = false;
    for id in out.sim.switch_ids() {
        let Node::Switch(sw) = &out.sim.nodes[id as usize] else { continue };
        if let Some(m) = sw.monitor.as_ref() {
            if let Some(snmp) = m.as_any().downcast_ref::<SnmpMonitor>() {
                any_saw |= snmp.saw_drops();
            }
        }
    }
    assert!(any_saw, "SNMP should at least see drop counters move");
}

#[test]
fn everflow_blind_outside_match_set() {
    let inject = InjectSpec::default();
    let mut out = run_experiment(&DCTCP, MonitorKind::EverFlow, &inject, 7, 10 * MILLIS);
    let gt = filter_gt(&out.sim.gt, |_| true);
    let (c, t) = coverage_of(&mut out.sim, MonitorKind::EverFlow, &gt, EventType::MmuDrop);
    assert!(t > 0);
    assert!((c as f64) < 0.2 * t as f64, "EverFlow MMU-drop coverage too high: {c}/{t}");
}

#[test]
fn pingmesh_detects_existence_not_flows() {
    use fet_netsim::routing::install_ecmp_routes;
    use fet_netsim::topology::{build_fat_tree, FatTreeParams};
    use fet_netsim::Simulator;
    use fet_workloads::generator::generate_incast;

    let mut params = FatTreeParams::default();
    params.switch_config.mmu.total_bytes = 64 * 1024;
    // Small buffers mean short queues: lower the congestion threshold so
    // the incast's ~14 us queues register as congestion events.
    params.switch_config.congestion_threshold_ns = 5 * fet_netsim::MICROS;
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy_monitor(&mut sim, MonitorKind::Pingmesh, &NetSeerConfig::default());
    generate_incast(&mut sim, &ft, 0, &[1, 2, 3, 4, 5, 6, 7], 3_000_000, 5 * MILLIS);
    sim.run_until(60 * MILLIS);

    // Existence: probes got delayed or lost during the incast.
    let hosts = sim.host_ids();
    let saw = fet_baselines::pingmesh_saw_slowness(&sim, &hosts, 8_000, 0, 60 * MILLIS)
        || fet_baselines::pingmesh_saw_loss(&sim, &hosts);
    assert!(saw, "pingmesh should notice the incast");
    // But flow-level coverage stays negligible.
    let (c, t) = fet_baselines::pingmesh_congestion_coverage(&sim.gt);
    assert!(t > 0);
    assert!((c as f64) < 0.25 * t as f64, "pingmesh coverage {c}/{t}");
}
