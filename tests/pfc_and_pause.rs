//! End-to-end PFC: lossless priorities pause instead of dropping, and
//! NetSeer's pause detector reports the affected flows (the event class
//! the paper could not exercise on its SmartNICs — footnote 1 — but which
//! the simulator covers fully).

use fet_netsim::host::FlowSpec;
use fet_netsim::mmu::MmuConfig;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::MILLIS;
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use netseer::deploy::{collect_events, deploy, DeployOptions};

fn lossless_params() -> FatTreeParams {
    let mut params = FatTreeParams::default();
    params.switch_config.pfc_priorities = 0x01; // priority 0 is lossless
    params.switch_config.mmu = MmuConfig {
        total_bytes: 256 * 1024,
        alpha: 8.0,
        pfc_xoff_bytes: 40 * 1024,
        pfc_xon_bytes: 10 * 1024,
        queues_per_port: 8,
    };
    params
}

fn run_incast(params: FatTreeParams) -> (Simulator, fet_netsim::topology::FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions::default());
    // 5-way incast into host 0 on the lossless class.
    for (i, src) in [2usize, 3, 4, 5, 6].into_iter().enumerate() {
        let key = FlowKey::tcp(ft.host_ips[src], 42_000 + i as u16, ft.host_ips[0], 9000);
        let h = ft.hosts[src];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 2_000_000,
            pkt_payload: 1000,
            rate_gbps: 25.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
    }
    sim.run_until(50 * MILLIS);
    (sim, ft)
}

#[test]
fn pfc_generates_pause_events_and_netseer_reports_them() {
    let (mut sim, ft) = run_incast(lossless_params());
    let gt_pause = sim.gt.flow_events(EventType::Pause);
    assert!(!gt_pause.is_empty(), "incast on a lossless class must pause");
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::Pause);
    let covered = gt_pause.iter().filter(|fe| seen.contains(fe)).count();
    assert_eq!(covered, gt_pause.len(), "pause coverage {covered}/{}", gt_pause.len());
    // PFC frames actually crossed the fabric.
    let pfc_tx: u64 = ft
        .all_switches()
        .iter()
        .map(|&s| sim.switch(s).counters.iter().map(|c| c.pfc_tx).sum::<u64>())
        .sum();
    assert!(pfc_tx > 0, "switches should have sent PAUSE frames");
}

#[test]
fn lossless_class_drops_less_than_lossy() {
    let (sim_lossless, _) = run_incast(lossless_params());
    let mut lossy = lossless_params();
    lossy.switch_config.pfc_priorities = 0;
    let (sim_lossy, _) = run_incast(lossy);
    let drops_lossless = sim_lossless.gt.count(EventType::MmuDrop);
    let drops_lossy = sim_lossy.gt.count(EventType::MmuDrop);
    assert!(
        drops_lossless < drops_lossy / 2 || drops_lossless == 0,
        "PFC should sharply reduce drops: lossless {drops_lossless} vs lossy {drops_lossy}"
    );
}

#[test]
fn pause_state_clears_and_traffic_completes() {
    let (sim, ft) = run_incast(lossless_params());
    // All incast bytes eventually arrive (paused, not dropped).
    let rx: u64 = sim.host(ft.hosts[0]).rx_flows.values().map(|s| s.bytes).sum();
    assert!(rx >= 5 * 2_000_000, "lossless incast should deliver everything, got {rx}");
}

#[test]
fn repeated_lossless_incast_reproduces_ground_truth() {
    // When one egress queue paused several ingress ports, draining below
    // XON resumes all of them at once, in port order (the order itself is
    // pinned by `switchdev`'s `xon_resumes_paused_upstreams_in_port_order`).
    // Two runs in one process draw different hash seeds, so nothing
    // hash-ordered may reach the recorded history.
    let (a, _) = run_incast(lossless_params());
    let (b, _) = run_incast(lossless_params());
    assert!(!a.gt.events().is_empty());
    assert!(a.gt.events() == b.gt.events(), "same scenario, different ground truth");
    assert_eq!(a.events_processed(), b.events_processed());
}
