//! Incast congestion (the paper's case #4, "unexpected volume"): many
//! senders converge on one server; NetSeer's MMU-drop and congestion
//! events name the hog flows an operator should reschedule — visibility
//! that interface counters cannot give.
//!
//! Run with: `cargo run --release --example incast_congestion`

use netseer_repro::fet_netsim::routing::install_ecmp_routes;
use netseer_repro::fet_netsim::time::MILLIS;
use netseer_repro::fet_netsim::topology::{build_fat_tree, FatTreeParams};
use netseer_repro::fet_netsim::Simulator;
use netseer_repro::fet_packet::EventType;
use netseer_repro::fet_workloads::generator::{generate_incast, generate_traffic, TrafficParams};
use netseer_repro::netseer::deploy::{collect_events, deploy, DeployOptions};
use netseer_repro::netseer::Query;
use std::collections::HashMap;

fn main() {
    let mut params = FatTreeParams::default();
    params.switch_config.mmu.total_bytes = 128 * 1024; // small buffers
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions::default());

    // Normal background traffic...
    let tp = TrafficParams {
        utilization: 0.3,
        duration_ns: 30 * MILLIS,
        max_flows: 1_000,
        ..Default::default()
    };
    generate_traffic(&mut sim, &ft, &netseer_repro::fet_workloads::distributions::WEB, &tp);
    // ...plus somebody's 6-way incast into host 0 at t = 5 ms.
    let hogs = generate_incast(&mut sim, &ft, 0, &[2, 3, 4, 5, 6, 7], 3_000_000, 5 * MILLIS);

    sim.run_until(50 * MILLIS);

    let store = collect_events(&mut sim);
    let tor = ft.edges[0][0]; // host 0's ToR
    let drops = store.query(&Query::any().device(tor).ty(EventType::MmuDrop));
    println!(
        "MMU-drop events at '{}': {} (ground truth drops: {})",
        sim.switch(tor).name,
        drops.len(),
        sim.gt.count(EventType::MmuDrop),
    );

    // Who contributed most? Sort flows by their aggregated drop counters.
    let mut per_flow: HashMap<_, u32> = HashMap::new();
    for e in &drops {
        let c = per_flow.entry(e.record.flow).or_insert(0);
        *c = (*c).max(u32::from(e.record.counter));
    }
    let mut ranked: Vec<_> = per_flow.into_iter().collect();
    // Ties break by flow key: the map's order differs on every run.
    ranked.sort_by_key(|&(flow, c)| (std::cmp::Reverse(c), flow));
    println!("\ntop flows by dropped packets (the candidates to reschedule):");
    for (flow, count) in ranked.iter().take(8) {
        let is_hog = hogs.contains(flow);
        println!("  {flow}  dropped>={count:<6} {}", if is_hog { "<- hog" } else { "" });
    }
    // The incast hogs must dominate the top of the list.
    let top: Vec<_> = ranked.iter().take(hogs.len()).map(|(f, _)| *f).collect();
    let found = hogs.iter().filter(|h| top.contains(h)).count();
    println!("\n=> {found}/{} hog flows identified from drop counters alone", hogs.len());

    let congestion = store.query(&Query::any().device(tor).ty(EventType::Congestion));
    println!("congestion events at the same ToR: {}", congestion.len());
}
