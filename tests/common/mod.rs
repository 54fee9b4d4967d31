//! Scenario helpers shared by the chaos drills (`tests/chaos.rs`) and the
//! parallel-determinism suite (`tests/determinism.rs`), so the latter
//! reruns exactly the chaos workloads.

use fet_netsim::host::FlowSpec;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::MILLIS;
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::FlowKey;
use netseer::deploy::{deploy, DeployOptions};
use netseer::{FaultPlan, NetSeerConfig};

/// Seed diversification for the CI matrix: when `CHAOS_SEED` is set, every
/// scenario's base seed is mixed with it so each matrix leg sweeps a
/// genuinely different (but still fully deterministic) run.
pub fn seed(base: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => base ^ s.trim().parse::<u64>().unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        Err(_) => base,
    }
}

/// The testbed fat-tree with ECMP routes and NetSeer on every switch and
/// NIC.
pub fn setup(cfg: NetSeerConfig) -> (Simulator, FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg, on_nics: true });
    (sim, ft)
}

/// A 5 Gbps TCP flow of `bytes` from host `src` to host `dst`, starting
/// at time 0.
pub fn add_flow(sim: &mut Simulator, ft: &FatTree, src: usize, dst: usize, sport: u16, bytes: u64) {
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

/// Cross-traffic plus lossy uplinks: a workload that reliably generates
/// path-change and inter-switch-drop events on every pod, and that lasts
/// several milliseconds so faults scheduled mid-run hit live traffic.
pub fn drive_lossy_fabric(sim: &mut Simulator, ft: &FatTree, drop_prob: f64) {
    for s in 0..8 {
        add_flow(sim, ft, s, 7 - s, 2000 + s as u16, 4_000_000);
    }
    for pod in 0..2 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = drop_prob;
        }
    }
}

/// A hard-kill drill's monitor configuration. In-pipeline dedup is off,
/// so every detection becomes an event and, under
/// [`drive_through_the_kills`], each kill finds some in flight: waiting in
/// the open CEBP for the next timer flush. With dedup on, a kill almost
/// always lands on an empty pending set and tests nothing about crash
/// loss or torn tails.
pub fn in_flight_at_kills(faults: FaultPlan) -> NetSeerConfig {
    NetSeerConfig {
        faults,
        enable_dedup: false,
        // A short checkpoint cadence keeps the exposure window tight.
        checkpoint_interval_ns: MILLIS,
        ..NetSeerConfig::default()
    }
}

/// Lossy traffic that outlasts a crash window of [2 ms, 10 ms) plus a
/// 500 µs restart: on top of [`drive_lossy_fabric`], reverse flows that
/// run past the last restart, and a 5% drop rate on all four ports of
/// every ToR (overriding that workload's 2%), so each ToR keeps raising
/// events while the kills land.
pub fn drive_through_the_kills(sim: &mut Simulator, ft: &FatTree) {
    drive_lossy_fabric(sim, ft, 0.02);
    for s in 0..8 {
        add_flow(sim, ft, 7 - s, s, 3000 + s as u16, 8_000_000);
    }
    for &tor in ft.edges.iter().flatten() {
        for port in 0..4 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = 0.05;
        }
    }
}
