//! Heap allocations per switch pass on a healthy fleet.
//!
//! The simulator's per-hop path (route lookup, ECMP hash, port table,
//! event wheel, kick-port bookkeeping) and NetSeer's healthy-packet hooks
//! should not touch the heap once warmed up: frames move by value and
//! every table is sized at construction. This test installs a counting
//! global allocator, runs a k=4 fat-tree with NetSeer on every switch and
//! NIC, and bounds the allocations of a steady-state millisecond by the
//! switch pipeline passes in it. `DESIGN.md` §16.5 lists what each cut
//! removed.

use fet_bench::counting_alloc::{allocations, CountingAlloc};
use fet_netsim::host::FlowSpec;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::MILLIS;
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::FlowKey;
use netseer::deploy::{deploy, monitor_of, DeployOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Data packets the switch pipelines have seen so far.
fn switch_passes(sim: &Simulator) -> u64 {
    sim.switch_ids().iter().map(|&id| monitor_of(sim, id).stats.packets_seen).sum()
}

#[test]
fn healthy_fleet_allocates_under_once_per_switch_pass() {
    let mut sim = Simulator::new();
    let params = FatTreeParams { pods: 4, cores: 4, ..FatTreeParams::default() };
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { on_nics: true, ..DeployOptions::default() });
    // Host i sends one long-lived flow to its mirror host n-1-i, so every
    // flow crosses the core and no link is oversubscribed.
    let n = ft.hosts.len();
    for s in 0..n {
        let key = FlowKey::tcp(ft.host_ips[s], 5_000 + s as u16, ft.host_ips[n - 1 - s], 80);
        let h = ft.hosts[s];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 1 << 40,
            pkt_payload: 1000,
            rate_gbps: 5.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
    }

    // Warm-up: first-touch growth (queues, wheel slots, per-flow tables,
    // frame arenas) is expected and excluded.
    sim.run_until(MILLIS);
    let (allocs0, passes0) = (allocations(), switch_passes(&sim));
    sim.run_until(2 * MILLIS);
    let allocs = allocations() - allocs0;
    let passes = switch_passes(&sim) - passes0;

    assert!(passes > 10_000, "too little traffic to measure: {passes} switch passes");
    let per_pass = allocs as f64 / passes as f64;
    let summary =
        format!("{allocs} allocations over {passes} switch passes = {per_pass:.2} per pass");
    println!("{summary}");
    assert!(per_pass <= 1.0, "{summary} (bound 1.0)");
}
