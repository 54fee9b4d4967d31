//! Pins the simulator's event schedule across commits.
//!
//! The determinism suite (`tests/determinism.rs`) compares serial with
//! parallel runs of one build, so a change that reorders the schedule the
//! same way in both modes passes it. This test hashes what a faulted run
//! produces — the ground-truth trace in recording order, every port's
//! counters and serializer state, the delivered event stream, the
//! management bytes and the final clock — and compares the hash with a
//! constant. Engine optimisations must leave these constants alone; a
//! change that is meant to move the schedule updates them and says why.
//!
//! `events_processed` and the parallel executor's `SyncStats` are left
//! out: they count how the engine reached the schedule, not the schedule.

use fet_netsim::link::BurstDrop;
use fet_netsim::routing::{install_ecmp_routes, override_route, remove_route};
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::FlowKey;
use fet_workloads::distributions::DCTCP;
use fet_workloads::generator::{generate_incast, generate_traffic, TrafficParams};
use netseer::deploy::{delivered_history, deploy, DeployOptions};
use netseer::NetSeerConfig;

/// Simulated time each run covers.
const HORIZON: u64 = 2 * MILLIS;

/// FNV-1a over the `Debug` text of everything hashed, in order.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, v: &impl std::fmt::Debug) {
        for b in format!("{v:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
}

/// A k=4 fat-tree with NetSeer on every switch and NIC, DCTCP traffic,
/// a burst loss on two uplinks, a blackholed route, a rerouted victim
/// flow and an incast, run serially to `HORIZON`. Returns the hash.
fn schedule_hash(seed: u64) -> u64 {
    let mut sim = Simulator::new();
    let mut params = FatTreeParams { pods: 4, cores: 4, seed: seed ^ 0xfe75, ..Default::default() };
    params.switch_config.mmu.total_bytes = 256 * 1024;
    params.switch_config.congestion_threshold_ns = 20 * MICROS;
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg: NetSeerConfig::default(), on_nics: true });

    let tp = TrafficParams {
        utilization: 0.7,
        duration_ns: HORIZON,
        seed,
        max_flows: 300,
        ..Default::default()
    };
    generate_traffic(&mut sim, &ft, &DCTCP, &tp);
    let at = HORIZON / 4;
    let tor = ft.edges[0][0];
    for port in 0..2 {
        let dir = sim.link_direction_mut(tor, port).expect("ToR uplink");
        dir.faults.burst_drop = Some(BurstDrop { at_ns: at, count: 16, corrupt: false });
    }
    let (tor, vip) = (ft.edges[3][1], ft.host_ips[0]);
    sim.schedule_control(at, move |s| remove_route(s, tor, vip));
    let (tor, vip) = (ft.edges[0][1], ft.host_ips[7]);
    let victim = FlowKey::tcp(ft.host_ips[2], 61_000, vip, 443);
    let h = ft.hosts[2];
    let idx = sim.host_mut(h).add_flow(fet_netsim::host::FlowSpec {
        key: victim,
        total_bytes: 4_000_000,
        pkt_payload: 1000,
        rate_gbps: 4.0,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h, idx);
    sim.schedule_control(at, move |s| override_route(s, tor, vip, vec![0]));
    sim.schedule_control(2 * at, move |s| override_route(s, tor, vip, vec![1]));
    let sources: Vec<usize> = (0..7).collect();
    generate_incast(&mut sim, &ft, 7, &sources, 200_000, at);

    // Two legs, so the state between `run_until` calls is pinned too.
    sim.run_until(HORIZON / 2);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.add(&sim.now());
    sim.run_until(HORIZON);

    for ev in sim.gt.events() {
        h.add(ev);
    }
    for id in sim.switch_ids() {
        let sw = sim.switch(id);
        h.add(&sw.counters);
        h.add(&sw.port_busy);
    }
    for id in sim.host_ids() {
        let host = sim.host(id);
        h.add(&host.counters);
        h.add(&host.port_busy);
    }
    for ev in delivered_history(&sim) {
        h.add(&ev);
    }
    h.add(&sim.mgmt.total_bytes());
    h.add(&sim.now());
    h.0
}

#[test]
fn schedule_is_pinned_at_two_seeds() {
    assert_eq!(schedule_hash(1), 0x98db_9ea4_34e1_b7e0, "seed 1 schedule moved");
    assert_eq!(schedule_hash(2), 0xcff3_1b3c_6c92_6759, "seed 2 schedule moved");
}
