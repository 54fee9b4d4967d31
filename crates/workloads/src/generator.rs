//! Poisson traffic generation targeting a link utilization with a fan-in
//! pattern, mirroring the paper's §5.2 setup ("8 clients communicate with
//! 32 servers. Each client has 100K flows and a fan-in ratio of 4 ...
//! average link utilization 70%").

use crate::distributions::FlowSizeDist;
use fet_netsim::host::FlowSpec;
use fet_netsim::rng::Pcg32;
use fet_netsim::topology::FatTree;
use fet_netsim::Simulator;
use fet_packet::FlowKey;

/// Fan-in: each destination receives from this many sources (§5.2).
const FAN_IN: usize = 4;

/// Per-flow pacing rate, Gbps.
const FLOW_RATE_GBPS: f64 = 5.0;

/// Traffic generation parameters.
#[derive(Debug, Clone)]
pub struct TrafficParams {
    /// Target average utilization of host uplinks (0..1).
    pub utilization: f64,
    /// Traffic runs from 0 to this horizon, ns.
    pub duration_ns: u64,
    /// Payload bytes per packet.
    pub pkt_payload: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard cap on generated flows (keeps short experiments bounded).
    pub max_flows: usize,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            utilization: 0.7,
            duration_ns: 50 * fet_netsim::MILLIS,
            pkt_payload: 1000,
            seed: 0x1337,
            max_flows: 50_000,
        }
    }
}

/// Generate flows into the simulator's hosts and schedule them.
/// Returns the flow keys created (for completion verification).
pub fn generate_traffic(
    sim: &mut Simulator,
    ft: &FatTree,
    dist: &FlowSizeDist,
    params: &TrafficParams,
) -> Vec<FlowKey> {
    let mut rng = Pcg32::new(params.seed, 9);
    let n_hosts = ft.hosts.len();
    assert!(n_hosts >= 2, "need at least two hosts");
    let mean = dist.mean_bytes();
    // Aggregate offered load across all uplinks.
    let host_gbps: f64 = ft.hosts.iter().map(|&h| sim.host(h).config.nic_gbps).sum();
    let target_bps = params.utilization * host_gbps * 1e9;
    let flows_per_sec = target_bps / (mean * 8.0);
    let mean_gap_ns = 1e9 / flows_per_sec;

    let mut keys = Vec::new();
    let mut t = 0.0_f64;
    let mut sport = 10_000u16;
    while (t as u64) < params.duration_ns && keys.len() < params.max_flows {
        t += rng.exponential(mean_gap_ns);
        let start_ns = t as u64;
        if start_ns >= params.duration_ns {
            break;
        }
        let src = rng.next_below(n_hosts as u32) as usize;
        // Fan-in pattern: each source sends to the next `FAN_IN` hosts, so
        // every destination receives from exactly `FAN_IN` sources.
        let fan = FAN_IN.clamp(1, n_hosts - 1);
        let offset = rng.next_below(fan as u32) as usize;
        let dst = (src + 1 + offset) % n_hosts;
        let size = dist.sample(&mut rng).max(1);
        sport = sport.wrapping_add(1).max(10_000);
        let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
        let h = ft.hosts[src];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: size,
            pkt_payload: params.pkt_payload,
            rate_gbps: FLOW_RATE_GBPS,
            start_ns,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
        keys.push(key);
    }
    keys
}

/// An incast: `sources` hosts blast one destination simultaneously
/// (the paper's congestion/MMU-drop producer).
pub fn generate_incast(
    sim: &mut Simulator,
    ft: &FatTree,
    dst: usize,
    sources: &[usize],
    bytes_per_source: u64,
    start_ns: u64,
) -> Vec<FlowKey> {
    let mut keys = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        if src == dst {
            continue;
        }
        let key = FlowKey::tcp(ft.host_ips[src], 40_000 + i as u16, ft.host_ips[dst], 9000);
        let h = ft.hosts[src];
        let rate = sim.host(h).config.nic_gbps;
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: bytes_per_source,
            pkt_payload: 1000,
            rate_gbps: rate,
            start_ns,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
        keys.push(key);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{CACHE, WEB};
    use fet_netsim::routing::install_ecmp_routes;
    use fet_netsim::topology::{build_fat_tree, FatTreeParams};

    fn setup() -> (Simulator, FatTree) {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        install_ecmp_routes(&mut sim);
        (sim, ft)
    }

    #[test]
    fn generates_flows_within_horizon() {
        let (mut sim, ft) = setup();
        let params = TrafficParams { duration_ns: 10 * fet_netsim::MILLIS, ..Default::default() };
        let keys = generate_traffic(&mut sim, &ft, &WEB, &params);
        assert!(!keys.is_empty());
        assert!(keys.len() <= params.max_flows);
        // All sources/destinations are real, distinct hosts.
        for k in &keys {
            assert!(ft.host_by_ip(k.src).is_some());
            assert!(ft.host_by_ip(k.dst).is_some());
            assert_ne!(k.src, k.dst);
        }
    }

    #[test]
    fn utilization_roughly_targets_load() {
        let (mut sim, ft) = setup();
        let params = TrafficParams {
            utilization: 0.5,
            duration_ns: 20 * fet_netsim::MILLIS,
            max_flows: 1_000_000,
            ..Default::default()
        };
        let _ = generate_traffic(&mut sim, &ft, &CACHE, &params);
        sim.run_until(40 * fet_netsim::MILLIS);
        // Offered bytes over the duration vs aggregate uplink capacity.
        let sent = sim.host_tx_bytes() as f64 * 8.0;
        let capacity = 8.0 * 25e9 * (params.duration_ns as f64 * 1e-9);
        let u = sent / capacity;
        assert!((0.2..=0.9).contains(&u), "achieved utilization {u}");
    }

    #[test]
    fn deterministic_for_seed() {
        let gen = |seed| {
            let (mut sim, ft) = setup();
            let params =
                TrafficParams { seed, duration_ns: 5 * fet_netsim::MILLIS, ..Default::default() };
            generate_traffic(&mut sim, &ft, &WEB, &params)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn incast_targets_one_destination() {
        let (mut sim, ft) = setup();
        let keys = generate_incast(&mut sim, &ft, 0, &[1, 2, 3, 4, 5, 6, 7], 100_000, 0);
        assert_eq!(keys.len(), 7);
        assert!(keys.iter().all(|k| k.dst == ft.host_ips[0]));
        sim.run_until(fet_netsim::SECONDS);
        let rx: u64 = sim.host(ft.hosts[0]).rx_flows.values().map(|s| s.pkts).sum();
        assert!(rx > 0);
    }
}
