//! Topology construction. The primary builder reproduces the paper's
//! testbed: a 4-ary fat-tree with 10 Tofino switches (2 pods × (2 edge +
//! 2 agg) + 2 cores) and 8 servers on 25G links, 100G fabric links.

use crate::engine::{NodeId, Simulator};
use crate::host::{Host, HostConfig};
use crate::link::Link;
use crate::switchdev::{SwitchConfig, SwitchDevice};
use fet_packet::ipv4::Ipv4Addr;

/// Fabric (switch-to-switch) link speed, Gbps.
const FABRIC_GBPS: f64 = 100.0;

/// Fat-tree shape parameters.
#[derive(Debug, Clone)]
pub struct FatTreeParams {
    /// Number of pods.
    pub pods: usize,
    /// Edge (ToR) switches per pod.
    pub edge_per_pod: usize,
    /// Aggregation switches per pod.
    pub agg_per_pod: usize,
    /// Core switches (each core i attaches to agg i % agg_per_pod of every pod).
    pub cores: usize,
    /// Servers per edge switch.
    pub hosts_per_edge: usize,
    /// Host uplink speed, Gbps.
    pub host_gbps: f64,
    /// One-way propagation delay per link, ns.
    pub prop_ns: u64,
    /// Switch configuration template.
    pub switch_config: SwitchConfig,
    /// RNG seed for link fault streams.
    pub seed: u64,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        // The paper's testbed: 10 switches, 8 servers, 100G fabric, 4x25G
        // server links (we model one 25G uplink per server).
        FatTreeParams {
            pods: 2,
            edge_per_pod: 2,
            agg_per_pod: 2,
            cores: 2,
            hosts_per_edge: 2,
            host_gbps: 25.0,
            prop_ns: 500,
            switch_config: SwitchConfig::default(),
            seed: 0xfe75,
        }
    }
}

/// Handles to the constructed fat-tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Core switch ids.
    pub cores: Vec<NodeId>,
    /// Aggregation switches, per pod.
    pub aggs: Vec<Vec<NodeId>>,
    /// Edge (ToR) switches, per pod.
    pub edges: Vec<Vec<NodeId>>,
    /// Host ids, in (pod, edge, slot) order.
    pub hosts: Vec<NodeId>,
    /// Host IPs, parallel to `hosts`.
    pub host_ips: Vec<Ipv4Addr>,
}

impl FatTree {
    /// The host id owning an IP.
    pub fn host_by_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.host_ips.iter().position(|&h| h == ip).map(|i| self.hosts[i])
    }

    /// Every switch id.
    pub fn all_switches(&self) -> Vec<NodeId> {
        let mut v = self.cores.clone();
        for pod in &self.aggs {
            v.extend(pod);
        }
        for pod in &self.edges {
            v.extend(pod);
        }
        v
    }
}

/// Incremental topology builder used for bespoke test topologies.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    next_port: std::collections::HashMap<NodeId, u8>,
}

impl TopologyBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch with the next free id.
    pub fn switch(&mut self, sim: &mut Simulator, name: &str, config: SwitchConfig) -> NodeId {
        let id = sim.next_node_id();
        sim.add_switch(SwitchDevice::new(id, name, config))
    }

    /// Add a host with the next free id.
    pub fn host(&mut self, sim: &mut Simulator, config: HostConfig) -> NodeId {
        let id = sim.next_node_id();
        sim.add_host(Host::new(id, config))
    }

    /// Allocate the next free port number on a node.
    pub(crate) fn alloc_port(&mut self, node: NodeId) -> u8 {
        let p = self.next_port.entry(node).or_insert(0);
        let port = *p;
        *p += 1;
        port
    }

    /// Connect two nodes with auto-allocated ports. Returns (port_a, port_b).
    pub fn connect(
        &mut self,
        sim: &mut Simulator,
        a: NodeId,
        b: NodeId,
        gbps: f64,
        prop_ns: u64,
        seed: u64,
    ) -> (u8, u8) {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        sim.connect(a, pa, b, pb, Link::new(gbps, prop_ns, seed));
        (pa, pb)
    }
}

/// Deterministic host IP for (pod, edge, slot).
pub(crate) fn host_ip(pod: usize, edge: usize, slot: usize) -> Ipv4Addr {
    Ipv4Addr::from_octets([10, pod as u8, edge as u8, (slot + 1) as u8])
}

/// Build a fat-tree into `sim`. Ports are allocated in a fixed order, so
/// the same params always produce the same wiring.
pub fn build_fat_tree(sim: &mut Simulator, params: &FatTreeParams) -> FatTree {
    let mut b = TopologyBuilder::new();
    let mut seed = params.seed;
    let mut next_seed = || {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        seed
    };

    let cores: Vec<NodeId> = (0..params.cores)
        .map(|i| b.switch(sim, &format!("core{i}"), params.switch_config.clone()))
        .collect();
    let mut aggs = Vec::new();
    let mut edges = Vec::new();
    for p in 0..params.pods {
        let pod_aggs: Vec<NodeId> = (0..params.agg_per_pod)
            .map(|i| b.switch(sim, &format!("agg{p}_{i}"), params.switch_config.clone()))
            .collect();
        let pod_edges: Vec<NodeId> = (0..params.edge_per_pod)
            .map(|i| b.switch(sim, &format!("tor{p}_{i}"), params.switch_config.clone()))
            .collect();
        aggs.push(pod_aggs);
        edges.push(pod_edges);
    }

    // Core ↔ agg: core i serves agg (i % agg_per_pod) in every pod.
    for (ci, &core) in cores.iter().enumerate() {
        for pod_aggs in &aggs {
            let agg = pod_aggs[ci % params.agg_per_pod];
            b.connect(sim, core, agg, FABRIC_GBPS, params.prop_ns, next_seed());
        }
    }
    // Agg ↔ edge: full mesh within a pod.
    for (pod_aggs, pod_edges) in aggs.iter().zip(&edges) {
        for &agg in pod_aggs {
            for &edge in pod_edges {
                b.connect(sim, agg, edge, FABRIC_GBPS, params.prop_ns, next_seed());
            }
        }
    }
    // Hosts.
    let mut hosts = Vec::new();
    let mut host_ips = Vec::new();
    for (p, pod_edges) in edges.iter().enumerate() {
        for (e, &edge) in pod_edges.iter().enumerate() {
            for s in 0..params.hosts_per_edge {
                let ip = host_ip(p, e, s);
                let host = b.host(
                    sim,
                    HostConfig { ip, nic_gbps: params.host_gbps, ..HostConfig::default() },
                );
                b.connect(sim, edge, host, params.host_gbps, params.prop_ns, next_seed());
                hosts.push(host);
                host_ips.push(ip);
            }
        }
    }

    FatTree { cores, aggs, edges, hosts, host_ips }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        // 2 cores + 2 pods x (2 agg + 2 edge) = 10 switches; 8 hosts.
        assert_eq!(ft.all_switches().len(), 10);
        assert_eq!(ft.hosts.len(), 8);
        assert_eq!(sim.switch_ids().len(), 10);
        assert_eq!(sim.host_ids().len(), 8);
    }

    #[test]
    fn wiring_degrees() {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        let adj = sim.adjacency();
        // Each core touches one agg per pod.
        for &c in &ft.cores {
            assert_eq!(adj[&c].len(), 2);
        }
        // Each agg: 1 core + 2 edges.
        for pod in &ft.aggs {
            for &a in pod {
                assert_eq!(adj[&a].len(), 3);
            }
        }
        // Each edge: 2 aggs + 2 hosts.
        for pod in &ft.edges {
            for &e in pod {
                assert_eq!(adj[&e].len(), 4);
            }
        }
        // Hosts have exactly one uplink.
        for &h in &ft.hosts {
            assert_eq!(adj[&h].len(), 1);
        }
    }

    #[test]
    fn host_ips_unique_and_resolvable() {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        let mut ips = ft.host_ips.clone();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), ft.hosts.len());
        for (i, &ip) in ft.host_ips.iter().enumerate() {
            assert_eq!(ft.host_by_ip(ip), Some(ft.hosts[i]));
        }
        assert_eq!(ft.host_by_ip(Ipv4Addr::from_octets([9, 9, 9, 9])), None);
    }

    #[test]
    fn builder_allocates_distinct_ports() {
        let mut sim = Simulator::new();
        let mut b = TopologyBuilder::new();
        let s1 = b.switch(&mut sim, "s1", SwitchConfig::default());
        let s2 = b.switch(&mut sim, "s2", SwitchConfig::default());
        let (a1, b1) = b.connect(&mut sim, s1, s2, 100.0, 10, 1);
        let (a2, b2) = b.connect(&mut sim, s1, s2, 100.0, 10, 2);
        assert_ne!(a1, a2);
        assert_ne!(b1, b2);
        assert_eq!(sim.peer_of(s1, a1), Some((s2, b1)));
        assert_eq!(sim.peer_of(s2, b2), Some((s1, a2)));
    }
}

/// A multi-board (chassis) switch modeled as two line cards joined by a
/// backplane link — the substrate for NetSeer's *inter-card* drop
/// detection (paper §3.3: "In multi-board (card) switches, we use a
/// similar idea to detect inter-card packet drop"). Faults injected on
/// the backplane reproduce the "inter-card drop" class of Figure 3.
#[derive(Debug, Clone, Copy)]
pub struct Chassis {
    /// Line card A (front-panel ports 1.. face the outside).
    pub card_a: NodeId,
    /// Line card B.
    pub card_b: NodeId,
    /// Backplane port on card A (toward B).
    pub backplane_a: u8,
    /// Backplane port on card B (toward A).
    pub backplane_b: u8,
}

/// Build a two-card chassis into `sim`. The backplane runs at
/// `backplane_gbps` with negligible propagation.
pub fn build_chassis(
    sim: &mut Simulator,
    b: &mut TopologyBuilder,
    name: &str,
    config: SwitchConfig,
    backplane_gbps: f64,
    seed: u64,
) -> Chassis {
    let card_a = b.switch(sim, &format!("{name}_cardA"), config.clone());
    let card_b = b.switch(sim, &format!("{name}_cardB"), config);
    let (pa, pb) = b.connect(sim, card_a, card_b, backplane_gbps, 50, seed);
    Chassis { card_a, card_b, backplane_a: pa, backplane_b: pb }
}

#[cfg(test)]
mod chassis_tests {
    use super::*;

    #[test]
    fn chassis_wires_backplane() {
        let mut sim = Simulator::new();
        let mut b = TopologyBuilder::new();
        let ch = build_chassis(&mut sim, &mut b, "big", SwitchConfig::default(), 400.0, 1);
        assert_eq!(sim.peer_of(ch.card_a, ch.backplane_a), Some((ch.card_b, ch.backplane_b)));
        assert_eq!(sim.switch(ch.card_a).name, "big_cardA");
    }
}
