//! The five real NPA case studies of §5.1, reproduced as scripted fault
//! scenarios on the testbed topology, plus the SLA-violation experiment of
//! Figure 8(b).
//!
//! Each case builds the fat-tree, starts background + victim traffic, and
//! injects the case's fault at a known time. The Figure 8(a) harness then
//! measures how long NetSeer needs before the backend can answer the
//! operator's query, and adds the paper's human-phase constants (e.g.
//! case #2's 11 minutes of client communication) which no monitor removes.

use crate::generator::{generate_incast, generate_traffic, TrafficParams};
use fet_netsim::host::FlowSpec;
use fet_netsim::routing::{install_ecmp_routes, override_route, remove_route};
use fet_netsim::time::MILLIS;
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use fet_pdp::table::{AclAction, AclRule};

/// Which §5.1 incident to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseId {
    /// #1 Routing error due to network updates (wrong entry in a core).
    RoutingError,
    /// #2 ACL configuration error (new VM cannot reach the network).
    AclError,
    /// #3 Silent drop due to parity error (memory bit flip kills a route).
    ParityError,
    /// #4 Congestion due to unexpected volume (elephant incast on a core path).
    UnexpectedVolume,
    /// #5 SSD firmware bug (MMU drops at the storage POD's ToR while the
    /// real culprit is the host — NetSeer's job is *exoneration*).
    SsdFirmwareBug,
}

/// All five cases in paper order.
pub const ALL_CASES: [CaseId; 5] = [
    CaseId::RoutingError,
    CaseId::AclError,
    CaseId::ParityError,
    CaseId::UnexpectedVolume,
    CaseId::SsdFirmwareBug,
];

/// Paper constants for Figure 8(a), per case.
#[derive(Debug, Clone, Copy)]
pub struct CasePaperData {
    /// Case label.
    pub label: &'static str,
    /// Location time without NetSeer, minutes (Fig. 8a, right bars).
    pub minutes_without: f64,
    /// Human phases NetSeer cannot remove (client communication etc.),
    /// minutes — the with-NetSeer bar is this plus detection+query time.
    pub human_minutes: f64,
    /// The event type whose report cracks the case.
    pub key_event: EventType,
}

impl CaseId {
    /// The paper's published numbers and diagnosis shape for this case.
    pub fn paper(self) -> CasePaperData {
        match self {
            CaseId::RoutingError => CasePaperData {
                label: "#1 routing error",
                minutes_without: 162.0,
                human_minutes: 0.0,
                key_event: EventType::PathChange,
            },
            CaseId::AclError => CasePaperData {
                label: "#2 ACL config error",
                minutes_without: 28.0,
                human_minutes: 10.9, // obtaining affected flows from the client
                key_event: EventType::PipelineDrop,
            },
            CaseId::ParityError => CasePaperData {
                label: "#3 parity error",
                minutes_without: 442.0,
                human_minutes: 0.0,
                key_event: EventType::PipelineDrop,
            },
            CaseId::UnexpectedVolume => CasePaperData {
                label: "#4 unexpected volume",
                minutes_without: 60.0,
                human_minutes: 0.0,
                key_event: EventType::MmuDrop,
            },
            CaseId::SsdFirmwareBug => CasePaperData {
                label: "#5 SSD firmware bug",
                minutes_without: 284.0,
                human_minutes: 27.0, // storage-side debugging after exoneration
                key_event: EventType::MmuDrop,
            },
        }
    }
}

/// A constructed scenario, ready to run.
pub struct BuiltCase {
    /// The simulator, traffic scheduled and fault scripted.
    pub sim: Simulator,
    /// The customer's affected flows (what the operator knows going in).
    pub victim_flows: Vec<FlowKey>,
    /// Ground-truth faulty device (what the diagnosis must find).
    pub fault_device: u32,
    /// When the fault activates, ns.
    pub fault_at_ns: u64,
    /// Suggested run horizon, ns.
    pub horizon_ns: u64,
}

/// Build one case. Monitors are NOT attached — the harness deploys
/// whichever monitor it evaluates before running.
pub fn build_case(case: CaseId, seed: u64) -> BuiltCase {
    let mut params = FatTreeParams::default();
    if case == CaseId::UnexpectedVolume || case == CaseId::SsdFirmwareBug {
        // Small buffers so volume translates into drops quickly.
        params.switch_config.mmu.total_bytes = 128 * 1024;
    }
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);

    // Background load.
    let t = TrafficParams {
        utilization: 0.2,
        duration_ns: 40 * MILLIS,
        seed,
        max_flows: 2_000,
        ..Default::default()
    };
    let _bg = generate_traffic(&mut sim, &ft, &crate::distributions::WEB, &t);

    let fault_at_ns = 10 * MILLIS;
    let horizon_ns = 60 * MILLIS;

    // The customer's flows: host 0 (pod 0) talking to host 7 (pod 1).
    let victim_key = FlowKey::tcp(ft.host_ips[0], 55_000, ft.host_ips[7], 443);
    let h0 = ft.hosts[0];
    let idx = sim.host_mut(h0).add_flow(FlowSpec {
        key: victim_key,
        total_bytes: 20_000_000,
        pkt_payload: 1000,
        rate_gbps: 5.0,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h0, idx);
    let mut victim_flows = vec![victim_key];

    let fault_device;
    match case {
        CaseId::RoutingError => {
            // A bad update points core0's route for the victim back into
            // pod 0 — a forwarding loop that TTL-expires, with path-change
            // events at every switch involved.
            let core = ft.cores[0];
            let vip = ft.host_ips[7];
            fault_device = core;
            sim.schedule_control(fault_at_ns, move |s| {
                override_route(s, core, vip, vec![0]);
            });
        }
        CaseId::AclError => {
            // Misconfigured deny on the victim's ToR.
            let tor = ft.edges[0][0];
            fault_device = tor;
            sim.schedule_control(fault_at_ns, move |s| {
                s.switch_mut(tor).acl.install(AclRule {
                    rule_id: 7_001,
                    priority: 1,
                    src: None,
                    dst: None,
                    sport: None,
                    dport: Some(443),
                    proto: None,
                    action: AclAction::Deny,
                });
            });
        }
        CaseId::ParityError => {
            // A bit flip corrupts agg0_0's route for the victim: lookups
            // miss, packets silently blackhole (outside syslog's view).
            let agg = ft.aggs[0][0];
            let vip = ft.host_ips[7];
            fault_device = agg;
            sim.schedule_control(fault_at_ns, move |s| {
                remove_route(s, agg, vip);
            });
        }
        CaseId::UnexpectedVolume => {
            // Another customer's incast floods the victim's destination ToR.
            fault_device = ft.edges[1][1];
            let dst = 7;
            let sources: Vec<usize> = (1..7).collect();
            let keys = generate_incast(&mut sim, &ft, dst, &sources, 5_000_000, fault_at_ns);
            // The hogs, not the victim, are what the operator must find.
            victim_flows.extend(keys);
        }
        CaseId::SsdFirmwareBug => {
            // Storage servers burst at the POD ToR; MMU drops appear, but
            // the root cause is host-side. NetSeer's value: precisely
            // quantifying which storage packets the network did drop.
            fault_device = ft.edges[1][1];
            let keys = generate_incast(&mut sim, &ft, 7, &[4, 5, 6], 8_000_000, fault_at_ns);
            victim_flows.extend(keys);
        }
    }

    BuiltCase { sim, victim_flows, fault_device, fault_at_ns, horizon_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_builds_and_faults() {
        for case in ALL_CASES {
            let mut built = build_case(case, 42);
            built.sim.run_until(built.horizon_ns);
            let paper = case.paper();
            // The fault must actually produce the case's key event type.
            let n = built.sim.gt.count(paper.key_event);
            assert!(n > 0, "{:?}: no {} events", case, paper.key_event);
        }
    }

    #[test]
    fn routing_error_loops_and_drops() {
        let mut built = build_case(CaseId::RoutingError, 1);
        built.sim.run_until(built.horizon_ns);
        // TTL-expiry pipeline drops from the loop.
        let drops = built
            .sim
            .gt
            .events()
            .iter()
            .filter(|e| e.drop_code == Some(fet_packet::event::DropCode::TtlExpired))
            .count();
        assert!(drops > 0, "expected TTL-expired drops from the loop");
    }

    #[test]
    fn acl_case_hits_victim_only_port() {
        let mut built = build_case(CaseId::AclError, 1);
        built.sim.run_until(built.horizon_ns);
        let fe = built.sim.gt.flow_events(EventType::PipelineDrop);
        assert!(fe.contains(&(built.fault_device, built.victim_flows[0])));
    }

    #[test]
    fn cases_are_deterministic() {
        let run = |seed| {
            let mut b = build_case(CaseId::ParityError, seed);
            b.sim.run_until(b.horizon_ns);
            b.sim.gt.events().len()
        };
        assert_eq!(run(9), run(9));
    }
}
