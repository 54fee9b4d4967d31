//! Figure 7 — PDP resource usage: (a) overall usage of the combined
//! switch.p4 + NetSeer program per resource kind; (b) NetSeer's own usage
//! split by module (event detection, inter-switch, dedup, batching).

use fet_netsim::monitor::{Actions, EgressCtx, SwitchMonitor};
use fet_packet::builder::build_data_packet;
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use fet_pdp::resources::ALL_RESOURCE_KINDS;
use fet_pdp::PacketMeta;
use netseer::{NetSeerConfig, NetSeerMonitor, Role};

fn main() {
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    // Touch the fabric ports a deployed ToR would use, so per-port ring
    // buffers exist (32 tagged ports).
    let meta = PacketMeta::arriving(0, 0, 64);
    for port in 0..32u8 {
        let flow = FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            u16::from(port),
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        );
        let mut f = build_data_packet(&flow, 100, 0, 0, 64);
        let ctx = EgressCtx {
            now_ns: 0,
            node: 0,
            port,
            queue: 0,
            peer_tagged: true,
            congested: false,
            meta: &meta,
        };
        let mut out = Actions::new();
        m.on_egress(&ctx, &mut f, &mut out);
    }
    let ledger = m.resource_usage();

    println!("=== Figure 7(a): overall PDP resource usage (switch.p4 + NetSeer) ===");
    println!("  {:<14} {:>8}  (paper: all <60%, stateful ALU highest ~40%+)", "resource", "usage");
    for kind in ALL_RESOURCE_KINDS {
        println!("  {:<14} {:7.1}%", kind.label(), ledger.usage_fraction(kind) * 100.0);
    }
    assert!(!ledger.over_budget(), "deployment must fit the chip");

    println!("\n=== Figure 7(b): NetSeer per-module usage ===");
    let modules = ["event-detection", "inter-switch", "dedup", "batching"];
    println!("  {:<16} per-resource % of chip", "module");
    for module in modules {
        print!("  {module:<16}");
        for kind in ALL_RESOURCE_KINDS {
            let f = ledger.usage_fraction_by(module, kind) * 100.0;
            if f > 0.05 {
                print!(" {}={:.1}%", kind.label(), f);
            }
        }
        println!();
    }
    let netseer_alu: f64 = modules
        .iter()
        .map(|m| ledger.usage_fraction_by(m, fet_pdp::ResourceKind::StatefulAlu))
        .sum();
    println!(
        "\n  NetSeer stateful-ALU total: {:.0}% (paper: ~40%, batching+inter-switch ~28%)",
        netseer_alu * 100.0
    );

    // Stage placement: the whole stateful program must fit 12 stages.
    let layout =
        fet_pdp::layout::place(fet_pdp::TOFINO_PIPELINE, &fet_pdp::layout::netseer_structures())
            .expect("NetSeer fits the pipeline");
    println!(
        "\n  stage placement: {} structures across {} of {} stages (ALUs/stage: {:?})",
        layout.placed.len(),
        layout.depth(),
        fet_pdp::TOFINO_PIPELINE.stages,
        layout.alu_usage
    );
}
