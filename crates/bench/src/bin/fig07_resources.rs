//! Figure 7 — PDP resource usage: (a) overall usage of the combined
//! switch.p4 + NetSeer program per resource kind; (b) NetSeer's own usage
//! split by module (event detection, inter-switch, dedup, batching); and
//! the stage placement of the stateful structures the ledger charged.

use fet_bench::tag_ports;
use fet_pdp::resources::ALL_RESOURCE_KINDS;
use fet_pdp::{place, ResourceKind, TOFINO_PIPELINE};
use netseer::{NetSeerConfig, NetSeerMonitor, Role};

fn main() {
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    // Touch the fabric ports a deployed ToR would use, so per-port ring
    // buffers exist (32 tagged ports).
    tag_ports(&mut m, 0..32);
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
    let netseer_alu: f64 =
        modules.iter().map(|m| ledger.usage_fraction_by(m, ResourceKind::StatefulAlu)).sum();
    println!(
        "\n  NetSeer stateful-ALU total: {:.0}% (paper: ~40%, batching+inter-switch ~28%)",
        netseer_alu * 100.0
    );

    // Stage placement of what the ledger charged: the whole stateful
    // program must fit the pipeline, and every module's placed structures
    // must hold exactly the stateful ALUs the ledger charged it.
    let layout = place(TOFINO_PIPELINE, ledger.placements()).expect("NetSeer fits the pipeline");
    for module in modules {
        let charged = ledger.used_by(module, ResourceKind::StatefulAlu);
        assert_eq!(layout.alus_of(module), charged, "{module}: placed vs charged ALUs");
    }
    println!(
        "\n  stage placement: {} structures across {} of {} stages (ALUs/stage: {:?})",
        layout.placed.len(),
        layout.depth(),
        TOFINO_PIPELINE.stages,
        layout.alu_usage
    );
}
