//! Figure 10 — congestion event coverage per workload × monitor
//! (log-scale in the paper; we print ratios).

use fet_bench::{filter_gt, packet_coverage_of, run_experiment, InjectSpec, MonitorKind};
use fet_netsim::time::MILLIS;
use fet_packet::event::EventType;
use fet_workloads::distributions::ALL_WORKLOADS;

fn main() {
    // Congestion arises naturally from the 70% load + incast; no other
    // faults needed.
    let inject = InjectSpec { interswitch_burst: 0, blackhole: false, reroute: false };
    let monitors = [
        MonitorKind::NetSeer,
        MonitorKind::NetSight,
        MonitorKind::Sampling(10),
        MonitorKind::Sampling(100),
        MonitorKind::Sampling(1000),
        MonitorKind::Pingmesh,
    ];
    println!("=== Figure 10: congestion event coverage ratio ===");
    print!("  {:<10}", "workload");
    for m in monitors {
        print!(" {:>10}", m.label());
    }
    println!();
    for dist in ALL_WORKLOADS {
        print!("  {:<10}", dist.name);
        for kind in monitors {
            let mut out = run_experiment(dist, kind, &inject, 0xC0DE, 12 * MILLIS);
            let gt = filter_gt(&out.sim.gt, |e| e.ty == EventType::Congestion);
            let (c, t) = packet_coverage_of(&mut out.sim, kind, &gt, EventType::Congestion);
            let r = if t == 0 { 0.0 } else { c as f64 / t as f64 };
            print!(" {:>10}", format!("{:.2e}", r.max(1e-9)));
        }
        println!();
    }
    println!("\n  (paper: NetSeer/NetSight = 1.0; sampling ~1/k; Pingmesh ~2e-4)");
}
