//! Ablation: event response latency vs batch size. §3.5 notes that
//! "circulating event batching could prolong the event response latency
//! by a few microseconds"; the control-plane timer bounds the tail for
//! half-full CEBPs. This harness measures detection → backend latency
//! percentiles at several batch sizes and event rates.

use fet_netsim::monitor::{Actions, IngressCtx, SwitchMonitor};
use fet_packet::event::DropCode;
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use netseer::{NetSeerConfig, NetSeerMonitor, Role};
use std::collections::HashMap;

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 + n),
        (n % 60_000) as u16,
        Ipv4Addr::from_octets([10, 250, 0, 1]),
        80,
    )
}

/// Drive one monitor with `n_events` distinct-flow drop events spaced
/// `gap_ns` apart; return per-event latencies (ns).
fn measure(batch_size: u16, gap_ns: u64, n_events: u32) -> Vec<u64> {
    let cfg = NetSeerConfig { batch_size, ..NetSeerConfig::default() };
    let timer = netseer::monitor::TIMER_INTERVAL_NS;
    let mut m = NetSeerMonitor::new(0, Role::Switch, cfg);
    let mut inject_time: HashMap<FlowKey, u64> = HashMap::new();
    let mut out = Actions::new();
    let frame = fet_packet::builder::build_data_packet(&flow(0), 100, 0, 0, 64);
    let mut t = 0u64;
    let mut next_timer = timer;
    for n in 0..n_events {
        t += gap_ns;
        while next_timer <= t {
            m.on_timer(next_timer, &[], &mut out);
            next_timer += timer;
        }
        let f = flow(n);
        inject_time.insert(f, t);
        let ictx = IngressCtx::parse(t, 0, 1, &frame);
        m.on_pipeline_drop(&ictx, &frame, Some(f), DropCode::TableMiss, Some(2), 0, &mut out);
    }
    // Run timers until everything flushes.
    for _ in 0..200 {
        next_timer += timer;
        m.on_timer(next_timer, &[], &mut out);
    }
    m.delivered
        .iter()
        .filter_map(|e| inject_time.get(&e.record.flow).map(|&ti| e.time_ns.saturating_sub(ti)))
        .collect()
}

fn pct(lat: &mut [u64], q: f64) -> f64 {
    lat.sort_unstable();
    if lat.is_empty() {
        return f64::NAN;
    }
    lat[((lat.len() - 1) as f64 * q) as usize] as f64 / 1_000.0
}

fn main() {
    println!("=== Ablation: event response latency (detection -> backend) ===");
    println!("  (includes the reliable-transport RTT/2 of 25 us; the batching");
    println!("   contribution is the spread across batch sizes and rates)");
    println!(
        "\n  {:>6} {:>14} {:>12} {:>12} {:>12}",
        "batch", "event rate", "p50 (us)", "p90 (us)", "p99 (us)"
    );
    for &batch in &[1u16, 10, 50] {
        for &(gap, label) in &[(200u64, "5 Meps"), (10_000, "100 Keps"), (1_000_000, "1 Keps")] {
            let mut lat = measure(batch, gap, 2_000);
            println!(
                "  {batch:>6} {label:>14} {:>12.1} {:>12.1} {:>12.1}",
                pct(&mut lat, 0.5),
                pct(&mut lat, 0.9),
                pct(&mut lat, 0.99)
            );
        }
    }
    println!("\n  At high event rates CEBPs fill in microseconds (the paper's 'a few");
    println!("  microseconds'); at low rates the 100 us control-plane flush bounds");
    println!("  the tail instead of letting events age in a half-full CEBP.");
}
