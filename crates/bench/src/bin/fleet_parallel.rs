//! Fleet-simulation throughput: serial vs the deterministic parallel
//! executor at 1/2/4/8 shards, on a fleet large enough that sharding has
//! real work to spread (4 pods, 64 hosts, every device running NetSeer).
//!
//! Two things are measured and committed to `BENCH_fleet_parallel.json`:
//!
//! * **correctness** — every parallel run's observable fingerprint
//!   (delivered events, ledgers, ground truth, management bytes) must be
//!   bit-identical to the serial run, or the bench aborts;
//! * **throughput** — simulated packets per wall-second per shard count;
//!   `speedup_4x` (4 shards vs serial) is the acceptance headline.
//!
//! One untimed serial run warms the process up first. Each shard count is
//! then timed as a pair with its own serial leg, and the pair's order
//! alternates from one shard count to the next, so neither side always
//! runs first.

use fet_netsim::host::FlowSpec;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::FlowKey;
use netseer::deploy::{delivered_history, deploy, fleet_ledger, monitor_of, DeployOptions};
use netseer::{DeliveryLedger, NetSeerConfig, StoredEvent};
use std::time::Instant;

const HORIZON: u64 = 6 * MILLIS;

/// A fleet big enough to parallelize: 4 pods (20 switches — 8 edge, 8
/// aggregation, 4 core — and 64 hosts, 84 devices) with long-haul links
/// (5 µs propagation), giving the conservative executor a wide
/// cross-shard lookahead window per epoch.
fn params() -> FatTreeParams {
    FatTreeParams {
        pods: 4,
        cores: 4,
        hosts_per_edge: 8,
        prop_ns: 5 * MICROS,
        ..FatTreeParams::default()
    }
}

fn build() -> (Simulator, FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &params());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg: NetSeerConfig::default(), on_nics: true });
    // All-to-all-ish load: every host sends to its mirror host in the
    // opposite pod, plus lossy uplinks so events flow fleet-wide.
    let n = ft.hosts.len();
    for s in 0..n {
        let d = n - 1 - s;
        if s == d {
            continue;
        }
        let key = FlowKey::tcp(ft.host_ips[s], 2_000 + s as u16, ft.host_ips[d], 80);
        let h = ft.hosts[s];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 2_000_000,
            pkt_payload: 1000,
            rate_gbps: 5.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
    }
    for pod in 0..4 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = 0.002;
        }
    }
    (sim, ft)
}

struct Outcome {
    devices: usize,
    delivered: Vec<StoredEvent>,
    ledger: DeliveryLedger,
    gt_len: usize,
    mgmt_bytes: u64,
    pkts: u64,
    secs: f64,
    sync: fet_netsim::SyncStats,
}

fn run(shards: usize) -> Outcome {
    let (mut sim, _ft) = build();
    let start = Instant::now();
    if shards == 0 {
        sim.run_until(HORIZON);
    } else {
        sim.run_until_parallel(HORIZON, shards);
    }
    let secs = start.elapsed().as_secs_f64();
    let pkts: u64 =
        sim.switch_ids().into_iter().map(|id| monitor_of(&sim, id).stats.packets_seen).sum();
    Outcome {
        devices: sim.switch_ids().len() + sim.host_ids().len(),
        delivered: delivered_history(&sim),
        ledger: fleet_ledger(&sim),
        gt_len: sim.gt.events().len(),
        mgmt_bytes: sim.mgmt.total_bytes(),
        pkts,
        secs,
        sync: sim.sync_stats(),
    }
}

/// Whether two runs observed the same fleet, bit for bit.
fn identical(a: &Outcome, b: &Outcome) -> bool {
    a.delivered == b.delivered
        && a.ledger == b.ledger
        && a.gt_len == b.gt_len
        && a.mgmt_bytes == b.mgmt_bytes
        && a.pkts == b.pkts
}

fn main() {
    println!("=== Fleet simulation: serial vs deterministic parallel execution ===");
    let warm = run(0);
    println!("  ({} switches+hosts, 6 ms horizon)", warm.devices);

    // One (serial, sharded) pair per shard count, order alternating.
    let mut pairs = Vec::new();
    for (i, shards) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let (serial, par) = if i % 2 == 0 {
            let serial = run(0);
            (serial, run(shards))
        } else {
            let par = run(shards);
            (run(0), par)
        };
        assert!(identical(&serial, &warm), "serial runs diverged from each other");
        pairs.push((shards, serial.secs, par));
    }
    // The serial rate is the median of the serial legs.
    let mut serial_secs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    serial_secs.sort_by(f64::total_cmp);
    let serial = Outcome { secs: serial_secs[serial_secs.len() / 2], ..warm };
    let row = |mode: &str, o: &Outcome, identical: &str| {
        let rate = o.pkts as f64 / o.secs;
        println!(
            "  {mode:>8} {:>12.3} {rate:>14.0} {:>10} {identical:>10}",
            o.secs,
            o.delivered.len()
        );
    };
    println!(
        "\n  {:>8} {:>12} {:>14} {:>10} {:>10}",
        "mode", "wall_s", "sim pkts/s", "delivered", "identical"
    );
    row("serial", &serial, "-");

    let cores = fet_bench::host_cores();
    let mut report = fet_bench::BenchReport::new("fleet_parallel");
    report
        .metric("cores", cores as f64)
        .metric("pkts_per_s_serial", serial.pkts as f64 / serial.secs)
        .metric("events_per_s", serial.delivered.len() as f64 / serial.secs)
        .metric("fleet_pkts", serial.pkts as f64);

    let mut speedup_4x = 0.0;
    for (shards, serial_secs, par) in pairs {
        let identical = identical(&par, &serial);
        row(&format!("{shards}-shard"), &par, &identical.to_string());
        assert!(identical, "parallel run at {shards} shards diverged from serial");
        let speedup = serial_secs / par.secs;
        report.metric(&format!("pkts_per_s_shards{shards}"), par.pkts as f64 / par.secs);
        report.metric(&format!("speedup_{shards}x"), speedup);
        if shards == 4 {
            speedup_4x = speedup;
            // Cross-shard synchronization counters from the 4-shard run:
            // not throughput-gated (no `_per_s`), but committed so the
            // batching win and ring pressure are visible over time.
            report
                .metric("sync_segments", par.sync.segments as f64)
                .metric("sync_epochs_executed", par.sync.epochs_executed as f64)
                .metric("sync_epochs_batched", par.sync.epochs_batched as f64)
                .metric("sync_ring_messages", par.sync.ring_messages as f64)
                .metric("sync_ring_stalls", par.sync.ring_stalls as f64);
        }
    }
    report.metric("pkts_per_s", serial.pkts as f64 / serial.secs);

    println!("\n  speedup at 4 shards: {speedup_4x:.2}x on {cores} core(s)");
    println!("  (wall speedup is bounded by the core count; the determinism");
    println!("   contract above is verified at every shard count regardless)");
    if cores >= 4 {
        assert!(
            speedup_4x > 2.0,
            "4-shard speedup {speedup_4x:.2}x is below the 2.0x acceptance bar on a \
             {cores}-core host"
        );
    } else {
        println!("  (skipping the >2.0x 4-shard assertion: host has only {cores} core(s))");
    }
    report.write().expect("write BENCH_fleet_parallel.json");
}
