//! Crash-recovery drill: hard-kill every switch CPU mid-run, then hard-kill
//! the collector, and audit the recovery contract end to end.
//!
//! What this exercises:
//!
//! * each switch CPU checkpoints its monitor state and WAL-logs the pending
//!   event queue; a hard kill *tears* the un-fsynced WAL tail (bit flips +
//!   truncation mid-flush), per-record CRCs keep the longest valid record
//!   prefix, and the loss is *accounted* (`lost_to_crash`), never silent;
//! * the extended ledger identity holds fleet-wide across the restarts:
//!   `generated == delivered + shed + pending + buffered + lost_to_crash
//!   + corrupted + malformed`;
//! * the collector reverts to its last checkpoint on a hard kill; the
//!   reconnect handshake retransmits the uncovered suffix and the
//!   `(device, epoch, seq)` gates dedup the rest — exactly-once end to end;
//! * the same seed reproduces the identical crash schedule, per-restart
//!   loss, and final counters.
//!
//! Run with: `cargo run --release --example crash_recovery`

use netseer_repro::fet_netsim::host::FlowSpec;
use netseer_repro::fet_netsim::routing::install_ecmp_routes;
use netseer_repro::fet_netsim::time::{MICROS, MILLIS};
use netseer_repro::fet_netsim::topology::{build_fat_tree, FatTreeParams};
use netseer_repro::fet_netsim::Simulator;
use netseer_repro::fet_packet::FlowKey;
use netseer_repro::netseer::deploy::{
    delivered_history, deploy, fleet_ledger, fleet_stats, DeployOptions,
};
use netseer_repro::netseer::faults::seeded_device_crashes;
use netseer_repro::netseer::{
    run_collector_crash_drill, schedule_device_crashes, Collector, CollectorCrash, CorruptionSpec,
    CrashKind, CrashReport, DeliveryLedger, FaultPlan, NetSeerConfig, StoredEvent, Window,
};

struct Outcome {
    ledger: DeliveryLedger,
    reports: Vec<CrashReport>,
    reverted: u64,
    stored: usize,
    delivered_history: usize,
    duplicates_rejected: u64,
    wal_rejected: u64,
}

fn run(seed: u64) -> Outcome {
    let faults = FaultPlan {
        seed,
        // A hard kill lands mid-flush: the un-fsynced WAL tail takes bit
        // flips and truncation, and replay keeps the CRC-valid prefix.
        torn_wal: CorruptionSpec { flip_per_byte: 0.05, truncate_prob: 0.5, duplicate_prob: 0.0 },
        ..FaultPlan::default()
    };
    let cfg = NetSeerConfig {
        faults,
        // A tight checkpoint cadence keeps the hard-kill exposure window
        // (and therefore `lost_to_crash`) small.
        checkpoint_interval_ns: MILLIS,
        // Every detection becomes an event, so each kill finds some in
        // flight: waiting in the open CEBP for the next timer flush.
        enable_dedup: false,
        ..NetSeerConfig::default()
    };

    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg, on_nics: true });

    // Cross-pod traffic both ways through lossy ToR ports: a steady stream
    // of real events still flowing while the crash windows are open (the
    // reverse flows outlast the last restart).
    for s in 0..8 {
        for (src, dst, sport, bytes) in [(s, 7 - s, 2000, 4_000_000), (7 - s, s, 3000, 8_000_000)] {
            let key = FlowKey::tcp(ft.host_ips[src], sport + s as u16, ft.host_ips[dst], 80);
            let h = ft.hosts[src];
            let idx = sim.host_mut(h).add_flow(FlowSpec {
                key,
                total_bytes: bytes,
                pkt_payload: 1000,
                rate_gbps: 5.0,
                start_ns: 0,
                dscp: 0,
            });
            sim.schedule_flow(h, idx);
        }
    }
    for &tor in ft.edges.iter().flatten() {
        for port in 0..4 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = 0.05;
        }
    }

    // Hard-kill every switch CPU once, at a seeded moment in [2 ms, 10 ms);
    // each stays down for 500 µs and then recovers from checkpoint + WAL.
    let crashes = seeded_device_crashes(
        seed,
        &sim.switch_ids(),
        Window { start_ns: 2 * MILLIS, end_ns: 10 * MILLIS },
        500 * MICROS,
        CrashKind::Hard,
    );
    let log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    // Fleet ledger: every device must balance on its own, crash loss
    // included, before the totals mean anything.
    let ledger = fleet_ledger(&sim);
    let wal_rejected = fleet_stats(&sim).wal_records_rejected;

    // Collector drill: checkpoint at the median delivery, hard-kill after
    // the last one, then reconcile via retransmit + epoch/seq dedup.
    let deliveries = delivered_history(&sim);
    let mut times: Vec<u64> = deliveries.iter().map(|e| e.time_ns).collect();
    times.sort_unstable();
    let t_mid = times[times.len() / 2];
    let t_crash = *times.last().unwrap() + 1;

    let mut collector = Collector::new();
    let mid: Vec<StoredEvent> = deliveries.iter().filter(|e| e.time_ns < t_mid).copied().collect();
    collector.ingest(&mid);
    collector.checkpoint();
    let reverted = run_collector_crash_drill(
        &mut collector,
        &deliveries,
        &[CollectorCrash { at_ns: t_crash, kind: CrashKind::Hard }],
    );

    Outcome {
        ledger,
        reports: log.reports(),
        reverted,
        stored: collector.len(),
        delivered_history: deliveries.len(),
        duplicates_rejected: collector.duplicates_rejected(),
        wal_rejected,
    }
}

fn main() {
    let seed = 0x5EED_CAFE;
    let a = run(seed);

    println!("seed {seed:#x}: {} switch-CPU hard kills (torn WAL tails)", a.reports.len());
    println!("  events generated        {}", a.ledger.generated);
    println!("  delivered to backend    {}", a.ledger.delivered);
    println!("  shed at choke points    {}", a.ledger.shed_total());
    println!("  pending in pipeline     {}", a.ledger.pending);
    println!("  buffered in spill       {}", a.ledger.buffered);
    println!("  lost to hard kills      {}", a.ledger.lost_to_crash);
    println!("  corrupted past retries  {}", a.ledger.corrupted);
    println!("  WAL records torn away   {}", a.wal_rejected);
    for r in &a.reports {
        println!(
            "  device {:>2}: killed {:>8} ns, replayed {:>3}, lost {:>3}, epoch {}",
            r.device, r.killed_ns, r.replayed, r.lost, r.epoch
        );
    }
    println!(
        "  collector: {} reverted by the hard kill, {} duplicates rejected, \
         {} of {} events stored",
        a.reverted, a.duplicates_rejected, a.stored, a.delivered_history
    );
    println!(
        "  => identity: {} generated == {} delivered + {} shed + {} pending \
         + {} buffered + {} lost-to-crash + {} corrupted + {} malformed \
         (silently lost: {})",
        a.ledger.generated,
        a.ledger.delivered,
        a.ledger.shed_total(),
        a.ledger.pending,
        a.ledger.buffered,
        a.ledger.lost_to_crash,
        a.ledger.corrupted,
        a.ledger.malformed,
        a.ledger.missing()
    );

    // The recovery contract, asserted.
    assert_eq!(a.ledger.missing(), 0, "crash loss must be accounted, never silent");
    for r in &a.reports {
        assert!(r.lost <= r.pending_at_kill, "loss is bounded by the pending set");
        assert_eq!(r.replayed + r.lost, r.pending_at_kill, "replay + loss covers it");
    }
    assert!(a.reports.iter().any(|r| r.pending_at_kill > 0), "kills must find events in flight");
    assert!(a.ledger.lost_to_crash > 0, "hard kills must destroy un-fsynced enqueues");
    assert!(a.wal_rejected > 0, "torn tails must reject WAL records");
    assert!(a.reverted > 0, "the hard kill must actually revert ingested work");
    assert_eq!(a.stored, a.delivered_history, "exactly-once after reconciliation");

    // Reproducibility: the same seed reproduces the identical outcome.
    let b = run(seed);
    assert_eq!(a.ledger, b.ledger, "same seed, same ledger");
    assert_eq!(a.reports, b.reports, "same seed, same crash reports");
    assert_eq!(a.stored, b.stored, "same seed, same reconciled store");
    println!("\nsame seed reproduced the identical recovery — drill passed.");
}
