//! The parallel-execution determinism contract: for every chaos scenario
//! in `tests/chaos.rs`, running the fleet under `run_until_parallel` at
//! any shard count must be **bit-identical** to the serial run — same
//! delivered-event stream, same ledgers, same ground truth, same crash
//! reports, same analytics state.
//!
//! This is the whole point of the canonical-event-key design (see
//! `DESIGN.md` §11): sharding is an execution strategy, never an
//! observable. The scenarios reuse the chaos fault plans (including the
//! `CHAOS_SEED` CI matrix mixing) and the chaos workload helpers in
//! `tests/common`, so each matrix leg verifies the contract over a
//! genuinely different run of exactly the chaos workloads.

use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};
use fet_export::{
    parse_exposition, scrape_analytics, scrape_breaches, scrape_collector, scrape_fleet,
    scrape_ledger, scrape_wire, validate_json, MetricRegistry, RenderedSnapshot,
};
mod common;

use common::{
    add_flow, drive_lossy_fabric, drive_through_the_kills, in_flight_at_kills, seed, setup,
};
use fet_netsim::link::BurstDrop;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::FatTree;
use fet_netsim::tracer::GtEvent;
use fet_netsim::Simulator;
use netseer::deploy::{
    delivered_history, fleet_ledger, fleet_stats, monitor_of_mut, monitors, FleetStats,
};
use netseer::faults::{seeded_device_crashes, streams, OverloadWindow};
use netseer::{
    schedule_device_crashes, schedule_watchdog, schedule_wedge, Collector, CollectorConfig,
    CorruptionGen, CorruptionSpec, CrashKind, CrashReport, DeliveryLedger, FaultPlan, LossProcess,
    NetSeerConfig, StoredEvent, WatchdogConfig, Window,
};

/// Shard counts required by the determinism contract. `1` exercises the
/// serial-delegation path; the rest are genuinely parallel.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Horizon long enough for every fault window (crash schedules end at
/// 10 ms) while keeping 10 scenarios x 5 runs affordable in CI.
const HORIZON: u64 = 12 * MILLIS;

/// Everything observable about a finished run. Two runs are "the same
/// run" iff their fingerprints are equal.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    delivered: Vec<StoredEvent>,
    ledger: DeliveryLedger,
    gt: Vec<GtEvent>,
    mgmt_bytes: u64,
    /// Fleet-wide reliability counters: retransmissions, dropped
    /// notification copies, CEBP CRC failures (implicit NACKs), WAL
    /// records rejected by torn-tail replay, partial flushes the widened
    /// stride held back (always 0 at stride 1), and restarts.
    fleet: FleetStats,
    crash_reports: Vec<CrashReport>,
    host_rx_pkts: u64,
    /// Spill observables from the post-processing collector: peak spill
    /// occupancy, records re-read after a crash rewound the read cursor,
    /// and records destroyed by a torn tail. All 0 when the drill is off.
    buffered: u64,
    spill_replayed: u64,
    spill_torn: u64,
    analytics: AnalyticsState,
    /// Wire-ingestion observables from the seeded hostile-exporter storm
    /// every fingerprint runs: malformed / quarantine / per-reason reject
    /// counters are part of the bit-identical contract.
    wire: WireState,
    /// The fully rendered export snapshot (Prometheus text + OTel JSON)
    /// scraped off every stat surface above: encoders and scrape
    /// adapters are part of the bit-identical contract too.
    export: RenderedSnapshot,
    /// Per-device virtual-clock fingerprints (offset/drift/step/freeze
    /// draws). All-zero when the fault plan leaves clocks perfect; under a
    /// clock storm every shard count must draw the identical fleet of
    /// wrong clocks.
    clock_fingerprints: Vec<u64>,
}

/// Everything observable about the hostile-exporter wire storm.
#[derive(Debug, PartialEq)]
struct WireState {
    ledger: DeliveryLedger,
    quarantined: u64,
    rejects: Vec<u64>,
    soft_rejects: Vec<u64>,
    upstream_lost: u64,
    store: Vec<StoredEvent>,
    /// Clock-lie taxonomy counters and clamped-stamp total (zero for the
    /// honest-clock storm; joined to the contract so the vetting path can
    /// never drift across shard counts).
    clock_lies: Vec<u64>,
    clamped_stamps: u64,
}

/// Storm a dedicated tight-watermark collector with the seeded hostile
/// exporter and capture every wire observable. Deterministic in
/// `storm_seed`; joins [`Fingerprint`] so the contract covers the wire
/// path (BTreeMap-ordered template cache, device map, quarantine). The
/// wire surfaces are also scraped into `reg`, so the export snapshot
/// covers the storm too.
fn run_wire_storm(storm_seed: u64, reg: &mut MetricRegistry) -> WireState {
    use fet_netsim::{HostileExporter, HostileExporterConfig};
    use netseer::{WireConfig, WireIngest};

    let mut exporter = HostileExporter::new(HostileExporterConfig {
        seed: storm_seed,
        hostility: 0.4,
        corruption: CorruptionSpec {
            flip_per_byte: 1e-3,
            truncate_prob: 0.05,
            duplicate_prob: 0.02,
        },
        ..HostileExporterConfig::default()
    });
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 32,
        max_spill_bytes: 8 * 1024,
        spill_segment_bytes: 1024,
    });
    collector.subscribe(); // never drains: watermark binds, spill fills, shed engages
    let mut wire = WireIngest::new(WireConfig::default());
    for tick in 0..400u64 {
        if let Some(datagram) = exporter.emit() {
            wire.ingest_datagram(&mut collector, &datagram, tick * 10 * MICROS);
        }
    }
    let ledger = wire.ledger(&collector);
    ledger.assert_balanced();
    scrape_wire(reg, &wire);
    scrape_ledger(reg, "wire", &ledger);
    let stats = wire.session().stats();
    WireState {
        ledger,
        quarantined: collector.poison_seen,
        rejects: stats.rejects.to_vec(),
        soft_rejects: stats.soft.to_vec(),
        upstream_lost: wire.upstream_losses().iter().map(|l| l.lost).sum(),
        store: collector.store().events().to_vec(),
        clock_lies: stats.clock_lies.to_vec(),
        clamped_stamps: stats.clamped_stamps,
    }
}

/// How the post-processing collector in [`run_scenario_with`] exercises
/// the spill over the delivered history.
#[derive(Clone, Copy, PartialEq)]
enum SpillDrill {
    /// Default collector: the spill never engages.
    Off,
    /// Tight watermark + small segments: the history bursts into the
    /// spill and drains back out through the engine poll.
    Burst,
    /// Tight watermark, torn-tail damage armed: a hard kill lands
    /// mid-spill, then sender reconciliation re-offers the history.
    TornKill,
}

#[derive(Debug, PartialEq)]
struct AnalyticsState {
    processed: u64,
    top_flows: Vec<fet_analytics::TopKEntry>,
    totals: Vec<(fet_analytics::AggKey, fet_analytics::WindowStats)>,
}

/// Run one scenario to `HORIZON` and capture every observable.
///
/// `crash_base` schedules the chaos crash drill (every switch CPU dies
/// once in [2 ms, 10 ms) and restarts 500 µs later) before running.
fn run_scenario_with(
    cfg: NetSeerConfig,
    crash_base: Option<(u64, CrashKind)>,
    drive: impl FnOnce(&mut Simulator, &FatTree),
    shards: usize,
    drill: SpillDrill,
) -> Fingerprint {
    let fault_seed = cfg.faults.seed;
    let (mut sim, ft) = setup(cfg);
    drive(&mut sim, &ft);
    let log = crash_base.map(|(base, kind)| {
        let crashes = seeded_device_crashes(
            base,
            &sim.switch_ids(),
            Window { start_ns: 2 * MILLIS, end_ns: 10 * MILLIS },
            500 * MICROS,
            kind,
        );
        schedule_device_crashes(&mut sim, &crashes)
    });
    if shards == 0 {
        sim.run_until(HORIZON);
    } else {
        sim.run_until_parallel(HORIZON, shards);
    }

    let delivered = delivered_history(&sim);
    // Feed the delivered stream through the full analytics engine: if the
    // parallel run reordered or perturbed anything, aggregation state
    // (top-k, window totals, processed count) diverges. The spill drills
    // route that same stream through a pressured (and possibly crashed)
    // collector, so spill occupancy, tearing, and replay join the
    // fingerprint too.
    let collector_cfg = match drill {
        SpillDrill::Off => CollectorConfig::default(),
        SpillDrill::Burst => CollectorConfig {
            memory_watermark: 16,
            spill_segment_bytes: 1024,
            ..CollectorConfig::default()
        },
        SpillDrill::TornKill => {
            CollectorConfig { memory_watermark: 16, ..CollectorConfig::default() }
        }
    };
    let mut collector = Collector::with_config(collector_cfg);
    if drill == SpillDrill::TornKill {
        let spec = CorruptionSpec { flip_per_byte: 0.25, truncate_prob: 0.5, duplicate_prob: 0.0 };
        collector.set_torn_spill(CorruptionGen::new(spec, fault_seed, streams::SPILL_CORRUPT));
    }
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), link_map_from_sim(&sim));
    engine.attach(&mut collector);
    let buffered = match drill {
        SpillDrill::Off | SpillDrill::Burst => {
            collector.ingest(&delivered);
            let peak = collector.buffered();
            engine.poll(&mut collector);
            peak
        }
        SpillDrill::TornKill => {
            let half = delivered.len() / 2;
            collector.ingest(&delivered[..half]);
            engine.poll(&mut collector);
            engine.checkpoint(&mut collector);
            collector.ingest(&delivered[half..]);
            let peak = collector.buffered();
            engine.crash_restart(CrashKind::Hard, &mut collector);
            collector.ingest(&delivered); // sender reconciliation
            engine.poll(&mut collector);
            peak
        }
    };
    engine.ledger().assert_balanced();
    assert_eq!(collector.buffered(), 0, "every drill must drain the spill to quiescence");
    assert_eq!(collector.len(), delivered.len(), "exactly-once through the spill");

    // Scrape every surface the fingerprint captures into one registry and
    // render both encodings at sim time — the snapshot joins the
    // bit-identical contract below.
    let mut reg = MetricRegistry::default();
    scrape_fleet(&mut reg, &sim);
    scrape_collector(&mut reg, &collector);
    scrape_analytics(&mut reg, &engine, 32);
    let analytics = AnalyticsState {
        processed: engine.processed,
        top_flows: engine.top_flows(32),
        totals: engine.totals(),
    };
    scrape_breaches(&mut reg, &engine.finish_breaches());
    let wire = run_wire_storm(fault_seed ^ 0x3117, &mut reg);
    let export = RenderedSnapshot::render(&reg, 0, HORIZON);

    Fingerprint {
        ledger: fleet_ledger(&sim),
        gt: sim.gt.events().to_vec(),
        mgmt_bytes: sim.mgmt.total_bytes(),
        fleet: fleet_stats(&sim),
        crash_reports: log.map(|l| l.reports()).unwrap_or_default(),
        buffered,
        spill_replayed: collector.spill_replayed(),
        spill_torn: collector.spill().torn_records,
        host_rx_pkts: sim
            .host_ids()
            .into_iter()
            .map(|h| sim.host(h).rx_flows.values().map(|r| r.pkts).sum::<u64>())
            .sum(),
        clock_fingerprints: monitors(&sim).map(|m| m.clock().fingerprint()).collect(),
        analytics,
        wire,
        export,
        delivered,
    }
}

/// Assert bit-identical serial/parallel runs for one scenario at every
/// shard count in [`SHARD_COUNTS`].
fn assert_deterministic(
    name: &str,
    cfg: impl Fn() -> NetSeerConfig,
    crash_base: Option<(u64, CrashKind)>,
    drive: impl Fn(&mut Simulator, &FatTree) + Copy,
) -> Fingerprint {
    assert_deterministic_with(name, cfg, crash_base, drive, SpillDrill::Off)
}

/// Like [`assert_deterministic`], with a spill drill applied to the
/// post-processing collector. Returns the serial fingerprint so callers
/// can pin scenario-specific observables (spill occupancy, skipped
/// flushes) on top of the equality sweep.
fn assert_deterministic_with(
    name: &str,
    cfg: impl Fn() -> NetSeerConfig,
    crash_base: Option<(u64, CrashKind)>,
    drive: impl Fn(&mut Simulator, &FatTree) + Copy,
    drill: SpillDrill,
) -> Fingerprint {
    let serial = run_scenario_with(cfg(), crash_base, drive, 0, drill);
    assert!(serial.ledger.generated > 0, "{name}: scenario must generate events");
    for shards in SHARD_COUNTS {
        let parallel = run_scenario_with(cfg(), crash_base, drive, shards, drill);
        assert_eq!(
            parallel, serial,
            "{name}: parallel run at {shards} shards diverged from serial"
        );
    }
    serial
}

/// Scenario 1 — bursty (Gilbert–Elliott) loss on the management network.
#[test]
fn det_01_burst_loss_on_mgmt_network() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xC0FFEE),
            mgmt_loss: LossProcess::GilbertElliott {
                p_enter_bad: 0.2,
                p_exit_bad: 0.2,
                loss_good: 0.05,
                loss_bad: 0.95,
            },
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("burst-loss", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
}

/// Scenario 2 — a hard partition of the management network that heals.
#[test]
fn det_02_mgmt_partition() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xBEEF),
            mgmt_partitions: vec![Window { start_ns: 0, end_ns: 2 * MILLIS }],
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("mgmt-partition", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
}

/// Scenario 3 — independent loss of redundant notification copies, with
/// burst drops on uplinks feeding the inter-switch detector.
#[test]
fn det_03_notification_copy_loss() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0x5EED),
            notification_loss: LossProcess::Bernoulli { p: 0.35 },
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("notification-loss", cfg, None, |sim, ft| {
        for s in 0..4 {
            add_flow(sim, ft, s, 4 + s, 1000 + s as u16, 1_000_000);
        }
        for pod in 0..2 {
            let tor = ft.edges[pod][0];
            for port in 0..2 {
                sim.link_direction_mut(tor, port).unwrap().faults.burst_drop =
                    Some(BurstDrop { at_ns: 50_000, count: 4, corrupt: false });
            }
        }
    });
}

/// Scenario 4 — switch-CPU overload with shedding.
#[test]
fn det_04_cpu_overload() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xFEED),
            cpu_overload: vec![OverloadWindow {
                window: Window { start_ns: 0, end_ns: 100 * MILLIS },
                factor: 5_000.0,
            }],
            ..FaultPlan::default()
        },
        cpu_max_backlog_ns: 200 * MICROS,
        enable_dedup: false,
        ..NetSeerConfig::default()
    };
    assert_deterministic("cpu-overload", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.05));
}

/// Scenario 5 — CEBP recirculation and PCIe stall windows.
#[test]
fn det_05_cebp_and_pcie_stalls() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xD1CE),
            cebp_stalls: vec![Window { start_ns: MILLIS, end_ns: 3 * MILLIS }],
            pcie_stalls: vec![Window { start_ns: 2 * MILLIS, end_ns: 5 * MILLIS }],
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("stalls", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
}

/// Scenario 6 — combined chaos: GE loss + notification loss + partition
/// (the `same_seed_reproduces_the_same_chaos` plan).
#[test]
fn det_06_combined_chaos() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(42),
            mgmt_loss: LossProcess::GilbertElliott {
                p_enter_bad: 0.2,
                p_exit_bad: 0.2,
                loss_good: 0.05,
                loss_bad: 0.95,
            },
            notification_loss: LossProcess::Bernoulli { p: 0.2 },
            mgmt_partitions: vec![Window { start_ns: 2 * MILLIS, end_ns: 3 * MILLIS }],
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("combined", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
}

/// Scenario 7 — every switch CPU stops cleanly once, mid-run.
#[test]
fn det_07_clean_restarts() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0xCAFE), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    assert_deterministic(
        "clean-restart",
        cfg,
        Some((seed(0xCAFE), CrashKind::Clean)),
        |sim, ft| drive_lossy_fabric(sim, ft, 0.02),
    );
}

/// Scenario 8 — every switch CPU is hard-killed once (WAL tail lost).
#[test]
fn det_08_hard_kills() {
    let cfg = || in_flight_at_kills(FaultPlan { seed: seed(0xDEAD), ..FaultPlan::default() });
    assert_deterministic(
        "hard-kill",
        cfg,
        Some((seed(0xDEAD), CrashKind::Hard)),
        drive_through_the_kills,
    );
}

/// Scenario 9 — restart discontinuities on a clean fabric (gap detectors
/// must re-base identically in serial and parallel runs).
#[test]
fn det_09_restart_discontinuity() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0xAB1E), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    assert_deterministic("rebase", cfg, Some((seed(0xAB1E), CrashKind::Hard)), |sim, ft| {
        drive_lossy_fabric(sim, ft, 0.0)
    });
}

/// Scenario 10 — hard switch-CPU kills under the collector-reconciliation
/// plan, with mid-run control-plane mutation (drop-prob bump at 3 ms):
/// controls are a serial synchronization point the parallel executor must
/// place identically.
#[test]
fn det_10_crashes_with_midrun_control() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0xFA11), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    assert_deterministic(
        "midrun-control",
        cfg,
        Some((seed(0xFA11), CrashKind::Hard)),
        |sim, ft| {
            drive_lossy_fabric(sim, ft, 0.02);
            let tor = ft.edges[1][0];
            sim.schedule_control(3 * MILLIS, move |s| {
                s.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.05;
            });
        },
    );
}

/// Scenario 11 — the bit-flip corruption storm: residual link corruption
/// plus CEBP/notification byte damage. Corruption draws ride per-object
/// RNG streams, so retransmit cascades and quarantine decisions must land
/// identically at every shard count (the `crc_failures` fingerprint field
/// pins this directly).
#[test]
fn det_11_corruption_storm() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xB17F),
            cebp_corruption: CorruptionSpec::bit_flips(1e-3),
            notification_corruption: CorruptionSpec::bit_flips(1e-3),
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    assert_deterministic("corruption-storm", cfg, None, |sim, ft| {
        drive_lossy_fabric(sim, ft, 0.02);
        let tor = ft.edges[0][0];
        for port in 0..2 {
            let dir = sim.link_direction_mut(tor, port).unwrap();
            dir.faults.corrupt_prob = 0.05;
            dir.faults.corrupt_bytes = Some(CorruptionSpec::bit_flips(1e-3));
        }
    });
}

/// Scenario 12 — torn WAL tails under hard kills: the surviving record
/// prefix (and therefore per-restart loss, replay, and the `corrupted`
/// ledger term) must be bit-identical across shard counts.
#[test]
fn det_12_torn_wal_hard_kills() {
    let cfg = || {
        in_flight_at_kills(FaultPlan {
            seed: seed(0x7047),
            torn_wal: CorruptionSpec {
                flip_per_byte: 0.25,
                truncate_prob: 0.5,
                duplicate_prob: 0.0,
            },
            ..FaultPlan::default()
        })
    };
    assert_deterministic(
        "torn-wal",
        cfg,
        Some((seed(0x7047), CrashKind::Hard)),
        drive_through_the_kills,
    );
}

/// Scenario 14 — burst-overload spill-then-drain: the delivered history
/// bursts into a tight-watermark collector, parks in small rotating
/// segments, and drains back out. Peak spill occupancy (`buffered`) joins
/// the fingerprint, so any divergence in the delivered stream — order or
/// content — shows up as a different spill trajectory at some shard count.
#[test]
fn det_14_burst_spill_then_drain() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0x5B14),
            mgmt_loss: LossProcess::GilbertElliott {
                p_enter_bad: 0.2,
                p_exit_bad: 0.2,
                loss_good: 0.05,
                loss_bad: 0.95,
            },
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    let fp = assert_deterministic_with(
        "burst-spill",
        cfg,
        None,
        |sim, ft| drive_lossy_fabric(sim, ft, 0.02),
        SpillDrill::Burst,
    );
    assert!(fp.buffered > 0, "the burst must actually engage the spill");
    assert_eq!(fp.spill_torn, 0, "no crash, no tearing");
}

/// Scenario 15 — hard kill mid-spill with a torn tail: the surviving
/// record prefix, the rewound replay, and the reconciled exactly-once
/// store must all be bit-identical across shard counts (`buffered`,
/// `spill_replayed`, and `spill_torn` pin them in the fingerprint).
#[test]
fn det_15_hard_kill_mid_spill_torn_tail() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0x5B15), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    let fp = assert_deterministic_with(
        "torn-spill",
        cfg,
        None,
        |sim, ft| drive_lossy_fabric(sim, ft, 0.02),
        SpillDrill::TornKill,
    );
    assert!(fp.buffered > 0, "the kill must land mid-spill");
    assert!(fp.spill_torn > 0, "the armed tear must destroy part of the un-fsynced tail");
}

/// Scenario 16 — backpressure widening under sustained overload: the
/// collector's pressure level reaches every switch mid-run (a scheduled
/// control, which the parallel executor must place identically), and the
/// widened stride's skipped flushes join the fingerprint.
#[test]
fn det_16_backpressure_widening() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0x5B16), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    let fp = assert_deterministic_with(
        "backpressure",
        cfg,
        None,
        |sim, ft| {
            drive_lossy_fabric(sim, ft, 0.02);
            sim.schedule_control(3 * MILLIS, |s| {
                for id in s.switch_ids() {
                    monitor_of_mut(s, id).set_backpressure(3);
                }
            });
        },
        SpillDrill::Off,
    );
    assert!(fp.fleet.flushes_skipped > 0, "the widened stride must hold partial flushes back");
    assert_eq!(fp.ledger.missing(), 0, "widened batching must not lose accounting");
}

/// Scenario 17 — the hostile-exporter wire storm. Every fingerprint in
/// this file already replays the seeded storm (see [`run_wire_storm`]),
/// so the malformed / quarantine / per-reason reject counters are part of
/// the bit-identical contract at every shard count; this scenario
/// additionally pins that the storm genuinely engages every term it is
/// supposed to.
#[test]
fn det_17_hostile_wire_storm() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0x3117), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    let fp =
        assert_deterministic("wire-storm", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
    let wire = &fp.wire;
    assert!(wire.ledger.malformed > 0, "the storm must book malformed records");
    assert!(wire.ledger.shed_cpu_overload > 0, "the tiny spill budget must refuse");
    assert!(wire.quarantined > 0, "fatal rejects must be quarantined");
    assert_eq!(
        wire.rejects.iter().sum::<u64>(),
        wire.quarantined,
        "every rejected datagram must be counted under exactly one reason"
    );
    assert!(wire.upstream_lost > 0, "dropped datagrams must surface as sequence gaps");
    assert!(!wire.store.is_empty(), "honest records must still reach the store");
}

/// Scenario 18 — the export snapshot itself. Every fingerprint in this
/// file already renders the full Prometheus + OTel snapshot off every
/// stat surface (see [`Fingerprint::export`]), so the encoders'
/// byte-for-byte output is part of the bit-identical contract at every
/// shard count; this scenario additionally pins that the snapshot is
/// well-formed and that the conservation identity can be re-derived
/// from the scraped text alone — the exporter as oracle.
#[test]
fn det_18_export_snapshot_joins_the_fingerprint() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xE690),
            notification_loss: LossProcess::Bernoulli { p: 0.2 },
            cebp_corruption: CorruptionSpec::bit_flips(1e-3),
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    let fp = assert_deterministic("export", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
    let doc = parse_exposition(&fp.export.prometheus)
        .expect("the snapshot must parse as Prometheus text v0.0.4");
    assert!(validate_json(&fp.export.otel), "the OTel snapshot must be valid JSON");
    assert_eq!(fp.export.rendered_at_ns, HORIZON, "timestamps are sim time, never wall clock");

    // Re-derive the fleet conservation identity from the scraped text
    // and check it against the in-memory ledger term by term.
    let get = |name: &str| {
        doc.value(name, &[("scope", "fleet")])
            .unwrap_or_else(|| panic!("scraped output missing {name}"))
    };
    assert_eq!(get("fet_events_generated_total"), fp.ledger.generated as f64);
    let shed: f64 = doc
        .samples
        .iter()
        .filter(|s| {
            s.name == "fet_events_shed_total"
                && s.labels.iter().any(|(k, v)| k == "scope" && v == "fleet")
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(shed, fp.ledger.shed_total() as f64);
    assert_eq!(
        get("fet_events_generated_total"),
        get("fet_events_delivered_total")
            + shed
            + get("fet_events_pending")
            + get("fet_events_buffered")
            + get("fet_events_lost_to_crash_total")
            + get("fet_events_corrupted_total")
            + get("fet_events_malformed_total"),
        "the scraped fleet identity must balance"
    );
    // The wire storm's scrape is in the same snapshot under its own scope.
    assert_eq!(
        doc.value("fet_events_generated_total", &[("scope", "wire")]),
        Some(fp.wire.ledger.generated as f64)
    );
    // The scrape discipline keeps cardinality well under the caps: the
    // registry must never have refused anything.
    assert_eq!(doc.value("fet_export_series_rejected_total", &[]), Some(0.0));
    assert_eq!(doc.value("fet_export_families_rejected_total", &[]), Some(0.0));
}

/// Scenario 19 — the cross-shard synchronization counters themselves.
/// Epoch/ring statistics depend on the shard count, so they stay out of
/// the serial-vs-parallel [`Fingerprint`]; the contract they *do* carry
/// is that they are a pure function of (scenario, shard count, ring
/// capacity). Two runs of the same configuration must agree exactly —
/// on the counters and on every simulation observable — under the same
/// `CHAOS_SEED` / `FET_RING_CAP` matrix legs CI sweeps.
#[test]
fn det_19_sync_stats_deterministic_per_configuration() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xD19),
            notification_loss: LossProcess::Bernoulli { p: 0.2 },
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    for shards in SHARD_COUNTS {
        let run = || {
            let (mut sim, ft) = setup(cfg());
            drive_lossy_fabric(&mut sim, &ft, 0.02);
            sim.run_until_parallel(HORIZON, shards);
            (
                fleet_ledger(&sim),
                delivered_history(&sim),
                sim.gt.events().to_vec(),
                sim.sync_stats(),
            )
        };
        let (ledger_a, delivered_a, gt_a, sync_a) = run();
        let (ledger_b, delivered_b, gt_b, sync_b) = run();
        assert_eq!(ledger_a, ledger_b, "{shards} shards: ledgers diverged between identical runs");
        assert_eq!(delivered_a, delivered_b, "{shards} shards: delivered stream diverged");
        assert_eq!(gt_a, gt_b, "{shards} shards: ground truth diverged");
        assert_eq!(
            sync_a, sync_b,
            "{shards} shards: sync counters must be a pure function of the configuration"
        );
        if shards > 1 {
            assert!(sync_a.segments > 0, "{shards} shards: no segments recorded");
            assert!(sync_a.epochs_executed > 0, "{shards} shards: no epochs recorded");
            assert!(sync_a.ring_messages > 0, "{shards} shards: no cross-shard traffic");
        } else {
            assert_eq!(
                sync_a,
                fet_netsim::SyncStats::default(),
                "1 shard delegates to the serial engine and must record no sync work"
            );
        }
    }
}

/// Scenario 20 — the fleet-wide clock storm: every device draws a wrong
/// clock (offset, drift, steps, and a freeze probability) from the fault
/// plan's dedicated RNG stream. The skewed stamps flow through CEBP
/// batches, the WAL, and the delivered history — all already in the
/// fingerprint — and the per-device clock fingerprints join it
/// explicitly, so a single divergent draw at any shard count fails the
/// sweep. On top, an event-time engine over the (skewed) delivered
/// history must be reproducible and balanced.
#[test]
fn det_20_clock_storm() {
    use netseer::faults::ClockSpec;

    let spec = ClockSpec {
        offset_ns: 200 * MICROS,
        drift_ppm: 500,
        step_every_ns: 5 * MILLIS,
        step_ns: 50 * MICROS,
        freeze_prob: 0.2,
        freeze_after_ns: 4 * MILLIS,
    };
    let cfg = || NetSeerConfig {
        faults: FaultPlan {
            seed: seed(0xC20),
            clock: spec,
            notification_loss: LossProcess::Bernoulli { p: 0.2 },
            ..FaultPlan::default()
        },
        ..NetSeerConfig::default()
    };
    let fp =
        assert_deterministic("clock-storm", cfg, None, |sim, ft| drive_lossy_fabric(sim, ft, 0.02));
    assert!(
        fp.clock_fingerprints.iter().any(|&f| f != 0),
        "the storm must arm device clocks: {:?}",
        fp.clock_fingerprints
    );
    assert!(
        fp.clock_fingerprints.iter().filter(|&&f| f != 0).count() > 1,
        "offset/drift draws must differ across the fleet"
    );

    // Event-time analytics over the skewed history: same input, same
    // config, bit-identical engine state — and the extended ledger
    // identity (late terms included) holds after the flush.
    let run_engine = || {
        let mut collector = Collector::new();
        let mut engine = AnalyticsEngine::new(
            AnalyticsConfig {
                lateness_bound_ns: 2 * spec.max_abs_skew_ns(HORIZON) + 10 * MICROS,
                reorder_cap: 4096,
                ..AnalyticsConfig::default()
            },
            fet_analytics::LinkMap::default(),
        );
        engine.attach(&mut collector);
        collector.ingest(&fp.delivered);
        engine.poll(&mut collector);
        engine.flush();
        let ledger = engine.ledger();
        ledger.assert_balanced();
        assert_eq!(ledger.pending_reorder, 0, "flush must drain the reorder buffers");
        (ledger, engine.totals(), engine.top_flows(32))
    };
    assert_eq!(run_engine(), run_engine(), "event-time analytics must be reproducible");
}

/// Scenario 13 — watchdog supervision of wedged monitors: checks are
/// controls and the restart is a dynamically-scheduled control, both of
/// which the parallel executor must place identically.
#[test]
fn det_13_watchdog_restarts() {
    let cfg = || NetSeerConfig {
        faults: FaultPlan { seed: seed(0xD06), ..FaultPlan::default() },
        ..NetSeerConfig::default()
    };
    assert_deterministic("watchdog", cfg, None, |sim, ft| {
        drive_lossy_fabric(sim, ft, 0.02);
        let switches = sim.switch_ids();
        let victims = [switches[0], switches[switches.len() / 2]];
        for (i, &v) in victims.iter().enumerate() {
            schedule_wedge(sim, v, 3 * MILLIS + 100 * MICROS * (i as u64 + 1));
        }
        // The log is observable through the fingerprint (epochs, ledgers,
        // delivered history all shift if supervision diverges).
        let _ = schedule_watchdog(sim, &switches, WatchdogConfig::default(), HORIZON);
    });
}
