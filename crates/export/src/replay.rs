//! Mixed sim/real replay: captured hostile-exporter NetFlow bytes ride
//! the untrusted wire path **alongside** simulator traffic, and the
//! merged conservation identity is exported — and asserted — through the
//! Prometheus output itself (the exporter is the test oracle).
//!
//! The "real" half is a committed capture (`corpus/hostile_capture.fetc`)
//! of a seeded `HostileExporter` byte stream — NetFlow v5/v9/IPFIX
//! datagrams with template floods, count lies, truncation, bit flips,
//! and upstream drops. A provenance test regenerates the capture from
//! its recorded seed and asserts byte equality, so the corpus is both
//! reproducible and tamper-evident.

use crate::registry::MetricRegistry;
use crate::scrape::{
    scrape_analytics, scrape_breaches, scrape_collector, scrape_fleet, scrape_ledger,
    scrape_sim_sync, scrape_watchdog, scrape_wire,
};
use crate::server::RenderedSnapshot;
use fet_analytics::{AnalyticsConfig, AnalyticsEngine, LinkMap};
use fet_netsim::engine::Simulator;
use fet_netsim::host::FlowSpec;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_packet::FlowKey;
use netseer::deploy::{deploy, fleet_ledger, DeployOptions};
use netseer::faults::CorruptionSpec;
use netseer::watchdog::WatchdogLog;
use netseer::{Collector, CollectorConfig};
use netseer::{DeliveryLedger, FaultPlan, LossProcess, NetSeerConfig, WireConfig, WireIngest};

/// Magic prefixing a capture container.
pub(crate) const CAPTURE_MAGIC: [u8; 4] = *b"FETC";

/// The captured byte stream, embedded at compile time.
pub(crate) const CORPUS_BYTES: &[u8] = include_bytes!("../corpus/hostile_capture.fetc");

/// A length-prefixed container of captured datagrams: `"FETC"`, a `u32`
/// LE datagram count, then each datagram as `u32` LE length + bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Capture {
    /// The datagrams, in capture order.
    pub(crate) datagrams: Vec<Vec<u8>>,
}

impl Capture {
    /// Serialize to the container format.
    #[cfg(test)]
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CAPTURE_MAGIC);
        out.extend_from_slice(&(self.datagrams.len() as u32).to_le_bytes());
        for dg in &self.datagrams {
            out.extend_from_slice(&(dg.len() as u32).to_le_bytes());
            out.extend_from_slice(dg);
        }
        out
    }

    /// Parse a container. Returns `None` on any structural defect
    /// (bad magic, truncation, count mismatch) — never panics.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Capture> {
        let rest = bytes.strip_prefix(&CAPTURE_MAGIC[..])?;
        let (count, mut rest) = take_u32(rest)?;
        let mut datagrams = Vec::new();
        for _ in 0..count {
            let (len, tail) = take_u32(rest)?;
            let len = len as usize;
            if tail.len() < len {
                return None;
            }
            datagrams.push(tail[..len].to_vec());
            rest = &tail[len..];
        }
        if rest.is_empty() {
            Some(Capture { datagrams })
        } else {
            None
        }
    }

    /// Decode the committed corpus (panics only if the repo's own corpus
    /// file is corrupt — a build-time invariant, not an input).
    pub(crate) fn corpus() -> Capture {
        Capture::decode(CORPUS_BYTES).expect("committed corpus must decode")
    }
}

fn take_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let v = u32::from_le_bytes(b.get(..4)?.try_into().ok()?);
    Some((v, &b[4..]))
}

/// Mixed-replay scenario knobs.
#[derive(Debug, Clone)]
pub struct MixedReplayConfig {
    /// Fault-plan seed for the simulated fleet.
    pub(crate) seed: u64,
    /// Sim horizon, ns.
    pub(crate) horizon_ns: u64,
    /// Datagrams to replay through the wire path (defaults to the
    /// committed corpus).
    pub(crate) capture: Capture,
    /// Top-k flows to export.
    pub(crate) top_n: usize,
}

impl Default for MixedReplayConfig {
    fn default() -> Self {
        MixedReplayConfig {
            seed: 0xFE7,
            horizon_ns: 8 * MILLIS,
            capture: Capture::corpus(),
            top_n: 8,
        }
    }
}

/// Everything the mixed replay produced: the two ledger halves (their sum
/// is asserted balanced inside the run and exported as `merged`), and the
/// rendered snapshot scrapes read.
#[derive(Debug)]
pub struct MixedReplayReport {
    /// The simulated fleet's half.
    pub fleet: DeliveryLedger,
    /// The wire/collector half (raw, before spill refinement).
    pub wire: DeliveryLedger,
    /// Events the analytics engine processed (sim history + wire drain).
    pub processed: u64,
    /// The fully rendered scrape payloads.
    pub snapshot: RenderedSnapshot,
}

/// Sum two ledgers term-by-term (the ledger's own `+=`).
pub fn merge_ledgers(a: &DeliveryLedger, b: &DeliveryLedger) -> DeliveryLedger {
    let mut sum = *a;
    sum += *b;
    sum
}

/// Run the mixed sim/real replay and export everything.
///
/// The simulated fleet runs a faulted fat-tree to `horizon_ns`; the
/// capture replays through [`WireIngest`] into a pressured collector the
/// analytics engine drains. At quiescence the fleet and wire ledgers are
/// merged, spill occupancy is re-bucketed into `buffered`
/// ([`Collector::refine_fleet_ledger`]), and the whole surface is
/// scraped into one registry and rendered at sim time — so two runs with
/// the same config produce byte-identical snapshots.
pub fn run_mixed_replay(cfg: &MixedReplayConfig) -> MixedReplayReport {
    // --- simulated half: a faulted fleet on a fat-tree ---
    let faults = FaultPlan {
        seed: cfg.seed,
        mgmt_loss: LossProcess::Bernoulli { p: 0.05 },
        notification_loss: LossProcess::Bernoulli { p: 0.2 },
        cebp_corruption: CorruptionSpec::bit_flips(5e-4),
        ..FaultPlan::default()
    };
    let ns_cfg = NetSeerConfig {
        faults,
        cpu_max_backlog_ns: 500 * MICROS,
        enable_dedup: false,
        ..NetSeerConfig::default()
    };
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg: ns_cfg, on_nics: true });
    for s in 0..4usize {
        let key = FlowKey::tcp(ft.host_ips[s], 3000 + s as u16, ft.host_ips[7 - s], 80);
        let h = ft.hosts[s];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 1_000_000,
            pkt_payload: 1000,
            rate_gbps: 5.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
    }
    for port in 0..2 {
        let tor = ft.edges[0][0];
        sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = 0.02;
    }
    sim.run_until(cfg.horizon_ns);

    // --- real half: the capture through the untrusted wire path ---
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 128,
        max_spill_bytes: 64 * 1024,
        spill_segment_bytes: 8 * 1024,
    });
    let mut wire = WireIngest::new(WireConfig::default());
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
    engine.attach(&mut collector);
    let tick_ns = 10 * MICROS;
    for (i, dg) in cfg.capture.datagrams.iter().enumerate() {
        let now = i as u64 * tick_ns;
        wire.ingest_datagram(&mut collector, dg, now);
        if i % 64 == 63 {
            engine.poll(&mut collector);
        }
    }
    // Drain to quiescence: everything parked in memory or spill flows to
    // the engine, so `buffered` and `pending` settle before the scrape.
    loop {
        let drained = engine.poll(&mut collector);
        if collector.pump_spill() == 0 && drained == 0 {
            break;
        }
    }
    // The sim fleet's delivered history joins the same analytics engine —
    // the "mixed" in mixed replay: one top-k/SLA surface over both halves.
    engine.ingest_slice(&netseer::deploy::delivered_history(&sim));
    engine.ingest_upstream_loss(wire.upstream_losses());
    let breaches = engine.finish_breaches();

    // --- merge and scrape ---
    let fleet = fleet_ledger(&sim);
    let wire_ledger = wire.ledger(&collector);
    let mut merged = merge_ledgers(&fleet, &wire_ledger);
    // Re-bucket current spill occupancy (delivered -> buffered), exactly
    // once, on the one collector both halves share.
    collector.refine_fleet_ledger(&mut merged);
    merged.assert_balanced();

    let mut reg = MetricRegistry::default();
    scrape_ledger(&mut reg, "merged", &merged);
    scrape_ledger(&mut reg, "wire", &wire_ledger);
    scrape_fleet(&mut reg, &sim);
    scrape_collector(&mut reg, &collector);
    scrape_analytics(&mut reg, &engine, cfg.top_n);
    scrape_breaches(&mut reg, &breaches);
    scrape_sim_sync(&mut reg, &sim);
    scrape_wire(&mut reg, &wire);
    scrape_watchdog(&mut reg, &WatchdogLog::default());

    let snapshot = RenderedSnapshot::render(&reg, 0, cfg.horizon_ns);
    MixedReplayReport { fleet, wire: wire_ledger, processed: engine.processed, snapshot }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed hostile capture's provenance: the seed and emit-tick
    /// count that recorded [`CORPUS_BYTES`].
    use fet_netsim::exporter::{HostileExporter, HostileExporterConfig};

    const CORPUS_SEED: u64 = 0x31BE_5EED;
    const CORPUS_TICKS: usize = 600;

    impl Capture {
        /// Record a capture by running a seeded `HostileExporter` for
        /// `ticks` emit attempts (upstream drops emit nothing but still
        /// advance sequence numbers — the loss signal survives the capture).
        fn from_exporter(seed: u64, ticks: usize) -> Capture {
            let mut ex = HostileExporter::new(HostileExporterConfig {
                seed,
                hostility: 0.35,
                corruption: CorruptionSpec {
                    flip_per_byte: 1e-3,
                    truncate_prob: 0.05,
                    duplicate_prob: 0.02,
                },
                ..HostileExporterConfig::default()
            });
            Capture { datagrams: ex.emit_batch(ticks) }
        }
    }

    #[test]
    fn capture_container_roundtrips() {
        let cap = Capture::from_exporter(7, 64);
        assert!(!cap.datagrams.is_empty());
        let bytes = cap.encode();
        assert_eq!(Capture::decode(&bytes).unwrap(), cap);
        // Structural defects are refused, not panicked on.
        assert!(Capture::decode(b"NOPE").is_none());
        assert!(Capture::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut grown = bytes.clone();
        grown.push(0);
        assert!(Capture::decode(&grown).is_none());
    }

    #[test]
    fn corpus_provenance_is_reproducible() {
        // The committed capture is exactly what its recorded seed and
        // tick count regenerate — tamper-evident and reproducible.
        let regenerated = Capture::from_exporter(CORPUS_SEED, CORPUS_TICKS);
        assert_eq!(
            Capture::corpus(),
            regenerated,
            "corpus/hostile_capture.fetc must equal from_exporter(CORPUS_SEED, CORPUS_TICKS); \
             regenerate with `cargo test -p fet-export regenerate_corpus -- --ignored`"
        );
    }

    /// Regenerates the committed corpus in-place. Run manually after
    /// changing the exporter: `cargo test -p fet-export regenerate_corpus -- --ignored`.
    #[test]
    #[ignore = "writes into the source tree; run manually to refresh the corpus"]
    fn regenerate_corpus() {
        let cap = Capture::from_exporter(CORPUS_SEED, CORPUS_TICKS);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/hostile_capture.fetc");
        std::fs::write(path, cap.encode()).unwrap();
    }

    #[test]
    fn mixed_replay_identity_balances_and_is_deterministic() {
        let a = run_mixed_replay(&MixedReplayConfig::default());
        assert!(a.wire.generated > 0, "the capture must decode some records");
        assert!(a.fleet.generated > 0, "the sim must generate events");
        let b = run_mixed_replay(&MixedReplayConfig::default());
        assert_eq!(a.snapshot, b.snapshot, "same config, bit-identical snapshot");
    }
}
