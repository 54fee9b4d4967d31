//! The sharded streaming engine: a [`Collector`] subscriber that fans
//! delivered events out to flow-hash shards (windows + top-k + ledger)
//! and feeds the engine-level cross-shard views (correlator, SLA).
//!
//! Sharding is by a stable FNV-1a hash of the 13-byte flow key wire
//! encoding — *not* `EventRecord::hash`, which is salted per device and
//! per event type and would scatter one flow across shards. With stable
//! flow sharding each flow lives in exactly one shard, so merging the
//! per-shard Space-Saving sketches is a disjoint union and the per-entry
//! error bounds survive the merge.
//!
//! Crash consistency: the engine runs in the collector process and
//! checkpoints *with* it — [`AnalyticsEngine::checkpoint`] snapshots the
//! shards, correlator, and SLA state at the same instant the collector
//! snapshots its store, gates, and subscriber cursors. A hard kill
//! reverts both sides together, so the re-drained suffix after sender
//! reconciliation is absorbed exactly once and the analytics ledger
//! identity `ingested == aggregated + sketch_absorbed + shed_analytics`
//! holds across the crash.

use crate::correlate::{Correlator, GapReport, LinkMap, LinkVerdict};
use crate::shard::{AnalyticsLedger, ShardWorker};
use crate::sla::{BreachWindow, SlaEvaluator, SlaPolicy};
use crate::topk::{heaviest, TopKEntry};
use crate::window::{AggKey, WindowStats};
use fet_packet::flow::FLOW_KEY_LEN;
use fet_packet::FlowKey;
use fet_wire::{UpstreamLossReport, WireProtocol};
use netseer::faults::CrashKind;
use netseer::recovery::Collector;
use netseer::StoredEvent;
use std::collections::BTreeMap;

/// Sliding view: retained windows per shard.
pub(crate) const SLIDING_BUCKETS: usize = 8;

/// Max retained SLA breach windows.
pub(crate) const MAX_BREACHES: usize = 1024;

/// Engine geometry and budgets. Every bound is hard: the engine's memory
/// is fixed at construction time whatever the stream does.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticsConfig {
    /// Flow-hash shards.
    pub shards: usize,
    /// Tumbling window width, ns.
    pub window_ns: u64,
    /// Space-Saving capacity per shard.
    pub topk_k: usize,
    /// Max (device, type, reason) keys per shard aggregator.
    pub max_agg_keys: usize,
    /// SLA budget per device window.
    pub sla: SlaPolicy,
    /// Event-time watermark lag per shard, ns. With `reorder_cap` both
    /// zero (the default) the engine runs the exact arrival-order path —
    /// bit-identical to the pre-event-time engine.
    pub lateness_bound_ns: u64,
    /// Max parked events per shard reorder buffer.
    pub reorder_cap: usize,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig {
            shards: 4,
            window_ns: 1_000_000,
            topk_k: 32,
            max_agg_keys: 4096,
            sla: SlaPolicy::default(),
            lateness_bound_ns: 0,
            reorder_cap: 0,
        }
    }
}

/// Stable shard assignment: FNV-1a over the flow key's wire bytes,
/// finished with a Murmur3-style avalanche. The finisher matters: raw
/// FNV-1a mod a small power of two sees only each byte's low bits, so
/// structured address/port patterns collapse onto one shard.
pub(crate) fn flow_shard_hash(flow: &FlowKey) -> u32 {
    let mut buf = [0u8; FLOW_KEY_LEN];
    flow.write_to(&mut buf);
    let mut h: u32 = 0x811c_9dc5;
    for b in buf {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

#[derive(Debug, Clone)]
struct EngineCheckpoint {
    shards: Vec<ShardWorker>,
    correlator: Correlator,
    sla: SlaEvaluator,
    processed: u64,
}

/// The streaming analytics engine. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct AnalyticsEngine {
    cfg: AnalyticsConfig,
    shards: Vec<ShardWorker>,
    correlator: Correlator,
    sla: SlaEvaluator,
    subscription: Option<u32>,
    checkpoint: Option<EngineCheckpoint>,
    /// Latest cumulative upstream-loss scrape per wire exporter stream,
    /// keyed (protocol version, observation domain). Not checkpointed:
    /// scrapes are snapshots of the wire session's own accumulators
    /// (outside the collector crash domain) and the next scrape restores
    /// the state exactly.
    upstream: BTreeMap<(u16, u32), (u64, u64)>,
    /// Upstream-loss scrapes ignored because the stream map hit
    /// [`UPSTREAM_STREAM_CAP`] (bounded memory, never silent).
    pub(crate) upstream_overflow: u64,
    /// Events processed since construction.
    pub processed: u64,
    /// Engine crash/restart cycles.
    pub restarts: u64,
}

/// Hard cap on tracked wire exporter streams — defense in depth behind
/// the wire session's own `max_streams` bound.
pub(crate) const UPSTREAM_STREAM_CAP: usize = 1024;

impl AnalyticsEngine {
    /// Build an engine over the fleet wiring in `links`.
    pub fn new(cfg: AnalyticsConfig, links: LinkMap) -> Self {
        let shards = (0..cfg.shards.max(1))
            .map(|_| {
                ShardWorker::new(cfg.window_ns, SLIDING_BUCKETS, cfg.max_agg_keys, cfg.topk_k)
                    .with_event_time(cfg.lateness_bound_ns, cfg.reorder_cap)
            })
            .collect();
        AnalyticsEngine {
            cfg,
            shards,
            correlator: Correlator::new(links),
            sla: SlaEvaluator::new(cfg.sla, MAX_BREACHES),
            subscription: None,
            checkpoint: None,
            upstream: BTreeMap::new(),
            upstream_overflow: 0,
            processed: 0,
            restarts: 0,
        }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Subscribe to a collector's delivery stream. Call once, before the
    /// first [`poll`](Self::poll).
    pub fn attach(&mut self, collector: &mut Collector) {
        assert!(self.subscription.is_none(), "engine already attached");
        self.subscription = Some(collector.subscribe());
    }

    /// Drain everything the collector stored since the last poll and
    /// absorb it. Returns how many events were processed. The drained
    /// stream is exactly-once by construction (the collector's epoch/seq
    /// gates dedup upstream of the subscription), so the engine never
    /// sees a duplicate — except after a coordinated hard-kill revert,
    /// where the rewound cursor replays exactly the suffix the engine's
    /// own state revert forgot.
    ///
    /// Draining is what relieves collector memory pressure, so each poll
    /// alternates drain with [`Collector::pump_spill`] until neither
    /// makes progress: spilled events are applied as the in-memory
    /// backlog shrinks below the watermark, without ever overshooting it.
    pub fn poll(&mut self, collector: &mut Collector) -> u64 {
        let id = self.subscription.expect("attach before poll");
        let mut total = 0u64;
        loop {
            let drained = collector.drain_ordered(id);
            for e in &drained {
                self.process(e);
            }
            total += drained.len() as u64;
            if collector.pump_spill() == 0 && drained.is_empty() {
                return total;
            }
        }
    }

    /// Absorb one delivered event.
    pub(crate) fn process(&mut self, e: &StoredEvent) {
        let shard = (flow_shard_hash(&e.record.flow) as usize) % self.shards.len();
        self.shards[shard].absorb(e);
        self.correlator.observe(e.device, &e.record);
        self.sla.observe(e);
        self.processed += 1;
    }

    /// Absorb a pre-collected slice directly (benchmarks and offline
    /// replays; bypasses the subscription — do not mix with `poll`).
    pub fn ingest_slice(&mut self, events: &[StoredEvent]) {
        for e in events {
            self.process(e);
        }
    }

    /// Feed downstream gap-detector scrapes to the correlator.
    pub fn ingest_gap_reports(&mut self, reports: impl IntoIterator<Item = GapReport>) {
        for r in reports {
            self.correlator.ingest_gap_report(r);
        }
    }

    /// Absorb a wire-ingest upstream-loss scrape (e.g.
    /// `WireIngest::upstream_losses`). Reports carry *cumulative*
    /// accumulators, so each stream's latest scrape replaces the previous
    /// one — re-ingesting the same scrape is idempotent.
    pub fn ingest_upstream_loss(&mut self, reports: impl IntoIterator<Item = UpstreamLossReport>) {
        for r in reports {
            let key = (r.protocol.version(), r.domain);
            if !self.upstream.contains_key(&key) && self.upstream.len() >= UPSTREAM_STREAM_CAP {
                self.upstream_overflow += 1;
                continue;
            }
            self.upstream.insert(key, (r.lost, r.gaps));
        }
    }

    /// Per-stream upstream loss, deterministically ordered. These units
    /// were lost *before* the collector's doorstep (exporter → collector
    /// path), disjoint from every term the delivery ledger accounts.
    pub fn upstream_losses(&self) -> Vec<UpstreamLossReport> {
        self.upstream
            .iter()
            .map(|(&(ver, domain), &(lost, gaps))| UpstreamLossReport {
                protocol: match ver {
                    5 => WireProtocol::V5,
                    9 => WireProtocol::V9,
                    _ => WireProtocol::Ipfix,
                },
                domain,
                lost,
                gaps,
            })
            .collect()
    }

    /// The merged analytics ledger across all shards. The identity
    /// `ingested == aggregated + sketch_absorbed + shed_analytics` holds
    /// per shard and therefore for the sum.
    pub fn ledger(&self) -> AnalyticsLedger {
        self.shards.iter().map(|s| s.ledger).sum()
    }

    /// The heaviest victim flows across all shards: disjoint union of the
    /// per-shard sketches (each flow lives in exactly one shard), sorted
    /// heaviest-first.
    pub fn top_flows(&self, n: usize) -> Vec<TopKEntry> {
        heaviest(self.shards.iter().flat_map(|s| s.topk.entries()).collect(), n)
    }

    /// Cumulative (device, type, reason) totals merged across shards,
    /// deterministically ordered.
    pub fn totals(&self) -> Vec<(AggKey, WindowStats)> {
        let mut merged = crate::window::WindowAggregator::new(self.cfg.window_ns, 1, usize::MAX);
        for s in &self.shards {
            merged.merge_totals_from(&s.windows);
        }
        merged.totals()
    }

    /// End-of-stream flush: drain every shard's event-time reorder
    /// buffer so all parked events get their final disposition and the
    /// ledger's `pending_reorder` term returns to zero. A no-op on the
    /// arrival-order path.
    pub fn flush(&mut self) {
        for s in &mut self.shards {
            s.flush();
        }
    }

    /// Rank implicated links, worst first.
    pub fn localize(&self) -> Vec<LinkVerdict> {
        self.correlator.localize()
    }

    /// The most likely lossy link (corroborated by both ends), if any.
    pub fn culprit(&self) -> Option<LinkVerdict> {
        self.correlator.culprit()
    }

    /// Flush and return all SLA breach windows, sorted by (device, start).
    pub fn finish_breaches(&mut self) -> Vec<BreachWindow> {
        self.sla.finish()
    }

    /// Checkpoint the engine *and* the collector at the same instant.
    /// The collector snapshot includes the subscription cursor, so after
    /// a coordinated hard-kill revert the re-drain resumes exactly where
    /// the engine snapshot left off.
    pub fn checkpoint(&mut self, collector: &mut Collector) {
        collector.checkpoint();
        self.checkpoint = Some(EngineCheckpoint {
            shards: self.shards.clone(),
            correlator: self.correlator.clone(),
            sla: self.sla.clone(),
            processed: self.processed,
        });
    }

    /// Crash and restart the collector process (which hosts the engine).
    /// Both sides revert to their coordinated checkpoint on a hard kill;
    /// a clean stop checkpoints on the way down and loses nothing.
    /// Returns how many engine-processed events were rolled back (the
    /// re-drain after sender reconciliation restores every one).
    pub fn crash_restart(&mut self, kind: CrashKind, collector: &mut Collector) -> u64 {
        if kind == CrashKind::Clean {
            self.checkpoint(collector);
        }
        collector.crash_restart(kind);
        let before = self.processed;
        match self.checkpoint.clone() {
            Some(cp) => {
                self.shards = cp.shards;
                self.correlator = cp.correlator;
                self.sla = cp.sla;
                self.processed = cp.processed;
            }
            None => {
                // Never checkpointed: restart empty, like the collector.
                // The correlator keeps its link map (static wiring truth)
                // but its counts revert with the events that made them.
                let fresh = AnalyticsEngine::new(self.cfg, LinkMap::default());
                self.shards = fresh.shards;
                self.sla = fresh.sla;
                self.correlator.reset_counts();
                self.processed = 0;
            }
        }
        self.restarts += 1;
        before - self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
    use fet_packet::ipv4::Ipv4Addr;

    fn ev(device: u32, seq: u64, sport: u16) -> StoredEvent {
        StoredEvent {
            time_ns: seq * 1000,
            device,
            epoch: 0,
            seq,
            record: EventRecord {
                ty: EventType::PipelineDrop,
                flow: FlowKey::tcp(
                    Ipv4Addr::from_octets([10, 0, 0, 1]),
                    sport,
                    Ipv4Addr::from_octets([10, 0, 0, 2]),
                    80,
                ),
                detail: EventDetail::Drop {
                    ingress_port: 1,
                    egress_port: 2,
                    code: DropCode::TableMiss,
                },
                counter: 1,
                hash: u32::from(sport) ^ device,
            },
        }
    }

    #[test]
    fn sharding_is_stable_per_flow() {
        let e1 = ev(1, 0, 777);
        let e2 = ev(9, 5, 777); // same flow, different device/seq/hash
        assert_eq!(
            flow_shard_hash(&e1.record.flow),
            flow_shard_hash(&e2.record.flow),
            "shard hash must depend only on the flow key"
        );
    }

    #[test]
    fn poll_is_incremental_and_ledger_balances() {
        let mut c = Collector::new();
        let mut eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        eng.attach(&mut c);
        c.ingest(&(0..10).map(|s| ev(1, s, s as u16)).collect::<Vec<_>>());
        assert_eq!(eng.poll(&mut c), 10);
        assert_eq!(eng.poll(&mut c), 0, "nothing new");
        c.ingest(&(10..15).map(|s| ev(1, s, s as u16)).collect::<Vec<_>>());
        assert_eq!(eng.poll(&mut c), 5);
        let ledger = eng.ledger();
        ledger.assert_balanced();
        assert_eq!(ledger.ingested, 15);
        assert_eq!(eng.processed, 15);
    }

    #[test]
    fn coordinated_hard_kill_is_exactly_once() {
        let mut c = Collector::new();
        let mut eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        eng.attach(&mut c);
        let history: Vec<StoredEvent> = (0..30).map(|s| ev(2, s, (s % 7) as u16)).collect();
        c.ingest(&history[..12]);
        eng.poll(&mut c);
        eng.checkpoint(&mut c);
        c.ingest(&history[12..25]);
        eng.poll(&mut c);
        assert_eq!(eng.processed, 25);
        let rolled_back = eng.crash_restart(CrashKind::Hard, &mut c);
        assert_eq!(rolled_back, 13, "events past the checkpoint revert");
        assert_eq!(eng.processed, 12);
        // Sender reconciliation: the full history is re-offered; the
        // gates admit exactly the reverted suffix plus the tail.
        c.ingest(&history);
        eng.poll(&mut c);
        assert_eq!(eng.processed, 30, "every event processed exactly once");
        let ledger = eng.ledger();
        ledger.assert_balanced();
        assert_eq!(ledger.ingested, 30);
        // The sketch weight equals the stream weight: no double counting.
        assert_eq!(eng.shards.iter().map(|s| s.topk.total_weight).sum::<u64>(), 30);
    }

    #[test]
    fn clean_stop_loses_no_analytics_state() {
        let mut c = Collector::new();
        let mut eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        eng.attach(&mut c);
        c.ingest(&(0..8).map(|s| ev(3, s, s as u16)).collect::<Vec<_>>());
        eng.poll(&mut c);
        assert_eq!(eng.crash_restart(CrashKind::Clean, &mut c), 0);
        assert_eq!(eng.processed, 8);
        eng.ledger().assert_balanced();
    }

    #[test]
    fn upstream_loss_scrapes_are_idempotent_and_bounded() {
        let mut eng = AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default());
        let scrape = vec![
            UpstreamLossReport { protocol: WireProtocol::V5, domain: 1, lost: 8, gaps: 2 },
            UpstreamLossReport { protocol: WireProtocol::Ipfix, domain: 1, lost: 3, gaps: 1 },
        ];
        eng.ingest_upstream_loss(scrape.clone());
        eng.ingest_upstream_loss(scrape); // cumulative re-scrape: no double count
        assert_eq!(eng.upstream_losses().iter().map(|r| r.lost).sum::<u64>(), 11);
        assert_eq!(eng.upstream_losses().iter().map(|r| r.gaps).sum::<u64>(), 3);
        assert_eq!(eng.upstream_losses().len(), 2);
        // A later scrape with larger accumulators replaces, not adds.
        eng.ingest_upstream_loss([UpstreamLossReport {
            protocol: WireProtocol::V5,
            domain: 1,
            lost: 10,
            gaps: 3,
        }]);
        assert_eq!(eng.upstream_losses().iter().map(|r| r.lost).sum::<u64>(), 13);
        // The stream map is hard-capped.
        for d in 0..2 * UPSTREAM_STREAM_CAP as u32 {
            eng.ingest_upstream_loss([UpstreamLossReport {
                protocol: WireProtocol::V9,
                domain: d,
                lost: 1,
                gaps: 1,
            }]);
        }
        assert!(eng.upstream_losses().len() <= UPSTREAM_STREAM_CAP);
        assert!(eng.upstream_overflow > 0);
    }

    #[test]
    fn top_flows_merge_across_shards() {
        let mut eng = AnalyticsEngine::new(
            AnalyticsConfig { shards: 4, ..Default::default() },
            LinkMap::default(),
        );
        // 40 distinct flows, flow 777 hit 10 extra times.
        let mut events: Vec<StoredEvent> = (0..40).map(|s| ev(1, s, s as u16)).collect();
        for s in 40..50 {
            events.push(ev(1, s, 777));
        }
        eng.ingest_slice(&events);
        let top = eng.top_flows(1);
        assert_eq!(top[0].flow, ev(0, 0, 777).record.flow);
        assert_eq!(top[0].count, 10);
    }
}
