//! Per-exporter ingest session: version sniffing, stateful template
//! decoding, per-reason accounting, and sequence-gap (upstream loss)
//! detection — everything between "a UDP payload arrived" and "FET events
//! plus honest counters".

use crate::clock::{ClockState, ClockVerdict, CLOCK_LIE_COUNT};
use crate::reason::{RejectReason, REASON_COUNT};
use crate::sets::be16;
use crate::template::{TemplateCache, TemplateCacheConfig};
use crate::translate::FlowSample;
use crate::{ipfix, v5, v9};
use std::collections::BTreeMap;

/// Which export protocol a datagram spoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireProtocol {
    /// NetFlow v5.
    V5,
    /// NetFlow v9.
    V9,
    /// IPFIX (v10).
    Ipfix,
}

impl WireProtocol {
    /// Version tag on the wire.
    pub fn version(self) -> u16 {
        match self {
            WireProtocol::V5 => 5,
            WireProtocol::V9 => 9,
            WireProtocol::Ipfix => 10,
        }
    }
}

/// Session bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSessionConfig {
    /// Template-cache bounds (the headline `max_templates` knob).
    pub template: TemplateCacheConfig,
    /// Largest datagram accepted; longer input is rejected outright.
    pub max_datagram: usize,
    /// Maximum (protocol, domain) sequence streams tracked. Domains are
    /// attacker-controlled 32-bit values, so loss tracking must be bounded
    /// like the template cache; beyond the cap the least recently seen
    /// stream is forgotten (its accumulated loss stays in the session
    /// totals).
    pub max_streams: usize,
}

impl Default for WireSessionConfig {
    fn default() -> Self {
        WireSessionConfig {
            template: TemplateCacheConfig::default(),
            max_datagram: 65535,
            max_streams: 256,
        }
    }
}

/// What one datagram produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Protocol, once the version field was readable.
    pub protocol: Option<WireProtocol>,
    /// Observation domain / engine the datagram belonged to (0 when the
    /// datagram died before the header decoded).
    pub domain: u32,
    /// Decoded flow records, in wire order.
    pub samples: Vec<FlowSample>,
    /// Flow records successfully decoded (== `samples.len()`).
    pub decoded: u64,
    /// Records claimed or started but not decodable.
    pub malformed: u64,
    /// Datagram-fatal rejection, if the framing could not be trusted.
    pub rejected: Option<RejectReason>,
    /// Soft (localized) reject counts by [`RejectReason::index`].
    pub soft: [u64; REASON_COUNT],
    /// Records the exporter's sequence numbers say we never received
    /// (datagrams for v9, whose sequence counts datagrams).
    pub(crate) lost_upstream: u64,
    /// 1 if this datagram revealed a fresh sequence gap.
    pub(crate) gap_events: u64,
    /// The authoritative event time for this datagram's records, ns: the
    /// exporter's export time when plausible, else the collector receive
    /// time (`now_ns`). 0 only on rejected datagrams.
    pub event_time_ns: u64,
    /// Clock lies found, by [`ClockLie::index`](crate::ClockLie::index).
    pub(crate) clock_lies: [u64; CLOCK_LIE_COUNT],
    /// 1 if the export time was present but distrusted (clamped).
    pub(crate) clamped_stamps: u64,
}

impl IngestReport {
    fn rejected(reason: RejectReason, protocol: Option<WireProtocol>) -> Self {
        IngestReport {
            protocol,
            domain: 0,
            samples: Vec::new(),
            decoded: 0,
            malformed: 0,
            rejected: Some(reason),
            soft: [0; REASON_COUNT],
            lost_upstream: 0,
            gap_events: 0,
            event_time_ns: 0,
            clock_lies: [0; CLOCK_LIE_COUNT],
            clamped_stamps: 0,
        }
    }

    /// Ledger contribution of this datagram: every record that enters the
    /// `generated` term.
    pub fn claimed(&self) -> u64 {
        self.decoded + self.malformed
    }
}

/// Running totals across a session's lifetime; all monotonic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSessionStats {
    /// Datagrams offered.
    pub datagrams: u64,
    /// Datagrams that decoded (possibly with soft defects).
    pub accepted: u64,
    /// Datagrams rejected outright.
    pub rejected: u64,
    /// Fatal rejections by [`RejectReason::index`].
    pub rejects: [u64; REASON_COUNT],
    /// Soft rejections by [`RejectReason::index`].
    pub soft: [u64; REASON_COUNT],
    /// Flow records decoded.
    pub decoded: u64,
    /// Records booked as malformed.
    pub malformed: u64,
    /// Upstream loss units (records; datagrams for v9).
    pub lost_upstream: u64,
    /// Distinct sequence gaps observed.
    pub(crate) gap_events: u64,
    /// Clock lies by [`ClockLie::index`](crate::ClockLie::index).
    pub clock_lies: [u64; CLOCK_LIE_COUNT],
    /// Datagrams whose export time was present but distrusted.
    pub clamped_stamps: u64,
}

impl Default for WireSessionStats {
    fn default() -> Self {
        WireSessionStats {
            datagrams: 0,
            accepted: 0,
            rejected: 0,
            rejects: [0; REASON_COUNT],
            soft: [0; REASON_COUNT],
            decoded: 0,
            malformed: 0,
            lost_upstream: 0,
            gap_events: 0,
            clock_lies: [0; CLOCK_LIE_COUNT],
            clamped_stamps: 0,
        }
    }
}

/// Accumulated upstream loss for one (protocol, domain) stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpstreamLossReport {
    /// Export protocol of the stream.
    pub protocol: WireProtocol,
    /// Observation domain / engine id.
    pub domain: u32,
    /// Loss units (flow records for v5/IPFIX; datagrams for v9).
    pub lost: u64,
    /// Distinct gaps.
    pub gaps: u64,
}

/// Largest single sequence jump still believed to be real upstream loss;
/// larger jumps are treated as an exporter restart.
pub(crate) const MAX_PLAUSIBLE_GAP: u32 = 1 << 24;

#[derive(Debug, Clone, Copy)]
struct SeqState {
    expected: u32,
    lost: u64,
    gaps: u64,
    touch: u64,
    clock: ClockState,
}

/// A stateful ingest session (one per exporter peer, or one shared — the
/// observation domain keys all internal state).
#[derive(Debug)]
pub struct WireSession {
    cfg: WireSessionConfig,
    cache: TemplateCache,
    seq: BTreeMap<(WireProtocol, u32), SeqState>,
    seq_tick: u64,
    stats: WireSessionStats,
}

impl WireSession {
    /// New session with the given bounds.
    pub fn new(cfg: WireSessionConfig) -> Self {
        WireSession {
            cache: TemplateCache::new(cfg.template),
            cfg,
            seq: BTreeMap::new(),
            seq_tick: 0,
            stats: WireSessionStats::default(),
        }
    }

    /// The template cache (bounded; inspect occupancy and stats here).
    pub fn cache(&self) -> &TemplateCache {
        &self.cache
    }

    /// Session totals.
    pub fn stats(&self) -> &WireSessionStats {
        &self.stats
    }

    /// Expire stale templates; returns how many were dropped.
    pub fn sweep_templates(&mut self, now_ns: u64) -> u64 {
        self.cache.sweep(now_ns)
    }

    /// Per-stream upstream-loss accumulators, in deterministic key order.
    pub fn upstream_losses(&self) -> Vec<UpstreamLossReport> {
        self.seq
            .iter()
            .filter(|(_, s)| s.gaps > 0)
            .map(|(&(protocol, domain), s)| UpstreamLossReport {
                protocol,
                domain,
                lost: s.lost,
                gaps: s.gaps,
            })
            .collect()
    }

    /// Track a stream's sequence number. `advance` is how far this
    /// datagram moves the counter (records or datagrams, per protocol).
    ///
    /// A forward jump up to [`MAX_PLAUSIBLE_GAP`] is loss; anything larger
    /// is indistinguishable from an exporter restart (sequence collapsing
    /// through the u32 wraparound) and re-bases silently — the cap keeps a
    /// restart from being booked as hundreds of millions of lost records.
    fn track_sequence(
        &mut self,
        protocol: WireProtocol,
        domain: u32,
        seq: u32,
        advance: u32,
    ) -> (u64, u64) {
        self.seq_tick += 1;
        let tick = self.seq_tick;
        if !self.seq.contains_key(&(protocol, domain))
            && self.seq.len() >= self.cfg.max_streams.max(1)
        {
            // Forget the least recently seen stream; its loss totals were
            // already folded into the session stats as they accrued.
            if let Some((&victim, _)) = self.seq.iter().min_by_key(|(k, s)| (s.touch, **k)) {
                self.seq.remove(&victim);
            }
        }
        let entry = self.seq.entry((protocol, domain)).or_insert(SeqState {
            expected: seq,
            lost: 0,
            gaps: 0,
            touch: tick,
            clock: ClockState::default(),
        });
        entry.touch = tick;
        let diff = seq.wrapping_sub(entry.expected);
        let (lost, gaps) = if diff == 0 || diff > MAX_PLAUSIBLE_GAP {
            (0, 0) // in order, or reorder/restart — re-base without loss
        } else {
            entry.lost += diff as u64;
            entry.gaps += 1;
            (diff as u64, 1)
        };
        entry.expected = seq.wrapping_add(advance);
        (lost, gaps)
    }

    /// Vet one datagram's clock claims against its stream's history: the
    /// header's export time and sysuptime, plus every record's
    /// first/last-switched pair. Called after [`Self::track_sequence`] so
    /// the stream entry exists; if the stream was just LRU-evicted, a
    /// fresh history still produces a sound (if lenient) verdict.
    fn vet_clock(
        &mut self,
        protocol: WireProtocol,
        domain: u32,
        export_secs: u32,
        sysuptime_ms: u32,
        samples: &[FlowSample],
        now_ns: u64,
    ) -> ClockVerdict {
        let mut fresh = ClockState::default();
        let clock = match self.seq.get_mut(&(protocol, domain)) {
            Some(s) => &mut s.clock,
            None => &mut fresh,
        };
        let mut verdict = clock.vet(export_secs, sysuptime_ms, now_ns);
        for s in samples {
            ClockState::vet_record(s.first_ms, s.last_ms, &mut verdict.lies);
        }
        verdict
    }

    /// Ingest one datagram. Never panics on any input.
    pub fn ingest(&mut self, datagram: &[u8], now_ns: u64) -> IngestReport {
        self.stats.datagrams += 1;
        let report = self.ingest_inner(datagram, now_ns);
        if let Some(reason) = report.rejected {
            self.stats.rejected += 1;
            self.stats.rejects[reason.index()] += 1;
        } else {
            self.stats.accepted += 1;
        }
        for i in 0..REASON_COUNT {
            self.stats.soft[i] += report.soft[i];
        }
        for i in 0..CLOCK_LIE_COUNT {
            self.stats.clock_lies[i] += report.clock_lies[i];
        }
        self.stats.clamped_stamps += report.clamped_stamps;
        self.stats.decoded += report.decoded;
        self.stats.malformed += report.malformed;
        self.stats.lost_upstream += report.lost_upstream;
        self.stats.gap_events += report.gap_events;
        report
    }

    fn ingest_inner(&mut self, datagram: &[u8], now_ns: u64) -> IngestReport {
        if datagram.len() > self.cfg.max_datagram {
            return IngestReport::rejected(RejectReason::Oversize, None);
        }
        if datagram.len() < 2 {
            return IngestReport::rejected(RejectReason::TruncatedHeader, None);
        }
        let (protocol, parsed) = match be16(datagram, 0) {
            5 => (WireProtocol::V5, v5::parse(datagram)),
            9 => (WireProtocol::V9, v9::parse(datagram, &mut self.cache, now_ns)),
            10 => (WireProtocol::Ipfix, ipfix::parse(datagram, &mut self.cache, now_ns)),
            _ => return IngestReport::rejected(RejectReason::BadVersion, None),
        };
        let dg = match parsed {
            Ok(dg) => dg,
            Err(r) => return IngestReport::rejected(r, Some(protocol)),
        };
        let (lost, gaps) = self.track_sequence(protocol, dg.domain, dg.sequence, dg.seq_advance);
        let verdict = self.vet_clock(
            protocol,
            dg.domain,
            dg.export_secs,
            dg.sysuptime_ms,
            &dg.samples,
            now_ns,
        );
        IngestReport {
            protocol: Some(protocol),
            domain: dg.domain,
            decoded: dg.samples.len() as u64,
            samples: dg.samples,
            malformed: dg.malformed,
            rejected: None,
            soft: dg.soft,
            lost_upstream: lost,
            gap_events: gaps,
            event_time_ns: verdict.event_time_ns,
            clock_lies: verdict.lies,
            clamped_stamps: verdict.clamped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{v5_datagram, IpfixBuilder, V9Builder};
    use crate::fields::base_flow_fields;
    use crate::test_support::sample;

    fn session() -> WireSession {
        WireSession::new(WireSessionConfig::default())
    }

    #[test]
    fn mixed_protocols_share_a_session() {
        let mut s = session();
        let r = s.ingest(&v5_datagram(0, 0, 1, &[sample(1)]), 0);
        assert_eq!(r.protocol, Some(WireProtocol::V5));
        assert_eq!(r.decoded, 1);
        let dg = V9Builder::new(7, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(2)])
            .build();
        assert_eq!(s.ingest(&dg, 0).decoded, 1);
        let dg = IpfixBuilder::new(9, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(3)])
            .build();
        assert_eq!(s.ingest(&dg, 0).decoded, 1);
        assert_eq!(s.stats().datagrams, 3);
        assert_eq!(s.stats().accepted, 3);
        assert_eq!(s.stats().decoded, 3);
    }

    #[test]
    fn v5_sequence_gap_counts_lost_records() {
        let mut s = session();
        s.ingest(&v5_datagram(100, 0, 1, &[sample(1), sample(2)]), 0);
        // Next expected 102; jump to 110 = 8 records lost upstream.
        let r = s.ingest(&v5_datagram(110, 0, 1, &[sample(3)]), 0);
        assert_eq!(r.lost_upstream, 8);
        assert_eq!(r.gap_events, 1);
        let losses = s.upstream_losses();
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].protocol, WireProtocol::V5);
        assert_eq!(losses[0].lost, 8);
    }

    #[test]
    fn v9_sequence_gap_counts_lost_datagrams() {
        let mut s = session();
        let d = |seq| V9Builder::new(7, seq).template(256, &base_flow_fields()).build();
        s.ingest(&d(5), 0);
        let r = s.ingest(&d(9), 0); // skipped 6,7,8
        assert_eq!(r.lost_upstream, 3);
        assert_eq!(s.upstream_losses()[0].domain, 7);
    }

    #[test]
    fn ipfix_sequence_gap_counts_lost_records() {
        let mut s = session();
        let d = |seq, n: usize| {
            let rows: Vec<FlowSample> = (0..n).map(|i| sample(i as u8)).collect();
            IpfixBuilder::new(3, seq)
                .template(256, &base_flow_fields())
                .data_samples(256, &rows)
                .build()
        };
        s.ingest(&d(0, 2), 0);
        // Next expected 2; claiming 7 means records 2..7 vanished.
        let r = s.ingest(&d(7, 1), 0);
        assert_eq!(r.lost_upstream, 5);
    }

    #[test]
    fn restart_rebases_without_loss() {
        let mut s = session();
        s.ingest(&v5_datagram(4_000_000_000, 0, 1, &[sample(1)]), 0);
        // Exporter restarted: sequence collapses backwards.
        let r = s.ingest(&v5_datagram(3, 0, 1, &[sample(2)]), 0);
        assert_eq!(r.lost_upstream, 0);
        assert_eq!(r.gap_events, 0);
        assert!(s.upstream_losses().is_empty());
    }

    #[test]
    fn wraparound_is_not_loss() {
        let mut s = session();
        s.ingest(&v5_datagram(u32::MAX, 0, 1, &[sample(1)]), 0);
        // 0xffff_ffff + 1 wraps to 0: in order.
        let r = s.ingest(&v5_datagram(0, 0, 1, &[sample(2)]), 0);
        assert_eq!(r.lost_upstream, 0);
    }

    #[test]
    fn streams_are_tracked_independently() {
        let mut s = session();
        s.ingest(&v5_datagram(10, 0, 1, &[sample(1)]), 0);
        s.ingest(&v5_datagram(50, 0, 2, &[sample(1)]), 0);
        let r = s.ingest(&v5_datagram(11, 0, 1, &[sample(1)]), 0);
        assert_eq!(r.lost_upstream, 0, "engine 2's sequence must not bleed into engine 1");
    }

    #[test]
    fn oversize_and_garbage_are_counted_by_reason() {
        let mut s = WireSession::new(WireSessionConfig { max_datagram: 64, ..Default::default() });
        s.ingest(&[0u8; 65], 0);
        s.ingest(&[1], 0);
        s.ingest(&[0, 77, 1, 2], 0);
        let st = s.stats();
        assert_eq!(st.rejected, 3);
        assert_eq!(st.rejects[RejectReason::Oversize.index()], 1);
        assert_eq!(st.rejects[RejectReason::TruncatedHeader.index()], 1);
        assert_eq!(st.rejects[RejectReason::BadVersion.index()], 1);
        assert_eq!(st.accepted, 0);
    }

    #[test]
    fn stream_tracking_is_bounded() {
        let mut s = WireSession::new(WireSessionConfig { max_streams: 8, ..Default::default() });
        for engine in 0..100u8 {
            s.ingest(&v5_datagram(10, 0, engine, &[sample(engine)]), 0);
        }
        // A hostile exporter spraying domains cannot grow the seq map.
        assert!(s.upstream_losses().len() <= 8);
        // Losses already accrued stay in session totals even after the
        // stream itself is forgotten.
        s.ingest(&v5_datagram(0, 1, 1, &[sample(1)]), 0);
        s.ingest(&v5_datagram(6, 1, 1, &[sample(2)]), 0);
        let lost_before = s.stats().lost_upstream;
        assert!(lost_before >= 5);
        for engine in 0..100u8 {
            s.ingest(&v5_datagram(10, 0, engine, &[sample(engine)]), 0);
        }
        assert_eq!(s.stats().lost_upstream, lost_before, "totals survive eviction");
    }

    #[test]
    fn zero_clock_datagrams_take_receive_time_without_lies() {
        let mut s = session();
        let now = 42_000_000_000;
        let r = s.ingest(&v5_datagram(0, 0, 1, &[sample(1)]), now);
        assert_eq!(r.event_time_ns, now);
        assert_eq!(r.clock_lies, [0; crate::clock::CLOCK_LIE_COUNT]);
        assert_eq!(r.clamped_stamps, 0);
        assert_eq!(s.stats().clamped_stamps, 0);
    }

    #[test]
    fn plausible_export_time_becomes_the_event_time() {
        let mut s = session();
        let dg = crate::builder::v5_datagram_with_times(0, 0, 1, &[sample(1)], 1, 5_000, 1_000_000);
        let r = s.ingest(&dg, 1_000_001_000_000_000);
        assert_eq!(r.event_time_ns, 1_000_000_000_000_000);
        assert_eq!(r.clamped_stamps, 0);
    }

    #[test]
    fn future_export_time_is_clamped_and_counted() {
        let mut s = session();
        let dg = crate::builder::v5_datagram_with_times(0, 0, 1, &[sample(1)], 1, 5_000, 9_999);
        let now = 100_000_000_000; // 100 s << 9_999 s claim
        let r = s.ingest(&dg, now);
        assert_eq!(r.event_time_ns, now, "clamped to receive time");
        assert_eq!(r.clock_lies[crate::ClockLie::FutureExport.index()], 1);
        assert_eq!(r.clamped_stamps, 1);
        assert_eq!(s.stats().clock_lies[crate::ClockLie::FutureExport.index()], 1);
        assert_eq!(s.stats().clamped_stamps, 1);
    }

    #[test]
    fn frozen_sysuptime_surfaces_after_a_run() {
        let mut s = session();
        let mut total = 0;
        for i in 0..5u32 {
            let dg = V9Builder::new(7, i).times(777, 0).template(256, &base_flow_fields()).build();
            let r = s.ingest(&dg, u64::from(i) * 1_000_000_000);
            total += r.clock_lies[crate::ClockLie::FrozenSysuptime.index()];
        }
        assert!(total > 0, "a dead tick source must surface");
        assert_eq!(s.stats().clock_lies[crate::ClockLie::FrozenSysuptime.index()], total);
    }

    #[test]
    fn wrap_straddling_flow_is_not_a_lie() {
        let mut s = session();
        let mut ok = sample(1);
        ok.first_ms = u32::MAX - 100;
        ok.last_ms = 400; // 501 ms across the wrap: plausible
        let r = s.ingest(&v5_datagram(0, 0, 1, &[ok]), 0);
        assert_eq!(r.clock_lies, [0; crate::clock::CLOCK_LIE_COUNT]);
        // A genuinely backwards pair IS a lie.
        let mut bad = sample(2);
        bad.first_ms = 9_000;
        bad.last_ms = 4_000;
        let r = s.ingest(&v5_datagram(1, 0, 1, &[bad]), 0);
        assert_eq!(r.clock_lies[crate::ClockLie::ImplausibleDuration.index()], 1);
        assert_eq!(r.decoded, 1, "clock lies are soft: the record still decodes");
    }

    #[test]
    fn ipfix_export_time_is_vetted() {
        let mut s = session();
        let dg = IpfixBuilder::new(9, 0)
            .export_time(50_000)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(3)])
            .build();
        let now = 100_000_000_000; // 100 s: claim of 50_000 s is future
        let r = s.ingest(&dg, now);
        assert_eq!(r.clock_lies[crate::ClockLie::FutureExport.index()], 1);
        assert_eq!(r.event_time_ns, now);
        assert_eq!(r.decoded, 1);
    }

    #[test]
    fn claimed_is_decoded_plus_malformed() {
        let mut s = session();
        let dg = crate::builder::v5_datagram_with_count(0, 0, 1, &[sample(1)], 4);
        let r = s.ingest(&dg, 0);
        assert_eq!(r.decoded, 1);
        assert_eq!(r.malformed, 3);
        assert_eq!(r.claimed(), 4);
    }
}
