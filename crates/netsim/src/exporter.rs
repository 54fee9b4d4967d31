//! A seeded hostile-exporter workload: the adversarial NetFlow/IPFIX
//! traffic model the chaos and determinism harnesses throw at the wire
//! ingestion path.
//!
//! The exporter interleaves three kinds of datagrams, all drawn from one
//! [`Pcg32`] stream so a seed fully determines the byte sequence:
//!
//! * **Honest traffic** across `domains` exporter streams (protocol
//!   round-robins v5 / v9 / IPFIX per domain), with templates announced
//!   before data and export sequence numbers maintained per stream.
//! * **Upstream loss**: with `drop_prob`, an honest datagram is "lost on
//!   the wire" — the sequence counter advances but nothing is emitted, so
//!   the collector's gap detector has real loss to find.
//! * **Attacks** with `hostility`: template floods, count and length
//!   lies, data-before-template, reserved set ids, random garbage, and
//!   [`corrupt_buffer`]-style damage to otherwise valid datagrams. Every
//!   attack maps to a reject reason or malformed count on the parser
//!   side; none may panic it or grow its state.
//! * **Clock lies** with `clock_hostility`: structurally valid datagrams
//!   whose time fields lie — future export stamps, frozen sysuptimes,
//!   wrap-straddling and backwards first/last pairs, backwards export
//!   times. The parser must *accept* these (they are real flow records)
//!   while booking each lie under a `fet_wire::ClockLie` and clamping the
//!   event-time stamp to the collector's receive time.

use crate::corrupt::{corrupt_buffer, CorruptionSpec};
use crate::rng::Pcg32;
use fet_packet::flow::{FlowKey, IpProtocol};
use fet_packet::Ipv4Addr;
use fet_wire::builder::{
    v5_datagram, v5_datagram_with_count, v5_datagram_with_times, IpfixBuilder, V9Builder,
};
use fet_wire::fields::base_flow_fields;
use fet_wire::FlowSample;

/// Workload shape. Defaults are the chaos harness's storm profile.
#[derive(Debug, Clone, Copy)]
pub struct HostileExporterConfig {
    /// Master seed: same seed, same byte stream.
    pub seed: u64,
    /// Honest exporter streams (observation domains / engines).
    pub domains: u32,
    /// Records per honest datagram (1..=this, uniform).
    pub max_records: u32,
    /// Probability a datagram is an attack instead of honest traffic.
    pub hostility: f64,
    /// Probability a datagram is a clock-lie probe: valid framing and
    /// records, lying clocks (future stamps, frozen sysuptime,
    /// wrap-straddling first/last pairs, backwards export times). 0.0
    /// (the default) draws nothing, so pre-existing seeds reproduce
    /// bit-for-bit.
    pub clock_hostility: f64,
    /// Probability an honest datagram is dropped upstream (sequence
    /// advances, nothing emitted) — the real-loss signal.
    pub drop_prob: f64,
    /// Random damage applied to honest datagrams before emission.
    pub corruption: CorruptionSpec,
}

impl Default for HostileExporterConfig {
    fn default() -> Self {
        HostileExporterConfig {
            seed: 1,
            domains: 8,
            max_records: 8,
            hostility: 0.3,
            clock_hostility: 0.0,
            drop_prob: 0.05,
            corruption: CorruptionSpec::none(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    seq: u32,
    announced: bool,
}

/// The workload generator. Drive [`emit`](Self::emit) in a loop and feed
/// every `Some` datagram to the ingest path under test.
#[derive(Debug, Clone)]
pub struct HostileExporter {
    cfg: HostileExporterConfig,
    rng: Pcg32,
    streams: Vec<StreamState>,
    flood_tid: u16,
    /// Datagrams emitted (honest + attack).
    pub(crate) emitted: u64,
    /// Attack datagrams emitted.
    pub attacks: u64,
    /// Honest datagrams dropped upstream (never emitted).
    pub dropped_upstream: u64,
    /// Sequence units the drops consumed (records for v5/IPFIX, datagrams
    /// for v9) — the ceiling on detectable upstream loss.
    pub(crate) dropped_units: u64,
    /// Honest flow records emitted undamaged-by-construction (corruption
    /// may still have mangled the bytes in flight).
    pub(crate) honest_records: u64,
    /// Honest datagrams the corruption model visibly damaged.
    pub corrupted: u64,
    /// Clock-lie datagrams emitted.
    pub clock_attacks: u64,
    /// Sequence counters of the clock-lie streams (v5 and IPFIX carry
    /// distinct streams, each gap-free, so clock lies never read as
    /// upstream loss).
    clock_seq: u32,
    clock_seq_ipfix: u32,
    /// Alternates the backwards-export mode between a high and a low
    /// export time.
    clock_flip: bool,
}

/// RNG stream id for the exporter's draws (disjoint from the fault and
/// corruption stream ids used elsewhere in the simulator).
pub(crate) const EXPORTER_STREAM: u64 = 0x4e46_4c4f; // "NFLO"

impl HostileExporter {
    /// A workload from its config.
    pub fn new(cfg: HostileExporterConfig) -> Self {
        HostileExporter {
            rng: Pcg32::new(cfg.seed, EXPORTER_STREAM),
            streams: vec![StreamState::default(); cfg.domains.max(1) as usize],
            cfg,
            flood_tid: 256,
            emitted: 0,
            attacks: 0,
            dropped_upstream: 0,
            dropped_units: 0,
            honest_records: 0,
            corrupted: 0,
            clock_attacks: 0,
            clock_seq: 0,
            clock_seq_ipfix: 0,
            clock_flip: false,
        }
    }

    fn sample(&mut self) -> FlowSample {
        let r = self.rng.next_u32();
        let sport = 1024 + (self.rng.next_u32() % 50_000) as u16;
        let proto = if self.rng.chance(0.8) { IpProtocol::Tcp } else { IpProtocol::Udp };
        FlowSample {
            flow: FlowKey {
                src: Ipv4Addr::from_octets([10, (r >> 16) as u8, (r >> 8) as u8, r as u8]),
                dst: Ipv4Addr::from_octets([10, 200, (r >> 24) as u8, 1]),
                sport,
                dport: 443,
                proto,
            },
            in_port: 1 + (self.rng.next_u32() % 32) as u16,
            out_port: 1 + (self.rng.next_u32() % 32) as u16,
            packets: 1 + u64::from(self.rng.next_u32() % 1000),
            bytes: 64 + u64::from(self.rng.next_u32() % 100_000),
            tcp_flags: 0x10,
            forwarding_status: if self.rng.chance(0.1) {
                Some(0x80) // dropped-by-forwarding: a real drop event
            } else {
                Some(0x40)
            },
            first_ms: 0,
            last_ms: 0,
        }
    }

    fn samples(&mut self, n: usize) -> Vec<FlowSample> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// One honest datagram for stream `d`, advancing its sequence by the
    /// protocol's own unit (records for v5/IPFIX, datagrams for v9).
    fn honest(&mut self, d: usize) -> Vec<u8> {
        let n = 1 + self.rng.next_below(self.cfg.max_records.max(1)) as usize;
        let rows = self.samples(n);
        self.honest_records += n as u64;
        let seq = self.streams[d].seq;
        let tid = 256 + (d % 4) as u16;
        match d % 3 {
            0 => {
                let n = rows.len().min(30);
                self.streams[d].seq = seq.wrapping_add(n as u32);
                v5_datagram(seq, (d >> 8) as u8, d as u8, &rows[..n])
            }
            1 => {
                self.streams[d].seq = seq.wrapping_add(1);
                let mut b = V9Builder::new(d as u32, seq);
                if !self.streams[d].announced || self.rng.chance(0.02) {
                    b = b.template(tid, &base_flow_fields());
                    self.streams[d].announced = true;
                }
                b.data_samples(tid, &rows).build()
            }
            _ => {
                self.streams[d].seq = seq.wrapping_add(rows.len() as u32);
                let mut b = IpfixBuilder::new(d as u32, seq);
                if !self.streams[d].announced || self.rng.chance(0.02) {
                    b = b.template(tid, &base_flow_fields());
                    self.streams[d].announced = true;
                }
                b.data_samples(tid, &rows).build()
            }
        }
    }

    /// One attack datagram. Attacks use domains past the honest range so
    /// they never desynchronize an honest stream's sequence numbers.
    fn attack(&mut self) -> Vec<u8> {
        let domain = self.cfg.domains + 1 + self.rng.next_u32() % 4;
        match self.rng.next_below(8) {
            0 => {
                // Template flood: fresh ids forever, probing the cache
                // bound.
                let mut b = V9Builder::new(domain, 0);
                for _ in 0..8 {
                    b = b.template(self.next_flood_tid(), &base_flow_fields());
                }
                b.build()
            }
            1 => {
                // v5 fatal count lie: claims more records than v5 can
                // physically carry.
                let rows = self.samples(1);
                v5_datagram_with_count(0, 0, 0, &rows, 31 + (self.rng.next_u32() % 1000) as u16)
            }
            2 => {
                // v5 soft count lie: claims within bounds, ships less —
                // the malformed-inflation probe.
                let rows = self.samples(2);
                v5_datagram_with_count(0, 0, 0, &rows, 3 + (self.rng.next_u32() % 28) as u16)
            }
            3 => {
                // v9 length lie: flowset header points past the datagram.
                let lie = [0x01u8, 0x04, 0xff, 0xff];
                V9Builder::new(domain, 0).raw_flowset(0x0100 + 7, &lie).build()
            }
            4 => {
                // IPFIX message-length lie.
                let rows = self.samples(1);
                IpfixBuilder::new(domain, 0)
                    .template(300, &base_flow_fields())
                    .data_samples(300, &rows)
                    .build_with_length(7 + (self.rng.next_u32() % 60) as u16)
            }
            5 => {
                // Data before template: records under an id nobody
                // announced.
                let body: Vec<u8> = (0..24).map(|_| self.rng.next_u32() as u8).collect();
                if self.rng.chance(0.5) {
                    V9Builder::new(domain, 0).raw_flowset(999, &body).build()
                } else {
                    IpfixBuilder::new(domain, 0).raw_set(999, &body).build()
                }
            }
            6 => {
                // Reserved set id (v9: 2..=255 are reserved).
                V9Builder::new(domain, 0).raw_flowset(5, &[0u8; 8]).build()
            }
            _ => {
                // Pure garbage, version field included.
                let len = 2 + self.rng.next_below(120) as usize;
                (0..len).map(|_| self.rng.next_u32() as u8).collect()
            }
        }
    }

    /// One clock-lie datagram: framing and records are valid (the parser
    /// must *accept* these), only the time fields lie. Uses a dedicated
    /// domain past the honest range with its own coherent sequence
    /// counter, so clock lies never read as upstream loss.
    fn clock_lie(&mut self) -> Vec<u8> {
        let domain = self.cfg.domains + 8;
        let n = 1 + self.rng.next_below(3) as usize;
        let mut rows = self.samples(n);
        let seq = self.clock_seq;
        match self.rng.next_below(4) {
            0 => {
                // Export time deep in the exporter's claimed future.
                let secs = 2_000_000_000 + self.rng.next_u32() % 1_000_000;
                self.clock_seq = seq.wrapping_add(rows.len() as u32);
                v5_datagram_with_times(
                    seq,
                    (domain >> 8) as u8,
                    domain as u8,
                    &rows,
                    rows.len() as u16,
                    1_000,
                    secs,
                )
            }
            1 => {
                // Sysuptime frozen at a constant across emissions.
                self.clock_seq = seq.wrapping_add(rows.len() as u32);
                v5_datagram_with_times(
                    seq,
                    (domain >> 8) as u8,
                    domain as u8,
                    &rows,
                    rows.len() as u16,
                    0x00BE_EF00,
                    0,
                )
            }
            2 => {
                // Record times: one legitimate wrap-straddler (must NOT be
                // flagged) and, when room, one backwards pair (must be).
                rows[0].first_ms = u32::MAX - 500;
                rows[0].last_ms = 200 + self.rng.next_u32() % 300;
                if rows.len() > 1 {
                    rows[1].first_ms = 9_000_000;
                    rows[1].last_ms = 1_000_000;
                }
                self.clock_seq = seq.wrapping_add(rows.len() as u32);
                v5_datagram_with_times(
                    seq,
                    (domain >> 8) as u8,
                    domain as u8,
                    &rows,
                    rows.len() as u16,
                    0,
                    0,
                )
            }
            _ => {
                // Export time marching backwards every other datagram.
                self.clock_flip = !self.clock_flip;
                let secs = if self.clock_flip { 500_000 } else { 100 + self.rng.next_u32() % 50 };
                let seq = self.clock_seq_ipfix;
                self.clock_seq_ipfix = seq.wrapping_add(rows.len() as u32);
                IpfixBuilder::new(domain, seq)
                    .export_time(secs)
                    .template(310, &base_flow_fields())
                    .data_samples(310, &rows)
                    .build()
            }
        }
    }

    fn next_flood_tid(&mut self) -> u16 {
        let tid = self.flood_tid;
        self.flood_tid = if self.flood_tid == u16::MAX { 256 } else { self.flood_tid + 1 };
        tid
    }

    /// Produce the next datagram. `None` means an honest datagram was
    /// dropped upstream: its stream's sequence advanced, nothing reaches
    /// the collector, and the gap is detectable from the next arrival.
    pub fn emit(&mut self) -> Option<Vec<u8>> {
        if self.rng.chance(self.cfg.hostility) {
            self.attacks += 1;
            self.emitted += 1;
            return Some(self.attack());
        }
        if self.rng.chance(self.cfg.clock_hostility) {
            self.clock_attacks += 1;
            self.emitted += 1;
            return Some(self.clock_lie());
        }
        let d = self.rng.next_below(self.cfg.domains.max(1)) as usize;
        let before = self.streams[d].seq;
        let dg = self.honest(d);
        if self.rng.chance(self.cfg.drop_prob) {
            self.dropped_upstream += 1;
            self.dropped_units += u64::from(self.streams[d].seq.wrapping_sub(before));
            return None;
        }
        let mut dg = dg;
        if self.cfg.corruption.is_active() {
            let tally = corrupt_buffer(&self.cfg.corruption, &mut self.rng, &mut dg);
            if tally.touched() {
                self.corrupted += 1;
            }
        }
        self.emitted += 1;
        Some(dg)
    }

    /// Emit `n` draws and keep the ones that survived the upstream drop
    /// model.
    pub fn emit_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n).filter_map(|_| self.emit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_wire::{WireSession, WireSessionConfig};

    fn run(cfg: HostileExporterConfig, n: usize) -> (HostileExporter, WireSession) {
        let mut ex = HostileExporter::new(cfg);
        let mut s = WireSession::new(WireSessionConfig::default());
        for _ in 0..n {
            if let Some(dg) = ex.emit() {
                s.ingest(&dg, 0);
            }
        }
        (ex, s)
    }

    #[test]
    fn same_seed_same_bytes() {
        let cfg = HostileExporterConfig {
            hostility: 0.5,
            drop_prob: 0.1,
            corruption: CorruptionSpec { flip_per_byte: 0.01, ..CorruptionSpec::none() },
            ..Default::default()
        };
        let mut a = HostileExporter::new(cfg);
        let mut b = HostileExporter::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.emit(), b.emit());
        }
    }

    #[test]
    fn honest_traffic_parses_cleanly() {
        let cfg = HostileExporterConfig { hostility: 0.0, drop_prob: 0.0, ..Default::default() };
        let (ex, s) = run(cfg, 400);
        assert_eq!(s.stats().rejected, 0);
        assert_eq!(s.stats().malformed, 0);
        assert_eq!(s.stats().decoded, ex.honest_records);
        assert_eq!(s.stats().lost_upstream, 0);
    }

    #[test]
    fn upstream_drops_are_detected_within_the_ceiling() {
        let cfg = HostileExporterConfig { hostility: 0.0, drop_prob: 0.2, ..Default::default() };
        let (ex, s) = run(cfg, 2000);
        assert!(ex.dropped_upstream > 0);
        let detected = s.stats().lost_upstream;
        assert!(detected > 0, "gaps must surface");
        assert!(detected <= ex.dropped_units, "detected {detected} > dropped {}", ex.dropped_units);
    }

    #[test]
    fn attacks_never_panic_and_are_all_accounted() {
        let cfg = HostileExporterConfig { hostility: 1.0, ..Default::default() };
        let (ex, s) = run(cfg, 2000);
        assert_eq!(ex.attacks, 2000);
        let st = s.stats();
        assert_eq!(st.datagrams, 2000);
        assert_eq!(st.accepted + st.rejected, 2000);
        // Multiple distinct reject reasons must fire across the taxonomy.
        let distinct = st.rejects.iter().filter(|&&c| c > 0).count()
            + st.soft.iter().filter(|&&c| c > 0).count();
        assert!(distinct >= 4, "attack mix too narrow: {distinct} reasons");
    }

    #[test]
    fn zero_clock_hostility_preserves_the_byte_stream() {
        // The clock-lie branch must be draw-free when disabled, so every
        // pre-existing seed reproduces bit-for-bit.
        let cfg = HostileExporterConfig {
            hostility: 0.4,
            drop_prob: 0.1,
            corruption: CorruptionSpec { flip_per_byte: 0.01, ..CorruptionSpec::none() },
            ..Default::default()
        };
        let mut a = HostileExporter::new(cfg);
        let mut b = HostileExporter::new(HostileExporterConfig { clock_hostility: 0.0, ..cfg });
        for _ in 0..500 {
            assert_eq!(a.emit(), b.emit());
        }
    }

    #[test]
    fn clock_lies_are_accepted_but_booked() {
        let cfg = HostileExporterConfig {
            hostility: 0.0,
            clock_hostility: 1.0,
            drop_prob: 0.0,
            ..Default::default()
        };
        let (ex, s) = run(cfg, 800);
        assert_eq!(ex.clock_attacks, 800);
        let st = s.stats();
        // Structurally valid: everything decodes, nothing is refused.
        assert_eq!(st.datagrams, 800);
        assert_eq!(st.rejected, 0);
        assert_eq!(st.malformed, 0);
        assert_eq!(st.lost_upstream, 0, "clock-lie streams are gap-free");
        // ... but the lies themselves are visible across the taxonomy.
        let kinds = st.clock_lies.iter().filter(|&&c| c > 0).count();
        assert!(kinds >= 3, "clock-lie mix too narrow: {kinds} kinds, {:?}", st.clock_lies);
        assert!(st.clamped_stamps > 0, "implausible stamps must clamp");
    }

    #[test]
    fn clock_lie_mix_with_attacks_stays_accounted() {
        let cfg = HostileExporterConfig {
            hostility: 0.3,
            clock_hostility: 0.3,
            drop_prob: 0.05,
            ..Default::default()
        };
        let (ex, s) = run(cfg, 2000);
        assert!(ex.clock_attacks > 0 && ex.attacks > 0);
        let st = s.stats();
        assert_eq!(st.accepted + st.rejected, st.datagrams);
        assert!(st.clock_lies.iter().sum::<u64>() > 0);
    }

    #[test]
    fn template_flood_cannot_grow_the_cache() {
        let cfg = HostileExporterConfig { hostility: 1.0, ..Default::default() };
        let mut ex = HostileExporter::new(cfg);
        let mut s = WireSession::new(WireSessionConfig::default());
        for _ in 0..3000 {
            if let Some(dg) = ex.emit() {
                s.ingest(&dg, 0);
            }
        }
        let max = s.cache().config().max_templates;
        assert!(s.cache().max_domain_len() <= max);
    }
}
