//! Seeded, structure-aware fuzz harness for every `fet-packet` parser.
//!
//! No external fuzzing dependency: the in-tree `Pcg32` drives two input
//! families per parser —
//!
//! * **random buffers** — raw noise at assorted lengths, including the
//!   empty buffer and off-by-one truncations around each header size;
//! * **mutated-valid buffers** — a well-formed frame from the real
//!   builders, then damaged by `fet_netsim::corrupt::corrupt_buffer`
//!   (bit flips + truncation + duplication), which preserves enough
//!   structure to reach the deep branches of each parser.
//!
//! The contract under test is the data-integrity fault domain's first
//! line: **no parser may panic on any input** — they return typed
//! `ParseError`s — and any input a parser *accepts* must round-trip
//! stably (parse → rebuild → parse gives the same result).
//!
//! `FUZZ_ITERS` overrides the per-parser iteration count (CI smoke runs
//! use a bounded value; the default exercises ≥10k inputs per parser).
//! `CHAOS_SEED` diversifies the corpus per CI matrix leg.

use fet_netsim::corrupt::{corrupt_buffer, CorruptionSpec};
use fet_netsim::rng::Pcg32;
use fet_packet::builder::{
    build_cebp_frame, build_data_packet, build_notification_frames_with, build_pfc_frame, classify,
    extract_flow, insert_seqtag, parse_cebp_frame, parse_notification, peek_seqtag, strip_seqtag,
    strip_seqtag_in_place,
};
use fet_packet::cebp::CebpPacket;
use fet_packet::ethernet::EthernetFrame;
use fet_packet::event::{EventDetail, EventRecord, EventType, EVENT_RECORD_LEN};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::notification::LossNotification;
use fet_packet::pfc::PfcFrame;
use fet_packet::seqtag::SeqTag;
use fet_packet::FlowKey;
use netseer::spill::{
    decode_spill_prefix, decode_spill_record, encode_spill_record, SPILL_RECORD_LEN,
};
use netseer::StoredEvent;

/// Per-parser iteration budget: ≥10k by default, overridable for smoke.
fn iters() -> u32 {
    match std::env::var("FUZZ_ITERS") {
        Ok(s) => s.parse().expect("FUZZ_ITERS must be a u32"),
        Err(_) => 10_000,
    }
}

/// Corpus diversification for the CI seed matrix.
fn seed(base: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            base ^ s
                .parse::<u64>()
                .expect("CHAOS_SEED must be a u64")
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        Err(_) => base,
    }
}

fn flow(n: u16) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_octets([10, 0, (n >> 8) as u8, n as u8]),
        1000 + n,
        Ipv4Addr::from_octets([10, 1, 0, 1]),
        80,
    )
}

fn rec(n: u16) -> EventRecord {
    EventRecord {
        ty: EventType::Congestion,
        flow: flow(n),
        detail: EventDetail::Congestion { egress_port: n as u8, queue: 0, latency_us: n },
        counter: 1,
        hash: u32::from(n).wrapping_mul(0x9e37_79b9),
    }
}

fn stored(n: u16) -> StoredEvent {
    StoredEvent {
        time_ns: u64::from(n) * 1_000,
        device: u32::from(n) % 37,
        epoch: u32::from(n) % 5,
        seq: u64::from(n),
        record: rec(n),
    }
}

/// A valid spill segment image: 1..=16 encoded records back to back.
fn valid_spill_buffer(rng: &mut Pcg32) -> Vec<u8> {
    let n = 1 + rng.next_below(16) as u16;
    let mut buf = Vec::with_capacity(n as usize * SPILL_RECORD_LEN);
    for i in 0..n {
        encode_spill_record(&stored(rng.next_below(500) as u16 ^ i), &mut buf);
    }
    buf
}

/// Drive the spill record/segment decoders over one buffer. The same
/// contract as [`exercise_all`]: never panic, and anything accepted must
/// round-trip stably through the canonical encoder.
fn exercise_spill(buf: &[u8]) {
    if let Some((ev, consumed)) = decode_spill_record(buf) {
        assert_eq!(consumed, SPILL_RECORD_LEN, "spill records are fixed-length");
        let mut rebuilt = Vec::with_capacity(SPILL_RECORD_LEN);
        encode_spill_record(&ev, &mut rebuilt);
        let (again, _) = decode_spill_record(&rebuilt).expect("rebuilt record decodes");
        assert_eq!(again, ev, "spill record round-trip must be stable");
    }
    let survivors = decode_spill_prefix(buf);
    assert!(survivors.len() <= buf.len() / SPILL_RECORD_LEN, "prefix decode cannot invent records");
    // The prefix property itself: record k decodes iff bytes
    // [0, (k+1) * SPILL_RECORD_LEN) all validated, so each survivor must
    // re-decode from its own offset.
    for (k, ev) in survivors.iter().enumerate() {
        let at = k * SPILL_RECORD_LEN;
        let (direct, _) = decode_spill_record(&buf[at..]).expect("survivor re-decodes");
        assert_eq!(direct, *ev, "prefix and direct decode must agree");
    }
}

/// A random buffer with fuzz-friendly length distribution: mostly short
/// (where header bound checks live), occasionally jumbo.
fn random_buffer(rng: &mut Pcg32) -> Vec<u8> {
    let len = match rng.next_below(10) {
        0 => 0,
        1..=5 => rng.next_below(64) as usize,
        6..=8 => rng.next_below(256) as usize,
        _ => rng.next_below(2048) as usize,
    };
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// One valid frame from the real builders, chosen by the draw.
fn valid_frame(rng: &mut Pcg32) -> Vec<u8> {
    match rng.next_below(6) {
        0 => build_data_packet(&flow(rng.next_below(500) as u16), 64, 7, 1, 64),
        1 => {
            let f = build_data_packet(&flow(rng.next_below(500) as u16), 64, 7, 1, 64);
            insert_seqtag(&f, rng.next_u32()).expect("taggable")
        }
        2 => {
            let lo = rng.next_u32();
            build_notification_frames_with(lo, lo.wrapping_add(rng.next_below(50)), 3, 1).remove(0)
        }
        3 => build_pfc_frame(rng.next_below(8) as usize, rng.next_u32() as u16),
        4 => {
            let n = 1 + rng.next_below(16) as u16;
            let events: Vec<EventRecord> = (0..n).map(rec).collect();
            build_cebp_frame(n, &events).expect("cebp builds")
        }
        _ => {
            let mut raw = vec![0u8; EVENT_RECORD_LEN];
            raw.copy_from_slice(&rec(rng.next_below(500) as u16).to_bytes());
            raw
        }
    }
}

/// A valid frame damaged by the structure-preserving corruption engine.
fn mutated_valid(rng: &mut Pcg32) -> Vec<u8> {
    let mut buf = valid_frame(rng);
    let spec = CorruptionSpec {
        flip_per_byte: [0.001, 0.01, 0.1][rng.next_below(3) as usize],
        truncate_prob: 0.2,
        duplicate_prob: 0.2,
    };
    corrupt_buffer(&spec, rng, &mut buf);
    buf
}

/// Drive every parser over one buffer. Panics (the test failure mode)
/// only if a parser itself panics or an accepted input fails round-trip.
fn exercise_all(buf: &[u8]) {
    // Ethernet view + classification.
    if let Ok(eth) = EthernetFrame::new_checked(buf) {
        let _ = eth.ethertype();
        let _ = eth.payload();
    }
    let _ = classify(buf);
    let _ = extract_flow(buf);

    // Sequence tags: peek, strip (owned and in-place) must agree.
    let peeked = peek_seqtag(buf);
    match strip_seqtag(buf) {
        Ok((seq, inner)) => {
            assert_eq!(peeked.ok(), Some(seq), "peek and strip must agree");
            let mut in_place = buf.to_vec();
            let seq2 = strip_seqtag_in_place(&mut in_place).expect("in-place agrees");
            assert_eq!((seq, &inner), (seq2, &in_place), "strip variants must agree");
            // Round-trip: re-tagging the stripped frame reproduces the
            // original when the inner frame is still taggable.
            if let Ok(retagged) = insert_seqtag(&inner, seq) {
                assert_eq!(retagged, buf, "seqtag round-trip must be stable");
            }
        }
        Err(_) => {
            let mut in_place = buf.to_vec();
            assert!(strip_seqtag_in_place(&mut in_place).is_err(), "variants must agree on reject");
        }
    }
    let _ = SeqTag::new_checked(buf);

    // Loss notifications: framed parse (CRC-verified) and raw view.
    if let Ok((lo, hi, copy, port)) = parse_notification(buf) {
        // Accepted ⇒ rebuilding the same range reproduces a parseable frame.
        let rebuilt = build_notification_frames_with(lo, hi, port, copy.saturating_add(1))
            .pop()
            .expect("one copy");
        let reparsed = parse_notification(&rebuilt).expect("rebuilt notification parses");
        assert_eq!(reparsed, (lo, hi, copy, port), "notification round-trip must be stable");
    }
    let _ = LossNotification::new_checked(buf);

    // CEBP: framed parse (CRC-verified) and raw view.
    if let Ok(events) = parse_cebp_frame(buf) {
        let rebuilt = build_cebp_frame(events.len().max(1) as u16, &events).expect("rebuild fits");
        let reparsed = parse_cebp_frame(&rebuilt).expect("rebuilt CEBP parses");
        assert_eq!(reparsed, events, "CEBP round-trip must be stable");
    }
    if let Ok(view) = CebpPacket::new_checked(buf) {
        if let Ok(events) = view.events() {
            for e in &events {
                // Accepted records must themselves round-trip.
                assert_eq!(EventRecord::parse(&e.to_bytes()).expect("roundtrip"), *e);
            }
        }
    }

    // Event records and PFC frames from arbitrary prefixes.
    let _ = EventRecord::parse(buf);
    let _ = PfcFrame::new_checked(buf);
}

#[test]
fn parsers_survive_random_buffers() {
    let mut rng = Pcg32::new(seed(0xF0FF_F055), 1);
    for _ in 0..iters() {
        exercise_all(&random_buffer(&mut rng));
    }
}

#[test]
fn parsers_survive_mutated_valid_frames() {
    let mut rng = Pcg32::new(seed(0xBEEF_CAFE), 2);
    for _ in 0..iters() {
        exercise_all(&mutated_valid(&mut rng));
    }
}

#[test]
fn parsers_accept_all_pristine_frames() {
    // The mutation family only proves rejection is graceful; this proves
    // the acceptance path stays reachable (a fuzzer that never sees an
    // accepted input is testing nothing but the length check).
    let mut rng = Pcg32::new(seed(0x5EED_0001), 3);
    for _ in 0..iters() {
        let buf = valid_frame(&mut rng);
        exercise_all(&buf);
    }
    // Spot-check acceptance explicitly for each family.
    let f = build_data_packet(&flow(1), 64, 7, 1, 64);
    assert!(extract_flow(&f).is_some());
    let tagged = insert_seqtag(&f, 99).unwrap();
    assert_eq!(peek_seqtag(&tagged).unwrap(), 99);
    let n = build_notification_frames_with(5, 9, 2, 3);
    assert_eq!(n.len(), 3);
    assert!(parse_notification(&n[0]).is_ok());
    let events: Vec<EventRecord> = (0..4).map(rec).collect();
    let cebp = build_cebp_frame(4, &events).unwrap();
    assert_eq!(parse_cebp_frame(&cebp).unwrap(), events);
}

#[test]
fn truncation_sweep_never_panics() {
    // Every prefix of every valid frame family: the classic slice-index
    // panic audit, exhaustively.
    let mut rng = Pcg32::new(seed(0x7123_4567), 4);
    for _ in 0..64 {
        let frame = valid_frame(&mut rng);
        for cut in 0..=frame.len() {
            exercise_all(&frame[..cut]);
        }
    }
}

#[test]
fn spill_decoders_survive_random_buffers() {
    let mut rng = Pcg32::new(seed(0x5B11_F055), 5);
    for _ in 0..iters() {
        exercise_spill(&random_buffer(&mut rng));
    }
}

#[test]
fn spill_decoders_survive_mutated_valid_segments() {
    let mut rng = Pcg32::new(seed(0x5B1F_CAFE), 6);
    for _ in 0..iters() {
        let mut buf = valid_spill_buffer(&mut rng);
        let spec = CorruptionSpec {
            flip_per_byte: [0.001, 0.01, 0.1][rng.next_below(3) as usize],
            truncate_prob: 0.2,
            duplicate_prob: 0.2,
        };
        corrupt_buffer(&spec, &mut rng, &mut buf);
        exercise_spill(&buf);
        // Undamaged segments must decode in full (acceptance coverage:
        // a fuzzer that never sees an accepted record tests nothing).
        let pristine = valid_spill_buffer(&mut rng);
        assert_eq!(decode_spill_prefix(&pristine).len(), pristine.len() / SPILL_RECORD_LEN);
    }
}

#[test]
fn spill_truncation_sweep_keeps_exact_record_prefixes() {
    // Every prefix of a valid segment image: the longest-valid-prefix
    // decode must keep exactly the records whose bytes fully survived —
    // this is the crash-recovery torn-tail contract, exhaustively.
    let mut rng = Pcg32::new(seed(0x5B1F_4567), 7);
    for _ in 0..64 {
        let buf = valid_spill_buffer(&mut rng);
        let full = decode_spill_prefix(&buf);
        for cut in 0..=buf.len() {
            let survivors = decode_spill_prefix(&buf[..cut]);
            assert_eq!(survivors.len(), cut / SPILL_RECORD_LEN, "cut {cut} of {}", buf.len());
            assert_eq!(survivors[..], full[..survivors.len()], "survivors must be a prefix");
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-ingest family: the NetFlow v5 / v9 / IPFIX parsers (`fet-wire`).
//
// Same discipline as the packet parsers above — never panic, everything
// accepted round-trips stably — plus the wire crate's own contracts: the
// template cache stays bounded whatever the bytes do, and per-datagram
// accounting (decoded == samples, rejected ⇒ nothing claimed) holds on
// every input.
// ---------------------------------------------------------------------------

use fet_netsim::exporter::{HostileExporter, HostileExporterConfig};
use fet_packet::flow::IpProtocol;
use fet_wire::builder::{
    v5_datagram, v5_datagram_with_count, v5_datagram_with_times, IpfixBuilder, V9Builder,
};
use fet_wire::fields::{base_flow_fields, FIRST_SWITCHED, LAST_SWITCHED};
use fet_wire::{translate, FlowSample, TemplateField, WireSession, WireSessionConfig};

fn wire_sample(rng: &mut Pcg32) -> FlowSample {
    let r = rng.next_u32();
    FlowSample {
        flow: FlowKey {
            src: Ipv4Addr::from_octets([10, (r >> 16) as u8, (r >> 8) as u8, r as u8]),
            dst: Ipv4Addr::from_octets([10, 99, (r >> 24) as u8, 1]),
            sport: 1024 + (rng.next_u32() % 40_000) as u16,
            dport: 443,
            proto: if rng.chance(0.8) { IpProtocol::Tcp } else { IpProtocol::Udp },
        },
        in_port: rng.next_below(300) as u16,
        out_port: rng.next_below(300) as u16,
        packets: u64::from(rng.next_u32()),
        bytes: u64::from(rng.next_u32()),
        tcp_flags: rng.next_u32() as u8,
        forwarding_status: match rng.next_below(4) {
            0 => None,
            1 => Some(0x40),
            2 => Some(0x80),
            _ => Some(rng.next_u32() as u8),
        },
        first_ms: 0,
        last_ms: 0,
    }
}

fn wire_samples(rng: &mut Pcg32, max: u32) -> Vec<FlowSample> {
    (0..1 + rng.next_below(max)).map(|_| wire_sample(rng)).collect()
}

/// One valid (or deliberately *almost*-valid, but still panic-safe and
/// well-framed) datagram from the reference builders.
fn valid_wire_datagram(rng: &mut Pcg32) -> Vec<u8> {
    let tid = 256 + rng.next_below(8) as u16;
    match rng.next_below(8) {
        0 => v5_datagram(rng.next_u32(), 0, rng.next_u32() as u8, &wire_samples(rng, 12)),
        1 => {
            // Soft count lie: claims within physical bounds, ships less.
            let rows = wire_samples(rng, 4);
            v5_datagram_with_count(rng.next_u32(), 0, 1, &rows, 1 + rng.next_below(30) as u16)
        }
        2 => V9Builder::new(rng.next_below(5), rng.next_u32())
            .template(tid, &base_flow_fields())
            .data_samples(tid, &wire_samples(rng, 12))
            .build(),
        3 => {
            // Data before template: a legal datagram the cache may or may
            // not be able to decode.
            V9Builder::new(rng.next_below(5), rng.next_u32())
                .data_samples(tid, &wire_samples(rng, 6))
                .build()
        }
        4 => V9Builder::new(rng.next_below(5), rng.next_u32())
            .options_template(900, &[TemplateField::std(1, 4)], &[TemplateField::std(2, 2)])
            .template(tid, &base_flow_fields())
            .data_samples(tid, &wire_samples(rng, 6))
            .build(),
        5 => IpfixBuilder::new(rng.next_below(5), rng.next_u32())
            .template(tid, &base_flow_fields())
            .data_samples(tid, &wire_samples(rng, 12))
            .build(),
        6 => {
            // Enterprise-numbered fields: 4 extra bytes per spec the
            // parser must skip without miscounting.
            let mut fields = base_flow_fields();
            fields.push(TemplateField { field_id: 77, length: 4, enterprise: Some(29305) });
            let rows: Vec<Vec<u8>> = wire_samples(rng, 6)
                .iter()
                .map(|s| {
                    let mut r = fet_wire::fields::encode_record(&base_flow_fields(), s);
                    r.extend_from_slice(&rng.next_u32().to_be_bytes());
                    r
                })
                .collect();
            IpfixBuilder::new(rng.next_below(5), rng.next_u32())
                .template(tid, &fields)
                .data(tid, &rows)
                .build()
        }
        _ => IpfixBuilder::new(rng.next_below(5), rng.next_u32())
            .options_template(901, &[TemplateField::std(1, 4)], &[TemplateField::std(2, 2)])
            .build(),
    }
}

/// Feed one buffer through a shared session and check the per-datagram
/// contracts that must hold on *any* input.
fn exercise_wire(s: &mut WireSession, buf: &[u8]) {
    let r = s.ingest(buf, 0);
    assert_eq!(r.decoded, r.samples.len() as u64, "decoded must equal carried samples");
    if r.rejected.is_some() {
        assert_eq!(r.claimed(), 0, "a rejected datagram contributes nothing to generated");
        assert!(r.samples.is_empty(), "rejected datagrams carry no samples");
    }
    // Translation is total over decoded samples and the 24-byte event
    // encoding round-trips exactly.
    for smp in &r.samples {
        let ev = translate(smp);
        let parsed = EventRecord::parse(&ev.to_bytes()).expect("translated record reparses");
        assert_eq!(parsed, ev, "FET event round-trip must be stable");
    }
    // The bounded-state headline, checked after every single datagram.
    let cache = s.cache();
    assert!(cache.max_domain_len() <= cache.config().max_templates, "template bound violated");
    assert!(cache.domain_count() <= cache.config().max_domains, "domain bound violated");
}

/// Decode → re-encode → decode must reach a fixpoint in one step: the
/// first pass normalizes lossy widths (e.g. an 8-byte counter squeezed
/// into a 4-byte field), the second must change nothing.
fn assert_wire_fixpoint(samples: &[FlowSample]) {
    let reencode = |rows: &[FlowSample]| {
        let mut s = WireSession::new(WireSessionConfig::default());
        let dg =
            V9Builder::new(1, 0).template(256, &base_flow_fields()).data_samples(256, rows).build();
        let r = s.ingest(&dg, 0);
        assert!(r.rejected.is_none(), "re-encoded datagram must parse");
        assert_eq!(r.malformed, 0, "re-encoded datagram must decode in full");
        r.samples
    };
    let once = reencode(samples);
    let twice = reencode(&once);
    assert_eq!(once, twice, "wire round-trip must stabilize after one pass");
}

#[test]
fn wire_parsers_survive_random_buffers() {
    let mut rng = Pcg32::new(seed(0x3136_F055), 8);
    let mut s = WireSession::new(WireSessionConfig::default());
    for _ in 0..iters() {
        exercise_wire(&mut s, &random_buffer(&mut rng));
    }
}

#[test]
fn wire_parsers_survive_mutated_valid_datagrams() {
    let mut rng = Pcg32::new(seed(0x3136_CAFE), 9);
    let mut s = WireSession::new(WireSessionConfig::default());
    for _ in 0..iters() {
        let mut buf = valid_wire_datagram(&mut rng);
        let spec = CorruptionSpec {
            flip_per_byte: [0.001, 0.01, 0.1][rng.next_below(3) as usize],
            truncate_prob: 0.2,
            duplicate_prob: 0.2,
        };
        corrupt_buffer(&spec, &mut rng, &mut buf);
        exercise_wire(&mut s, &buf);
    }
}

#[test]
fn wire_parsers_accept_pristine_datagrams_and_roundtrip() {
    // Acceptance coverage plus the round-trip stability contract on the
    // decoded samples themselves.
    let mut rng = Pcg32::new(seed(0x3136_0001), 10);
    let mut s = WireSession::new(WireSessionConfig::default());
    let mut accepted = 0u64;
    for _ in 0..iters() {
        let buf = valid_wire_datagram(&mut rng);
        let r = s.ingest(&buf, 0);
        assert!(r.rejected.is_none(), "builders only emit well-framed datagrams: {:?}", r.rejected);
        if !r.samples.is_empty() {
            accepted += 1;
            assert_wire_fixpoint(&r.samples);
        }
        exercise_wire(&mut s, &buf);
    }
    assert!(accepted > u64::from(iters()) / 4, "acceptance path must stay reachable");
}

#[test]
fn wire_truncation_sweep_never_panics() {
    // Every prefix of every valid datagram family, through a session that
    // carries template state across sweeps (truncated templates must not
    // poison later decodes).
    let mut rng = Pcg32::new(seed(0x3136_4567), 11);
    let mut s = WireSession::new(WireSessionConfig::default());
    for _ in 0..64 {
        let frame = valid_wire_datagram(&mut rng);
        for cut in 0..=frame.len() {
            exercise_wire(&mut s, &frame[..cut]);
        }
    }
}

#[test]
fn wire_survives_the_hostile_exporter() {
    // The seeded adversarial workload end to end at fuzz volume: every
    // datagram lands in exactly one accounting bucket and state bounds
    // hold throughout (asserted per datagram by exercise_wire).
    let mut ex = HostileExporter::new(HostileExporterConfig {
        seed: seed(0x3136_EEEE),
        hostility: 0.5,
        drop_prob: 0.05,
        corruption: CorruptionSpec { flip_per_byte: 0.01, truncate_prob: 0.1, duplicate_prob: 0.1 },
        ..Default::default()
    });
    let mut s = WireSession::new(WireSessionConfig::default());
    for _ in 0..iters() {
        if let Some(dg) = ex.emit() {
            exercise_wire(&mut s, &dg);
        }
    }
    let st = s.stats();
    assert_eq!(st.accepted + st.rejected, st.datagrams, "every datagram gets one disposition");
    assert!(st.rejects.iter().chain(st.soft.iter()).filter(|&&c| c > 0).count() >= 4);
}

// ---------------------------------------------------------------------------
// Clock-lie family: randomized header clocks and per-record timestamps.
//
// The time-fault contract: exporter clocks are *claims*, never trusted.
// Whatever the time fields say — future export times, backwards first/last
// pairs, sysuptime parked at one value, values straddling the ~49.7-day
// u32 millisecond wrap — the datagram must still land in exactly one
// accounting bucket, never panic, and every accepted stamp must stay
// within the collector's receive-clock plausibility window.
// ---------------------------------------------------------------------------

/// A flow sample whose first/last sysuptime claims are drawn from the
/// clock-lie corpus: absent, plausible, wrap-straddling (honest), and
/// outright lies (backwards pairs, implausible durations, raw noise).
fn clocky_sample(rng: &mut Pcg32) -> FlowSample {
    let mut s = wire_sample(rng);
    let (first, last) = match rng.next_below(6) {
        0 => (0, 0), // absent — not a claim at all
        1 => {
            let f = rng.next_u32() % 1_000_000;
            (f, f + rng.next_u32() % 60_000) // plausible forward pair
        }
        2 => (u32::MAX - rng.next_below(1_000), rng.next_below(1_000)), // wrap-straddler
        3 => {
            let l = rng.next_u32() % 1_000_000;
            (l + 1 + rng.next_u32() % 1_000_000, l) // backwards: a lie
        }
        4 => {
            let f = rng.next_u32() % 1_000;
            (f, f + 3_600_001 + rng.next_u32() % 1_000_000) // implausible duration
        }
        _ => (rng.next_u32(), rng.next_u32()), // raw noise
    };
    s.first_ms = first;
    s.last_ms = last;
    s
}

/// One well-framed datagram whose clock fields lie in every way the wire
/// protocols allow: v5 header sysuptime/unix pairs, v9 `times()`, IPFIX
/// `export_time()`, plus per-record FIRST/LAST_SWITCHED claims. `now_ns`
/// is the collector's receive clock for this datagram.
fn clock_lying_datagram(rng: &mut Pcg32, seq: u32, now_ns: u64) -> Vec<u8> {
    let rows: Vec<FlowSample> = (0..1 + rng.next_below(8)).map(|_| clocky_sample(rng)).collect();
    let now_s = u32::try_from(now_ns / 1_000_000_000).expect("receive clock fits u32 seconds");
    let (sys_ms, unix_s) = match rng.next_below(6) {
        0 => (0, 0),                                                    // absent
        1 => (rng.next_u32() % 10_000, 1_700_000_000),                  // wall clock
        2 => (u32::MAX - rng.next_below(5_000), 1_700_000_000),         // sysuptime near the wrap
        3 => (0x00BE_EF00, 2_000_000_000 + rng.next_u32() % 1_000_000), // frozen + far future
        // Inside the receive-clock window but up to 30 s stale: once the
        // same stream has claimed a later time, this steps backwards.
        4 => (1 + rng.next_u32() % 10_000, now_s - rng.next_below(30)),
        _ => (rng.next_u32(), rng.next_u32()), // raw noise
    };
    let tid = 256 + rng.next_below(8) as u16;
    let mut timed = base_flow_fields();
    timed.push(TemplateField::std(FIRST_SWITCHED, 4));
    timed.push(TemplateField::std(LAST_SWITCHED, 4));
    match rng.next_below(3) {
        0 => v5_datagram_with_times(seq, 0, 1, &rows, rows.len() as u16, sys_ms, unix_s),
        1 => V9Builder::new(rng.next_below(5), seq)
            .times(sys_ms, unix_s)
            .template(tid, &timed)
            .data_samples(tid, &rows)
            .build(),
        _ => IpfixBuilder::new(rng.next_below(5), seq)
            .export_time(unix_s)
            .template(tid, &timed)
            .data_samples(tid, &rows)
            .build(),
    }
}

#[test]
fn wire_clock_lies_stay_accounted_and_clamped() {
    let mut rng = Pcg32::new(seed(0x3136_C10C), 12);
    let mut s = WireSession::new(WireSessionConfig::default());
    let mut now_ns: u64 = 50_000_000_000;
    for i in 0..iters() {
        now_ns += u64::from(rng.next_below(1_000_000));
        let buf = clock_lying_datagram(&mut rng, i, now_ns);
        let r = s.ingest(&buf, now_ns);
        // Exactly one disposition per datagram, checked after every input.
        let st = s.stats();
        assert_eq!(st.accepted + st.rejected, st.datagrams, "one bucket per datagram");
        assert_eq!(st.datagrams, u64::from(i) + 1, "every datagram is counted");
        if r.rejected.is_none() {
            // Accepted ⇒ a usable event time that never outruns the
            // collector's own receive clock.
            assert!(r.event_time_ns > 0, "accepted datagrams carry an event time");
            assert!(
                r.event_time_ns <= now_ns,
                "vetted stamps stay within the receive-clock window"
            );
        } else {
            assert_eq!(r.event_time_ns, 0, "rejected datagrams carry no event time");
        }
        let cache = s.cache();
        assert!(cache.max_domain_len() <= cache.config().max_templates, "template bound");
        assert!(cache.domain_count() <= cache.config().max_domains, "domain bound");
    }
    // Corpus coverage: the lie taxonomy must actually fire — clock lies
    // are soft damage, so acceptance stays high while lies are booked.
    let st = s.stats();
    assert!(st.accepted > u64::from(iters()) / 2, "clock lies must not cause rejection");
    assert!(st.clock_lies.iter().filter(|&&c| c > 0).count() >= 3, "≥3 lie kinds observed");
    assert!(
        st.clock_lies[fet_wire::ClockLie::BackwardsExport.index()] > 0,
        "in-window stale export times must book backwards-export"
    );
    assert!(st.clamped_stamps > 0, "implausible stamps get clamped to the receive clock");
}

#[test]
fn wire_survives_the_clock_hostile_exporter() {
    // End-to-end at fuzz volume: the seeded exporter mixes clock lies with
    // structural attacks and corruption; accounting must stay exact.
    let mut ex = HostileExporter::new(HostileExporterConfig {
        seed: seed(0x3136_DDDD),
        hostility: 0.3,
        clock_hostility: 0.4,
        drop_prob: 0.05,
        corruption: CorruptionSpec {
            flip_per_byte: 0.005,
            truncate_prob: 0.1,
            duplicate_prob: 0.1,
        },
        ..Default::default()
    });
    let mut s = WireSession::new(WireSessionConfig::default());
    let mut now_ns: u64 = 1_000_000_000;
    for _ in 0..iters() {
        now_ns += 10_000;
        if let Some(dg) = ex.emit() {
            let r = s.ingest(&dg, now_ns);
            assert_eq!(r.decoded, r.samples.len() as u64, "decoded must equal carried samples");
            let st = s.stats();
            assert_eq!(st.accepted + st.rejected, st.datagrams, "one bucket per datagram");
        }
    }
    assert!(ex.clock_attacks > 0, "the clock-lie arm must fire at this volume");
    let st = s.stats();
    assert!(st.clock_lies.iter().sum::<u64>() > 0, "clock lies must be booked");
}
