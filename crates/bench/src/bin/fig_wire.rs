//! `fig_wire` — wire-ingestion throughput: untrusted NetFlow/IPFIX
//! datagrams decoded into the 24-byte FET event model and admitted
//! through the collector's normal path.
//!
//! Three legs:
//!
//! * **v5 decode** — fixed-layout NetFlow v5 datagrams (30 records each)
//!   through a [`WireSession`]: the cheapest honest exporter.
//! * **templated decode** — NetFlow v9 + IPFIX data sets against an
//!   installed template: the layout-indirected hot path.
//! * **hostile storm end-to-end** — the seeded hostile exporter (attacks
//!   plus byte corruption) through [`WireIngest`] + [`Collector`]: every
//!   datagram parsed, translated, admitted or quarantined, with the
//!   extended ledger identity asserted at the end.
//!
//! Acceptance bar (deliberately conservative — the decode paths run in
//! the millions of records per second): >= 100k records/s on both decode
//! legs and >= 10k datagrams/s through the storm.

use fet_netsim::rng::Pcg32;
use fet_netsim::{HostileExporter, HostileExporterConfig};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use fet_wire::builder::{v5_datagram, IpfixBuilder, V9Builder};
use fet_wire::fields::base_flow_fields;
use fet_wire::{FlowSample, WireSession, WireSessionConfig};
use netseer::{Collector, CollectorConfig, CorruptionSpec, WireConfig, WireIngest};
use std::time::Instant;

/// v5 carries at most 30 records per datagram.
const V5_DGRAMS: usize = 20_000;
const V5_RECORDS: usize = 30;
const TEMPLATED_DGRAMS: usize = 20_000;
const TEMPLATED_RECORDS: usize = 20;
const STORM_TICKS: usize = 200_000;

fn sample(rng: &mut Pcg32) -> FlowSample {
    let f = rng.next_below(50_000);
    FlowSample {
        flow: FlowKey::tcp(
            Ipv4Addr::from_u32(0x0a00_0000 | (f & 0x00FF_FFFF)),
            (1024 + f % 50_000) as u16,
            Ipv4Addr::from_octets([10, 250, 0, 1]),
            443,
        ),
        in_port: rng.next_below(48) as u16,
        out_port: rng.next_below(48) as u16,
        packets: 1 + rng.next_below(1000) as u64,
        bytes: 64 + rng.next_below(100_000) as u64,
        tcp_flags: 0x10,
        forwarding_status: Some(0x40),
        first_ms: 0,
        last_ms: 0,
    }
}

fn samples(rng: &mut Pcg32, n: usize) -> Vec<FlowSample> {
    (0..n).map(|_| sample(rng)).collect()
}

fn main() {
    println!(
        "fig_wire: wire ingestion — {V5_DGRAMS} v5 + {TEMPLATED_DGRAMS} templated datagrams, \
         {STORM_TICKS} hostile ticks"
    );
    let mut report = fet_bench::BenchReport::new("fig_wire");
    report.metric("cores", fet_bench::host_cores() as f64);

    // (a) v5: the fixed-layout fast path.
    let mut rng = Pcg32::new(0xF16_31BE, 1);
    let v5: Vec<Vec<u8>> = (0..V5_DGRAMS)
        .map(|i| v5_datagram((i * V5_RECORDS) as u32, 0, 1, &samples(&mut rng, V5_RECORDS)))
        .collect();
    let mut session = WireSession::new(WireSessionConfig::default());
    let t0 = Instant::now();
    for (i, dg) in v5.iter().enumerate() {
        let r = session.ingest(dg, i as u64);
        debug_assert_eq!(r.decoded as usize, V5_RECORDS);
    }
    let v5_dt = t0.elapsed();
    assert_eq!(session.stats().decoded as usize, V5_DGRAMS * V5_RECORDS);
    assert_eq!(session.stats().rejected, 0);
    let v5_rps = (V5_DGRAMS * V5_RECORDS) as f64 / v5_dt.as_secs_f64();
    report.metric("v5_records_per_s", v5_rps);
    println!("\n(a) v5 decode: {:>12.0} records/s  ({:.1} ms)", v5_rps, v5_dt.as_secs_f64() * 1e3);

    // (b) templated: v9 and IPFIX data sets resolved through the cache.
    let mut rng = Pcg32::new(0xF16_31BE, 2);
    let mut templated: Vec<Vec<u8>> = Vec::with_capacity(TEMPLATED_DGRAMS + 2);
    templated.push(V9Builder::new(7, 0).template(256, &base_flow_fields()).build());
    templated.push(IpfixBuilder::new(9, 0).template(256, &base_flow_fields()).build());
    for i in 0..TEMPLATED_DGRAMS {
        let rows = samples(&mut rng, TEMPLATED_RECORDS);
        templated.push(if i % 2 == 0 {
            V9Builder::new(7, 1 + (i / 2) as u32).data_samples(256, &rows).build()
        } else {
            IpfixBuilder::new(9, (TEMPLATED_RECORDS * (i / 2)) as u32)
                .data_samples(256, &rows)
                .build()
        });
    }
    let mut session = WireSession::new(WireSessionConfig::default());
    let t0 = Instant::now();
    for (i, dg) in templated.iter().enumerate() {
        session.ingest(dg, i as u64);
    }
    let tpl_dt = t0.elapsed();
    assert_eq!(session.stats().decoded as usize, TEMPLATED_DGRAMS * TEMPLATED_RECORDS);
    assert_eq!(session.stats().rejected, 0);
    assert_eq!(session.stats().malformed, 0);
    let tpl_rps = (TEMPLATED_DGRAMS * TEMPLATED_RECORDS) as f64 / tpl_dt.as_secs_f64();
    report.metric("templated_records_per_s", tpl_rps);
    println!(
        "(b) v9/IPFIX decode: {:>6.0} records/s  ({:.1} ms)",
        tpl_rps,
        tpl_dt.as_secs_f64() * 1e3
    );

    // (c) hostile storm end-to-end: parse + translate + collector
    // admission, with attacks and byte corruption in the mix.
    let mut exporter = HostileExporter::new(HostileExporterConfig {
        seed: 0xF16_31BE,
        hostility: 0.3,
        corruption: CorruptionSpec {
            flip_per_byte: 1e-3,
            truncate_prob: 0.02,
            duplicate_prob: 0.01,
        },
        ..HostileExporterConfig::default()
    });
    let storm: Vec<Vec<u8>> = (0..STORM_TICKS).filter_map(|_| exporter.emit()).collect();
    let mut collector = Collector::with_config(CollectorConfig::default());
    let sub = collector.subscribe();
    let mut wire = WireIngest::new(WireConfig::default());
    let t0 = Instant::now();
    for (i, dg) in storm.iter().enumerate() {
        wire.ingest_datagram(&mut collector, dg, i as u64);
        if i % 1024 == 0 {
            collector.drain_ordered(sub);
        }
    }
    collector.drain_ordered(sub);
    let storm_dt = t0.elapsed();
    let storm_dps = storm.len() as f64 / storm_dt.as_secs_f64();
    report.metric("storm_datagrams_per_s", storm_dps);
    let ledger = wire.ledger(&collector);
    ledger.assert_balanced();
    let rejected = wire.session().stats().rejected;
    assert!(ledger.malformed > 0 && rejected > 0, "the storm must bite");
    println!(
        "(c) hostile storm: {:>9.0} datagrams/s  ({:.1} ms, {} delivered, {} malformed, \
         {} rejected)",
        storm_dps,
        storm_dt.as_secs_f64() * 1e3,
        ledger.delivered,
        ledger.malformed,
        rejected
    );

    assert!(v5_rps >= 100_000.0, "v5 decode {v5_rps:.0} records/s below the 100k bar");
    assert!(tpl_rps >= 100_000.0, "templated decode {tpl_rps:.0} records/s below the 100k bar");
    assert!(storm_dps >= 10_000.0, "storm {storm_dps:.0} datagrams/s below the 10k bar");
    println!(
        "\nfig_wire acceptance: v5 {v5_rps:.0} rec/s, templated {tpl_rps:.0} rec/s, \
         storm {storm_dps:.0} dgram/s (bars: 100k / 100k / 10k)"
    );
    report.write().expect("write BENCH_fig_wire.json");
}
