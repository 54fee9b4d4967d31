//! Micro-benchmarks for NetSeer's per-packet primitives — the operations
//! that must run at line rate in the emulated pipeline — plus one
//! `/metrics` scrape of the telemetry egress.
//!
//! Uses a small std-only timing harness (median of batched runs) instead of
//! Criterion so the workspace carries no external registry dependencies and
//! builds fully offline. Run with `cargo bench -p fet-bench`.

use fet_packet::builder::{
    build_data_packet, extract_flow, insert_seqtag_in_place, parse_hop, slide_in_seqtag,
    slide_out_seqtag, strip_seqtag_in_place,
};
use fet_packet::event::{EventDetail, EventRecord, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use fet_pdp::table::LpmTable;
use fet_pdp::HashUnit;
use netseer::batch::CebpBatcher;
use netseer::cpu::SwitchCpu;
use netseer::dedup::{BloomDedup, GroupCache};
use netseer::detect::interswitch::{GapDetector, PortTagger};
use netseer::detect::path_change::PathTable;
use netseer::NetSeerConfig;
use std::hint::black_box;
use std::time::Instant;

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | (n & 0xffff)),
        (n % 50_000) as u16,
        Ipv4Addr::from_octets([10, 99, 0, 1]),
        80,
    )
}

fn ev(n: u32) -> EventRecord {
    EventRecord {
        ty: EventType::Congestion,
        flow: flow(n),
        detail: EventDetail::Congestion { egress_port: 1, queue: 0, latency_us: 100 },
        counter: 1,
        hash: n,
    }
}

/// Time 20,000 calls of `f` per batch, over 11 batches; report the
/// median per-op latency so outliers (scheduler noise) don't skew results.
fn bench<F: FnMut()>(group: &str, name: &str, ops_per_iter: u64, f: F) {
    bench_iters(group, name, ops_per_iter, 20_000, f);
}

/// [`bench`] with `iters` calls per batch, for operations too slow to
/// repeat 20,000 times.
fn bench_iters<F: FnMut()>(group: &str, name: &str, ops_per_iter: u64, iters: u64, mut f: F) {
    const SAMPLES: usize = 11;
    // Warm-up.
    for _ in 0..iters / 4 {
        f();
    }
    let mut per_op = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64;
        per_op.push(ns / (iters * ops_per_iter) as f64);
    }
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = per_op[SAMPLES / 2];
    let mops = 1e3 / median;
    println!("{group}/{name:<24} {median:>9.1} ns/op  ({mops:>8.2} Mops/s)");
}

fn bench_dedup() {
    let mut gc = GroupCache::new("bench", 4096, 128, 1);
    let f = flow(1);
    bench("dedup", "group_cache_offer_hot", 1, || {
        black_box(gc.offer(black_box(f)));
    });
    let mut gc = GroupCache::new("bench", 4096, 128, 1);
    let mut n = 0u32;
    bench("dedup", "group_cache_offer_churn", 1, || {
        n = n.wrapping_add(1);
        black_box(gc.offer(flow(n)));
    });
    let mut bloom = BloomDedup::new(1 << 16, 1);
    let mut n = 0u32;
    bench("dedup", "bloom_offer_churn", 1, || {
        n = n.wrapping_add(1);
        black_box(bloom.offer(flow(n)));
    });
}

fn bench_interswitch() {
    let mut t = PortTagger::new(1024);
    let f = flow(7);
    bench("interswitch", "tagger_next", 1, || {
        black_box(t.next(black_box(f)));
    });
    let mut t = PortTagger::new(1024);
    for n in 0..1024 {
        t.next(flow(n));
    }
    let mut seq = 0u32;
    bench("interswitch", "tagger_lookup", 1, || {
        seq = (seq + 1) % 1024;
        black_box(t.lookup(black_box(seq)));
    });
    let mut gd = GapDetector::new();
    let mut seq = 0u32;
    bench("interswitch", "gap_observe", 1, || {
        seq = seq.wrapping_add(1);
        black_box(gd.observe(black_box(seq)));
    });
}

fn bench_batching() {
    let mut batcher = CebpBatcher::new(&NetSeerConfig::default());
    let mut n = 0u32;
    let mut t = 0u64;
    bench("batching", "push_poll_cycle", 1, || {
        n = n.wrapping_add(1);
        t += 100;
        batcher.push(t, ev(n));
        black_box(batcher.poll(t).len());
    });
}

fn bench_cpu() {
    let batch: Vec<EventRecord> = (0..50).map(ev).collect();
    let mut cpu = SwitchCpu::new(&NetSeerConfig::default());
    let mut calls = 0u64;
    bench("switch_cpu", "process_batch_50", 50, || {
        calls += 1;
        if calls.is_multiple_of(1024) {
            cpu = SwitchCpu::new(&NetSeerConfig::default());
        }
        black_box(cpu.process_batch(0, &batch, 1_264).len());
    });
}

fn bench_packets() {
    let pkt = build_data_packet(&flow(1), 1000, 0, 0, 64);
    bench("packet", "extract_flow", 1, || {
        black_box(extract_flow(black_box(&pkt)));
    });
    // A tagged hop as the switch handles it: parse, slide the tag out at
    // ingress, re-form it in the same slot at egress. Only MAC bytes move.
    let mut hop = pkt.clone();
    insert_seqtag_in_place(&mut hop, 42).unwrap();
    bench("packet", "seqtag_parse_slide_out_in", 1, || {
        let (seq, _) = parse_hop(black_box(&hop));
        slide_out_seqtag(&mut hop);
        slide_in_seqtag(&mut hop, seq.unwrap_or(0).wrapping_add(1));
    });
    // The path a frame without headroom takes: the payload moves twice.
    let mut buf = pkt.clone();
    bench("packet", "seqtag_insert_strip_in_place", 1, || {
        insert_seqtag_in_place(black_box(&mut buf), 42).unwrap();
        black_box(strip_seqtag_in_place(&mut buf).unwrap());
    });
    let rec = ev(9);
    bench("packet", "event_encode_decode", 1, || {
        let bytes = black_box(&rec).to_bytes();
        black_box(EventRecord::read_from(&bytes).unwrap());
    });
    let h = HashUnit::new(7, 32);
    let f = flow(3);
    bench("packet", "crc_hash_flow", 1, || {
        black_box(h.hash_flow(black_box(&f)));
    });
}

/// The two per-hop pipeline lookups of a switch pass: LPM route match and
/// one seeded hash over a serialized flow key.
fn bench_pdp() {
    // One /32 route per host, as `install_ecmp_routes` builds on the
    // 64-host fat-tree of `fleet_sharded` (host ip 10.pod.edge.slot+1).
    let hosts: Vec<Ipv4Addr> =
        (0..64u8).map(|h| Ipv4Addr::from_octets([10, h / 16, h / 4 % 4, h % 4 + 1])).collect();
    let mut routes: LpmTable<Vec<u8>> = LpmTable::new();
    for &ip in &hosts {
        routes.insert(ip, 32, vec![0, 1]);
    }
    let mut n = 0usize;
    bench("pdp", "lpm_lookup_64_routes", 1, || {
        n = (n + 1) % hosts.len();
        black_box(routes.lookup(black_box(hosts[n])));
    });
    let h = HashUnit::new(7, 32);
    let key = [0x5au8; 17];
    bench("pdp", "hash_bytes_17B", 1, || {
        black_box(h.hash_bytes(black_box(&key)));
    });
}

/// The simulator's event queue: one pop and one push per step (2 ops),
/// ~500 events queued, at `fleet_faulted`'s horizon mix.
fn bench_event_queue() {
    let mut q = fet_netsim::engine::QueueBench::new(512, 1);
    bench("netsim", "event_push_pop", 2, || {
        black_box(q.step());
    });
}

fn bench_path_table() {
    let mut t = PathTable::new(8192, 1);
    let mut n = 0u32;
    bench("path_table", "offer_churn", 1, || {
        n = n.wrapping_add(1);
        black_box(t.offer(flow(n), 1, 2));
    });
}

fn bench_full_monitor_path() {
    use fet_netsim::monitor::{Actions, EgressCtx, RoutedCtx, SwitchMonitor};
    use fet_pdp::PacketMeta;
    use netseer::{NetSeerMonitor, Role};

    // The per-packet hot path of a healthy switch: routed + egress hooks
    // on a tagged link (the egress hook claims the open tag header) with
    // no events firing. The hooks leave the frame to the switch, so one
    // frame serves every iteration.
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    let mut f = build_data_packet(&flow(1), 1000, 0, 0, 64);
    let mut meta = PacketMeta::arriving(0, f.len());
    meta.flow = Some(flow(1));
    let mut n = 0u64;
    bench("monitor_path", "healthy_packet", 1, || {
        n += 100;
        let rctx = RoutedCtx {
            now_ns: n,
            node: 0,
            ingress_port: 1,
            egress_port: 2,
            queue: 0,
            queue_paused: false,
            flow: flow((n % 1000) as u32),
        };
        let mut out = Actions::new();
        m.on_routed(&rctx, &f, &mut out);
        meta.egress_ts_ns = n + 500;
        let ectx = EgressCtx {
            now_ns: n + 500,
            node: 0,
            port: 2,
            queue: 0,
            peer_tagged: true,
            tag_open: true,
            congested: false,
            meta: &meta,
        };
        m.on_egress(&ectx, &mut f, &mut out);
        black_box(out.tag);
    });
    // The event-storm path: every packet is a congestion event packet.
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    let mut meta = PacketMeta::arriving(0, f.len());
    meta.flow = Some(flow(1));
    let mut n = 0u64;
    bench("monitor_path", "event_packet", 1, || {
        n += 100;
        meta.ingress_ts_ns = n;
        meta.egress_ts_ns = n + 100_000; // 100 us queuing delay
        let ectx = EgressCtx {
            now_ns: n + 100_000,
            node: 0,
            port: 2,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: true,
            meta: &meta,
        };
        let mut out = Actions::new();
        m.on_egress(&ectx, &mut f, &mut out);
        black_box(m.stats.event_packets);
    });
}

/// One `/metrics` scrape of a small live system: every adapter into a
/// fresh registry, then the Prometheus and OTel renders.
fn bench_export() {
    let fixture = fet_bench::export_fixture::ScrapeFixture::new();
    bench_iters("export", "scrape_render", 1, 200, || {
        black_box(fixture.scrape());
    });
}

fn main() {
    bench_dedup();
    bench_interswitch();
    bench_batching();
    bench_cpu();
    bench_packets();
    bench_pdp();
    bench_path_table();
    bench_event_queue();
    bench_full_monitor_path();
    bench_export();
}
