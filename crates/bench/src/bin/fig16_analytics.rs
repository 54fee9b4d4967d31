//! Figure 16 — streaming analytics engine: ingest throughput vs shard
//! count on a synthetic skewed event stream, plus top-k accuracy (recall
//! of the true heaviest flows and the Space-Saving error-bound audit).
//!
//! Acceptance bar: >= 1M events/s ingest on 4 shards.

use fet_analytics::{AnalyticsConfig, AnalyticsEngine, LinkMap};
use fet_netsim::clockfault::{ClockSpec, DeviceClock};
use fet_netsim::rng::Pcg32;
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use netseer::StoredEvent;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const EVENTS: usize = 2_000_000;
const FLOWS: u32 = 50_000;
const HEAVY_FLOWS: u32 = 24;
/// Timed rounds over the shard counts in leg (a).
const SHARD_SAMPLES: usize = 5;
/// Interleaved (reference, skewed) pairs timed for leg (c).
const SKEW_PAIRS: usize = 7;
/// Slices each leg (c) pair alternates between its two legs.
const SKEW_SLICES: usize = 20;

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | (n & 0x00FF_FFFF)),
        (n % 50_000) as u16,
        Ipv4Addr::from_octets([10, 250, 0, 1]),
        443,
    )
}

/// A skewed stream: ~30% of loss events hit one of `HEAVY_FLOWS` heavy
/// hitters, the rest spread over `FLOWS` light flows; 70% drops (with a
/// seeded drop code), 20% congestion, 10% path changes.
fn synth_stream(seed: u64) -> Vec<StoredEvent> {
    let mut rng = Pcg32::new(seed, 0xF16);
    let mut out = Vec::with_capacity(EVENTS);
    for i in 0..EVENTS {
        let heavy = rng.chance(0.3);
        let f =
            if heavy { rng.next_below(HEAVY_FLOWS) } else { HEAVY_FLOWS + rng.next_below(FLOWS) };
        let roll = rng.next_below(10);
        let (ty, detail) = if roll < 7 {
            let code = if rng.chance(0.5) { DropCode::TableMiss } else { DropCode::LinkLoss };
            (
                EventType::PipelineDrop,
                EventDetail::Drop {
                    ingress_port: (rng.next_below(8)) as u8,
                    egress_port: (rng.next_below(8)) as u8,
                    code,
                },
            )
        } else if roll < 9 {
            (
                EventType::Congestion,
                EventDetail::Congestion {
                    egress_port: (rng.next_below(8)) as u8,
                    queue: 0,
                    latency_us: 50 + (rng.next_below(500)) as u16,
                },
            )
        } else {
            (
                EventType::PathChange,
                EventDetail::PathChange {
                    ingress_port: (rng.next_below(8)) as u8,
                    egress_port: (rng.next_below(8)) as u8,
                },
            )
        };
        let device = rng.next_below(32);
        out.push(StoredEvent {
            time_ns: (i as u64) * 200, // 5M events/s of simulated time
            device,
            epoch: 0,
            seq: i as u64,
            record: EventRecord {
                ty,
                flow: flow(f),
                detail,
                counter: 1 + (rng.next_below(4)) as u16,
                hash: rng.next_u32(),
            },
        });
    }
    out
}

fn main() {
    let stream = synth_stream(0xF16_5EED);
    println!(
        "fig16: streaming analytics — {} events, {} distinct flows, {} heavy",
        EVENTS,
        FLOWS + HEAVY_FLOWS,
        HEAVY_FLOWS
    );

    // Every timed leg ingests the whole stream into a fresh engine and
    // flushes it; the engine is dropped outside the timed span.
    let timed = |cfg: AnalyticsConfig, events: &[StoredEvent]| {
        let mut e = AnalyticsEngine::new(cfg, LinkMap::default());
        let t0 = Instant::now();
        e.ingest_slice(events);
        e.flush();
        (e, EVENTS as f64 / t0.elapsed().as_secs_f64())
    };

    // (a) ingest throughput vs shard count: one warm-up, then
    // `SHARD_SAMPLES` rounds over the shard counts, so a slow spell of the
    // host hits every count alike; each count reports its median.
    println!("\n(a) ingest throughput (events/s) vs shards, median of {SHARD_SAMPLES}");
    println!("{:>8} {:>14} {:>12}", "shards", "events/s", "elapsed_ms");
    let mut report = fet_bench::BenchReport::new("fig16_analytics");
    report.metric("cores", fet_bench::host_cores() as f64);
    let shard_counts = [1usize, 2, 4, 8];
    timed(AnalyticsConfig { shards: 4, ..AnalyticsConfig::default() }, &stream);
    let mut samples = vec![Vec::with_capacity(SHARD_SAMPLES); shard_counts.len()];
    for _ in 0..SHARD_SAMPLES {
        for (rates, &shards) in samples.iter_mut().zip(&shard_counts) {
            let (engine, eps) =
                timed(AnalyticsConfig { shards, ..AnalyticsConfig::default() }, &stream);
            engine.ledger().assert_balanced();
            assert_eq!(engine.ledger().ingested, EVENTS as u64);
            rates.push(eps);
        }
    }
    let mut meps_4 = 0.0;
    for (rates, &shards) in samples.iter_mut().zip(&shard_counts) {
        rates.sort_by(f64::total_cmp);
        let eps = rates[SHARD_SAMPLES / 2];
        if shards == 4 {
            meps_4 = eps;
        }
        report.metric(&format!("events_per_s_shards{shards}"), eps);
        println!("{:>8} {:>14.0} {:>12.1}", shards, eps, EVENTS as f64 / eps * 1e3);
    }
    report.metric("events_per_s", meps_4);

    // (b) top-k accuracy on 4 shards: recall of the true top-8 and the
    // per-entry error-bound audit against exact per-flow weights.
    let cfg = AnalyticsConfig { shards: 4, ..AnalyticsConfig::default() };
    let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
    engine.ingest_slice(&stream);

    let mut exact: HashMap<FlowKey, u64> = HashMap::new();
    for e in &stream {
        if e.record.ty.is_drop() || e.record.ty == EventType::Congestion {
            *exact.entry(e.record.flow).or_default() += u64::from(e.record.counter.max(1));
        }
    }
    let mut truth: Vec<(FlowKey, u64)> = exact.iter().map(|(&f, &w)| (f, w)).collect();
    truth.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let reported = engine.top_flows(32);
    let top8: Vec<FlowKey> = truth.iter().take(8).map(|&(f, _)| f).collect();
    let hit = top8.iter().filter(|f| reported.iter().any(|e| e.flow == **f)).count();
    let recall = hit as f64 / top8.len() as f64;

    println!("\n(b) top-k accuracy (k=32 per shard, 4 shards)");
    println!("{:>6} {:>12} {:>12} {:>12} {:>8}", "rank", "estimate", "lower_bnd", "true", "ok");
    let mut bounds_ok = true;
    for (i, e) in reported.iter().take(8).enumerate() {
        let t = exact.get(&e.flow).copied().unwrap_or(0);
        let ok = e.guaranteed() <= t && t <= e.count;
        bounds_ok &= ok;
        println!("{:>6} {:>12} {:>12} {:>12} {:>8}", i + 1, e.count, e.guaranteed(), t, ok);
    }
    println!("recall of true top-8 in reported top-32: {recall:.2}");

    assert!(bounds_ok, "Space-Saving error bounds must hold on every reported entry");
    assert!(recall >= 0.95, "top-8 recall {recall} below the 0.95 bar");
    assert!(meps_4 >= 1_000_000.0, "4-shard ingest {meps_4:.0} events/s below the 1M events/s bar");
    println!("\nfig16 acceptance: 4-shard ingest {meps_4:.0} events/s (>= 1M), recall {recall:.2} (>= 0.95)");
    report.metric("top8_recall", recall);

    // (c) event-time watermark overhead: the same stream stamped through
    // seeded per-device skewed clocks, ingested via the watermark +
    // reorder-buffer path, must converge to the zero-skew aggregates and
    // keep >= 0.8x of the arrival-time ingest rate.
    // NTP-grade skew: ±200 µs offset plus 500 ppm drift (~200 µs over the
    // 400 ms horizon). Clock *steps* are a chaos-suite concern; here the
    // question is the steady-state cost of the watermark front end.
    let spec = ClockSpec { offset_ns: 200_000, drift_ppm: 500, ..ClockSpec::none() };
    let clocks: Vec<DeviceClock> =
        (0..32).map(|d| DeviceClock::new(&spec, 0xF16_5EED, d)).collect();
    let mut skewed = stream.clone();
    for e in &mut skewed {
        e.time_ns = clocks[e.device as usize].local_time(e.time_ns);
    }
    let horizon = EVENTS as u64 * 200;
    let bound = 2 * spec.max_abs_skew_ns(horizon) + 1_000;
    // Interleaved pairs after one warm-up of each leg: the ratio, not the
    // absolute rate, is the acceptance bar, so within each pair the two
    // legs take turns ingesting `SKEW_SLICES` consecutive slices of their
    // streams and a slow spell of the host lands on both alike; the gate
    // reads the median of the per-pair ratios.
    let reference_cfg = AnalyticsConfig { shards: 4, ..AnalyticsConfig::default() };
    let skew_cfg = AnalyticsConfig { lateness_bound_ns: bound, reorder_cap: 8192, ..reference_cfg };
    timed(reference_cfg, &stream);
    timed(skew_cfg, &skewed);
    let slice = EVENTS.div_ceil(SKEW_SLICES);
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(SKEW_PAIRS);
    for _ in 0..SKEW_PAIRS {
        let mut reference = AnalyticsEngine::new(reference_cfg, LinkMap::default());
        let mut skew_engine = AnalyticsEngine::new(skew_cfg, LinkMap::default());
        let (mut t_ref, mut t_skewed) = (Duration::ZERO, Duration::ZERO);
        for (a, b) in stream.chunks(slice).zip(skewed.chunks(slice)) {
            let t0 = Instant::now();
            reference.ingest_slice(a);
            let t1 = Instant::now();
            skew_engine.ingest_slice(b);
            t_skewed += t1.elapsed();
            t_ref += t1 - t0;
        }
        let t0 = Instant::now();
        reference.flush();
        let t1 = Instant::now();
        skew_engine.flush();
        t_skewed += t1.elapsed();
        t_ref += t1 - t0;
        let l = skew_engine.ledger();
        l.assert_balanced();
        assert_eq!(l.late_shed, 0, "the watermark bound must cover the injected skew");
        assert_eq!(l.pending_reorder, 0, "flush must drain every reorder buffer");
        assert_eq!(
            skew_engine.totals(),
            engine.totals(),
            "event-time aggregates must converge to the zero-skew reference"
        );
        let ratio = t_ref.as_secs_f64() / t_skewed.as_secs_f64();
        pairs.push((ratio, EVENTS as f64 / t_skewed.as_secs_f64()));
    }
    // Sorting by ratio keeps each pair's skewed rate beside its ratio.
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, eps_skewed) = pairs[SKEW_PAIRS / 2];
    let (min, max) = (pairs[0].0, pairs[SKEW_PAIRS - 1].0);
    println!("\n(c) event-time watermarks under clock skew (bound {bound} ns, cap 8192)");
    println!(
        "skewed / zero-skew ingest over {SKEW_PAIRS} pairs, each interleaved in {SKEW_SLICES} \
         slices: min {min:.2}x, median {ratio:.2}x, max {max:.2}x (>= 0.8x bar on the median); \
         median-pair skewed ingest {eps_skewed:.0} events/s"
    );
    assert!(ratio >= 0.8, "watermark path median {ratio:.2}x below the 0.8x overhead bar");
    report.metric("events_per_s_skewed", eps_skewed);
    report.metric("skew_overhead_ratio", ratio);
    report.metric("skew_overhead_ratio_min", min);
    report.metric("skew_overhead_ratio_max", max);

    report.write().expect("write BENCH_fig16_analytics.json");
}
