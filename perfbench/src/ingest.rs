//! `collector_ingest`: the backend alone, served open loop.
//!
//! No simulator and one thread. A fixed schedule, generated from the
//! seed before timing starts, offers two kinds of input at fixed rates:
//! seeded `HostileExporter` NetFlow v5/v9/IPFIX datagrams (mild hostility
//! and corruption) to `WireIngest::ingest_datagram`, and synthetic CEBP
//! deliveries from 32 devices with skewed clocks to `Collector::ingest`.
//! Periodic bursts push the backlog past a tight memory watermark, so the
//! spill engages and then drains. Whenever nothing more is due the
//! analytics engine polls (event-time watermarks on), and a full scrape
//! with both renders runs on its own cadence in the same thread, so a
//! slow render shows in the ingest tail. Each input is timed from when it
//! was due, not from when the loop got to it.
//!
//! The schedule repeats in sessions of fixed length, each on a freshly
//! built backend: memory stays bounded, every session replays the same
//! input (a determinism check), and set-up is measured once per session.

use crate::backend::{check_snapshot, fail_ratio, Backend, Work};
use crate::layers::{set_traced, TracedPhase};
use crate::report::{median, peak_rss_mb, percentile, Checks, Fingerprint, Report};
use crate::trace::Tracer;
use fet_analytics::{AnalyticsConfig, LinkMap};
use fet_export::merge_ledgers;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::{ClockSpec, DeviceClock, HostileExporter, HostileExporterConfig, Pcg32};
use fet_packet::{DropCode, EventDetail, EventRecord, EventType, FlowKey, Ipv4Addr};
use netseer::faults::CorruptionSpec;
use netseer::{CollectorConfig, DeliveryLedger, StoredEvent, WireConfig, WireIngest};
use std::time::Instant;

/// CEBP devices offering deliveries.
const DEVICES: u32 = 32;
/// Device ids of the synthetic CEBP senders start here.
const DEVICE_BASE: u32 = 1_000;

/// The offered load.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Schedule length of one session, ns.
    pub session_ns: u64,
    /// One wire datagram due every this many ns.
    pub datagram_every_ns: u64,
    /// One CEBP delivery (1..=`max_batch` events) due every this many ns.
    pub cebp_every_ns: u64,
    /// Largest CEBP delivery, events (a full CEBP).
    pub max_batch: u32,
    /// A burst is due every this many ns...
    pub burst_every_ns: u64,
    /// ...of this many full deliveries, all due at once.
    pub burst_deliveries: u32,
    /// A full scrape + both renders is due every this many ns.
    pub scrape_every_ns: u64,
}

impl Load {
    /// The benchmark's load: 8k datagrams/s, 2k deliveries/s (about 51k
    /// events/s), a 2.5k-event burst every 125 ms, a scrape every 20 ms.
    pub fn full() -> Self {
        Load {
            session_ns: 500 * MILLIS,
            datagram_every_ns: 125 * MICROS,
            cebp_every_ns: 500 * MICROS,
            max_batch: 50,
            burst_every_ns: 125 * MILLIS,
            burst_deliveries: 50,
            scrape_every_ns: 20 * MILLIS,
        }
    }

    /// The same rates over a short session, for smoke tests.
    pub fn tiny() -> Self {
        Load { session_ns: 60 * MILLIS, burst_every_ns: 25 * MILLIS, ..Load::full() }
    }
}

/// What is due.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A datagram for the wire socket.
    Datagram(Vec<u8>),
    /// A CEBP delivery for the collector.
    Cebp(Vec<StoredEvent>),
    /// A full scrape with both renders.
    Scrape,
}

/// One scheduled input.
#[derive(Debug, Clone)]
pub struct Input {
    /// When it is due, ns after the session starts. Also its logical
    /// receive time, so stamps never depend on the wall clock.
    pub due_ns: u64,
    /// What arrives.
    pub payload: Payload,
}

/// The seeded NetFlow v5/v9/IPFIX source: 5% attack datagrams, 2%
/// truncated, 2% duplicated. No bit flips: a flipped export-time field
/// can claim a plausible future time, which advances the analytics
/// event-time watermark and sheds every later event as late.
pub fn hostile_exporter(seed: u64) -> HostileExporter {
    HostileExporter::new(HostileExporterConfig {
        seed,
        hostility: 0.05,
        corruption: CorruptionSpec {
            flip_per_byte: 0.0,
            truncate_prob: 0.02,
            duplicate_prob: 0.02,
        },
        ..HostileExporterConfig::default()
    })
}

/// The collector every workload with a wire socket runs: a 512-event
/// memory watermark in front of an 8 MiB spill, so bursts spill and
/// drain.
pub fn pressured_collector() -> CollectorConfig {
    CollectorConfig {
        memory_watermark: 512,
        max_spill_bytes: 8 << 20,
        spill_segment_bytes: 64 << 10,
        ..CollectorConfig::default()
    }
}

/// Event-time analytics: a 1 ms lateness bound, up to 4096 parked
/// events per shard.
pub fn event_time_analytics() -> AnalyticsConfig {
    AnalyticsConfig { lateness_bound_ns: MILLIS, reorder_cap: 4096, ..Default::default() }
}

/// Generate one session's schedule from the seed.
pub fn schedule(seed: u64, load: &Load) -> Vec<Input> {
    let mut out = Vec::new();
    let mut exporter = hostile_exporter(seed);
    let mut t = 0;
    while t < load.session_ns {
        // `None` is a datagram lost upstream: nothing arrives.
        if let Some(dg) = exporter.emit() {
            out.push(Input { due_ns: t, payload: Payload::Datagram(dg) });
        }
        t += load.datagram_every_ns;
    }
    let clock = ClockSpec { offset_ns: 200 * MICROS, drift_ppm: 20, ..ClockSpec::none() };
    let clocks: Vec<DeviceClock> =
        (0..DEVICES).map(|d| DeviceClock::new(&clock, seed, DEVICE_BASE + d)).collect();
    let mut rng = Pcg32::new(seed, 0x4345_4250);
    // Sequence numbers are assigned after sorting, in due order.
    let delivery = |due_ns: u64, n: u32, rng: &mut Pcg32| {
        let d = rng.next_below(DEVICES) as usize;
        let events: Vec<StoredEvent> = (0..n)
            .map(|_| StoredEvent {
                time_ns: clocks[d].local_time(due_ns),
                device: DEVICE_BASE + d as u32,
                epoch: 0,
                seq: 0,
                record: record(rng),
            })
            .collect();
        Input { due_ns, payload: Payload::Cebp(events) }
    };
    let mut t = load.cebp_every_ns / 2;
    while t < load.session_ns {
        let n = 1 + rng.next_below(load.max_batch);
        out.push(delivery(t, n, &mut rng));
        t += load.cebp_every_ns;
    }
    let mut t = load.burst_every_ns / 2;
    while t < load.session_ns {
        for _ in 0..load.burst_deliveries {
            out.push(delivery(t, load.max_batch, &mut rng));
        }
        t += load.burst_every_ns;
    }
    let mut t = load.scrape_every_ns;
    while t <= load.session_ns {
        out.push(Input { due_ns: t, payload: Payload::Scrape });
        t += load.scrape_every_ns;
    }
    // Stable: ties keep generation order.
    out.sort_by_key(|i| i.due_ns);
    let mut seqs = vec![0u64; DEVICES as usize];
    for input in &mut out {
        if let Payload::Cebp(events) = &mut input.payload {
            for e in events {
                let seq = &mut seqs[(e.device - DEVICE_BASE) as usize];
                e.seq = *seq;
                *seq += 1;
            }
        }
    }
    out
}

/// A random 24-byte event: a drop or congestion on a random flow.
fn record(rng: &mut Pcg32) -> EventRecord {
    let r = rng.next_u32();
    let flow = FlowKey::tcp(
        Ipv4Addr::from_octets([10, (r >> 16) as u8, (r >> 8) as u8, r as u8]),
        1024 + (rng.next_u32() % 50_000) as u16,
        Ipv4Addr::from_octets([10, 200, (r >> 24) as u8, 1]),
        443,
    );
    let port = (rng.next_u32() % 32) as u8;
    let (ty, detail) = match rng.next_below(4) {
        0 => (
            EventType::PipelineDrop,
            EventDetail::Drop {
                ingress_port: port,
                egress_port: port ^ 1,
                code: DropCode::TableMiss,
            },
        ),
        1 => (
            EventType::MmuDrop,
            EventDetail::Drop {
                ingress_port: port,
                egress_port: port ^ 1,
                code: DropCode::BufferFull,
            },
        ),
        2 => (
            EventType::InterSwitchDrop,
            EventDetail::Drop { ingress_port: port, egress_port: port, code: DropCode::LinkLoss },
        ),
        _ => (
            EventType::Congestion,
            EventDetail::Congestion {
                egress_port: port,
                queue: 0,
                latency_us: 20 + (rng.next_u32() % 500) as u16,
            },
        ),
    };
    EventRecord { ty, flow, detail, counter: 1, hash: rng.next_u32() }
}

/// Timed batches of backend builds per session; the last build serves
/// the session.
const SETUP_SAMPLES: usize = 11;
/// Backend builds per timed batch.
const SETUP_BATCH: usize = 100;

fn build_backend() -> Backend {
    Backend::new(
        pressured_collector(),
        event_time_analytics(),
        LinkMap::default(),
        Some(WireIngest::new(WireConfig::default())),
    )
}

/// What one session produced.
#[derive(Debug)]
pub struct Session {
    /// Median backend build time, seconds.
    pub setup_s: f64,
    /// Per data input: due → `poll` returned, µs.
    pub latency_us: Vec<f64>,
    /// Per data input: due → the loop started on it, µs.
    pub lag_us: Vec<f64>,
    /// Wall time of each scrape + render.
    pub scrape_secs: Vec<f64>,
    /// Seconds spent inside wire, collector and analytics calls.
    pub busy_s: f64,
    /// Data inputs offered.
    pub inputs: u64,
    /// Backend work.
    pub work: Work,
    /// Deterministic metrics.
    pub det: Vec<(&'static str, f64, &'static str)>,
    /// Timing-dependent counters (spill activity depends on how many
    /// inputs were due together when the loop got to them).
    pub timing: Vec<(&'static str, f64, &'static str)>,
    /// Hash of the stored stream, the ledgers and `det`.
    pub fingerprint: u64,
    /// Correctness checks.
    pub checks: Checks,
}

/// Serve one session of `inputs` open loop.
pub fn run_session(inputs: &[Input], load: &Load, tr: &mut Tracer) -> Session {
    let mut checks = Checks::default();
    // One build takes about a microsecond, so time batches of builds.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = Vec::with_capacity(SETUP_BATCH);
    for _ in 0..SETUP_SAMPLES {
        built.clear();
        let t = tr.enter("setup.backend");
        let start = Instant::now();
        built.extend((0..SETUP_BATCH).map(|_| build_backend()));
        setups.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        tr.exit(t);
    }
    let mut backend = built.pop().expect("built at least once");
    drop(built);
    let mut cebp = DeliveryLedger::default();
    let mut latency_us = Vec::new();
    let mut lag_us = Vec::new();
    let mut scrape_secs = Vec::new();
    let mut busy_ns = 0u64;
    let mut data_inputs = 0u64;
    let mut pending_due: Vec<u64> = Vec::new();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut i = 0;
    while i < inputs.len() {
        let due = inputs[i].due_ns;
        if now_ns() < due {
            let w = tr.enter("idle.wait");
            // A plain busy-wait: a PAUSE-based spin can make the
            // hypervisor deschedule the vCPU, which shows as lag.
            while now_ns() < due {}
            tr.exit(w);
        }
        let now = now_ns();
        pending_due.clear();
        while i < inputs.len() && inputs[i].due_ns <= now {
            let input = &inputs[i];
            tr.set_input(i as u64);
            i += 1;
            let began = Instant::now();
            match &input.payload {
                Payload::Datagram(dg) => {
                    backend.ingest_datagram(tr, dg, input.due_ns);
                }
                Payload::Cebp(events) => {
                    let (spilled, refused) =
                        (backend.collector.spilled, backend.collector.overflow_refused);
                    let accepted = backend.ingest(tr, events);
                    cebp.generated += events.len() as u64;
                    cebp.delivered += accepted + backend.collector.spilled - spilled;
                    cebp.shed_cpu_overload += backend.collector.overflow_refused - refused;
                }
                Payload::Scrape => {
                    let wire = backend.wire_ledger();
                    let s =
                        backend.scrape(tr, || merge_ledgers(&cebp, &wire), None, &[], input.due_ns);
                    scrape_secs.push(s.secs);
                    continue;
                }
            }
            busy_ns += began.elapsed().as_nanos() as u64;
            lag_us.push(
                began.duration_since(start).as_nanos().saturating_sub(u128::from(input.due_ns))
                    as f64
                    / 1e3,
            );
            pending_due.push(input.due_ns);
            data_inputs += 1;
        }
        if !pending_due.is_empty() {
            let began = Instant::now();
            backend.poll(tr);
            busy_ns += began.elapsed().as_nanos() as u64;
            let done = now_ns();
            latency_us.extend(pending_due.iter().map(|&d| done.saturating_sub(d) as f64 / 1e3));
        }
    }

    let c = tr.enter("bench.check");
    backend.finish(&mut checks);
    let breaches = backend.engine.finish_breaches();
    let wire = backend.wire_ledger();
    let last = backend.scrape(tr, || merge_ledgers(&cebp, &wire), None, &breaches, load.session_ns);
    scrape_secs.push(last.secs);
    let merged = last.merged;
    check_snapshot(&last.snapshot, &merged, &mut checks);
    checks.check(merged.balanced(), || format!("merged ledger imbalance: {merged:?}"));
    checks.check(merged.buffered == 0 && merged.pending == 0, || {
        format!("backend not drained at session end: {merged:?}")
    });
    let stored = backend.collector.len() as u64;
    checks.check(stored == merged.delivered, || {
        format!("collector holds {stored} events, ledger delivered {}", merged.delivered)
    });
    let w = backend.wire.as_ref().expect("wire socket");
    let stats = w.session().stats();
    let offered = cebp.generated + stats.decoded;
    let a = backend.engine.ledger();
    let as_f = |v: u64| v as f64;
    let det = vec![
        ("event_recall", a.ingested as f64 / offered.max(1) as f64, "ratio"),
        ("ledger.generated", as_f(merged.generated), "count"),
        ("ledger.delivered", as_f(merged.delivered), "count"),
        ("ledger.shed", as_f(merged.shed_total()), "count"),
        ("ledger.corrupted", as_f(merged.corrupted), "count"),
        ("ledger.pending", as_f(merged.pending), "count"),
        ("ledger.buffered", as_f(merged.buffered), "count"),
        ("ledger.fail_ratio", fail_ratio(&merged), "ratio"),
        ("wire.records_decoded", as_f(stats.decoded), "count"),
        ("wire.records_malformed", as_f(stats.malformed), "count"),
        ("wire.datagrams_rejected", as_f(stats.rejected), "count"),
        (
            "wire.decode_yield",
            stats.decoded as f64 / (stats.decoded + stats.malformed).max(1) as f64,
            "ratio",
        ),
        ("analytics.ingested", as_f(a.ingested), "count"),
        ("analytics.late_admitted", as_f(a.late_admitted), "count"),
        ("analytics.late_shed", as_f(a.late_shed), "count"),
        ("analytics.sketch_absorbed", as_f(a.sketch_absorbed), "count"),
        ("export.series", as_f(last.series), "count"),
        (
            "export.bytes",
            as_f((last.snapshot.prometheus.len() + last.snapshot.otel.len()) as u64),
            "bytes",
        ),
        ("export.series_rejected", as_f(last.series_rejected), "count"),
    ];
    let col = &backend.collector;
    let timing = vec![
        ("collector.spilled", as_f(col.spilled), "count"),
        ("collector.spill_applied", as_f(col.spill_applied), "count"),
        ("collector.overflow_refused", as_f(col.overflow_refused), "count"),
        ("collector.backlog_max", as_f(backend.backlog_max), "count"),
        ("spill.fsyncs", as_f(col.spill().fsyncs), "count"),
        ("spill.rotations", as_f(col.spill().rotations), "count"),
        ("analytics.pending_reorder_max", as_f(backend.pending_reorder_max), "count"),
    ];
    checks.check(col.spilled > 0 && col.spill_applied > 0, || {
        "bursts never engaged and drained the spill".to_string()
    });
    checks.check(col.overflow_refused == 0, || {
        format!("{} deliveries refused: the spill budget overflowed", col.overflow_refused)
    });
    let mut fp = Fingerprint::default();
    for e in col.store().events() {
        fp.event(e);
    }
    for (_, v, _) in &det {
        fp.u64(v.to_bits());
    }
    tr.exit(c);
    Session {
        setup_s: median(&setups),
        latency_us,
        lag_us,
        scrape_secs,
        busy_s: busy_ns as f64 / 1e9,
        inputs: data_inputs,
        work: backend.work,
        det,
        timing,
        fingerprint: fp.value(),
        checks,
    }
}

/// Sessions at least, whatever the time budget.
const MIN_SESSIONS: usize = 3;

/// Run the workload for `seconds` of sessions. As for the fleets, a
/// traced run spends its first half untraced and its second half traced.
pub fn run(seed: u64, seconds: f64, trace: bool, load: &Load) -> (Report, Tracer) {
    let inputs = schedule(seed, load);
    let start = Instant::now();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut off = Tracer::off();
    let mut sessions = Vec::new();
    while sessions.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() < budget {
        let s = run_session(&inputs, load, &mut off);
        eprintln!(
            "session {}: {:.0} events/busy-s, latency p50 {:.1} us p99 {:.0} us",
            sessions.len(),
            s.work.drained as f64 / s.busy_s,
            percentile(&s.latency_us, 0.5),
            percentile(&s.latency_us, 0.99)
        );
        sessions.push(s);
    }
    let mut tracer = Tracer::off();
    let mut traced = Vec::new();
    let mut phase_ns = 0;
    if trace {
        tracer = Tracer::on(Instant::now());
        let phase = Instant::now();
        while traced.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() < seconds {
            tracer.set_input(0);
            traced.push(run_session(&inputs, load, &mut tracer));
        }
        phase_ns = phase.elapsed().as_nanos() as u64;
    }
    let all: Vec<&Session> = sessions.iter().chain(&traced).collect();
    let mut report = Report::default();
    report.attempted = all.iter().map(|s| s.inputs).sum();
    for s in &all {
        if !s.checks.ok() {
            report.failed += s.inputs;
        }
        for f in s.checks.failures() {
            report.checks.check(false, || f.clone());
        }
        report.checks.check(s.fingerprint == all[0].fingerprint, || {
            "stored stream or deterministic metrics differ between sessions of one seed \
             (traced vs untraced, or run to run)"
                .to_string()
        });
    }
    for (name, value, unit) in all[0].det.iter().chain(&all[0].timing) {
        report.set(name, *value, unit);
    }
    let med = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(&|s| s.setup_s), "s");
    report.set("setup.backend_s", med(&|s| s.setup_s), "s");
    report.set("throughput_per_s", med(&|s| s.work.drained as f64 / s.busy_s), "1/s");
    // Pooled over sessions: each burst's deliveries share one latency, so
    // a per-session p99 is a single burst's duration; pooled, it is a
    // quantile over every burst of the run.
    let latency: Vec<f64> = sessions.iter().flat_map(|s| s.latency_us.iter().copied()).collect();
    report.set("report_latency_p50_us", percentile(&latency, 0.5), "us");
    report.set("report_latency_p99_us", percentile(&latency, 0.99), "us");
    let scrapes: Vec<f64> =
        sessions.iter().flat_map(|s| s.scrape_secs.iter().map(|x| x * 1e3)).collect();
    report.set("scrape_ms_p90", percentile(&scrapes, 0.9), "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set(
        "loadgen.offered_per_s",
        sessions[0].inputs as f64 / (load.session_ns as f64 / 1e9),
        "1/s",
    );
    report.set("loadgen.lag_p99_us", med(&|s| percentile(&s.lag_us, 0.99)), "us");
    report.set("loadgen.lag_max_us", med(&|s| percentile(&s.lag_us, 1.0)), "us");
    if trace {
        let mut work = Work::default();
        for s in &traced {
            work.ingested += s.work.ingested;
            work.drained += s.work.drained;
            work.pumped += s.work.pumped;
            work.datagrams += s.work.datagrams;
        }
        let busy = |v: &[Session]| median(&v.iter().map(|s| s.busy_s).collect::<Vec<_>>());
        set_traced(
            &mut report,
            &TracedPhase {
                tracer: &tracer,
                hooks: Default::default(),
                shards: 1,
                wall_ns: phase_ns,
                work,
                pkts: 0,
                // Open loop: the wall time is the schedule's, so compare
                // the time spent inside the backend instead.
                overhead_ratio: busy(&traced) / busy(&sessions),
            },
        );
    }
    (report, tracer)
}
