//! The two fleet workloads: batch jobs that build a simulated fat-tree
//! with NetSeer on every switch and NIC, run it to a fixed horizon in
//! slices, move each slice's deliveries through the backend, and scrape
//! `/metrics` at every slice boundary.
//!
//! * `fleet_faulted` — the paper's §5.2 setup on a serial k=4 fat-tree:
//!   DCTCP-CDF traffic at 70% load, incast, blackhole, mid-run reroute,
//!   burst inter-switch loss, and a fault plan with management loss,
//!   notification loss and CEBP bit flips. The event path does the most
//!   work here.
//! * `fleet_sharded` — the 4-pod, 64-host long-haul fat-tree of
//!   `fleet_parallel`, seeded long-lived flows, light uplink loss, run on
//!   2 shards. Nearly all work is the healthy tag/strip path and the
//!   parallel executor; the event path and backend idle.

use crate::backend::{check_snapshot, fail_ratio, Backend, Work};
use crate::hooks::{HookSample, HookSlots, HookTotals, HOOKS};
use crate::ingest::{event_time_analytics, hostile_exporter, pressured_collector};
use crate::layers::{set_traced, TracedPhase};
use crate::report::{median, peak_rss_mb, percentile, Checks, Fingerprint, Report};
use crate::trace::Tracer;
use fet_analytics::{AnalyticsConfig, LinkMap};
use fet_export::merge_ledgers;
use fet_netsim::host::FlowSpec;
use fet_netsim::link::BurstDrop;
use fet_netsim::routing::{install_ecmp_routes, override_route, remove_route};
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::{NodeId, Pcg32, Simulator, SyncStats};
use fet_packet::{EventType, FlowKey};
use fet_workloads::distributions::DCTCP;
use fet_workloads::generator::{generate_incast, generate_traffic, TrafficParams};
use netseer::deploy::{deploy, fleet_ledger, fleet_stats, monitor_of, DeployOptions};
use netseer::faults::CorruptionSpec;
use netseer::{
    CollectorConfig, DeliveryLedger, FaultPlan, LossProcess, NetSeerConfig, StoredEvent,
    WireConfig, WireIngest,
};
use std::collections::HashMap;
use std::time::Instant;

/// Which fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Serial k=4 fat-tree under the §5.2 faults.
    Faulted,
    /// 64-host long-haul fat-tree on 2 shards.
    Sharded,
}

/// Input size of one batch job.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Flows start within `[0, traffic_ns)`.
    pub traffic_ns: u64,
    /// The run ends here.
    pub horizon_ns: u64,
    /// Harvest, poll and scrape every this much sim time.
    pub slice_ns: u64,
}

impl Fleet {
    /// The benchmark's input size.
    pub fn full(self) -> FleetSize {
        match self {
            Fleet::Faulted => {
                FleetSize { traffic_ns: 15 * MILLIS, horizon_ns: 25 * MILLIS, slice_ns: MILLIS }
            }
            Fleet::Sharded => {
                FleetSize { traffic_ns: 6 * MILLIS, horizon_ns: 6 * MILLIS, slice_ns: MILLIS / 2 }
            }
        }
    }

    /// A small size for smoke tests.
    pub fn tiny(self) -> FleetSize {
        match self {
            Fleet::Faulted => {
                FleetSize { traffic_ns: 4 * MILLIS, horizon_ns: 6 * MILLIS, slice_ns: MILLIS }
            }
            Fleet::Sharded => {
                FleetSize { traffic_ns: MILLIS, horizon_ns: MILLIS, slice_ns: MILLIS / 4 }
            }
        }
    }

    /// Shard count the workload runs on (1 = serial engine).
    pub fn shards(self) -> usize {
        match self {
            Fleet::Faulted => 1,
            Fleet::Sharded => 2,
        }
    }
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Fat-tree construction.
    pub topology: f64,
    /// ECMP route installation.
    pub routes: f64,
    /// NetSeer deployment on every switch and NIC.
    pub deploy: f64,
    /// Flow schedule and fault injection.
    pub traffic: f64,
    /// Collector, analytics engine and link map.
    pub backend: f64,
}

impl SetupTimes {
    /// All steps.
    pub fn total(&self) -> f64 {
        self.topology + self.routes + self.deploy + self.traffic + self.backend
    }
}

/// Time `f` into `slot` and under span `name`.
fn step<R>(tr: &mut Tracer, name: &'static str, slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = tr.enter(name);
    let start = Instant::now();
    let r = f();
    *slot = start.elapsed().as_secs_f64();
    tr.exit(t);
    r
}

/// Build the system under test from the seed. The simulator sees only the
/// generated topology, flows and faults; the wire socket only the
/// exporter's datagrams (`None` = lost upstream), `DATAGRAMS_PER_SLICE`
/// per slice.
pub fn build(
    fleet: Fleet,
    seed: u64,
    size: &FleetSize,
    tr: &mut Tracer,
) -> (Simulator, Backend, Vec<Option<Vec<u8>>>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut sim = Simulator::new();
    let params = match fleet {
        Fleet::Faulted => {
            let mut p =
                FatTreeParams { pods: 4, cores: 4, seed: seed ^ 0xfe75, ..Default::default() };
            p.switch_config.mmu.total_bytes = 256 * 1024;
            p.switch_config.congestion_threshold_ns = 20 * MICROS;
            p
        }
        Fleet::Sharded => FatTreeParams {
            pods: 4,
            cores: 4,
            hosts_per_edge: 8,
            prop_ns: 5 * MICROS,
            seed: seed ^ 0xfe75,
            ..Default::default()
        },
    };
    let ft = step(tr, "setup.topology", &mut times.topology, || build_fat_tree(&mut sim, &params));
    step(tr, "setup.routes", &mut times.routes, || install_ecmp_routes(&mut sim));
    let cfg = match fleet {
        Fleet::Faulted => NetSeerConfig {
            faults: FaultPlan {
                seed,
                mgmt_loss: LossProcess::Bernoulli { p: 0.05 },
                notification_loss: LossProcess::Bernoulli { p: 0.2 },
                cebp_corruption: CorruptionSpec::bit_flips(5e-4),
                ..FaultPlan::default()
            },
            ..NetSeerConfig::default()
        },
        Fleet::Sharded => NetSeerConfig::default(),
    };
    step(tr, "setup.deploy", &mut times.deploy, || {
        deploy(&mut sim, &DeployOptions { cfg, on_nics: true })
    });
    step(tr, "setup.traffic", &mut times.traffic, || match fleet {
        Fleet::Faulted => faulted_traffic(&mut sim, &ft, seed, size),
        Fleet::Sharded => sharded_traffic(&mut sim, &ft, seed, size),
    });
    let datagrams = step(tr, "setup.traffic", &mut times.traffic, || match fleet {
        Fleet::Faulted => {
            let mut exporter = hostile_exporter(seed);
            let slices = size.horizon_ns.div_ceil(size.slice_ns);
            let n = (slices * DATAGRAMS_PER_SLICE) as usize;
            std::iter::repeat_with(|| exporter.emit()).take(n).collect()
        }
        Fleet::Sharded => Vec::new(),
    });
    let backend = step(tr, "setup.backend", &mut times.backend, || {
        let links = LinkMap::from_endpoints(sim.link_endpoints());
        match fleet {
            Fleet::Faulted => Backend::new(
                pressured_collector(),
                event_time_analytics(),
                links,
                Some(WireIngest::new(WireConfig::default())),
            ),
            Fleet::Sharded => {
                Backend::new(CollectorConfig::default(), AnalyticsConfig::default(), links, None)
            }
        }
    });
    (sim, backend, datagrams, times)
}

/// Exporter emissions per slice on `fleet_faulted`'s wire socket. Their
/// ~900 records arrive before the slice's poll, past the collector's
/// 512-event watermark, so every slice spills and drains.
const DATAGRAMS_PER_SLICE: u64 = 200;

/// §5.2 traffic and faults (the layout of `fet_bench::run_experiment`,
/// scaled to a k=4 fat-tree).
fn faulted_traffic(sim: &mut Simulator, ft: &FatTree, seed: u64, size: &FleetSize) {
    let tp = TrafficParams {
        utilization: 0.7,
        duration_ns: size.traffic_ns,
        seed,
        max_flows: 4_000,
        ..Default::default()
    };
    generate_traffic(sim, ft, &DCTCP, &tp);
    let at = size.traffic_ns / 4;
    let tor = ft.edges[0][0];
    for port in 0..2 {
        if let Some(dir) = sim.link_direction_mut(tor, port) {
            dir.faults.burst_drop = Some(BurstDrop { at_ns: at, count: 16, corrupt: false });
        }
    }
    // Hosts 14 and 15 send to host 0 under the fan-in pattern.
    let (tor, vip) = (ft.edges[3][1], ft.host_ips[0]);
    sim.schedule_control(at, move |s| remove_route(s, tor, vip));
    // A long-lived victim pinned to one uplink, then the other, so its
    // path changes mid-flight whatever ECMP chose.
    let (tor, vip) = (ft.edges[0][1], ft.host_ips[7]);
    let victim = FlowKey::tcp(ft.host_ips[2], 61_000, vip, 443);
    let h = ft.hosts[2];
    let idx = sim.host_mut(h).add_flow(FlowSpec {
        key: victim,
        total_bytes: 40_000_000,
        pkt_payload: 1000,
        rate_gbps: 4.0,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h, idx);
    sim.schedule_control(at, move |s| override_route(s, tor, vip, vec![0]));
    sim.schedule_control(at + size.traffic_ns / 8, move |s| override_route(s, tor, vip, vec![1]));
    let sources: Vec<usize> = (0..7).collect();
    generate_incast(sim, ft, 7, &sources, 1_500_000, at);
}

/// Long-lived flows to seeded destinations and light loss on every
/// ToR and aggregation uplink (ports 0 and 1 of both tiers).
fn sharded_traffic(sim: &mut Simulator, ft: &FatTree, seed: u64, size: &FleetSize) {
    const FLOWS_PER_HOST: usize = 16;
    let mut rng = Pcg32::new(seed, 0x5348);
    let n = ft.hosts.len();
    for s in 0..n {
        for f in 0..FLOWS_PER_HOST {
            let d = (s + 1 + rng.next_below(n as u32 - 1) as usize) % n;
            let key = FlowKey::tcp(
                ft.host_ips[s],
                2_000 + (s * FLOWS_PER_HOST + f) as u16,
                ft.host_ips[d],
                80,
            );
            let h = ft.hosts[s];
            let idx = sim.host_mut(h).add_flow(FlowSpec {
                key,
                total_bytes: 2_000_000,
                pkt_payload: 1000,
                rate_gbps: 5.0 / FLOWS_PER_HOST as f64,
                start_ns: u64::from(rng.next_below(100_000)).min(size.traffic_ns / 2),
                dscp: 0,
            });
            sim.schedule_flow(h, idx);
        }
    }
    let uplinked: Vec<NodeId> = ft.edges.iter().chain(&ft.aggs).flatten().copied().collect();
    for sw in uplinked {
        for port in 0..2 {
            if let Some(dir) = sim.link_direction_mut(sw, port) {
                dir.faults.drop_prob = 0.005;
            }
        }
    }
}

/// Moves newly delivered events from every monitor's `delivered` vector
/// into the collector, one cursor per monitor. This is the single place
/// the fleet's deliveries reach the backend, so a live delivery path can
/// replace it without touching the rest of the benchmark.
pub struct Harvest {
    cursors: Vec<(NodeId, usize)>,
    buf: Vec<StoredEvent>,
}

impl Harvest {
    /// Cursors at zero for every attached NetSeer monitor.
    pub fn new(sim: &Simulator) -> Self {
        let ids = sim.switch_ids().into_iter().chain(sim.host_ids());
        Harvest { cursors: ids.map(|id| (id, 0)).collect(), buf: Vec::new() }
    }

    /// Hand everything delivered since the last pull to the collector, in
    /// node-id order. Returns the events moved.
    pub fn pull(&mut self, sim: &Simulator, backend: &mut Backend, tr: &mut Tracer) -> usize {
        let t = tr.enter("harvest.pull");
        self.buf.clear();
        for (id, cursor) in &mut self.cursors {
            let delivered = &monitor_of(sim, *id).delivered;
            self.buf.extend_from_slice(&delivered[*cursor..]);
            *cursor = delivered.len();
        }
        backend.ingest(tr, &self.buf);
        tr.exit(t);
        self.buf.len()
    }
}

/// What one repetition of a fleet batch job produced.
#[derive(Debug)]
pub struct Rep {
    /// Set-up step times.
    pub setup: SetupTimes,
    /// Wall time from the start of the run to the final rendered snapshot.
    pub run_secs: f64,
    /// Data packets the switch pipelines saw.
    pub pkts: u64,
    /// Wall time of each scrape + render.
    pub scrape_secs: Vec<f64>,
    /// Latency samples (sim µs) of matched ground-truth events.
    pub latency_us: Vec<f64>,
    /// Deterministic per-layer counts and sim-time metrics.
    pub det: Vec<(&'static str, f64, &'static str)>,
    /// Hash of the delivered stream, the ledger and `det`.
    pub fingerprint: u64,
    /// Hook counters (traced repetitions only).
    pub hooks: HookTotals,
    /// Sampled hook spans (traced repetitions only).
    pub hook_samples: Vec<HookSample>,
    /// Backend work.
    pub work: Work,
    /// Correctness checks of this repetition.
    pub checks: Checks,
}

/// Run one repetition on `shards` worker threads (1 = the serial
/// engine). With `hooks` the monitors are wrapped in the hook-timing
/// wrapper, stamped relative to that base.
pub fn run_rep(
    fleet: Fleet,
    seed: u64,
    size: &FleetSize,
    shards: usize,
    tr: &mut Tracer,
    hooks: Option<Instant>,
) -> Rep {
    let mut checks = Checks::default();
    let (mut sim, mut backend, datagrams, setup) = build(fleet, seed, size, tr);
    let mut datagrams = datagrams.chunks(DATAGRAMS_PER_SLICE as usize);
    let slots = hooks.map(|base| HookSlots::install(&mut sim, base));
    let mut harvest = Harvest::new(&sim);
    let run_start = Instant::now();
    let mut scrape_secs = Vec::new();
    let mut t = 0;
    while t < size.horizon_ns {
        t = (t + size.slice_ns).min(size.horizon_ns);
        let s = tr.enter("netsim.run");
        if shards > 1 {
            sim.run_until_parallel(t, shards);
        } else {
            sim.run_until(t);
        }
        tr.exit(s);
        for dg in datagrams.next().unwrap_or_default().iter().flatten() {
            backend.ingest_datagram(tr, dg, t);
        }
        harvest.pull(&sim, &mut backend, tr);
        backend.poll(tr);
        let wire = backend.wire_ledger();
        let sources = || merge_ledgers(&fleet_ledger(&sim), &wire);
        let scraped = backend.scrape(tr, sources, Some(&sim), &[], t);
        scrape_secs.push(scraped.secs);
    }
    backend.finish(&mut checks);
    let breaches = backend.engine.finish_breaches();
    let wire = backend.wire_ledger();
    let sources = || merge_ledgers(&fleet_ledger(&sim), &wire);
    let last = backend.scrape(tr, sources, Some(&sim), &breaches, size.horizon_ns);
    scrape_secs.push(last.secs);
    let run_secs = run_start.elapsed().as_secs_f64();

    let c = tr.enter("bench.check");
    let merged = last.merged;
    check_snapshot(&last.snapshot, &merged, &mut checks);
    checks.check(merged.balanced(), || format!("merged ledger imbalance: {merged:?}"));
    let stored = backend.collector.len() as u64;
    checks.check(stored == merged.delivered && merged.buffered == 0, || {
        format!("collector holds {stored} events, ledger {merged:?}")
    });
    let col = &backend.collector;
    checks.check(backend.wire.is_none() || (col.spilled > 0 && col.spill_applied > 0), || {
        "wire bursts never engaged and drained the spill".to_string()
    });
    checks.check(col.overflow_refused == 0, || {
        format!("{} deliveries refused", col.overflow_refused)
    });
    let pkts: u64 =
        sim.switch_ids().iter().map(|&id| monitor_of(&sim, id).stats.packets_seen).sum();
    checks.check(pkts > 0, || "no data packets simulated".to_string());
    let (recall, latency_us, gt_keys) = recall_latency(&sim, backend.collector.store().events());
    checks.check(gt_keys > 0, || "no ground-truth events".to_string());
    let det = det_metrics(
        &sim,
        &backend,
        &merged,
        recall,
        &latency_us,
        last.series,
        last.series_rejected,
        &last.snapshot,
    );
    let mut fp = Fingerprint::default();
    for e in backend.collector.store().events() {
        fp.event(e);
    }
    for (name, v, _) in &det {
        if shard_invariant(name) {
            fp.u64(v.to_bits());
        }
    }
    tr.exit(c);
    Rep {
        setup,
        run_secs,
        pkts,
        scrape_secs,
        latency_us,
        det,
        fingerprint: fp.value(),
        hooks: slots.as_ref().map(HookSlots::totals).unwrap_or_default(),
        hook_samples: slots.as_ref().map(HookSlots::samples).unwrap_or_default(),
        work: backend.work,
        checks,
    }
}

/// Repetitions at least, whatever the time budget.
const MIN_REPS: usize = 3;

/// Run the workload for `seconds`: repetitions of the batch job, all on
/// the same seeded input. Untraced runs report the end-to-end metrics;
/// traced runs spend the first half untraced (the overhead baseline) and
/// the second half traced, and report the per-layer metrics.
pub fn run(
    fleet: Fleet,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Report, Tracer, Vec<HookSample>) {
    let size = fleet.full();
    let start = Instant::now();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut off = Tracer::off();
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let rep = run_rep(fleet, seed, &size, fleet.shards(), &mut off, None);
        walls.push(t.elapsed().as_secs_f64());
        eprintln!(
            "rep {}: {:.0} pkts/s, setup {:.4} s, run {:.3} s",
            reps.len(),
            rep.pkts as f64 / rep.run_secs,
            rep.setup.total(),
            rep.run_secs
        );
        reps.push(rep);
    }
    let mut report = Report::default();
    let mut tracer = Tracer::off();
    let mut samples = Vec::new();
    let mut all: Vec<&Rep> = reps.iter().collect();
    let traced = if trace {
        let base = Instant::now();
        tracer = Tracer::on(base);
        let mut traced = Vec::new();
        let mut traced_walls = Vec::new();
        let phase = Instant::now();
        while traced.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
            tracer.set_input(traced.len() as u64);
            let t = Instant::now();
            let mut rep = run_rep(fleet, seed, &size, fleet.shards(), &mut tracer, Some(base));
            traced_walls.push(t.elapsed().as_secs_f64());
            samples.append(&mut rep.hook_samples);
            traced.push(rep);
        }
        Some((traced, traced_walls, phase.elapsed()))
    } else {
        None
    };
    if let Some((traced, _, _)) = &traced {
        all.extend(traced.iter());
    }
    report.attempted = all.len() as u64;
    for rep in &all {
        if !rep.checks.ok() {
            report.failed += 1;
        }
        for f in rep.checks.failures() {
            report.checks.check(false, || f.clone());
        }
        report.checks.check(rep.fingerprint == all[0].fingerprint, || {
            "delivered stream or deterministic metrics differ between repetitions \
             of one seed (traced vs untraced, or run to run)"
                .to_string()
        });
    }
    for (name, value, unit) in &all[0].det {
        report.set(name, *value, unit);
    }
    let setups: Vec<SetupTimes> = reps.iter().map(|r| r.setup).collect();
    report.set("setup_s", median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()), "s");
    for (name, f) in [
        ("setup.topology_s", (|s: &SetupTimes| s.topology) as fn(&SetupTimes) -> f64),
        ("setup.routes_s", |s| s.routes),
        ("setup.deploy_s", |s| s.deploy),
        ("setup.traffic_s", |s| s.traffic),
        ("setup.backend_s", |s| s.backend),
    ] {
        report.set(name, median(&setups.iter().map(f).collect::<Vec<_>>()), "s");
    }
    // Host speed drifts between a fast and a slow regime for seconds at a
    // time. A median over repetitions or scrapes jumps between the two as
    // their mix crosses one half; the aggregate moves with the mix, and
    // the scrape p90 sits in the slow regime whenever it is a tenth of
    // the run.
    let pkts: u64 = reps.iter().map(|r| r.pkts).sum();
    let run_secs: f64 = reps.iter().map(|r| r.run_secs).sum();
    report.set("throughput_per_s", pkts as f64 / run_secs, "1/s");
    let scrapes: Vec<f64> =
        reps.iter().flat_map(|r| r.scrape_secs.iter().map(|s| s * 1e3)).collect();
    report.set("scrape_ms_p90", percentile(&scrapes, 0.9), "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    if let Some((traced, traced_walls, phase)) = &traced {
        let mut hooks = HookTotals::default();
        let mut work = Work::default();
        for r in traced {
            for h in 0..hooks.calls.len() {
                hooks.calls[h] += r.hooks.calls[h];
                hooks.nanos[h] += r.hooks.nanos[h];
            }
            work.ingested += r.work.ingested;
            work.drained += r.work.drained;
            work.pumped += r.work.pumped;
            work.datagrams += r.work.datagrams;
        }
        set_traced(
            &mut report,
            &TracedPhase {
                tracer: &tracer,
                hooks,
                shards: fleet.shards(),
                wall_ns: phase.as_nanos() as u64,
                work,
                pkts: traced.iter().map(|r| r.pkts).sum(),
                overhead_ratio: median(traced_walls) / median(&walls),
            },
        );
        // Calls per repetition, to line up with the per-repetition volume
        // counters.
        for (h, name) in HOOKS.iter().enumerate() {
            report.set(
                &format!("monitor.{name}.calls"),
                (hooks.calls[h] / traced.len() as u64) as f64,
                "count",
            );
        }
    }
    (report, tracer, samples)
}

/// False for the deterministic metrics that depend on the shard count:
/// the sync counters, and the rendered size, which prints them.
pub fn shard_invariant(metric: &str) -> bool {
    !metric.starts_with("netsim.sync.") && metric != "export.bytes"
}

/// Recall of ground-truth `(device, type, flow)` events in the collector
/// store, and the sim-time latency (µs) from each matched event's first
/// ground-truth packet to its first collector arrival. Also returns the
/// number of ground-truth events.
pub fn recall_latency(sim: &Simulator, stored: &[StoredEvent]) -> (f64, Vec<f64>, usize) {
    let mut first_gt: HashMap<(u32, EventType, FlowKey), u64> = HashMap::new();
    for e in sim.gt.events() {
        if let Some(f) = e.flow {
            let t = first_gt.entry((e.device, e.ty, f)).or_insert(e.time_ns);
            *t = (*t).min(e.time_ns);
        }
    }
    let mut first_seen: HashMap<(u32, EventType, FlowKey), u64> = HashMap::new();
    for e in stored {
        let t = first_seen.entry((e.device, e.record.ty, e.record.flow)).or_insert(e.time_ns);
        *t = (*t).min(e.time_ns);
    }
    let mut latency_us: Vec<f64> = first_gt
        .iter()
        .filter_map(|(k, &t0)| first_seen.get(k).map(|&t1| t1.saturating_sub(t0) as f64 / 1e3))
        .collect();
    latency_us.sort_by(f64::total_cmp);
    let recall = latency_us.len() as f64 / first_gt.len().max(1) as f64;
    (recall, latency_us, first_gt.len())
}

/// The deterministic metrics of one repetition: sim-time end-to-end
/// figures plus every per-layer count. Identical for a seed across
/// repetitions, traced and untraced runs, and shard counts (except the
/// `netsim.sync.*` counters, which depend on the shard count).
#[allow(clippy::too_many_arguments)]
fn det_metrics(
    sim: &Simulator,
    backend: &Backend,
    merged: &DeliveryLedger,
    recall: f64,
    latency_us: &[f64],
    series: u64,
    series_rejected: u64,
    snapshot: &fet_export::RenderedSnapshot,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut packets_seen = 0;
    let mut event_packets = 0;
    let mut final_reports = 0;
    let mut dedup_reports = 0;
    let mut fp_eliminated = 0;
    let mut mmu_redirect_missed = 0;
    for id in sim.switch_ids() {
        let m = monitor_of(sim, id);
        packets_seen += m.stats.packets_seen;
        event_packets += m.stats.event_packets;
        final_reports += m.stats.final_reports;
        dedup_reports += m.dedup.values().map(|c| c.reports).sum::<u64>();
        fp_eliminated += m.cpu.fp_eliminated;
        mmu_redirect_missed += m.mmu_redirect_missed;
    }
    let fs = fleet_stats(sim);
    let sync: SyncStats = sim.sync_stats();
    let a = backend.engine.ledger();
    let c = &backend.collector;
    let spill = c.spill();
    let (decoded, malformed, rejected) = backend.wire.as_ref().map_or((0, 0, 0), |w| {
        let s = w.session().stats();
        (s.decoded, s.malformed, s.rejected)
    });
    let as_f = |v: u64| v as f64;
    vec![
        ("event_recall", recall, "ratio"),
        ("report_latency_p50_us", percentile(latency_us, 0.5), "us"),
        ("report_latency_p99_us", percentile(latency_us, 0.99), "us"),
        (
            "netsim.events_per_pkt",
            sim.events_processed() as f64 / packets_seen.max(1) as f64,
            "ratio",
        ),
        ("netsim.sync.epochs_executed", as_f(sync.epochs_executed), "count"),
        ("netsim.sync.epochs_batched", as_f(sync.epochs_batched), "count"),
        ("netsim.sync.ring_messages", as_f(sync.ring_messages), "count"),
        ("netsim.sync.ring_stalls", as_f(sync.ring_stalls), "count"),
        ("netseer.packets_seen", as_f(packets_seen), "count"),
        ("netseer.event_packets", as_f(event_packets), "count"),
        ("netseer.dedup_reports", as_f(dedup_reports), "count"),
        ("netseer.final_reports", as_f(final_reports), "count"),
        ("netseer.fp_eliminated", as_f(fp_eliminated), "count"),
        ("netseer.retransmissions", as_f(fs.retransmissions), "count"),
        ("netseer.crc_failures", as_f(fs.crc_failures), "count"),
        ("netseer.mmu_redirect_missed", as_f(mmu_redirect_missed), "count"),
        ("netseer.selection_ratio", event_packets as f64 / packets_seen.max(1) as f64, "ratio"),
        ("netseer.dedup_ratio", dedup_reports as f64 / event_packets.max(1) as f64, "ratio"),
        (
            "netseer.mgmt_overhead_ppm",
            sim.mgmt.total_bytes() as f64 * 1e6 / sim.switch_tx_bytes().max(1) as f64,
            "ppm",
        ),
        ("netseer.matched_events", as_f(latency_us.len() as u64), "count"),
        ("ledger.generated", as_f(merged.generated), "count"),
        ("ledger.delivered", as_f(merged.delivered), "count"),
        ("ledger.shed", as_f(merged.shed_total()), "count"),
        ("ledger.corrupted", as_f(merged.corrupted), "count"),
        ("ledger.pending", as_f(merged.pending), "count"),
        ("ledger.buffered", as_f(merged.buffered), "count"),
        ("ledger.fail_ratio", fail_ratio(merged), "ratio"),
        ("collector.spilled", as_f(c.spilled), "count"),
        ("collector.spill_applied", as_f(c.spill_applied), "count"),
        ("collector.overflow_refused", as_f(c.overflow_refused), "count"),
        ("collector.backlog_max", as_f(backend.backlog_max), "count"),
        ("spill.fsyncs", as_f(spill.fsyncs), "count"),
        ("spill.rotations", as_f(spill.rotations), "count"),
        ("wire.records_decoded", as_f(decoded), "count"),
        ("wire.records_malformed", as_f(malformed), "count"),
        ("wire.datagrams_rejected", as_f(rejected), "count"),
        ("wire.decode_yield", decoded as f64 / (decoded + malformed).max(1) as f64, "ratio"),
        ("analytics.ingested", as_f(a.ingested), "count"),
        ("analytics.late_admitted", as_f(a.late_admitted), "count"),
        ("analytics.late_shed", as_f(a.late_shed), "count"),
        ("analytics.sketch_absorbed", as_f(a.sketch_absorbed), "count"),
        ("analytics.pending_reorder_max", as_f(backend.pending_reorder_max), "count"),
        ("export.series", as_f(series), "count"),
        ("export.bytes", as_f((snapshot.prometheus.len() + snapshot.otel.len()) as u64), "bytes"),
        ("export.series_rejected", as_f(series_rejected), "count"),
    ]
}
