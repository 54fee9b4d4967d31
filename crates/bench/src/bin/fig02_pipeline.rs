//! Figure 2 — the architecture's staged volume reduction, measured: the
//! paper annotates its workflow "100% raw packets → 10% event packets →
//! 0.5% after dedup → 0.01% delivered". This harness runs a fault-heavy
//! workload and prints the measured fraction surviving each stage.

use fet_bench::counting_alloc::{allocations, CountingAlloc};
use fet_bench::{run_experiment, BenchReport, InjectSpec, MonitorKind};
use fet_netsim::monitor::{Actions, EgressCtx, IngressCtx, SwitchMonitor};
use fet_netsim::time::MILLIS;
use fet_packet::builder::{
    build_data_packet, insert_seqtag_in_place, set_seqtag_seq, slide_in_seqtag, slide_out_seqtag,
};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::{FlowKey, SEQTAG_LEN};
use fet_pdp::PacketMeta;
use fet_workloads::distributions::DCTCP;
use netseer::deploy::monitor_of;
use netseer::{NetSeerConfig, NetSeerMonitor, Role};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Drive the steady-state per-packet path directly — upstream egress
/// (the deparser re-forms the tag, the hook claims it and records the
/// ring) into downstream ingress (the parser reads the tag, the hook
/// checks the gap, the tag slides out) — and measure wall-clock
/// throughput and heap allocations per packet after warm-up. The
/// zero-allocation contract of `DESIGN.md` §11 is asserted here, so a
/// regression fails the bench job, not just a code review.
fn hot_path_bench() -> (f64, f64) {
    let cfg = NetSeerConfig::default();
    let mut upstream = NetSeerMonitor::new(1, Role::Switch, cfg.clone());
    let mut downstream = NetSeerMonitor::new(2, Role::Switch, cfg);
    let flow = FlowKey::tcp(
        Ipv4Addr::from_octets([10, 0, 0, 1]),
        7_000,
        Ipv4Addr::from_octets([10, 0, 0, 2]),
        80,
    );
    // A frame as a switch holds it after its parser removed the tag: the
    // tag's bytes are headroom in front of the frame.
    let mut frame = build_data_packet(&flow, 1000, 0, 0, 64);
    insert_seqtag_in_place(&mut frame, 0).expect("taggable");
    slide_out_seqtag(&mut frame);
    let len = frame.len() - SEQTAG_LEN;
    let mut out = Actions::new();
    let mut run = |n: u64, t0: u64, frame: &mut Vec<u8>| {
        for i in 0..n {
            let now = t0 + i * 1_000;
            let mut meta = PacketMeta::arriving(now, len);
            meta.flow = Some(flow);
            meta.egress_ts_ns = now; // zero queuing delay: no event
            let ectx = EgressCtx {
                now_ns: now,
                node: 1,
                port: 0,
                queue: 0,
                peer_tagged: true,
                tag_open: true,
                congested: false,
                meta: &meta,
            };
            slide_in_seqtag(frame, 0);
            upstream.on_egress(&ectx, frame, &mut out);
            set_seqtag_seq(frame, out.tag.take().expect("the hook claims the open tag"));
            let ictx = IngressCtx::parse(now, 2, 0, frame);
            downstream.on_ingress(&ictx, frame, &mut out);
            slide_out_seqtag(frame);
            out.emit.clear();
            out.report_bytes = 0;
        }
    };
    // Warm-up: first-touch allocations (port tables, ring buffers) are
    // expected and excluded.
    run(10_000, 0, &mut frame);
    let before = allocations();
    let start = Instant::now();
    const PKTS: u64 = 1_000_000;
    run(PKTS, 10_000_000_000, &mut frame);
    let secs = start.elapsed().as_secs_f64();
    let allocs = allocations() - before;
    let per_pkt = allocs as f64 / PKTS as f64;
    (PKTS as f64 / secs, per_pkt)
}

fn main() {
    let inject = InjectSpec::default();
    let out = run_experiment(&DCTCP, MonitorKind::NetSeer, &inject, 0xF16, 15 * MILLIS);

    let mut pkts = 0u64;
    let mut pkt_bytes = 0u64;
    let mut evpkts = 0u64;
    let mut evpkt_bytes = 0u64;
    let mut dedup_out = 0u64;
    let mut extracted_bytes = 0u64;
    let mut final_reports = 0u64;
    let mut final_bytes = 0u64;
    let mut fp_eliminated = 0u64;
    for s in out.sim.switch_ids() {
        let m = monitor_of(&out.sim, s);
        pkts += m.stats.packets_seen;
        pkt_bytes += m.stats.packets_bytes;
        evpkts += m.stats.event_packets;
        evpkt_bytes += m.stats.event_packet_bytes;
        dedup_out += m.dedup.values().map(|c| c.reports).sum::<u64>();
        extracted_bytes += m.extractor.output_bytes;
        final_reports += m.stats.final_reports;
        final_bytes += m.stats.final_bytes;
        fp_eliminated += m.cpu.fp_eliminated;
    }

    let pb = pkt_bytes.max(1) as f64;
    println!("=== Figure 2: staged volume reduction, measured ===");
    println!("  stage                          packets/records          bytes     % of raw");
    println!("  raw packets                  {pkts:>17} {pkt_bytes:>14} {:>11.4}%", 100.0);
    println!(
        "  1. event packet selection    {evpkts:>17} {evpkt_bytes:>14} {:>11.4}%",
        100.0 * evpkt_bytes as f64 / pb
    );
    println!(
        "  2. group-caching dedup       {dedup_out:>17} {:>14} {:>11.4}%",
        dedup_out * evpkt_bytes / evpkts.max(1), // records still full-size here
        100.0 * (dedup_out * evpkt_bytes / evpkts.max(1)) as f64 / pb
    );
    println!(
        "  3. 24-byte extraction        {:>17} {extracted_bytes:>14} {:>11.4}%",
        extracted_bytes / 24,
        100.0 * extracted_bytes as f64 / pb
    );
    println!(
        "  4. CPU FP elim + delivery    {final_reports:>17} {final_bytes:>14} {:>11.4}%",
        100.0 * final_bytes as f64 / pb
    );
    println!(
        "\n  (paper annotation: 100% -> ~10% -> ~0.5% -> ~0.01%; FP eliminated: {fp_eliminated})"
    );

    let (pkts_per_s, allocs_per_pkt) = hot_path_bench();
    println!("\n=== Monitor hot path (tag -> read -> slide out cycle, steady state) ===");
    println!("  throughput        {pkts_per_s:>14.0} pkts/s");
    println!("  heap allocations  {allocs_per_pkt:>14.4} per packet");
    assert_eq!(allocs_per_pkt, 0.0, "steady-state packet path must not allocate");

    let sim_secs = (15 * MILLIS) as f64 * 1e-9;
    let mut report = BenchReport::new("fig02_pipeline");
    report.metric("cores", fet_bench::host_cores() as f64);
    report
        .metric("pkts_per_s", pkts_per_s)
        .metric("allocs_per_pkt", allocs_per_pkt)
        .metric("events_per_s", final_reports as f64 / sim_secs)
        .metric("raw_packets", pkts as f64)
        .metric("final_reports", final_reports as f64);
    report.write().expect("write BENCH_fig02_pipeline.json");
}
