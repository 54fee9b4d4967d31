//! Heap a host holds for the packets waiting in its NIC transmit queue.
//!
//! A queued data packet is held as what its frame is built from (flow,
//! payload length, TCP flags, DSCP); the frame itself is built when the
//! NIC dequeues it. Holding built frames instead cost each queued
//! 1000-byte-payload packet its 1,058-byte frame, and under incast a
//! host's queue holds thousands of them.

use fet_bench::counting_alloc::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};
use fet_netsim::host::{FlowSpec, Host, HostConfig};
use fet_packet::builder::data_packet_len;
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_queued_data_packet_holds_under_64_heap_bytes() {
    const N: u64 = 2_000;
    const PAYLOAD: usize = 1_000;
    let key = FlowKey::tcp(
        Ipv4Addr::from_octets([10, 0, 0, 1]),
        40_000,
        Ipv4Addr::from_octets([10, 0, 1, 1]),
        80,
    );
    let mut h = Host::new(0, HostConfig::default());
    let idx = h.add_flow(FlowSpec {
        key,
        total_bytes: N * PAYLOAD as u64,
        pkt_payload: PAYLOAD,
        rate_gbps: 10.0,
        start_ns: 0,
        dscp: 0,
    });
    let before = live_bytes();
    for _ in 0..N {
        let _ = h.emit_flow_packet(idx, 0);
    }
    let held = live_bytes() - before;
    // Every packet was queued: the cap counts on-wire bytes.
    assert_eq!(h.txq_depth_bytes(), N * data_packet_len(&key, PAYLOAD) as u64);
    assert_eq!(h.txq_drops, 0);
    assert!(held <= 64 * N, "{N} queued packets hold {held} B ({} B each)", held / N);

    // Draining builds one frame at a time: transmitting the whole queue
    // never holds more than a frame on top of the queue itself.
    reset_peak();
    let base = live_bytes();
    let mut sent = 0;
    while let Some(out) = h.dequeue_tx(0) {
        sent += out.frame.len() as u64;
    }
    assert_eq!(sent, N * data_packet_len(&key, PAYLOAD) as u64);
    let transient = peak_live_bytes() - base;
    assert!(transient <= 2 * 1024, "draining held {transient} B beyond the queue");
}
