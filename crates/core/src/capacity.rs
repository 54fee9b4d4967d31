//! Capacity models for inter-switch drop detection (paper §4 "Capacity"
//! and Figure 15).
//!
//! The ring buffer must hold a dropped packet's (ID, flow) until the
//! downstream's loss notification makes it back — during that feedback
//! interval the port keeps transmitting and overwriting slots. Fig. 15(a)
//! asks: how many slots to retrieve at least one dropped packet of a given
//! size? Fig. 15(b): how much SRAM to survive N *consecutive* drops?

/// Nanoseconds to serialize one packet of `pkt_bytes` at `gbps`.
fn pkt_time_ns(pkt_bytes: usize, gbps: f64) -> f64 {
    pkt_bytes as f64 * 8.0 / gbps
}

/// Feedback latency: detection (the next packet must arrive and reveal the
/// gap) + notification round trip on the high-priority queue.
pub(crate) fn feedback_latency_ns(pkt_bytes: usize, gbps: f64, link_rtt_ns: u64) -> f64 {
    pkt_time_ns(pkt_bytes, gbps) + link_rtt_ns as f64
}

/// Minimum ring slots (per port) to retrieve at least one dropped packet of
/// `pkt_bytes` on a `gbps` link with `link_rtt_ns` notification RTT
/// (regenerates Figure 15(a)). Smaller packets serialize faster, so more
/// packets overwrite the ring during feedback ⇒ more slots needed.
pub fn min_ring_slots(pkt_bytes: usize, gbps: f64, link_rtt_ns: u64) -> usize {
    let overwrites =
        feedback_latency_ns(pkt_bytes, gbps, link_rtt_ns) / pkt_time_ns(pkt_bytes, gbps);
    overwrites.ceil() as usize + 1
}

/// Ring slots needed to detect `consecutive_drops` back-to-back losses:
/// the burst occupies that many slots, plus the feedback-interval
/// overwrites on top.
pub fn slots_for_consecutive_drops(
    consecutive_drops: usize,
    pkt_bytes: usize,
    gbps: f64,
    link_rtt_ns: u64,
) -> usize {
    consecutive_drops + min_ring_slots(pkt_bytes, gbps, link_rtt_ns)
}

/// Bytes of one ring slot. The emulator stores the full 4 B ID + 13 B flow;
/// the paper packs ≈12 B by stealing spare bits (its 800 KB figure for 64
/// ports × 1,000 drops implies ~12.5 B/slot).
pub const SLOT_BYTES_EXACT: usize = 17;

/// The paper's packed slot size.
pub const SLOT_BYTES_PACKED: f64 = 12.5;

/// Total SRAM (bytes) for `ports` ports × `slots` slots at `slot_bytes`.
pub fn ring_sram_bytes(ports: usize, slots: usize, slot_bytes: f64) -> f64 {
    ports as f64 * slots as f64 * slot_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15a_1024b_needs_about_25_slots() {
        // Paper: ">25 slots to retrieve at least one 1024-byte dropped
        // packet". At 100G a 1024B packet is 81.9ns; with ~2µs feedback
        // that's ~25 overwrites.
        let slots = min_ring_slots(1024, 100.0, 2_000);
        assert!((24..=28).contains(&slots), "slots = {slots}");
    }

    #[test]
    fn smaller_packets_need_more_slots() {
        let s64 = min_ring_slots(64, 100.0, 2_000);
        let s256 = min_ring_slots(256, 100.0, 2_000);
        let s1024 = min_ring_slots(1024, 100.0, 2_000);
        let s1500 = min_ring_slots(1500, 100.0, 2_000);
        assert!(s64 > s256 && s256 > s1024 && s1024 > s1500);
        // 64B packets at 100G: ~5.12ns each → ~392 slots.
        assert!((350..=450).contains(&s64), "s64 = {s64}");
    }

    #[test]
    fn fig15b_800kb_covers_1000_consecutive_drops_on_64_ports() {
        // Paper: 1,000 consecutive 1024B drops per port, 64×100G ports,
        // ~800KB SRAM with the packed slot format.
        let slots = slots_for_consecutive_drops(1_000, 1024, 100.0, 2_000);
        let sram = ring_sram_bytes(64, slots, SLOT_BYTES_PACKED);
        assert!((700_000.0..=900_000.0).contains(&sram), "sram = {:.0} KB", sram / 1024.0);
        // With the exact 17B slots the emulator stores, ~1.1 MB.
        let exact = ring_sram_bytes(64, slots, SLOT_BYTES_EXACT as f64);
        assert!(exact > sram);
    }

    #[test]
    fn sram_grows_linearly_with_drops() {
        let s1 = slots_for_consecutive_drops(100, 1024, 100.0, 2_000);
        let s2 = slots_for_consecutive_drops(200, 1024, 100.0, 2_000);
        assert_eq!(s2 - s1, 100);
    }
}
