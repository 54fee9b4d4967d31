//! Packet header vector and intrinsic metadata.
//!
//! In a real programmable ASIC the parser produces a PHV that travels with
//! the packet through every stage; intrinsic metadata (ports, queue,
//! timestamps) is added by fixed hardware. The simulator attaches a
//! [`PacketMeta`] to every in-flight packet to model the same information.

use fet_packet::FlowKey;

/// Intrinsic + user metadata accompanying a packet through one device.
#[derive(Debug, Clone)]
pub struct PacketMeta {
    /// Resolved egress port (`None` until routing runs; stays `None` on a
    /// pipeline drop before route resolution).
    pub egress_port: Option<u8>,
    /// Egress priority queue (from DSCP).
    pub queue: u8,
    /// Ingress timestamp, ns (set by the ingress MAC).
    pub ingress_ts_ns: u64,
    /// Egress timestamp, ns (set at egress dequeue; 0 until then).
    pub egress_ts_ns: u64,
    /// Cached flow key extracted by the parser (None for non-IP).
    pub flow: Option<FlowKey>,
    /// Frame length in bytes, without the hop tag the parser removed
    /// (the length the MMU, the MTU check and the queues account).
    pub frame_len: usize,
}

impl PacketMeta {
    /// Metadata for a freshly received packet.
    pub fn arriving(now_ns: u64, frame_len: usize) -> Self {
        PacketMeta {
            egress_port: None,
            queue: 0,
            ingress_ts_ns: now_ns,
            egress_ts_ns: 0,
            flow: None,
            frame_len,
        }
    }

    /// Queuing delay = egress − ingress timestamp (the congestion signal the
    /// paper measures). Zero until the egress timestamp is set.
    pub fn queuing_delay_ns(&self) -> u64 {
        self.egress_ts_ns.saturating_sub(self.ingress_ts_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arriving_defaults() {
        let m = PacketMeta::arriving(1_000, 64);
        assert_eq!(m.egress_port, None);
        assert_eq!(m.ingress_ts_ns, 1_000);
        assert_eq!(m.frame_len, 64);
        assert_eq!(m.queuing_delay_ns(), 0);
    }

    #[test]
    fn queuing_delay_is_difference() {
        let mut m = PacketMeta::arriving(5_000, 64);
        m.egress_ts_ns = 12_500;
        assert_eq!(m.queuing_delay_ns(), 7_500);
    }

    #[test]
    fn queuing_delay_saturates() {
        let mut m = PacketMeta::arriving(5_000, 64);
        m.egress_ts_ns = 4_000; // clock skew should not underflow
        assert_eq!(m.queuing_delay_ns(), 0);
    }
}
