//! Event information extraction (§3.4): reduce a selected event packet
//! (hundreds of bytes) to the fixed 24-byte [`EventRecord`], keeping only
//! the 5-tuple, switch-port-queue context, event-specific data, counter,
//! and the data-plane pre-computed hash.

use fet_packet::event::{EventDetail, EventRecord, EventType, EVENT_RECORD_LEN};
use fet_packet::FlowKey;

/// Stateless record builder with volume accounting (it is the accounting
/// that regenerates the "reduce the traffic by about 97%" claim).
#[derive(Debug, Default)]
pub struct Extractor {
    /// Bytes of the original event packets that entered extraction.
    pub(crate) input_bytes: u64,
    /// Bytes of the 24-byte records produced.
    pub output_bytes: u64,
    /// Records produced.
    pub records: u64,
}

impl Extractor {
    /// Fresh extractor.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Build the 24-byte record for an event detected on a packet of
    /// `original_len` bytes.
    pub(crate) fn extract(
        &mut self,
        ty: EventType,
        flow: FlowKey,
        detail: EventDetail,
        counter: u16,
        hash: u32,
        original_len: usize,
    ) -> EventRecord {
        self.input_bytes += original_len as u64;
        self.output_bytes += EVENT_RECORD_LEN as u64;
        self.records += 1;
        EventRecord { ty, flow, detail, counter, hash }
    }

    /// Fraction of volume removed by extraction so far.
    pub fn reduction(&self) -> f64 {
        if self.input_bytes == 0 {
            return 0.0;
        }
        1.0 - self.output_bytes as f64 / self.input_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            1,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            2,
        )
    }

    #[test]
    fn record_carries_all_fields() {
        let mut e = Extractor::new();
        let r = e.extract(
            EventType::Congestion,
            flow(),
            EventDetail::Congestion { egress_port: 3, queue: 1, latency_us: 77 },
            5,
            0xdead,
            724,
        );
        assert_eq!(r.ty, EventType::Congestion);
        assert_eq!(r.counter, 5);
        assert_eq!(r.hash, 0xdead);
        assert_eq!(e.records, 1);
    }

    #[test]
    fn reduction_matches_paper_for_average_packets() {
        // Data-center average packet ≈ 724 B (paper cites [8]); 24/724 ≈ 97%.
        let mut e = Extractor::new();
        for _ in 0..100 {
            e.extract(
                EventType::Congestion,
                flow(),
                EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: 1 },
                1,
                0,
                724,
            );
        }
        assert!((e.reduction() - (1.0 - 24.0 / 724.0)).abs() < 1e-9);
        assert!(e.reduction() > 0.96);
    }

    #[test]
    fn empty_extractor_reports_zero() {
        assert_eq!(Extractor::new().reduction(), 0.0);
    }
}
