//! Circulating Event Batching Packets (paper §3.5).
//!
//! CEBPs recirculate inside the switch via an internal port. Each time a
//! CEBP passes the in-pipeline event stack it pops one event and appends it
//! to its payload; once it carries `capacity` events (recommended 50) it is
//! forwarded to the switch CPU and a fresh empty clone continues
//! circulating.
//!
//! Wire layout (after an Ethernet header with EtherType `NetSeerCebp`):
//!
//! ```text
//! 0        2          4
//! +--------+----------+----------------------------------+
//! | count  | capacity | count * 24-byte EventRecords ... |
//! +--------+----------+----------------------------------+
//! ```

use crate::error::{ParseError, Result};
use crate::event::{EventRecord, EVENT_RECORD_LEN};

/// CEBP fixed header length.
pub const CEBP_HEADER_LEN: usize = 4;

/// Typed view over a CEBP payload.
#[derive(Debug, Clone)]
pub struct CebpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> CebpPacket<T> {
    /// Wrap a buffer, validating the header and that `count` events fit.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < CEBP_HEADER_LEN {
            return Err(ParseError::Truncated { what: "cebp", need: CEBP_HEADER_LEN, have: len });
        }
        let p = CebpPacket { buffer };
        let need = CEBP_HEADER_LEN + usize::from(p.count()) * EVENT_RECORD_LEN;
        let have = p.buffer.as_ref().len();
        if need > have {
            return Err(ParseError::Truncated { what: "cebp.events", need, have });
        }
        if p.count() > p.capacity() {
            return Err(ParseError::Malformed { what: "cebp.count > capacity" });
        }
        Ok(p)
    }

    /// Number of events currently carried.
    pub(crate) fn count(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Batch capacity this CEBP was created with.
    pub(crate) fn capacity(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Decode the `i`-th carried event.
    pub(crate) fn event(&self, i: u16) -> Result<EventRecord> {
        if i >= self.count() {
            return Err(ParseError::Malformed { what: "cebp.index" });
        }
        let off = CEBP_HEADER_LEN + usize::from(i) * EVENT_RECORD_LEN;
        EventRecord::parse(&self.buffer.as_ref()[off..off + EVENT_RECORD_LEN])
    }

    /// Decode all carried events.
    pub fn events(&self) -> Result<Vec<EventRecord>> {
        (0..self.count()).map(|i| self.event(i)).collect()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> CebpPacket<T> {
    /// Initialize an empty CEBP with the given capacity. The buffer must be
    /// at least `buffer_len_for(capacity)` bytes.
    pub(crate) fn init(&mut self, capacity: u16) {
        let b = self.buffer.as_mut();
        b[0..2].copy_from_slice(&0u16.to_be_bytes());
        b[2..4].copy_from_slice(&capacity.to_be_bytes());
    }

    /// Append one event; fails with `Malformed` when already full and
    /// `Truncated` when the buffer cannot hold another record.
    pub(crate) fn push_event(&mut self, ev: &EventRecord) -> Result<()> {
        let count = self.count();
        if count >= self.capacity() {
            return Err(ParseError::Malformed { what: "cebp.full" });
        }
        let off = CEBP_HEADER_LEN + usize::from(count) * EVENT_RECORD_LEN;
        let b = self.buffer.as_mut();
        if b.len() < off + EVENT_RECORD_LEN {
            return Err(ParseError::Truncated {
                what: "cebp.push",
                need: off + EVENT_RECORD_LEN,
                have: b.len(),
            });
        }
        let mut rec = [0u8; EVENT_RECORD_LEN];
        ev.write_to(&mut rec);
        b[off..off + EVENT_RECORD_LEN].copy_from_slice(&rec);
        b[0..2].copy_from_slice(&(count + 1).to_be_bytes());
        Ok(())
    }
}

/// Buffer size needed for a CEBP with the given capacity.
pub(crate) fn buffer_len_for(capacity: u16) -> usize {
    CEBP_HEADER_LEN + usize::from(capacity) * EVENT_RECORD_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventDetail, EventType};
    use crate::flow::FlowKey;
    use crate::ipv4::Ipv4Addr;

    /// An empty CEBP buffer of `capacity` records.
    fn new_cebp_buffer(capacity: u16) -> Vec<u8> {
        let mut buf = vec![0u8; buffer_len_for(capacity)];
        CebpPacket { buffer: &mut buf[..] }.init(capacity);
        buf
    }

    fn ev(n: u16) -> EventRecord {
        EventRecord {
            ty: EventType::Congestion,
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                n,
                Ipv4Addr::from_octets([10, 0, 0, 2]),
                80,
            ),
            detail: EventDetail::Congestion { egress_port: 1, queue: 0, latency_us: n },
            counter: 1,
            hash: u32::from(n),
        }
    }

    #[test]
    fn fill_to_capacity_and_readback() {
        let mut buf = new_cebp_buffer(50);
        let mut p = CebpPacket::new_checked(&mut buf[..]).unwrap();
        for i in 0..50 {
            p.push_event(&ev(i)).unwrap();
        }
        assert!(p.push_event(&ev(99)).is_err());

        let p = CebpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.count(), 50);
        assert_eq!(p.capacity(), 50);
        let evs = p.events().unwrap();
        assert_eq!(evs.len(), 50);
        assert_eq!(evs[17], ev(17));
    }

    #[test]
    fn checked_rejects_count_beyond_buffer() {
        let mut buf = new_cebp_buffer(2);
        buf[0] = 0;
        buf[1] = 3; // claim 3 events in a 2-capacity buffer
        assert!(CebpPacket::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn index_out_of_range() {
        let buf = new_cebp_buffer(4);
        let p = CebpPacket::new_checked(&buf[..]).unwrap();
        assert!(p.event(0).is_err());
    }
}
