//! The NetSeer inter-switch sequence tag (paper §3.3, Figure 5).
//!
//! The upstream switch inserts a per-(egress-port) consecutive 4-byte packet
//! ID into every packet it sends to the downstream neighbor; the downstream
//! switch strips it at ingress and uses sequence gaps to detect silent drops
//! and corruptions on the link.
//!
//! The paper steals unused header bits (e.g. VLAN) for this. Our simulator
//! makes the tag explicit: it is shimmed between the Ethernet header and the
//! original payload, like a VLAN tag, with layout
//!
//! ```text
//! 0        4                 6
//! +--------+-----------------+
//! | seq u32| inner ethertype |
//! +--------+-----------------+
//! ```
//!
//! and the outer EtherType set to [`EtherType::NetSeerSeq`](crate::EtherType).

use crate::error::{ParseError, Result};
use crate::ethernet::EtherType;

/// On-wire length of the sequence tag shim.
pub const SEQTAG_LEN: usize = 6;

/// Typed view of the sequence tag shim (the bytes right after the Ethernet
/// header when the outer EtherType is `NetSeerSeq`).
#[derive(Debug, Clone)]
pub struct SeqTag<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> SeqTag<T> {
    /// Wrap a buffer, checking length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < SEQTAG_LEN {
            return Err(ParseError::Truncated { what: "seqtag", need: SEQTAG_LEN, have: len });
        }
        Ok(SeqTag { buffer })
    }

    /// The consecutive per-port packet ID.
    pub(crate) fn seq(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// EtherType of the encapsulated payload.
    pub(crate) fn inner_ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        EtherType::from_value(u16::from_be_bytes([b[4], b[5]]))
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> SeqTag<T> {
    /// Set the packet ID.
    pub(crate) fn set_seq(&mut self, seq: u32) {
        self.buffer.as_mut()[0..4].copy_from_slice(&seq.to_be_bytes());
    }

    /// Set the encapsulated EtherType.
    pub(crate) fn set_inner_ethertype(&mut self, ty: EtherType) {
        self.buffer.as_mut()[4..6].copy_from_slice(&ty.value().to_be_bytes());
    }
}

/// Number of packets strictly between two sequence numbers (the gap size).
pub fn gap_between(last_seen: u32, now_seen: u32) -> u32 {
    now_seen.wrapping_sub(last_seen).wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_roundtrip() {
        let mut buf = [0u8; 10];
        let mut t = SeqTag::new_checked(&mut buf[..]).unwrap();
        t.set_seq(0xfeed_beef);
        t.set_inner_ethertype(EtherType::Ipv4);
        let t = SeqTag::new_checked(&buf[..]).unwrap();
        assert_eq!(t.seq(), 0xfeed_beef);
        assert_eq!(t.inner_ethertype(), EtherType::Ipv4);
    }

    #[test]
    fn rejects_short() {
        assert!(SeqTag::new_checked(&[0u8; 5][..]).is_err());
    }

    #[test]
    fn gap_counting() {
        assert_eq!(gap_between(5, 6), 0); // consecutive: no loss
        assert_eq!(gap_between(5, 8), 2); // 6 and 7 lost
        assert_eq!(gap_between(u32::MAX, 1), 1); // 0 lost across wrap
        assert_eq!(gap_between(u32::MAX - 2, 2), 4);
    }
}
