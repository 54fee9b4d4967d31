//! Ethernet II frame view.

use crate::error::{ParseError, Result};
use core::fmt;

/// Length of the Ethernet II header (dst + src + ethertype), no FCS.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub(crate) struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub(crate) const BROADCAST: MacAddr = MacAddr([0xff; 6]);
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", o[0], o[1], o[2], o[3], o[4], o[5])
    }
}

/// EtherType values understood by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IEEE 802.3x / 802.1Qbb MAC control, carries PFC frames (0x8808).
    MacControl,
    /// NetSeer inter-switch sequence tag (experimental 0x88B5).
    NetSeerSeq,
    /// NetSeer loss notification (experimental 0x88B6).
    NetSeerNotify,
    /// NetSeer circulating event batching packet (experimental 0x88B7).
    NetSeerCebp,
    /// Unknown, preserved verbatim.
    Unknown(u16),
}

impl EtherType {
    /// Wire value.
    pub(crate) fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::MacControl => 0x8808,
            EtherType::NetSeerSeq => 0x88b5,
            EtherType::NetSeerNotify => 0x88b6,
            EtherType::NetSeerCebp => 0x88b7,
            EtherType::Unknown(v) => v,
        }
    }

    /// Decode from the wire value.
    pub(crate) fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x8808 => EtherType::MacControl,
            0x88b5 => EtherType::NetSeerSeq,
            0x88b6 => EtherType::NetSeerNotify,
            0x88b7 => EtherType::NetSeerCebp,
            other => EtherType::Unknown(other),
        }
    }
}

/// Typed view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer, checking it is long enough for the header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < ETHERNET_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "ethernet",
                need: ETHERNET_HEADER_LEN,
                have: len,
            });
        }
        Ok(EthernetFrame { buffer })
    }

    /// Wrap without checking; callers must guarantee the length.
    pub fn new_unchecked(buffer: T) -> Self {
        EthernetFrame { buffer }
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        EtherType::from_value(u16::from_be_bytes([b[12], b[13]]))
    }

    /// The bytes after the Ethernet header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[ETHERNET_HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC.
    pub(crate) fn set_dst(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&mac.0);
    }

    /// Set the source MAC.
    pub(crate) fn set_src(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&mac.0);
    }

    /// Set the EtherType.
    pub(crate) fn set_ethertype(&mut self, ty: EtherType) {
        self.buffer.as_mut()[12..14].copy_from_slice(&ty.value().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_short_buffer() {
        let err = EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { what: "ethernet", .. }));
    }

    #[test]
    fn field_roundtrip() {
        let mut buf = [0u8; 64];
        let mut f = EthernetFrame::new_checked(&mut buf[..]).unwrap();
        f.set_dst(MacAddr([1, 2, 3, 4, 5, 6]));
        f.set_src(MacAddr([2, 0, 0, 7, 0, 3]));
        f.set_ethertype(EtherType::Ipv4);
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(buf[..12], [1, 2, 3, 4, 5, 6, 2, 0, 0, 7, 0, 3]);
    }

    #[test]
    fn payload_starts_after_header() {
        let mut buf = [0u8; 20];
        buf[14] = 0xaa;
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.payload()[0], 0xaa);
        assert_eq!(f.payload().len(), 6);
    }

    #[test]
    fn ethertype_values_roundtrip() {
        for ty in [
            EtherType::Ipv4,
            EtherType::MacControl,
            EtherType::NetSeerSeq,
            EtherType::NetSeerNotify,
            EtherType::NetSeerCebp,
            EtherType::Unknown(0xbeef),
        ] {
            assert_eq!(EtherType::from_value(ty.value()), ty);
        }
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr([0xde, 0xad, 0, 0, 0xbe, 0xef]).to_string(), "de:ad:00:00:be:ef");
    }
}
