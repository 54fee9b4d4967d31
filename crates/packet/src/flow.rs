//! Flow identification: the 13-byte 5-tuple NetSeer reports per event.

use crate::ipv4::Ipv4Addr;
use core::fmt;

/// IP protocol numbers the simulator cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProtocol {
    /// ICMP (used by Pingmesh-style probes).
    Icmp,
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Wire value.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(n) => n,
        }
    }

    /// Decode from the wire value.
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "ICMP"),
            IpProtocol::Tcp => write!(f, "TCP"),
            IpProtocol::Udp => write!(f, "UDP"),
            IpProtocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The 5-tuple flow identifier: 13 bytes on the wire
/// (src 4 + dst 4 + sport 2 + dport 2 + proto 1), exactly the "Flow (13B)"
/// field of the paper's event format (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source transport port (0 for ICMP).
    pub sport: u16,
    /// Destination transport port (0 for ICMP).
    pub dport: u16,
    /// IP protocol.
    pub proto: IpProtocol,
}

/// Serialized length of a [`FlowKey`].
pub const FLOW_KEY_LEN: usize = 13;

impl FlowKey {
    /// Construct a TCP flow key.
    pub fn tcp(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        FlowKey { src, dst, sport, dport, proto: IpProtocol::Tcp }
    }

    /// Construct a UDP flow key.
    pub fn udp(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        FlowKey { src, dst, sport, dport, proto: IpProtocol::Udp }
    }

    /// Serialize to the 13-byte wire layout.
    #[inline]
    pub fn write_to(&self, buf: &mut [u8; FLOW_KEY_LEN]) {
        buf[0..4].copy_from_slice(&self.src.octets());
        buf[4..8].copy_from_slice(&self.dst.octets());
        buf[8..10].copy_from_slice(&self.sport.to_be_bytes());
        buf[10..12].copy_from_slice(&self.dport.to_be_bytes());
        buf[12] = self.proto.number();
    }

    /// Deserialize from the 13-byte wire layout.
    pub fn read_from(buf: &[u8; FLOW_KEY_LEN]) -> Self {
        FlowKey {
            src: Ipv4Addr::from_octets([buf[0], buf[1], buf[2], buf[3]]),
            dst: Ipv4Addr::from_octets([buf[4], buf[5], buf[6], buf[7]]),
            sport: u16::from_be_bytes([buf[8], buf[9]]),
            dport: u16::from_be_bytes([buf[10], buf[11]]),
            proto: IpProtocol::from_number(buf[12]),
        }
    }

    /// The reverse direction of this flow (for ACK/notification traffic).
    pub fn reversed(&self) -> Self {
        FlowKey {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
            proto: self.proto,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} -> {}:{} ({})", self.src, self.sport, self.dst, self.dport, self.proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 1, 2]),
            43211,
            Ipv4Addr::from_octets([10, 0, 9, 8]),
            80,
        )
    }

    #[test]
    fn wire_roundtrip() {
        let k = key();
        let mut buf = [0u8; FLOW_KEY_LEN];
        k.write_to(&mut buf);
        assert_eq!(FlowKey::read_from(&buf), k);
    }

    #[test]
    fn wire_layout_is_stable() {
        let k = key();
        let mut buf = [0u8; FLOW_KEY_LEN];
        k.write_to(&mut buf);
        assert_eq!(&buf[0..4], &[10, 0, 1, 2]);
        assert_eq!(&buf[4..8], &[10, 0, 9, 8]);
        assert_eq!(u16::from_be_bytes([buf[8], buf[9]]), 43211);
        assert_eq!(u16::from_be_bytes([buf[10], buf[11]]), 80);
        assert_eq!(buf[12], 6);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = key();
        let r = k.reversed();
        assert_eq!(r.src, k.dst);
        assert_eq!(r.dport, k.sport);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(IpProtocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn display_is_readable() {
        let s = key().to_string();
        assert!(s.contains("10.0.1.2:43211"));
        assert!(s.contains("TCP"));
    }
}
