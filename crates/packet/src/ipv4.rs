//! IPv4 header view (fixed 20-byte header; options unsupported, like most
//! data center fabrics which drop optioned packets at the edge).

use crate::checksum::internet_checksum;
use crate::error::{ParseError, Result};
use crate::flow::IpProtocol;
use core::fmt;

/// Fixed IPv4 header length (IHL = 5).
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 address. A thin wrapper over 4 octets so the crate stays
/// dependency-free and `no_std`-friendly in spirit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// Build from octets.
    pub const fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(o))
    }

    /// Build from a host-order u32.
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Addr(v)
    }

    /// Octet representation.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Host-order u32 representation.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Typed view of an IPv4 packet (header + payload).
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer, checking length, version, and IHL.
    pub(crate) fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated { what: "ipv4", need: IPV4_HEADER_LEN, have: len });
        }
        let p = Ipv4Packet { buffer };
        let b = p.buffer.as_ref();
        if b[0] >> 4 != 4 {
            return Err(ParseError::Malformed { what: "ipv4.version" });
        }
        if b[0] & 0x0f != 5 {
            return Err(ParseError::Unsupported { what: "ipv4 options (ihl != 5)" });
        }
        if usize::from(p.total_length()) > len {
            return Err(ParseError::Truncated {
                what: "ipv4.total_length",
                need: usize::from(p.total_length()),
                have: len,
            });
        }
        // A total_length shorter than the header itself is malformed and
        // would otherwise let payload() slice backwards.
        if usize::from(p.total_length()) < IPV4_HEADER_LEN {
            return Err(ParseError::Malformed { what: "ipv4.total_length" });
        }
        Ok(p)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Total length field (header + payload).
    pub(crate) fn total_length(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// DSCP (top 6 bits of the traffic class byte) — the simulator maps this
    /// to the egress priority queue.
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[1] >> 2
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// IP protocol.
    pub(crate) fn protocol(&self) -> IpProtocol {
        IpProtocol::from_number(self.buffer.as_ref()[9])
    }

    /// Source address.
    pub(crate) fn src(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::from_octets([b[12], b[13], b[14], b[15]])
    }

    /// Destination address.
    pub(crate) fn dst(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::from_octets([b[16], b[17], b[18], b[19]])
    }

    /// Payload after the header (bounded by total_length when valid).
    pub(crate) fn payload(&self) -> &[u8] {
        let end = usize::from(self.total_length()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[IPV4_HEADER_LEN..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Initialize version/IHL and sensible defaults.
    pub(crate) fn init(&mut self) {
        let b = self.buffer.as_mut();
        b[0] = 0x45;
        b[1] = 0;
        b[6] = 0x40; // don't fragment
        b[7] = 0;
        b[8] = 64;
    }

    /// Set the total length field.
    pub(crate) fn set_total_length(&mut self, len: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Set DSCP (priority class).
    pub(crate) fn set_dscp(&mut self, dscp: u8) {
        let b = self.buffer.as_mut();
        b[1] = (b[1] & 0x03) | (dscp << 2);
    }

    /// Set TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Decrement TTL, saturating at zero, and update the header checksum
    /// incrementally (RFC 1624 eqn. 3: `HC' = ~(~HC + ~m + m')`, `m` the
    /// TTL/protocol word) instead of re-summing the header. On a header
    /// whose checksum was valid the result equals [`fill_checksum`]'s.
    /// Returns the new TTL.
    ///
    /// [`fill_checksum`]: Self::fill_checksum
    pub fn decrement_ttl(&mut self) -> u8 {
        let b = self.buffer.as_mut();
        let Some(ttl) = b[8].checked_sub(1) else {
            return 0;
        };
        let old = u16::from_be_bytes([b[8], b[9]]);
        b[8] = ttl;
        let new = u16::from_be_bytes([b[8], b[9]]);
        let hc = u16::from_be_bytes([b[10], b[11]]);
        let mut sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
        sum = (sum & 0xffff) + (sum >> 16);
        sum = (sum & 0xffff) + (sum >> 16);
        b[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
        ttl
    }

    /// Set the protocol field.
    pub(crate) fn set_protocol(&mut self, p: IpProtocol) {
        self.buffer.as_mut()[9] = p.number();
    }

    /// Set the source address.
    pub(crate) fn set_src(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&a.octets());
    }

    /// Set the destination address.
    pub(crate) fn set_dst(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&a.octets());
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        let b = self.buffer.as_mut();
        b[10] = 0;
        b[11] = 0;
        let cks = internet_checksum(&b[..IPV4_HEADER_LEN]);
        b[10..12].copy_from_slice(&cks.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; 40];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.init();
        p.set_total_length(40);
        p.set_src(Ipv4Addr::from_octets([10, 0, 0, 1]));
        p.set_dst(Ipv4Addr::from_octets([10, 0, 0, 2]));
        p.set_protocol(IpProtocol::Tcp);
        p.set_ttl(64);
        p.fill_checksum();
        buf
    }

    #[test]
    fn parse_roundtrip() {
        let buf = sample();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src(), Ipv4Addr::from_octets([10, 0, 0, 1]));
        assert_eq!(p.dst(), Ipv4Addr::from_octets([10, 0, 0, 2]));
        assert_eq!(p.protocol(), IpProtocol::Tcp);
        assert_eq!(p.ttl(), 64);
        assert_eq!(internet_checksum(&buf[..IPV4_HEADER_LEN]), 0);
        assert_eq!(p.payload().len(), 20);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = sample();
        buf[0] = 0x65;
        assert!(matches!(Ipv4Packet::new_checked(&buf[..]), Err(ParseError::Malformed { .. })));
    }

    #[test]
    fn rejects_options() {
        let mut buf = sample();
        buf[0] = 0x46;
        assert!(matches!(Ipv4Packet::new_checked(&buf[..]), Err(ParseError::Unsupported { .. })));
    }

    #[test]
    fn rejects_total_length_beyond_buffer() {
        let mut buf = sample();
        buf[2] = 0xff;
        buf[3] = 0xff;
        assert!(matches!(Ipv4Packet::new_checked(&buf[..]), Err(ParseError::Truncated { .. })));
    }

    #[test]
    fn ttl_decrement_saturates_and_rechecksums() {
        let mut buf = sample();
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_ttl(1);
        p.fill_checksum();
        assert_eq!(p.decrement_ttl(), 0);
        assert_eq!(p.decrement_ttl(), 0);
        assert_eq!(internet_checksum(&buf[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn incremental_ttl_checksum_matches_full_recompute() {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |hdr: &[u8; IPV4_HEADER_LEN]| {
            let mut inc = *hdr;
            Ipv4Packet::new_unchecked(&mut inc[..]).fill_checksum();
            let mut full = inc;
            let ttl = Ipv4Packet::new_unchecked(&mut inc[..]).decrement_ttl();
            let mut q = Ipv4Packet::new_unchecked(&mut full[..]);
            q.set_ttl(q.ttl().saturating_sub(1));
            q.fill_checksum();
            assert_eq!(ttl, q.ttl());
            assert_eq!(inc, full, "header {hdr:02x?}");
            assert_eq!(internet_checksum(&inc[..IPV4_HEADER_LEN]), 0);
            u16::from_be_bytes([inc[10], inc[11]])
        };
        let (mut carried, mut zero_result) = (0, 0);
        for round in 0..20_000u32 {
            let mut hdr = [0u8; IPV4_HEADER_LEN];
            for b in hdr.iter_mut() {
                *b = next() as u8;
            }
            hdr[8] = match round % 4 {
                0 => 1,
                1 => 0,
                _ => hdr[8],
            };
            if round % 3 == 0 {
                // Pick the identification word so the decremented header
                // sums to 0xffff: its checksum is 0x0000, the value an
                // incremental update could get wrong as -0.
                hdr[4..6].fill(0);
                hdr[8] = hdr[8].max(1);
                let mut after = hdr;
                after[8] -= 1;
                after[10..12].fill(0);
                hdr[4..6].copy_from_slice(&internet_checksum(&after).to_be_bytes());
            }
            let mut filled = hdr;
            Ipv4Packet::new_unchecked(&mut filled[..]).fill_checksum();
            let hc = u16::from_be_bytes([filled[10], filled[11]]);
            carried += usize::from(u32::from(!hc) + 0xfeff > 0xffff);
            zero_result += usize::from(check(&hdr) == 0 && hdr[8] > 0);
        }
        assert!(carried > 1_000 && zero_result > 1_000, "{carried} carries, {zero_result} zeros");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut buf = sample();
        buf[15] ^= 1;
        assert_ne!(internet_checksum(&buf[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn dscp_field() {
        let mut buf = sample();
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_dscp(46); // EF
        assert_eq!(p.dscp(), 46);
    }

    #[test]
    fn addr_display_and_conversion() {
        let a = Ipv4Addr::from_octets([192, 168, 1, 9]);
        assert_eq!(a.to_string(), "192.168.1.9");
        assert_eq!(Ipv4Addr::from_u32(a.as_u32()), a);
    }
}
