//! UDP header view.

use crate::error::{ParseError, Result};

/// UDP header length.
pub(crate) const UDP_HEADER_LEN: usize = 8;

/// Typed view of a UDP datagram.
#[derive(Debug, Clone)]
pub(crate) struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wrap a buffer, checking the header fits and the length field agrees.
    pub(crate) fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < UDP_HEADER_LEN {
            return Err(ParseError::Truncated { what: "udp", need: UDP_HEADER_LEN, have: len });
        }
        let d = UdpDatagram { buffer };
        let field = usize::from(d.length());
        if field < UDP_HEADER_LEN || field > len {
            return Err(ParseError::Malformed { what: "udp.length" });
        }
        Ok(d)
    }

    /// Wrap without validation.
    pub(crate) fn new_unchecked(buffer: T) -> Self {
        UdpDatagram { buffer }
    }

    /// Source port.
    pub(crate) fn sport(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub(crate) fn dport(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Length field (header + payload).
    pub(crate) fn length(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    /// Set source port.
    pub(crate) fn set_sport(&mut self, p: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Set destination port.
    pub(crate) fn set_dport(&mut self, p: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the length field.
    pub(crate) fn set_length(&mut self, l: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&l.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; 16];
        let mut d = UdpDatagram::new_unchecked(&mut buf[..]);
        d.set_sport(9999);
        d.set_dport(53);
        d.set_length(16);
        let d = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.sport(), 9999);
        assert_eq!(d.dport(), 53);
        assert_eq!(d.length(), 16);
    }

    #[test]
    fn rejects_bogus_length_field() {
        let mut buf = [0u8; 16];
        {
            let mut d = UdpDatagram::new_unchecked(&mut buf[..]);
            d.set_length(3);
        }
        assert!(UdpDatagram::new_checked(&buf[..]).is_err());
        {
            let mut d = UdpDatagram::new_unchecked(&mut buf[..]);
            d.set_length(200);
        }
        assert!(UdpDatagram::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn rejects_short() {
        assert!(UdpDatagram::new_checked(&[0u8; 7][..]).is_err());
    }
}
