//! TCP header view (fixed 20-byte header; options not interpreted).

use crate::error::{ParseError, Result};

/// Fixed TCP header length (data offset = 5).
pub(crate) const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

/// Typed view of a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap a buffer, checking the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < TCP_HEADER_LEN {
            return Err(ParseError::Truncated { what: "tcp", need: TCP_HEADER_LEN, have: len });
        }
        Ok(TcpSegment { buffer })
    }

    /// Wrap without validation.
    pub(crate) fn new_unchecked(buffer: T) -> Self {
        TcpSegment { buffer }
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

    /// Flag byte (lower 8 flag bits).
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[13]
    }

    /// True if SYN set.
    pub fn is_syn(&self) -> bool {
        self.flags() & flags::SYN != 0
    }

    /// True if FIN set.
    pub fn is_fin(&self) -> bool {
        self.flags() & flags::FIN != 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Initialize data offset and zero the rest of the header.
    pub(crate) fn init(&mut self) {
        let b = self.buffer.as_mut();
        for x in b[..TCP_HEADER_LEN].iter_mut() {
            *x = 0;
        }
        b[12] = 5 << 4; // data offset
    }

    /// Set source port.
    pub(crate) fn set_sport(&mut self, p: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Set destination port.
    pub(crate) fn set_dport(&mut self, p: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Set flag byte.
    pub(crate) fn set_flags(&mut self, f: u8) {
        self.buffer.as_mut()[13] = f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; 32];
        let mut t = TcpSegment::new_unchecked(&mut buf[..]);
        t.init();
        t.set_sport(5555);
        t.set_dport(80);
        t.set_flags(flags::SYN | flags::ACK);
        let t = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(t.sport(), 5555);
        assert_eq!(t.dport(), 80);
        assert!(t.is_syn());
        assert!(!t.is_fin());
    }

    #[test]
    fn rejects_short() {
        assert!(TcpSegment::new_checked(&[0u8; 19][..]).is_err());
    }

    #[test]
    fn fin_detection() {
        let mut buf = [0u8; 20];
        let mut t = TcpSegment::new_unchecked(&mut buf[..]);
        t.init();
        t.set_flags(flags::FIN | flags::ACK);
        assert!(TcpSegment::new_checked(&buf[..]).unwrap().is_fin());
    }
}
