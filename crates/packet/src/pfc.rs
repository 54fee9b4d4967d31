//! Priority Flow Control (IEEE 802.1Qbb) frame view.
//!
//! PFC frames ride MAC control frames (EtherType 0x8808) with opcode 0x0101:
//! a class-enable bitmap and eight 16-bit pause timers (in 512-bit-time
//! quanta). NetSeer's pause detector (paper §3.3) parses these to track
//! per-queue pause state at ingress.

use crate::error::{ParseError, Result};

/// MAC control opcode for PFC.
pub(crate) const PFC_OPCODE: u16 = 0x0101;

/// Payload length: opcode (2) + class vector (2) + 8 timers (16).
pub(crate) const PFC_PAYLOAD_LEN: usize = 20;

/// Number of PFC priority classes.
pub const PFC_CLASSES: usize = 8;

/// Typed view of a PFC frame payload (bytes after the Ethernet header of a
/// MAC control frame).
#[derive(Debug, Clone)]
pub struct PfcFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> PfcFrame<T> {
    /// Wrap a buffer, validating length and opcode.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < PFC_PAYLOAD_LEN {
            return Err(ParseError::Truncated { what: "pfc", need: PFC_PAYLOAD_LEN, have: len });
        }
        let f = PfcFrame { buffer };
        if f.opcode() != PFC_OPCODE {
            return Err(ParseError::Malformed { what: "pfc.opcode" });
        }
        Ok(f)
    }

    /// Wrap without validation.
    pub(crate) fn new_unchecked(buffer: T) -> Self {
        PfcFrame { buffer }
    }

    /// MAC control opcode.
    pub(crate) fn opcode(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Class-enable vector: bit i set means the timer for priority i applies.
    pub(crate) fn class_vector(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Pause timer for a priority, in 512-bit-time quanta. Zero = resume.
    pub fn timer(&self, class: usize) -> u16 {
        assert!(class < PFC_CLASSES);
        let b = self.buffer.as_ref();
        let off = 4 + class * 2;
        u16::from_be_bytes([b[off], b[off + 1]])
    }

    /// True if the frame pauses `class` (enabled with nonzero timer).
    pub fn pauses(&self, class: usize) -> bool {
        self.class_vector() & (1 << class) != 0 && self.timer(class) > 0
    }

    /// True if the frame resumes `class` (enabled with zero timer).
    pub fn resumes(&self, class: usize) -> bool {
        self.class_vector() & (1 << class) != 0 && self.timer(class) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> PfcFrame<T> {
    /// Write opcode and zero all fields.
    pub(crate) fn init(&mut self) {
        let b = self.buffer.as_mut();
        for x in b[..PFC_PAYLOAD_LEN].iter_mut() {
            *x = 0;
        }
        b[0..2].copy_from_slice(&PFC_OPCODE.to_be_bytes());
    }

    /// Set the class-enable vector.
    pub(crate) fn set_class_vector(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the pause timer for a priority class.
    pub(crate) fn set_timer(&mut self, class: usize, quanta: u16) {
        assert!(class < PFC_CLASSES);
        let off = 4 + class * 2;
        self.buffer.as_mut()[off..off + 2].copy_from_slice(&quanta.to_be_bytes());
    }

    /// Convenience: enable `class` and set its timer in one call.
    pub(crate) fn set_pause(&mut self, class: usize, quanta: u16) {
        let v = {
            let b = self.buffer.as_ref();
            u16::from_be_bytes([b[2], b[3]])
        } | (1 << class);
        self.set_class_vector(v);
        self.set_timer(class, quanta);
    }
}

/// Convert PFC quanta to nanoseconds at a given link speed.
///
/// One quantum is 512 bit times; at `gbps` gigabits per second a bit time is
/// `1/gbps` ns.
pub fn quanta_to_ns(quanta: u16, gbps: f64) -> u64 {
    ((f64::from(quanta) * 512.0) / gbps).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse() {
        let mut buf = [0u8; PFC_PAYLOAD_LEN];
        let mut f = PfcFrame::new_unchecked(&mut buf[..]);
        f.init();
        f.set_pause(3, 0xffff);
        f.set_pause(5, 0);
        let f = PfcFrame::new_checked(&buf[..]).unwrap();
        assert!(f.pauses(3));
        assert!(!f.pauses(5));
        assert!(f.resumes(5));
        assert!(!f.pauses(0));
        assert!(!f.resumes(0)); // class 0 not enabled
    }

    #[test]
    fn rejects_wrong_opcode() {
        let buf = [0u8; PFC_PAYLOAD_LEN];
        assert!(matches!(PfcFrame::new_checked(&buf[..]), Err(ParseError::Malformed { .. })));
    }

    #[test]
    fn rejects_short() {
        assert!(PfcFrame::new_checked(&[0u8; 10][..]).is_err());
    }

    #[test]
    fn quanta_conversion() {
        // At 100 Gbps, one quantum = 512 / 100 = 5.12 ns.
        assert_eq!(quanta_to_ns(1, 100.0), 5);
        assert_eq!(quanta_to_ns(100, 100.0), 512);
        // At 25 Gbps it is 4x longer.
        assert_eq!(quanta_to_ns(100, 25.0), 2048);
    }

    #[test]
    #[should_panic]
    fn timer_class_out_of_range_panics() {
        let buf = [0u8; PFC_PAYLOAD_LEN];
        let f = PfcFrame::new_unchecked(&buf[..]);
        let _ = f.timer(8);
    }
}
