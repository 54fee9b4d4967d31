//! Loss notification packets (paper §3.3, Figure 5 step 4).
//!
//! When the downstream switch observes a sequence gap it constructs a packet
//! carrying the starting and ending missing sequence numbers and sends
//! **three copies** of it back to the upstream switch through an independent
//! high-priority queue, so the notification survives the very loss it
//! reports.
//!
//! Wire layout (after an Ethernet header with EtherType `NetSeerNotify`):
//!
//! ```text
//! 0         4         8        9        10
//! +---------+---------+--------+--------+
//! | seq_lo  | seq_hi  | copy   | port   |
//! +---------+---------+--------+--------+
//! ```
//!
//! `seq_lo..=seq_hi` is the inclusive missing range; `copy` numbers the
//! redundant copies 0..3 so receivers can dedup; `port` is the downstream
//! ingress port the gap was seen on (diagnostic only).

use crate::error::{ParseError, Result};

/// Payload length of a loss notification.
pub(crate) const NOTIFICATION_LEN: usize = 10;

/// Typed view of a loss notification payload.
#[derive(Debug, Clone)]
pub struct LossNotification<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> LossNotification<T> {
    /// Wrap a buffer, checking length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < NOTIFICATION_LEN {
            return Err(ParseError::Truncated {
                what: "loss-notification",
                need: NOTIFICATION_LEN,
                have: len,
            });
        }
        Ok(LossNotification { buffer })
    }

    /// First missing sequence number (inclusive).
    pub(crate) fn seq_lo(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Last missing sequence number (inclusive).
    pub(crate) fn seq_hi(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[4], b[5], b[6], b[7]])
    }

    /// Redundant copy index (0-based).
    pub(crate) fn copy_index(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Downstream ingress port that observed the gap.
    pub(crate) fn observer_port(&self) -> u8 {
        self.buffer.as_ref()[9]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> LossNotification<T> {
    /// Set the missing range.
    pub(crate) fn set_range(&mut self, lo: u32, hi: u32) {
        let b = self.buffer.as_mut();
        b[0..4].copy_from_slice(&lo.to_be_bytes());
        b[4..8].copy_from_slice(&hi.to_be_bytes());
    }

    /// Set the copy index.
    pub(crate) fn set_copy_index(&mut self, idx: u8) {
        self.buffer.as_mut()[8] = idx;
    }

    /// Set the observing port.
    pub(crate) fn set_observer_port(&mut self, port: u8) {
        self.buffer.as_mut()[9] = port;
    }
}

/// Build a standalone notification payload.
pub(crate) fn build_notification(lo: u32, hi: u32, copy: u8, port: u8) -> [u8; NOTIFICATION_LEN] {
    let mut buf = [0u8; NOTIFICATION_LEN];
    let mut n = LossNotification::new_checked(&mut buf[..]).expect("sized buffer");
    n.set_range(lo, hi);
    n.set_copy_index(copy);
    n.set_observer_port(port);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let buf = build_notification(100, 104, 2, 7);
        let n = LossNotification::new_checked(&buf[..]).unwrap();
        assert_eq!(n.seq_lo(), 100);
        assert_eq!(n.seq_hi(), 104);
        assert_eq!(n.copy_index(), 2);
        assert_eq!(n.observer_port(), 7);
    }

    #[test]
    fn rejects_short() {
        assert!(LossNotification::new_checked(&[0u8; 9][..]).is_err());
    }
}
