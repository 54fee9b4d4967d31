//! Rate-limited internal channels.
//!
//! The capacity ceilings in the paper's §4 are all bandwidth-shaped:
//! internal port 100 Gbps, MMU drop-redirect 40 Gbps, PCIe 18 Gbps,
//! switch-CPU ~13.4 Gbps. [`RateLimitedChannel`] models each as a byte
//! serializer: an admission decision at time `t` either returns the
//! completion time of the transfer or rejects (overflow) when the backlog
//! exceeds the configured buffer — exactly how a redirect path sheds load
//! when events arrive faster than the port drains.

/// A bandwidth-limited, finitely-buffered serializing channel.
#[derive(Debug, Clone)]
pub struct RateLimitedChannel {
    /// Bits per nanosecond (== Gbps).
    gbps: f64,
    /// Maximum backlog the channel may hold, bytes.
    buffer_bytes: u64,
    /// Time the serializer frees up.
    next_free_ns: u64,
}

impl RateLimitedChannel {
    /// Create a channel with `gbps` bandwidth and `buffer_bytes` of backlog.
    pub fn new(gbps: f64, buffer_bytes: u64) -> Self {
        assert!(gbps > 0.0, "channel must have positive bandwidth");
        RateLimitedChannel { gbps, buffer_bytes, next_free_ns: 0 }
    }

    /// Nanoseconds to serialize `bytes` at this bandwidth.
    pub(crate) fn serialize_ns(&self, bytes: usize) -> u64 {
        ((bytes as f64 * 8.0) / self.gbps).ceil() as u64
    }

    /// Offer `bytes` at time `now_ns`. Returns the completion time if
    /// admitted, or `None` if the implied backlog would exceed the buffer
    /// (the message is lost/dropped — the capacity limit of the paper).
    /// The caller counts what it loses.
    pub fn offer(&mut self, now_ns: u64, bytes: usize) -> Option<u64> {
        let start = self.next_free_ns.max(now_ns);
        // Current backlog expressed in bytes still to serialize.
        let backlog_ns = start.saturating_sub(now_ns);
        let backlog_bytes = (backlog_ns as f64 * self.gbps / 8.0) as u64;
        if backlog_bytes + bytes as u64 > self.buffer_bytes {
            return None;
        }
        let done = start + self.serialize_ns(bytes);
        self.next_free_ns = done;
        Some(done)
    }

    /// Reset the serializer: the channel is idle again.
    pub fn reset(&mut self) {
        self.next_free_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_at_100g() {
        let ch = RateLimitedChannel::new(100.0, 1 << 20);
        // 1250 bytes at 100 Gbps = 100 ns.
        assert_eq!(ch.serialize_ns(1250), 100);
    }

    #[test]
    fn back_to_back_serializes_in_order() {
        let mut ch = RateLimitedChannel::new(100.0, 1 << 20);
        assert_eq!(ch.offer(0, 1250), Some(100));
        assert_eq!(ch.offer(0, 1250), Some(200));
        // After the channel drains, a new message starts immediately.
        assert_eq!(ch.offer(1_000, 1250), Some(1_100));
    }

    #[test]
    fn overflow_rejects() {
        // 10 Gbps channel with a tiny 100-byte buffer.
        let mut ch = RateLimitedChannel::new(10.0, 100);
        assert_eq!(ch.offer(0, 100), Some(80));
        // Immediately offering more exceeds the backlog budget.
        assert_eq!(ch.offer(0, 100), None);
        // Once drained, it accepts again.
        let drain = ch.serialize_ns(100);
        assert_eq!(ch.offer(drain, 100), Some(drain + 80));
    }

    #[test]
    fn reset_frees_the_serializer() {
        let mut ch = RateLimitedChannel::new(1.0, 10);
        assert_eq!(ch.offer(0, 10), Some(80));
        assert_eq!(ch.offer(0, 10), None);
        ch.reset();
        assert_eq!(ch.offer(0, 10), Some(80));
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = RateLimitedChannel::new(0.0, 1);
    }
}
