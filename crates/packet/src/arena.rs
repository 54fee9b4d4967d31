//! Pooled frame buffers for the per-packet hot path.
//!
//! Every packet in the simulator is an owned `Vec<u8>`; building one
//! per packet from scratch is a heap allocation per packet. A
//! [`FrameArena`] recycles retired frame buffers so a steady-state
//! traffic source allocates nothing: `get` hands back a zeroed buffer of
//! the requested length (reusing a retired buffer when one is large
//! enough) and `put` retires a buffer into the pool.
//!
//! Every buffer `get` returns has room for the frame plus one sequence
//! tag ([`SEQTAG_LEN`]): every monitored link tags at egress, the first
//! hop included. A NIC builds its data frames with the tag already in
//! that room ([`build_tagged_data_packet_in`]), [`insert_seqtag_in_place`]
//! never reallocates, and a frame holds `len + SEQTAG_LEN` bytes for its
//! whole life instead of the doubled capacity a tag-triggered `Vec`
//! growth would leave.
//!
//! The arena is deliberately *not* thread-safe or reference-counted —
//! each device owns its own pool, matching the simulator's
//! one-device-per-shard execution model, and buffers are plain `Vec<u8>`
//! so they flow through the existing packet APIs unchanged.
//!
//! [`insert_seqtag_in_place`]: crate::builder::insert_seqtag_in_place
//! [`build_tagged_data_packet_in`]: crate::builder::build_tagged_data_packet_in

use crate::seqtag::SEQTAG_LEN;

/// A zeroed buffer of `len` bytes with capacity for one sequence tag on
/// top, so tagging it in place never reallocates.
pub(crate) fn tag_ready(len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + SEQTAG_LEN);
    buf.resize(len, 0);
    buf
}

/// A recycling pool of frame buffers.
#[derive(Debug, Default)]
pub struct FrameArena {
    pool: Vec<Vec<u8>>,
}

/// Retired buffers kept per arena; beyond this, `put` lets buffers drop.
const MAX_POOLED: usize = 64;

impl FrameArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed buffer of `len` bytes with capacity for a sequence tag
    /// on top, reusing a pooled buffer when it is large enough (a smaller
    /// one is dropped and a fresh buffer allocated).
    pub(crate) fn get(&mut self, len: usize) -> Vec<u8> {
        match self.pool.pop() {
            Some(mut buf) if buf.capacity() >= len + SEQTAG_LEN => {
                // From length 0, `resize` writes every byte: nothing of the
                // previous packet survives.
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            _ => tag_ready(len),
        }
    }

    /// Retire a buffer into the pool for a later `get`.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_and_zeroes() {
        let mut a = FrameArena::new();
        let mut b = a.get(64);
        b.iter().for_each(|&x| assert_eq!(x, 0));
        b[10] = 0xAB;
        let cap = b.capacity();
        a.put(b);
        assert_eq!(a.pool.len(), 1);
        let c = a.get(32);
        assert_eq!(c.len(), 32);
        assert_eq!(c.capacity(), cap, "capacity reused");
        assert!(c.iter().all(|&x| x == 0), "stale bytes cleared");
    }

    #[test]
    fn pool_is_bounded() {
        let mut a = FrameArena::new();
        for _ in 0..(MAX_POOLED + 10) {
            a.put(vec![0u8; 16]);
        }
        assert_eq!(a.pool.len(), MAX_POOLED);
    }

    #[test]
    fn grow_beyond_recycled_capacity() {
        let mut a = FrameArena::new();
        a.put(Vec::with_capacity(8));
        let b = a.get(1500);
        assert_eq!(b.len(), 1500);
        assert!(b.capacity() >= 1500 + SEQTAG_LEN);
        assert!(b.iter().all(|&x| x == 0));
        assert!(a.pool.is_empty(), "a too-small buffer is dropped");
    }
}
