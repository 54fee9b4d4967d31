//! An Fx-style hasher for simulator-internal per-flow maps.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! hash flooding. Neither property matters for maps whose keys the
//! simulator itself generates, and SipHash costs tens of nanoseconds per
//! lookup on the per-hop path. [`FxHasher`] is the multiply-rotate word
//! hash of Firefox and rustc: one rotate, xor and multiply per word.
//!
//! Use it only for maps whose iteration order reaches no output (the
//! ground-truth path oracle's `gt_paths`, a host's `rx_flows`): a
//! different hasher changes iteration order, and deterministic outputs
//! must not depend on it. `DESIGN.md` §16.5 lists the maps and why.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (64-bit).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher. Not flood-resistant: for
/// simulator-generated keys only.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let f = |sport| {
            FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                sport,
                Ipv4Addr::from_octets([10, 1, 0, 1]),
                80,
            )
        };
        assert_eq!(fx(&f(7)), fx(&f(7)));
        let distinct: std::collections::HashSet<u64> = (0..1000).map(|p| fx(&f(p))).collect();
        assert_eq!(distinct.len(), 1000, "adjacent flows must not collide");
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..10_000 {
            *m.entry(i % 257).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 257);
        assert_eq!(m.values().sum::<u32>(), 10_000);
        assert_eq!(m[&0], 39);
    }
}
