//! Seeded byte-corruption generation for integrity-fault experiments.
//!
//! Loss faults (drops, bursts) make frames vanish; integrity faults make
//! them *lie*. This module generates deterministic byte damage — bit
//! flips, truncation, duplicated runs — used by three injection sites:
//!
//! * link delivery ([`crate::link::LinkDirection`]): residual wire
//!   corruption that escapes the Ethernet FCS and reaches parsers;
//! * the NetSeer report path (CEBPs and loss notifications, guarded by
//!   CRC-32C trailers);
//! * torn tail-writes in the recovery WAL on a hard crash (guarded by
//!   per-record CRCs).
//!
//! All damage is drawn from a dedicated [`Pcg32`] stream so enabling
//! corruption never perturbs the draws of co-located loss processes.

use crate::rng::Pcg32;

/// How aggressively to damage a buffer. All probabilities are evaluated
/// independently per buffer; `flip_per_byte` is evaluated per byte.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorruptionSpec {
    /// Probability each byte gets one random bit flipped.
    pub flip_per_byte: f64,
    /// Probability the buffer is truncated at a random point.
    pub truncate_prob: f64,
    /// Probability a random run of bytes is duplicated in place.
    pub duplicate_prob: f64,
}

impl CorruptionSpec {
    /// No damage at all.
    pub const fn none() -> Self {
        CorruptionSpec { flip_per_byte: 0.0, truncate_prob: 0.0, duplicate_prob: 0.0 }
    }

    /// Pure bit-flip noise at the given per-byte rate — the classic
    /// "storm on one link" profile.
    pub const fn bit_flips(rate: f64) -> Self {
        CorruptionSpec { flip_per_byte: rate, truncate_prob: 0.0, duplicate_prob: 0.0 }
    }

    /// True when any fault can fire.
    pub fn is_active(&self) -> bool {
        self.flip_per_byte > 0.0 || self.truncate_prob > 0.0 || self.duplicate_prob > 0.0
    }
}

/// What [`corrupt_buffer`] did to one buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionTally {
    /// Individual bits flipped.
    pub(crate) bits_flipped: u32,
    /// Buffer was cut short.
    pub(crate) truncated: bool,
    /// A run of bytes was doubled.
    pub(crate) duplicated: bool,
}

impl CorruptionTally {
    /// True when the buffer was changed in any way.
    pub(crate) fn touched(&self) -> bool {
        self.bits_flipped > 0 || self.truncated || self.duplicated
    }
}

/// Damage `buf` in place according to `spec`, drawing from `rng`.
///
/// The draw order (truncate, duplicate, then per-byte flips) is part of
/// the determinism contract: identical seeds and buffer lengths produce
/// identical damage regardless of buffer contents.
pub fn corrupt_buffer(
    spec: &CorruptionSpec,
    rng: &mut Pcg32,
    buf: &mut Vec<u8>,
) -> CorruptionTally {
    let mut tally = CorruptionTally::default();
    if buf.len() > 1 && rng.chance(spec.truncate_prob) {
        let keep = 1 + rng.next_below(buf.len() as u32 - 1) as usize;
        buf.truncate(keep);
        tally.truncated = true;
    }
    if !buf.is_empty() && rng.chance(spec.duplicate_prob) {
        let start = rng.next_below(buf.len() as u32) as usize;
        let max_run = (buf.len() - start).min(16) as u32;
        let run = 1 + rng.next_below(max_run) as usize;
        let dup: Vec<u8> = buf[start..start + run].to_vec();
        // Splice the copy in right after the original run (torn/replayed
        // DMA write): the buffer grows by `run` bytes.
        let tail = buf.split_off(start + run);
        buf.extend_from_slice(&dup);
        buf.extend_from_slice(&tail);
        tally.duplicated = true;
    }
    if spec.flip_per_byte > 0.0 {
        for byte in buf.iter_mut() {
            if rng.chance(spec.flip_per_byte) {
                *byte ^= 1 << rng.next_below(8);
                tally.bits_flipped += 1;
            }
        }
    }
    tally
}

/// A seeded corruption stream: a [`CorruptionSpec`] bound to its own RNG
/// stream plus lifetime damage counters. One generator per injection site.
#[derive(Debug, Clone)]
pub struct CorruptionGen {
    /// Damage profile.
    pub spec: CorruptionSpec,
    rng: Pcg32,
    /// Buffers offered to this generator.
    pub(crate) buffers_offered: u64,
    /// Buffers actually damaged.
    pub(crate) buffers_damaged: u64,
    /// Total bits flipped across all buffers.
    pub(crate) bits_flipped: u64,
    /// Total truncations applied.
    pub(crate) truncations: u64,
    /// Total duplicated runs inserted.
    pub(crate) duplications: u64,
}

impl CorruptionGen {
    /// Create a generator on its own `(seed, stream)` RNG stream.
    pub fn new(spec: CorruptionSpec, seed: u64, stream: u64) -> Self {
        CorruptionGen {
            spec,
            rng: Pcg32::new(seed, stream),
            buffers_offered: 0,
            buffers_damaged: 0,
            bits_flipped: 0,
            truncations: 0,
            duplications: 0,
        }
    }

    /// Damage `buf` in place; returns what happened.
    pub fn corrupt(&mut self, buf: &mut Vec<u8>) -> CorruptionTally {
        self.buffers_offered += 1;
        if !self.spec.is_active() {
            return CorruptionTally::default();
        }
        let tally = corrupt_buffer(&self.spec, &mut self.rng, buf);
        if tally.touched() {
            self.buffers_damaged += 1;
        }
        self.bits_flipped += u64::from(tally.bits_flipped);
        self.truncations += u64::from(tally.truncated);
        self.duplications += u64::from(tally.duplicated);
        tally
    }

    /// Damage only the suffix `buf[keep..]`, leaving the first `keep`
    /// bytes untouched — a torn tail-write. The fsynced prefix of a
    /// segment or log is durable on disk; a hard kill mid-flush can only
    /// mangle the bytes past the sync watermark, and this models exactly
    /// that. `keep` past the end of the buffer leaves it unchanged.
    pub fn corrupt_tail(&mut self, buf: &mut Vec<u8>, keep: usize) -> CorruptionTally {
        let keep = keep.min(buf.len());
        let mut tail = buf.split_off(keep);
        let tally = self.corrupt(&mut tail);
        buf.append(&mut tail);
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_spec_never_touches() {
        let mut g = CorruptionGen::new(CorruptionSpec::none(), 1, 1);
        let mut buf = vec![0xaa; 256];
        for _ in 0..100 {
            assert!(!g.corrupt(&mut buf).touched());
        }
        assert_eq!(buf, vec![0xaa; 256]);
        assert_eq!(g.buffers_damaged, 0);
        assert_eq!(g.buffers_offered, 100);
    }

    #[test]
    fn bit_flip_rate_is_roughly_honoured() {
        let mut g = CorruptionGen::new(CorruptionSpec::bit_flips(0.01), 2, 2);
        let mut flips = 0u64;
        for _ in 0..100 {
            let mut buf = vec![0u8; 1000];
            g.corrupt(&mut buf);
            flips += buf.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
        }
        // 100k bytes at 1e-2/byte ≈ 1000 flips.
        assert!((700..1300).contains(&flips), "flips {flips}");
        assert_eq!(g.bits_flipped, flips);
    }

    #[test]
    fn truncation_shortens_but_never_empties() {
        let spec = CorruptionSpec { truncate_prob: 1.0, ..CorruptionSpec::none() };
        let mut g = CorruptionGen::new(spec, 3, 3);
        for _ in 0..100 {
            let mut buf = vec![7u8; 64];
            assert!(g.corrupt(&mut buf).truncated);
            assert!(!buf.is_empty() && buf.len() < 64);
        }
        assert_eq!(g.truncations, 100);
    }

    #[test]
    fn duplication_grows_and_preserves_prefix() {
        let spec = CorruptionSpec { duplicate_prob: 1.0, ..CorruptionSpec::none() };
        let mut g = CorruptionGen::new(spec, 4, 4);
        let orig: Vec<u8> = (0..64u8).collect();
        let mut buf = orig.clone();
        assert!(g.corrupt(&mut buf).duplicated);
        assert!(buf.len() > orig.len());
        // The damage is a doubled run, so the original is a subsequence
        // with one contiguous insertion; prefix before the run is intact.
        assert_eq!(&buf[..1], &orig[..1]);
    }

    #[test]
    fn tail_corruption_preserves_the_kept_prefix() {
        let spec = CorruptionSpec { flip_per_byte: 0.5, truncate_prob: 0.5, duplicate_prob: 0.5 };
        let mut g = CorruptionGen::new(spec, 5, 5);
        for keep in [0usize, 1, 100, 199, 200, 500] {
            let orig: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(37)).collect();
            let mut buf = orig.clone();
            g.corrupt_tail(&mut buf, keep);
            let k = keep.min(orig.len());
            assert_eq!(&buf[..k], &orig[..k], "prefix keep={keep} must survive");
            assert!(buf.len() >= k);
        }
        // keep == len: the tail is empty, nothing can change.
        let orig: Vec<u8> = (0..64u8).collect();
        let mut buf = orig.clone();
        assert!(!g.corrupt_tail(&mut buf, 64).touched());
        assert_eq!(buf, orig);
    }

    #[test]
    fn same_seed_same_damage() {
        let spec = CorruptionSpec { flip_per_byte: 0.05, truncate_prob: 0.2, duplicate_prob: 0.2 };
        let run = |seed| {
            let mut g = CorruptionGen::new(spec, seed, 9);
            let mut bufs = Vec::new();
            for i in 0..50u8 {
                let mut b = vec![i; 200];
                g.corrupt(&mut b);
                bufs.push(b);
            }
            bufs
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
