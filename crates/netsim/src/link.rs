//! Links: bandwidth, propagation delay, and fault injection.
//!
//! Each link is full-duplex; fault injection is configured per direction so
//! experiments can corrupt only, say, Agg1→ToR2. Faults come in three
//! flavours matching the paper's inter-switch failure modes (§3.3):
//!
//! * random **silent drop** (decaying transmitter, connector contamination);
//! * random **corruption** (the frame arrives but fails FCS and is discarded
//!   at the downstream MAC);
//! * scripted **burst drops** ("drop the next N frames after time T") used
//!   to probe the ring-buffer capacity limits (paper Fig. 15).

use crate::corrupt::{corrupt_buffer, CorruptionSpec};
use crate::rng::Pcg32;

/// What the link did to a frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkOutcome {
    /// Delivered intact.
    Delivered,
    /// Vanished silently — downstream sees nothing.
    SilentDrop,
    /// Delivered with an FCS error — downstream MAC discards it.
    Corrupted,
}

/// Fault configuration for one link direction.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is corrupted.
    pub corrupt_prob: f64,
    /// Scripted burst: after `at_ns`, silently drop the next `count` frames.
    pub burst_drop: Option<BurstDrop>,
    /// When set, a corrupted frame's bytes are actually damaged and the
    /// frame is **delivered** as if the damage escaped the FCS — the
    /// residual-corruption model that forces downstream parsers (and the
    /// telemetry CRC trailers) to face real garbage. When `None` (the
    /// default), corruption keeps its classic behaviour: the frame arrives
    /// with an FCS error and dies at the downstream MAC.
    pub corrupt_bytes: Option<CorruptionSpec>,
}

/// A scripted consecutive-drop burst.
#[derive(Debug, Clone, Copy)]
pub struct BurstDrop {
    /// Burst arms at this time.
    pub at_ns: u64,
    /// Number of consecutive frames to drop.
    pub count: u32,
    /// Corrupt instead of silently dropping.
    pub corrupt: bool,
}

/// Per-direction link state.
#[derive(Debug, Clone)]
pub struct LinkDirection {
    /// Fault configuration.
    pub faults: FaultSpec,
    rng: Pcg32,
    /// Dedicated RNG for byte damage so enabling `corrupt_bytes` never
    /// perturbs the drop/corrupt draws of `judge`.
    corrupt_rng: Pcg32,
    burst_remaining: u32,
    burst_armed: bool,
    /// Frames offered to this direction.
    pub(crate) frames_offered: u64,
    /// Frames lost or corrupted by this direction.
    pub(crate) frames_faulted: u64,
    /// Frames whose bytes were actually mutated (corrupt_bytes mode).
    pub frames_mutated: u64,
    /// Total bits flipped into delivered frames (corrupt_bytes mode).
    pub(crate) bits_flipped: u64,
}

impl LinkDirection {
    fn new(seed: u64, stream: u64) -> Self {
        LinkDirection {
            faults: FaultSpec::default(),
            rng: Pcg32::new(seed, stream),
            corrupt_rng: Pcg32::new(seed, stream ^ 0x4350),
            burst_remaining: 0,
            burst_armed: false,
            frames_offered: 0,
            frames_faulted: 0,
            frames_mutated: 0,
            bits_flipped: 0,
        }
    }

    /// Apply byte damage to a frame judged `Corrupted` when the
    /// residual-corruption model is enabled. Returns `true` when the frame
    /// should be delivered (bytes mutated, FCS missed it) and `false` when
    /// classic FCS-kill semantics apply.
    pub(crate) fn mutate_corrupted(&mut self, frame: &mut Vec<u8>) -> bool {
        let Some(spec) = self.faults.corrupt_bytes else {
            return false;
        };
        let tally = corrupt_buffer(&spec, &mut self.corrupt_rng, frame);
        if tally.touched() {
            self.frames_mutated += 1;
        }
        self.bits_flipped += u64::from(tally.bits_flipped);
        true
    }

    /// Decide the fate of a frame entering this direction at `now_ns`.
    pub(crate) fn judge(&mut self, now_ns: u64) -> LinkOutcome {
        self.frames_offered += 1;
        if let Some(b) = self.faults.burst_drop {
            if !self.burst_armed && now_ns >= b.at_ns {
                self.burst_armed = true;
                self.burst_remaining = b.count;
            }
            if self.burst_armed && self.burst_remaining > 0 {
                self.burst_remaining -= 1;
                self.frames_faulted += 1;
                return if b.corrupt { LinkOutcome::Corrupted } else { LinkOutcome::SilentDrop };
            }
        }
        if self.rng.chance(self.faults.drop_prob) {
            self.frames_faulted += 1;
            return LinkOutcome::SilentDrop;
        }
        if self.rng.chance(self.faults.corrupt_prob) {
            self.frames_faulted += 1;
            return LinkOutcome::Corrupted;
        }
        LinkOutcome::Delivered
    }
}

/// A full-duplex link between two (node, port) endpoints.
#[derive(Debug, Clone)]
pub struct Link {
    /// Bandwidth, Gbps.
    pub(crate) gbps: f64,
    /// One-way propagation delay, ns.
    pub(crate) prop_ns: u64,
    /// Faults/state in the a→b direction.
    pub(crate) ab: LinkDirection,
    /// Faults/state in the b→a direction.
    pub(crate) ba: LinkDirection,
}

impl Link {
    /// Create a healthy link.
    pub(crate) fn new(gbps: f64, prop_ns: u64, seed: u64) -> Self {
        Link { gbps, prop_ns, ab: LinkDirection::new(seed, 101), ba: LinkDirection::new(seed, 202) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_link_delivers_everything() {
        let mut d = LinkDirection::new(1, 1);
        for t in 0..1000 {
            assert_eq!(d.judge(t), LinkOutcome::Delivered);
        }
        assert_eq!(d.frames_faulted, 0);
        assert_eq!(d.frames_offered, 1000);
    }

    #[test]
    fn drop_probability_takes_effect() {
        let mut d = LinkDirection::new(2, 2);
        d.faults.drop_prob = 0.1;
        let dropped = (0..10_000).filter(|&t| d.judge(t) == LinkOutcome::SilentDrop).count();
        assert!((800..1200).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn corruption_probability_takes_effect() {
        let mut d = LinkDirection::new(3, 3);
        d.faults.corrupt_prob = 0.05;
        let corrupted = (0..10_000).filter(|&t| d.judge(t) == LinkOutcome::Corrupted).count();
        assert!((350..650).contains(&corrupted), "corrupted {corrupted}");
    }

    #[test]
    fn burst_drops_exactly_n_after_t() {
        let mut d = LinkDirection::new(4, 4);
        d.faults.burst_drop = Some(BurstDrop { at_ns: 100, count: 5, corrupt: false });
        // Before the arm time everything passes.
        for t in 0..100 {
            assert_eq!(d.judge(t), LinkOutcome::Delivered);
        }
        // The next 5 frames vanish.
        for t in 100..105 {
            assert_eq!(d.judge(t), LinkOutcome::SilentDrop);
        }
        // Then recovery.
        for t in 105..200 {
            assert_eq!(d.judge(t), LinkOutcome::Delivered);
        }
        assert_eq!(d.frames_faulted, 5);
    }

    #[test]
    fn burst_can_corrupt() {
        let mut d = LinkDirection::new(5, 5);
        d.faults.burst_drop = Some(BurstDrop { at_ns: 0, count: 2, corrupt: true });
        assert_eq!(d.judge(0), LinkOutcome::Corrupted);
        assert_eq!(d.judge(1), LinkOutcome::Corrupted);
        assert_eq!(d.judge(2), LinkOutcome::Delivered);
    }

    #[test]
    fn corrupt_bytes_mutates_and_escapes_fcs() {
        let mut d = LinkDirection::new(6, 6);
        d.faults.corrupt_prob = 1.0;
        d.faults.corrupt_bytes = Some(CorruptionSpec::bit_flips(0.05));
        assert_eq!(d.judge(0), LinkOutcome::Corrupted);
        let orig = vec![0u8; 256];
        let mut frame = orig.clone();
        // Residual model: delivered (true), bytes damaged.
        assert!(d.mutate_corrupted(&mut frame));
        assert_ne!(frame, orig, "0.05 * 256 bytes should flip something");
        assert!(d.frames_mutated > 0 && d.bits_flipped > 0);
        // Without the spec, classic FCS-kill semantics.
        let mut d2 = LinkDirection::new(6, 6);
        let mut frame2 = orig.clone();
        assert!(!d2.mutate_corrupted(&mut frame2));
        assert_eq!(frame2, orig);
    }

    #[test]
    fn corrupt_bytes_does_not_perturb_judge_draws() {
        let run = |with_bytes: bool| {
            let mut d = LinkDirection::new(7, 7);
            d.faults.drop_prob = 0.1;
            d.faults.corrupt_prob = 0.1;
            if with_bytes {
                d.faults.corrupt_bytes = Some(CorruptionSpec::bit_flips(0.5));
            }
            (0..1000)
                .map(|t| {
                    let o = d.judge(t);
                    if o == LinkOutcome::Corrupted {
                        d.mutate_corrupted(&mut vec![0u8; 64]);
                    }
                    o
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = Link::new(100.0, 500, 9);
        l.ab.faults.drop_prob = 1.0;
        assert_eq!(l.ab.judge(0), LinkOutcome::SilentDrop);
        assert_eq!(l.ba.judge(0), LinkOutcome::Delivered);
    }
}
