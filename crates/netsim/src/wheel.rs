//! Hierarchical timer wheel for the engine's event queue.
//!
//! The global `BinaryHeap` the engine started with costs O(log n) per
//! schedule/pop with poor cache behavior; a fleet simulation pushes and
//! pops one event per packet per hop, so those constants bound every
//! figure. [`EventWheel`] replaces it with the classic hierarchical
//! timing-wheel layout (Varghese & Lauck), adapted to the determinism
//! contract: pops come out in exactly the canonical `(time, lane, seq)`
//! key order the serial/parallel equivalence proof is built on.
//!
//! # Layout
//!
//! * A **ready run**: the events of the current 64 ns slot (the slot
//!   holding `base`), in one `Vec` sorted by descending key, so the next
//!   event is popped off the back. A push that lands before the slot's
//!   end — at the current ns, or "in the past", which the reference heap
//!   also permits — is placed by binary search.
//! * `LEVELS` levels of `SLOTS = 64` slots each. Level `l` has slot
//!   granularity `64^(l+1)` ns, and holds only events inside the *current
//!   aligned `64^(l+2)`-ns window* of `base` (the kernel-style aligned
//!   scheme, not a circular one — windows never wrap, so slot order is
//!   plain array order and occupancy is one `u64` bitmap per level).
//!   A level-0 slot is drained into the empty ready run and sorted;
//!   coarser slots cascade down a level.
//! * Events further out than the top window go to an **overflow heap**
//!   and are re-inserted when the wheel advances near them.
//!
//! # Invariants
//!
//! 1. `ready` holds every queued event whose time lies before the end of
//!    `base`'s 64 ns slot; wheel levels and overflow hold only later ones.
//! 2. A level-`l` entry lies in the same aligned `64^(l+2)` window as
//!    `base` (enforced at insert; `base` only grows, and it only crosses
//!    a window boundary when every slot inside that window is empty or
//!    cascaded first).
//! 3. `base` never decreases.
//!
//! Together these make `pop` globally key-ordered: everything in the
//! wheel is strictly later in time than everything in `ready`, and
//! `ready` is sorted by key. There is no cancellation: the engine never
//! revokes an event (it parks controls behind `Option`, and an idle
//! port's tx-done is port state until something needs it).

use crate::engine::{EventKey, QEntry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slots per level; 64 so each level's occupancy is a single `u64`.
const SLOTS: usize = 64;
/// log2(SLOTS), and log2 of the ready run's slot width in ns.
const SHIFT: u32 = 6;
/// Wheel levels. Three levels of 64 ns, 4 µs and 262 µs slots span
/// `64^4` ns ≈ 16.8 ms from `base` — beyond the default simulation
/// horizons, so overflow is rare (probe rounds, far-future controls).
/// Only level-0 slots (and the ready run) keep their buffer when
/// drained: one refills every 4 µs, so a dropped buffer would be
/// reallocated almost at once. A 4 µs slot collects a whole window of
/// arrivals, so its high-water capacity is large and seldom reused:
/// keeping it too raised the 64-host sharded fleet's peak RSS from 24.0
/// to 28.7 MiB. A drained slot is copied into the run rather than
/// swapped with it, so no buffer's capacity travels to other slots.
const LEVELS: usize = 3;

/// Hierarchical timer wheel holding [`QEntry`] events, popped in exact
/// canonical `(time, lane, seq)` order.
pub struct EventWheel {
    /// Start of the current 64 ns slot (a multiple of 64).
    base: u64,
    /// `levels[l][s]` holds events with granularity `64^(l+1)`.
    levels: Vec<Vec<Vec<QEntry>>>,
    /// Occupancy bitmap per level (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events due before the current slot ends, by descending key.
    ready: Vec<QEntry>,
    /// Events beyond the top window, ordered by full key.
    overflow: BinaryHeap<Reverse<QEntry>>,
}

impl Default for EventWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl EventWheel {
    /// Empty wheel based at t = 0.
    pub fn new() -> Self {
        EventWheel {
            base: 0,
            levels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            occupied: [0; LEVELS],
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of events queued.
    pub fn len(&self) -> usize {
        let wheel: usize = self.levels.iter().flatten().map(Vec::len).sum();
        self.ready.len() + self.overflow.len() + wheel
    }

    /// True when no events are queued.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot index of `t` at `level`.
    #[inline]
    fn slot_of(t: u64, level: usize) -> usize {
        ((t >> (SHIFT * (level as u32 + 1))) & (SLOTS as u64 - 1)) as usize
    }

    /// Queue an event. O(1) plus at most `LEVELS` window checks, or a
    /// binary search when it lands in the current slot.
    pub fn push(&mut self, e: QEntry) {
        if e.time >> SHIFT <= self.base >> SHIFT {
            let key = e.key();
            let at = self.ready.partition_point(|r| r.key() > key);
            self.ready.insert(at, e);
            return;
        }
        for level in 0..LEVELS {
            let shift = SHIFT * (level as u32 + 2);
            if e.time >> shift == self.base >> shift {
                let s = Self::slot_of(e.time, level);
                self.levels[level][s].push(e);
                self.occupied[level] |= 1 << s;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// Key of the next event to pop, if any.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        if self.ready.is_empty() {
            self.advance();
        }
        self.ready.last().map(QEntry::key)
    }

    /// Pop the event with the smallest canonical key.
    pub fn pop(&mut self) -> Option<QEntry> {
        if self.ready.is_empty() {
            self.advance();
        }
        self.ready.pop()
    }

    /// Drain every queued event, unordered. Used by the parallel
    /// executor to partition the pending set across shards.
    pub fn drain_unordered(&mut self) -> Vec<QEntry> {
        let mut out = Vec::with_capacity(self.len());
        out.append(&mut self.ready);
        out.extend(std::mem::take(&mut self.overflow).into_iter().map(|r| r.0));
        for slot in self.levels.iter_mut().flatten() {
            out.append(slot);
        }
        self.occupied = [0; LEVELS];
        out
    }

    /// Move `base` forward to the earliest pending slot and fill `ready`
    /// from it. Returns with `ready` empty only when nothing is queued.
    fn advance(&mut self) {
        while self.ready.is_empty() {
            // Cascade any upper-level slot that contains `base` itself:
            // such slots exist only transiently (an entry inserted at a
            // coarse level whose window `base` has since entered) and
            // must migrate down before slot order is trustworthy.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let s = Self::slot_of(self.base, level);
                if self.occupied[level] & (1 << s) != 0 {
                    self.cascade(level, s);
                    cascaded = true;
                }
            }
            if cascaded {
                continue;
            }
            // Lowest non-empty level owns the earliest pending time: its
            // entries are strictly inside the coarser levels' base slots,
            // which were cascaded above. Advance `base` to its first slot.
            if let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) {
                let s = self.occupied[level].trailing_zeros() as usize;
                let shift = SHIFT * (level as u32 + 1);
                let slot_start = ((self.base >> shift) & !(SLOTS as u64 - 1) | s as u64) << shift;
                debug_assert!(slot_start > self.base);
                self.base = slot_start;
                if level == 0 {
                    // The slot becomes the ready run; both keep their
                    // buffers (see `LEVELS`).
                    self.occupied[0] &= !(1 << s);
                    self.ready.append(&mut self.levels[0][s]);
                    self.ready.sort_unstable_by_key(|e| Reverse(e.key()));
                } else {
                    self.cascade(level, s);
                }
                continue;
            }
            // Wheel empty: refill from overflow. Jump base to the
            // earliest overflow time and re-insert everything that now
            // fits the wheel's windows around the new base.
            let Some(Reverse(head)) = self.overflow.pop() else {
                return;
            };
            self.base = head.time & !(SLOTS as u64 - 1);
            self.ready.push(head);
            let top_shift = SHIFT * (LEVELS as u32 + 1);
            while let Some(Reverse(e)) = self.overflow.peek() {
                if (e.time >> top_shift) != (self.base >> top_shift) {
                    break;
                }
                let Reverse(e) = self.overflow.pop().expect("peeked");
                self.push(e);
            }
        }
    }

    /// Re-insert every entry of `levels[level][s]` at a finer level (or
    /// into `ready` if due). Entries always descend: the slot's window
    /// contains `base`, so each entry now fits a finer-level window.
    fn cascade(&mut self, level: usize, s: usize) {
        self.occupied[level] &= !(1 << s);
        for e in std::mem::take(&mut self.levels[level][s]) {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimEvent;
    use crate::rng::Pcg32;

    fn entry(time: u64, lane: u32, seq: u64) -> QEntry {
        QEntry { time, lane, seq, ev: SimEvent::RetryPort { node: lane, port: 0 } }
    }

    #[test]
    fn pops_in_key_order_with_same_time_collisions() {
        let mut w = EventWheel::new();
        w.push(entry(10, 3, 0));
        w.push(entry(10, 1, 5));
        w.push(entry(5, 9, 9));
        w.push(entry(10, 1, 2));
        w.push(entry(1_000_000, 0, 0));
        let mut got = Vec::new();
        while let Some(e) = w.pop() {
            got.push(e.key());
        }
        assert_eq!(got, vec![(5, 9, 9), (10, 1, 2), (10, 1, 5), (10, 3, 0), (1_000_000, 0, 0)]);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = EventWheel::new();
        // Beyond the 64^4-ns top window.
        let far = 1u64 << 40;
        w.push(entry(far, 1, 0));
        w.push(entry(far + 1, 0, 0));
        w.push(entry(3, 0, 0));
        assert_eq!(w.pop().unwrap().key(), (3, 0, 0));
        assert_eq!(w.pop().unwrap().key(), (far, 1, 0));
        assert_eq!(w.pop().unwrap().key(), (far + 1, 0, 0));
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn past_pushes_pop_first_like_a_heap() {
        let mut w = EventWheel::new();
        w.push(entry(100, 0, 0));
        assert_eq!(w.pop().unwrap().key(), (100, 0, 0));
        // Scheduled "in the past" relative to the wheel's base.
        w.push(entry(50, 0, 1));
        w.push(entry(101, 0, 2));
        assert_eq!(w.pop().unwrap().key(), (50, 0, 1));
        assert_eq!(w.pop().unwrap().key(), (101, 0, 2));
    }

    #[test]
    fn drain_unordered_returns_all_entries() {
        let mut w = EventWheel::new();
        for i in 0..100u64 {
            w.push(entry(i * 977, 0, i));
        }
        w.push(entry(1 << 41, 7, 7)); // overflow
        assert_eq!(w.pop().unwrap().key(), (0, 0, 0));
        let mut keys: Vec<EventKey> = w.drain_unordered().into_iter().map(|e| e.key()).collect();
        keys.sort_unstable();
        assert_eq!(keys.len(), 100);
        assert!(!keys.contains(&(0, 0, 0)));
        assert!(keys.contains(&(1 << 41, 7, 7)));
        assert!(w.is_empty());
    }

    /// The determinism contract in miniature: over randomized schedules —
    /// bursts of same-slot collisions, far-future overflow, past pushes —
    /// the wheel pops the exact sequence a reference `BinaryHeap` pops.
    #[test]
    fn property_matches_binary_heap_reference() {
        let base_seed = match std::env::var("CHAOS_SEED") {
            Ok(s) => 0x57EE1 ^ s.trim().parse::<u64>().unwrap_or(0),
            Err(_) => 0x57EE1,
        };
        for round in 0..8u64 {
            let mut rng = Pcg32::new(base_seed.wrapping_add(round), 0x77);
            let mut wheel = EventWheel::new();
            let mut reference: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..4000 {
                match rng.next_below(10) {
                    // 60%: push at a mix of horizons, biased near `now`
                    // to force same-slot collisions.
                    0..=5 => {
                        let dt = match rng.next_below(100) {
                            0..=39 => u64::from(rng.next_below(4)),
                            40..=69 => u64::from(rng.next_below(64)),
                            70..=89 => u64::from(rng.next_below(100_000)),
                            90..=95 => u64::from(rng.next_below(20_000_000)),
                            // Far future: exercises the overflow heap.
                            _ => (1 << 28) + u64::from(rng.next_u32()),
                        };
                        // Occasionally schedule into the past.
                        let t =
                            if rng.next_below(20) == 0 { now.saturating_sub(dt) } else { now + dt };
                        let key = (t, rng.next_below(5), seq);
                        seq += 1;
                        wheel.push(entry(key.0, key.1, key.2));
                        reference.push(Reverse(key));
                    }
                    // 40%: pop.
                    _ => {
                        let want = reference.pop().map(|r| r.0);
                        let got = wheel.pop().map(|e| e.key());
                        assert_eq!(got, want, "round {round}: pop order diverged");
                        if let Some(k) = want {
                            now = now.max(k.0);
                        }
                    }
                }
                assert_eq!(wheel.len(), reference.len(), "round {round}: length diverged");
            }
            // Drain what's left in order.
            while let Some(Reverse(want)) = reference.pop() {
                assert_eq!(wheel.pop().map(|e| e.key()), Some(want));
            }
            assert!(wheel.pop().is_none());
        }
    }
}
