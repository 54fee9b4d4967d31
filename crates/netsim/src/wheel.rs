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
//! * `LEVELS` levels of `SLOTS = 64` slots each. Level `l` has slot
//!   granularity `64^l` ns, and holds only events inside the *current
//!   aligned `64^(l+1)`-ns window* of the wheel's `base` time (the
//!   kernel-style aligned scheme, not a circular one — windows never
//!   wrap, so slot order is plain array order and occupancy is one `u64`
//!   bitmap per level).
//! * Events further out than the top window go to an **overflow heap**
//!   and are re-inserted when the wheel advances near them.
//! * Events that are *due* (`time <= base`) live in a small **ready
//!   heap** ordered by the full canonical key. A level-0 slot is one
//!   exact nanosecond, so dumping a slot into the ready heap and letting
//!   the heap order same-time events by `(lane, seq)` reproduces the
//!   `BinaryHeap` pop order bit-for-bit. The ready heap stays tiny: it
//!   only ever holds the events of the single timestamp being drained,
//!   plus same-time events scheduled while draining it.
//!
//! # Invariants
//!
//! 1. `ready` holds every queued event with `time <= base`; wheel levels
//!    and overflow hold only `time > base`.
//! 2. A level-`l` entry lies in the same aligned `64^(l+1)` window as
//!    `base` (enforced at insert; `base` only grows, and it only crosses
//!    a window boundary when every slot inside that window is empty or
//!    cascaded first).
//! 3. `base` never decreases.
//!
//! Together these make `pop` globally key-ordered: everything in the
//! wheel is strictly later in time than everything in `ready`, and
//! `ready` is a key-ordered heap.
//!
//! Cancellation is lazy: [`EventWheel::cancel`] tombstones a key, and
//! pops skip tombstoned entries. The engine itself never cancels (it
//! parks controls behind `Option`), but the scheduler API supports it so
//! alternative monitors can re-arm timers.

use crate::engine::{EventKey, QEntry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Slots per level; 64 so each level's occupancy is a single `u64`.
const SLOTS: usize = 64;
/// log2(SLOTS).
const SHIFT: u32 = 6;
/// Wheel levels. Four levels span `64^4` ns ≈ 16.8 ms from `base` —
/// beyond the default simulation horizons, so overflow is rare (probe
/// rounds, far-future controls).
const LEVELS: usize = 4;
/// Levels whose slots keep their buffer when drained. A level-0 slot
/// refills every 64 ns and a level-1 slot every 4 µs, so a dropped
/// buffer would be reallocated almost at once — on every hop. Coarser
/// slots collect a whole 4 µs+ window, so their high-water capacity is
/// large and seldom reused: keeping it too raised the 64-host sharded
/// fleet's peak RSS by ~5 MiB (~6%) with no throughput gain.
const REUSE_LEVELS: usize = 2;

/// Hierarchical timer wheel holding [`QEntry`] events, popped in exact
/// canonical `(time, lane, seq)` order.
pub struct EventWheel {
    /// Current time floor: all events with `time <= base` are in `ready`.
    base: u64,
    /// `levels[l][s]` holds events with granularity `64^l`.
    levels: Vec<Vec<Vec<QEntry>>>,
    /// Occupancy bitmap per level (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events due now (or in the past), ordered by full key.
    ready: BinaryHeap<Reverse<QEntry>>,
    /// Events beyond the top window, ordered by full key.
    overflow: BinaryHeap<Reverse<QEntry>>,
    /// Live (non-tombstoned) entry count.
    len: usize,
    /// Tombstoned keys not yet physically removed.
    cancelled: HashSet<EventKey>,
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
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Number of live events queued.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events are queued.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `t` at `level`.
    #[inline]
    fn slot_of(t: u64, level: usize) -> usize {
        ((t >> (SHIFT * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// True when `t` is inside the same aligned level-`(level+1)` window
    /// as `base` — the condition for `t` to live at `level`.
    #[inline]
    fn same_window(&self, t: u64, level: usize) -> bool {
        let shift = SHIFT * (level as u32 + 1);
        (t >> shift) == (self.base >> shift)
    }

    /// Queue an event. O(1) plus at most `LEVELS` window checks.
    pub fn push(&mut self, e: QEntry) {
        self.len += 1;
        self.insert(e);
    }

    fn insert(&mut self, e: QEntry) {
        if e.time <= self.base {
            // Due (or scheduled "in the past", which the reference heap
            // also permits): key order inside `ready` handles it.
            self.ready.push(Reverse(e));
            return;
        }
        for level in 0..LEVELS {
            if self.same_window(e.time, level) {
                let s = Self::slot_of(e.time, level);
                self.levels[level][s].push(e);
                self.occupied[level] |= 1 << s;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// Tombstone the event with `key`, if queued. Returns whether a live
    /// entry was cancelled. Physical removal happens lazily at pop.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if self.cancelled.insert(key) {
            // Optimistically assume the key is present; a cancel of a
            // never-scheduled key is a caller bug the debug assert in
            // `pop` would surface as a length mismatch, so guard here.
            if self.contains(key) {
                self.len -= 1;
                return true;
            }
            self.cancelled.remove(&key);
        }
        false
    }

    /// Linear membership probe used only by [`cancel`](Self::cancel) —
    /// cancellation is off the hot path.
    #[cfg_attr(not(test), allow(dead_code))]
    fn contains(&self, key: EventKey) -> bool {
        self.ready.iter().any(|Reverse(e)| e.key() == key)
            || self.overflow.iter().any(|Reverse(e)| e.key() == key)
            || self.levels.iter().flatten().flatten().any(|e| e.key() == key)
    }

    /// Key of the next event to pop, if any.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.settle_ready();
        self.ready.peek().map(|Reverse(e)| e.key())
    }

    /// Pop the event with the smallest canonical key.
    pub fn pop(&mut self) -> Option<QEntry> {
        self.settle_ready();
        let Reverse(e) = self.ready.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Drain every queued event, unordered. Used by the parallel
    /// executor to partition the pending set across shards.
    pub fn drain_unordered(&mut self) -> Vec<QEntry> {
        let mut out = Vec::with_capacity(self.len);
        let take = |v: &mut Vec<QEntry>, out: &mut Vec<QEntry>, cancelled: &HashSet<EventKey>| {
            for e in v.drain(..) {
                if !cancelled.contains(&e.key()) {
                    out.push(e);
                }
            }
        };
        let mut ready: Vec<QEntry> =
            std::mem::take(&mut self.ready).into_iter().map(|r| r.0).collect();
        take(&mut ready, &mut out, &self.cancelled);
        let mut over: Vec<QEntry> =
            std::mem::take(&mut self.overflow).into_iter().map(|r| r.0).collect();
        take(&mut over, &mut out, &self.cancelled);
        for level in &mut self.levels {
            for slot in level {
                for e in slot.drain(..) {
                    if !self.cancelled.contains(&e.key()) {
                        out.push(e);
                    }
                }
            }
        }
        self.occupied = [0; LEVELS];
        self.cancelled.clear();
        debug_assert_eq!(out.len(), self.len, "drain lost or invented entries");
        self.len = 0;
        out
    }

    /// Ensure the head of `ready` is live and that `ready` holds the
    /// globally smallest key (advancing `base` as needed).
    fn settle_ready(&mut self) {
        loop {
            if let Some(Reverse(e)) = self.ready.peek() {
                if self.cancelled.is_empty() || !self.cancelled.remove(&e.key()) {
                    return;
                }
                // Tombstoned: drop and re-settle.
                self.ready.pop();
                continue;
            }
            if self.len == 0 {
                return;
            }
            self.advance();
        }
    }

    /// Move `base` forward to the earliest pending time and migrate that
    /// time's events into `ready`. Caller guarantees something is pending
    /// outside `ready`.
    fn advance(&mut self) {
        loop {
            // Done as soon as something is due: cascades push entries
            // whose time equals the advanced `base` straight into
            // `ready`.
            if !self.ready.is_empty() {
                return;
            }
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
            // which were cascaded above.
            if let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) {
                let s = self.occupied[level].trailing_zeros() as usize;
                if level == 0 {
                    // A level-0 slot is a single nanosecond: dump it, in
                    // place (see `REUSE_LEVELS`).
                    let t = (self.base & !((SLOTS as u64) - 1)) | s as u64;
                    debug_assert!(t > self.base);
                    self.base = t;
                    self.occupied[0] &= !(1 << s);
                    for e in self.levels[0][s].drain(..) {
                        debug_assert_eq!(e.time, t);
                        self.ready.push(Reverse(e));
                    }
                    continue;
                }
                // Coarser slot: advance base to its start and cascade it
                // down a level (no pending time can precede the slot
                // start — every finer level is empty).
                let shift = SHIFT * level as u32;
                let slot_start = ((self.base >> shift) & !((SLOTS as u64) - 1) | s as u64) << shift;
                debug_assert!(slot_start > self.base);
                self.base = slot_start;
                self.cascade(level, s);
                continue;
            }
            // Wheel empty: refill from overflow. Jump base to the
            // earliest overflow time and re-insert everything that now
            // fits the wheel's windows around the new base.
            let Some(Reverse(head)) = self.overflow.pop() else {
                debug_assert!(self.len == 0, "advance with nothing pending");
                return;
            };
            self.base = head.time;
            self.ready.push(Reverse(head));
            let top_shift = SHIFT * LEVELS as u32;
            while let Some(Reverse(e)) = self.overflow.peek() {
                if (e.time >> top_shift) != (self.base >> top_shift) {
                    break;
                }
                let Reverse(e) = self.overflow.pop().expect("peeked");
                self.insert(e);
            }
            return;
        }
    }

    /// Re-insert every entry of `levels[level][s]` at a finer level (or
    /// into `ready` if due). Entries always descend: the slot's window
    /// contains `base`, so each entry now fits a finer-level window.
    fn cascade(&mut self, level: usize, s: usize) {
        let mut v = std::mem::take(&mut self.levels[level][s]);
        self.occupied[level] &= !(1 << s);
        for e in v.drain(..) {
            self.insert(e);
        }
        if level < REUSE_LEVELS {
            debug_assert!(self.levels[level][s].is_empty(), "cascaded entries descend");
            self.levels[level][s] = v;
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
    fn cancel_removes_exactly_one_key() {
        let mut w = EventWheel::new();
        w.push(entry(10, 1, 0));
        w.push(entry(10, 2, 0));
        w.push(entry(70_000, 3, 0));
        assert!(w.cancel((10, 1, 0)));
        assert!(!w.cancel((10, 1, 0)), "double-cancel is a no-op");
        assert!(!w.cancel((999, 9, 9)), "cancel of an absent key is a no-op");
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().unwrap().key(), (10, 2, 0));
        assert!(w.cancel((70_000, 3, 0)));
        assert!(w.pop().is_none());
    }

    #[test]
    fn drain_unordered_returns_all_live_entries() {
        let mut w = EventWheel::new();
        for i in 0..100u64 {
            w.push(entry(i * 977, 0, i));
        }
        w.push(entry(1 << 41, 7, 7)); // overflow
        w.cancel((977, 0, 1));
        let mut keys: Vec<EventKey> = w.drain_unordered().into_iter().map(|e| e.key()).collect();
        keys.sort_unstable();
        assert_eq!(keys.len(), 100);
        assert!(!keys.contains(&(977, 0, 1)));
        assert!(keys.contains(&(1 << 41, 7, 7)));
        assert!(w.is_empty());
    }

    /// The determinism contract in miniature: over randomized schedules —
    /// bursts of same-slot collisions, far-future overflow, past pushes,
    /// cancellations — the wheel pops the exact sequence a reference
    /// `BinaryHeap` pops.
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
            let mut live: Vec<EventKey> = Vec::new();
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
                        let lane = rng.next_below(5);
                        let key = (now + dt, lane, seq);
                        seq += 1;
                        wheel.push(entry(key.0, key.1, key.2));
                        reference.push(Reverse(key));
                        live.push(key);
                    }
                    // 30%: pop.
                    6..=8 => {
                        let want = reference.pop().map(|r| r.0);
                        let got = wheel.pop().map(|e| e.key());
                        assert_eq!(got, want, "round {round}: pop order diverged");
                        if let Some(k) = want {
                            now = now.max(k.0);
                            live.retain(|&x| x != k);
                        }
                    }
                    // 10%: cancel a random live key.
                    _ => {
                        if !live.is_empty() {
                            let i = rng.next_below(live.len() as u32) as usize;
                            let victim = live.swap_remove(i);
                            assert!(wheel.cancel(victim));
                            let rest: Vec<_> =
                                reference.drain().filter(|r| r.0 != victim).collect();
                            reference = rest.into_iter().collect();
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
