//! Inter-switch drop/corruption detection (§3.3, Figure 5).
//!
//! Upstream side ([`PortTagger`]): a per-egress-port consecutive 4-byte
//! packet ID is inserted into every departing frame, and a ring buffer
//! caches (packet ID, 5-tuple) of the most recent `N` frames.
//!
//! Downstream side ([`GapDetector`]): the ingress strips the tag; a gap in
//! the sequence means frames died on the wire, so three redundant
//! [`LossNotification`](fet_packet::notification)s travel back on the
//! high-priority queue.
//!
//! Back upstream, the notification's missing range is queued in
//! `PendingLookups` and drained one ring lookup per subsequent egress
//! packet (programmable ASICs cannot loop within a stage — paper §3.3) with
//! the control-plane timer as a backstop when the port goes quiet. A slot
//! whose stored ID no longer matches was overridden by newer traffic: the
//! lookup misses and **no wrong packet is ever reported**.

use fet_packet::flow::FLOW_KEY_LEN;
use fet_packet::seqtag::gap_between;
use fet_packet::FlowKey;
use fet_pdp::RegisterArray;
use std::collections::VecDeque;

/// Logical width of one ring-buffer slot: valid bit + 32-bit packet ID +
/// 104-bit flow.
pub(crate) const RING_SLOT_BITS: u32 = 137;

/// One ring-buffer slot: 4 B packet ID + 13 B flow + valid bit
/// (the paper's "5-tuple and packet IDs of the recent N packets").
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RingSlot {
    valid: bool,
    seq: u32,
    flow: [u8; FLOW_KEY_LEN],
}

/// Upstream per-port state: sequence numbering + ring buffer.
#[derive(Debug)]
pub struct PortTagger {
    next_seq: u32,
    ring: RegisterArray<RingSlot>,
    /// Frames tagged so far.
    pub(crate) tagged: u64,
    /// Ring lookups that found their packet.
    pub(crate) lookup_hits: u64,
    /// Ring lookups that missed (slot overridden — drop detected too late).
    pub(crate) lookup_misses: u64,
}

impl PortTagger {
    /// Create with `slots` ring entries.
    pub fn new(slots: usize) -> Self {
        PortTagger {
            next_seq: 0,
            ring: RegisterArray::new("isw-ring", slots, RING_SLOT_BITS),
            tagged: 0,
            lookup_hits: 0,
            lookup_misses: 0,
        }
    }

    /// Number the next departing frame: returns the sequence to insert and
    /// records (seq, flow) in the ring.
    pub fn next(&mut self, flow: FlowKey) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.tagged += 1;
        let mut fk = [0u8; FLOW_KEY_LEN];
        flow.write_to(&mut fk);
        // The ring folds the sequence number onto its slots.
        self.ring.write(seq as usize, RingSlot { valid: true, seq, flow: fk });
        seq
    }

    /// Look up a reported-lost packet ID. `Some(flow)` only when the slot
    /// still holds exactly that ID (never reports the wrong packet).
    pub fn lookup(&mut self, seq: u32) -> Option<FlowKey> {
        let slot = self.ring.read(seq as usize);
        if slot.valid && slot.seq == seq {
            self.lookup_hits += 1;
            Some(FlowKey::read_from(&slot.flow))
        } else {
            self.lookup_misses += 1;
            None
        }
    }

    /// Ring capacity in slots.
    pub(crate) fn slots(&self) -> usize {
        self.ring.len()
    }

    /// The next sequence number this port will assign — the "ring-buffer
    /// head" a recovery checkpoint snapshots.
    pub(crate) fn head(&self) -> u32 {
        self.next_seq
    }

    /// Restart in place: clear the (volatile) ring and resume numbering at
    /// the checkpointed `head`, so downstream gap detectors see a
    /// continuation, not a reset-to-zero burst. A lookup on pre-crash
    /// traffic is counted as a miss, never misreported; counters stay.
    pub(crate) fn reset(&mut self, head: u32) {
        self.ring.clear();
        self.next_seq = head;
    }
}

/// Downstream per-port state: expected-sequence tracking.
#[derive(Debug, Default)]
pub struct GapDetector {
    expected: Option<u32>,
    /// Tagged frames observed.
    pub(crate) packets_seen: u64,
    /// Gap events detected.
    pub(crate) gaps_detected: u64,
    /// Total missing packets across all gaps.
    pub(crate) packets_missing: u64,
    /// Explicit re-bases after an upstream restart (see
    /// [`GapDetector::rebase`]).
    pub(crate) rebases: u64,
}

impl GapDetector {
    /// Fresh detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe an arriving sequence number. Returns the inclusive missing
    /// range `(lo, hi)` when a gap is detected.
    pub fn observe(&mut self, seq: u32) -> Option<(u32, u32)> {
        self.packets_seen += 1;
        let out = match self.expected {
            None => None,
            Some(exp) if seq == exp => None,
            Some(exp) => {
                let missing = gap_between(exp.wrapping_sub(1), seq);
                if missing == 0 {
                    None
                } else {
                    self.gaps_detected += 1;
                    self.packets_missing += u64::from(missing);
                    Some((exp, seq.wrapping_sub(1)))
                }
            }
        };
        self.expected = Some(seq.wrapping_add(1));
        out
    }

    /// Forget the expected sequence without touching the cumulative
    /// counters: the next [`observe`](GapDetector::observe) re-synchronizes
    /// silently, exactly like the very first observation. Called when the
    /// *upstream* tagger restarts — its post-recovery sequence may be
    /// discontinuous (e.g. a hard kill rolled the head back), and counting
    /// that administrative discontinuity as an inter-switch loss burst
    /// would double-count the crash.
    pub(crate) fn rebase(&mut self) {
        self.expected = None;
        self.rebases += 1;
    }
}

/// Ceiling on a single notification's missing-range width. Anything wider
/// is a corrupted payload (no sane gap spans a million packets before the
/// next arrival reveals it) and is truncated + counted, so one flipped bit
/// can't wedge the lookup queue for seconds.
pub(crate) const MAX_NOTIFICATION_RANGE: u32 = 1 << 20;

/// Upstream queue of not-yet-performed ring lookups: one entry per missing
/// packet ID, drained one per subsequent egress packet + by the timer.
#[derive(Debug)]
pub(crate) struct PendingLookups {
    queue: VecDeque<u32>,
    cap: usize,
    /// Ranges recently enqueued (to drop redundant notification copies).
    recent: VecDeque<(u32, u32)>,
    /// Lookups dropped because the pending queue overflowed.
    pub(crate) overflowed: u64,
    /// Notification copies offered (including redundant ones).
    pub(crate) copies_received: u64,
    /// Redundant copies suppressed by dedup — each one is a copy that was
    /// *not needed* because an earlier copy survived.
    pub(crate) duplicate_copies: u64,
    /// Distinct ranges accepted. `copies_received` ≥ `ranges_accepted`;
    /// with triple redundancy and no loss it is 3× — the shortfall under
    /// injected notification loss measures redundancy effectiveness.
    pub(crate) ranges_accepted: u64,
    /// Absurd (corrupted) ranges truncated to [`MAX_NOTIFICATION_RANGE`].
    pub(crate) corrupted_ranges: u64,
}

impl PendingLookups {
    /// Create with a capacity bound.
    pub(crate) fn new(cap: usize) -> Self {
        PendingLookups {
            queue: VecDeque::new(),
            cap: cap.max(1),
            recent: VecDeque::new(),
            overflowed: 0,
            copies_received: 0,
            duplicate_copies: 0,
            ranges_accepted: 0,
            corrupted_ranges: 0,
        }
    }

    /// Enqueue a missing range from a notification. Redundant copies of the
    /// same range are ignored (reordered copies included, up to the recent
    /// window). Returns true if newly enqueued.
    pub(crate) fn push_range(&mut self, lo: u32, hi: u32) -> bool {
        self.copies_received += 1;
        if self.recent.contains(&(lo, hi)) {
            self.duplicate_copies += 1;
            return false;
        }
        self.recent.push_back((lo, hi));
        if self.recent.len() > 16 {
            self.recent.pop_front();
        }
        self.ranges_accepted += 1;
        let count = hi.wrapping_sub(lo).wrapping_add(1);
        // Guard against absurd ranges (corrupted notification payloads).
        if count > MAX_NOTIFICATION_RANGE {
            self.corrupted_ranges += 1;
        }
        let count = count.min(MAX_NOTIFICATION_RANGE);
        for i in 0..count {
            if self.queue.len() >= self.cap {
                self.overflowed += u64::from(count - i);
                break;
            }
            self.queue.push_back(lo.wrapping_add(i));
        }
        true
    }

    /// Pop one pending packet ID to look up.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        self.queue.pop_front()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Restart in place: forget queued lookups and recent ranges (no event
    /// was generated from them yet); counters stay.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    #[test]
    fn tagger_numbers_consecutively() {
        let mut t = PortTagger::new(8);
        assert_eq!(t.next(flow(1)), 0);
        assert_eq!(t.next(flow(2)), 1);
        assert_eq!(t.next(flow(3)), 2);
        assert_eq!(t.tagged, 3);
    }

    #[test]
    fn tagger_head_restores_across_restart() {
        let mut t = PortTagger::new(8);
        for n in 0..5 {
            t.next(flow(n));
        }
        let head = t.head();
        assert_eq!(head, 5);
        // A restart resets the tagger in place to the checkpointed head:
        // numbering continues, the (volatile) ring starts empty, and the
        // counters carry on.
        t.reset(head);
        assert_eq!(t.next(flow(9)), 5, "sequence continues, no reset to 0");
        assert_eq!(t.lookup(2), None, "pre-crash ring contents are gone: counted miss");
        assert_eq!((t.tagged, t.lookup_misses), (6, 1));
    }

    #[test]
    fn gap_detector_rebase_resyncs_without_counting_a_burst() {
        let mut g = GapDetector::new();
        for seq in 0..10 {
            g.observe(seq);
        }
        assert_eq!(g.gaps_detected, 0);
        // Upstream restarts and (hard kill) rolls its numbering back.
        // Without a rebase this discontinuity would register as a giant
        // burst of "missing" packets.
        g.rebase();
        assert_eq!(g.observe(3), None, "first post-rebase observation only syncs");
        assert_eq!(g.observe(4), None);
        assert_eq!(g.gaps_detected, 0);
        assert_eq!(g.packets_missing, 0);
        assert_eq!(g.rebases, 1);
        // Real gaps are still caught after the re-base.
        assert_eq!(g.observe(7), Some((5, 6)));
        assert_eq!(g.gaps_detected, 1);
        assert_eq!(g.packets_missing, 2);
        // Cumulative counters survived the rebase.
        assert_eq!(g.packets_seen, 13);
    }

    #[test]
    fn ring_lookup_finds_recent_flows() {
        let mut t = PortTagger::new(8);
        for n in 0..8 {
            t.next(flow(n));
        }
        assert_eq!(t.lookup(3), Some(flow(3)));
        assert_eq!(t.lookup(7), Some(flow(7)));
    }

    #[test]
    fn overridden_slot_never_reports_wrong_packet() {
        let mut t = PortTagger::new(4);
        for n in 0..10 {
            t.next(flow(n));
        }
        // Seq 2 was overridden by seq 6 (2 % 4 == 6 % 4).
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.lookup(6), Some(flow(6)));
        assert_eq!(t.lookup_misses, 1);
        assert_eq!(t.lookup_hits, 1);
    }

    #[test]
    fn gap_detector_flags_exact_range() {
        let mut g = GapDetector::new();
        assert_eq!(g.observe(10), None); // first packet: sync only
        assert_eq!(g.observe(11), None);
        assert_eq!(g.observe(15), Some((12, 14)));
        assert_eq!(g.packets_missing, 3);
        assert_eq!(g.observe(16), None);
        assert_eq!(g.gaps_detected, 1);
    }

    #[test]
    fn gap_detector_handles_wraparound() {
        let mut g = GapDetector::new();
        assert_eq!(g.observe(u32::MAX - 1), None);
        assert_eq!(g.observe(1), Some((u32::MAX, 0)));
        assert_eq!(g.packets_missing, 2);
    }

    #[test]
    fn single_loss_detected() {
        let mut g = GapDetector::new();
        g.observe(0);
        assert_eq!(g.observe(2), Some((1, 1)));
    }

    #[test]
    fn pending_lookup_dedups_notification_copies() {
        let mut p = PendingLookups::new(100);
        assert!(p.push_range(5, 9));
        assert!(!p.push_range(5, 9)); // copy 2
        assert!(!p.push_range(5, 9)); // copy 3
        assert_eq!(p.len(), 5);
        let drained: Vec<u32> = std::iter::from_fn(|| p.pop()).collect();
        assert_eq!(drained, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn pending_lookup_overflow_counts() {
        let mut p = PendingLookups::new(3);
        p.push_range(0, 9);
        assert_eq!(p.len(), 3);
        assert_eq!(p.overflowed, 7);
    }

    #[test]
    fn corrupted_range_is_truncated_and_counted() {
        // A corrupted payload claiming "everything is missing" (hi < lo
        // wraps to a ~4-billion-wide range) must not wedge the queue.
        let mut p = PendingLookups::new(usize::MAX);
        assert!(p.push_range(100, 98));
        assert_eq!(p.corrupted_ranges, 1);
        assert_eq!(p.len(), MAX_NOTIFICATION_RANGE as usize);
        // A legitimate wraparound range (small width across u32::MAX) is
        // not flagged.
        let mut q = PendingLookups::new(100);
        assert!(q.push_range(u32::MAX - 1, 2));
        assert_eq!(q.corrupted_ranges, 0);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![u32::MAX - 1, u32::MAX, 0, 1, 2]);
    }

    #[test]
    fn redundancy_counters_measure_copy_loss() {
        let mut p = PendingLookups::new(1000);
        // Range A: all 3 copies arrive. Range B: only 1 survives.
        for _ in 0..3 {
            p.push_range(10, 12);
        }
        p.push_range(20, 21);
        assert_eq!(p.copies_received, 4);
        assert_eq!(p.ranges_accepted, 2);
        assert_eq!(p.duplicate_copies, 2);
    }

    #[test]
    fn dedup_survives_reordered_interleaved_copies() {
        // Copies of different ranges interleave arbitrarily (the
        // high-priority queue can reorder across ports): each range is
        // still enqueued exactly once.
        let mut p = PendingLookups::new(1000);
        let copies =
            [(5u32, 6u32), (9, 9), (5, 6), (20, 22), (9, 9), (5, 6), (20, 22), (9, 9), (20, 22)];
        for (lo, hi) in copies {
            p.push_range(lo, hi);
        }
        assert_eq!(p.ranges_accepted, 3);
        let drained: Vec<u32> = std::iter::from_fn(|| p.pop()).collect();
        assert_eq!(drained, vec![5, 6, 9, 20, 21, 22]);
    }

    #[test]
    fn ring_wraparound_storm_sized_to_capacity_recovers_everything() {
        // A consecutive-drop storm exactly as large as the provisioning
        // rule slots_for_consecutive_drops() covers: the ring (sized with
        // the feedback-interval margin) must still hold every victim when
        // the notification arrives, even though the sequence space has
        // wrapped several times beforehand.
        let storm = 64usize;
        let margin = 16usize; // models min_ring_slots(feedback interval)
        let slots = storm + margin; // slots_for_consecutive_drops shape
        let mut up = PortTagger::new(slots);
        let mut down = GapDetector::new();
        // Wrap the ring many times with healthy traffic first; downstream
        // tracks the sequence the whole time.
        for n in 0..(slots as u32 * 7) {
            let seq = up.next(flow((n % 60_000) as u16));
            assert_eq!(down.observe(seq), None);
        }
        let mut lost = Vec::new();
        let mut recovered = Vec::new();
        let base = slots as u32 * 7;
        for i in 0..(storm as u32 + margin as u32) {
            let f = flow((7_000 + i) as u16);
            let seq = up.next(f);
            assert_eq!(seq, base + i);
            // The storm eats `storm` consecutive packets at the start.
            if i < storm as u32 {
                lost.push(f);
                continue;
            }
            if let Some((lo, hi)) = down.observe(seq) {
                for s in lo..=hi {
                    if let Some(found) = up.lookup(s) {
                        recovered.push(found);
                    }
                }
            }
        }
        assert_eq!(recovered, lost, "ring sized per capacity rule loses nothing");
    }

    #[test]
    fn ring_storm_beyond_capacity_misses_but_never_lies() {
        // A storm larger than the ring: older victims are overwritten.
        // The contract degrades to "fewer recoveries", never to "wrong
        // flow reported".
        let slots = 32usize;
        let mut up = PortTagger::new(slots);
        let mut down = GapDetector::new();
        assert_eq!(down.observe(up.next(flow(60_000))), None); // sync
        let storm = 100u32; // >> slots
        let mut truth = std::collections::HashMap::new();
        for i in 0..storm {
            let f = flow(i as u16);
            let seq = up.next(f);
            truth.insert(seq, f);
        }
        // One survivor reveals the gap.
        let survivor = flow(60_001);
        let seq = up.next(survivor);
        let (lo, hi) = down.observe(seq).expect("storm gap must be detected");
        assert_eq!((lo, hi), (1, storm));
        let mut recovered = 0;
        for s in lo..=hi {
            if let Some(found) = up.lookup(s) {
                assert_eq!(found, truth[&s], "reported flow must be the true victim");
                recovered += 1;
            }
        }
        assert!(recovered <= slots, "can't recover more than the ring holds");
        assert!(recovered > 0, "the most recent victims are still resident");
        assert!(up.lookup_misses > 0, "overwritten slots must miss, not lie");
    }

    #[test]
    fn end_to_end_loss_recovery() {
        // Upstream tags 100 packets; the wire eats 5; downstream detects
        // and upstream recovers exactly the victims' flows.
        let mut up = PortTagger::new(64);
        let mut down = GapDetector::new();
        let mut lost_flows = Vec::new();
        let mut recovered = Vec::new();
        for n in 0..100u16 {
            let seq = up.next(flow(n));
            let eaten = (40..45).contains(&n);
            if eaten {
                lost_flows.push(flow(n));
                continue;
            }
            if let Some((lo, hi)) = down.observe(seq) {
                for s in lo..=hi {
                    if let Some(f) = up.lookup(s) {
                        recovered.push(f);
                    }
                }
            }
        }
        assert_eq!(recovered, lost_flows);
    }
}
