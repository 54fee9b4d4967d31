//! Group-caching event deduplication — Algorithm 1 of the paper (§3.4).
//!
//! One hash table per event type; each entry stores an **exact** flow
//! 5-tuple, a counter, and a report target. The first packet of a flow
//! event is always reported (zero false negatives); subsequent packets of
//! the same flow event only bump the counter, with a refresher report every
//! `C` packets. A hash collision evicts the incumbent — both the evicted
//! flow (with its final counter) and the newcomer are reported, which can
//! produce *false positives* (repeated initial reports) that the switch CPU
//! later removes (§3.6).
//!
//! The table lives in a [`RegisterArray`] so the resource ledger charges it
//! like the stateful-ALU memory it would occupy on the ASIC.

use fet_packet::FlowKey;
use fet_pdp::{HashUnit, RegisterArray, ResourceLedger};

/// One group-cache entry. ~23 bytes of logical state (13 B flow + counter +
/// target), spanning two 128-bit stateful-ALU stages.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheEntry {
    flow: Option<FlowKey>,
    counter: u32,
    target: u32,
}

/// What `offer` decided (the produce_event calls of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// Suppressed: same flow, counter below target (lines 3–4).
    Suppressed {
        /// Counter value after increment.
        counter: u32,
    },
    /// Counter crossed the report target (lines 5–7): report a refresher.
    CounterReport {
        /// Counter value at the report.
        counter: u32,
    },
    /// New flow installed into an empty entry (lines 8–12): report it.
    NewFlow,
    /// New flow evicted an incumbent (lines 8–12): report both.
    Evicted {
        /// The evicted flow.
        old_flow: FlowKey,
        /// The evicted flow's counter at eviction.
        old_counter: u32,
    },
}

/// A group-caching deduplication table for one event type.
#[derive(Debug)]
pub struct GroupCache {
    table: RegisterArray<CacheEntry>,
    hash: HashUnit,
    c: u32,
    /// Packets offered.
    pub offered: u64,
    /// Reports produced (initial + eviction + counter reports).
    pub reports: u64,
}

impl GroupCache {
    /// Create a table with `entries` slots and report interval `c`.
    pub fn new(name: &'static str, entries: usize, c: u32, hash_seed: u32) -> Self {
        GroupCache {
            // 13B flow + 4B counter + 4B target + valid ≈ 176 bits/entry.
            table: RegisterArray::new(name, entries, 176),
            hash: HashUnit::new(hash_seed, 32),
            c: c.max(1),
            offered: 0,
            reports: 0,
        }
    }

    /// Offer one event packet of `flow`; returns what to report.
    /// This is Algorithm 1 verbatim.
    pub fn offer(&mut self, flow: FlowKey) -> DedupOutcome {
        self.offered += 1;
        let index = self.hash.index(&flow, self.table.len());
        let c = self.c;
        let entry = self.table.read(index);
        let outcome = if entry.flow == Some(flow) {
            let counter = entry.counter + 1;
            if counter >= entry.target {
                self.table.read_modify_write(index, |mut e| {
                    e.counter = counter;
                    e.target = entry.target + c;
                    e
                });
                DedupOutcome::CounterReport { counter }
            } else {
                self.table.read_modify_write(index, |mut e| {
                    e.counter = counter;
                    e
                });
                DedupOutcome::Suppressed { counter }
            }
        } else {
            let old = self.table.read_modify_write(index, |_| CacheEntry {
                flow: Some(flow),
                counter: 1,
                target: c,
            });
            match old.flow {
                Some(old_flow) => DedupOutcome::Evicted { old_flow, old_counter: old.counter },
                None => DedupOutcome::NewFlow,
            }
        };
        match outcome {
            DedupOutcome::Suppressed { .. } => {}
            DedupOutcome::Evicted { .. } => self.reports += 2,
            _ => self.reports += 1,
        }
        outcome
    }

    /// The data-plane pre-computed flow hash shipped in the event record.
    pub(crate) fn flow_hash(&self, flow: &FlowKey) -> u32 {
        self.hash.hash_flow(flow)
    }

    /// Report-suppression ratio achieved so far (the paper's ~95%).
    pub fn suppression_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - (self.reports as f64 / self.offered as f64)
    }

    /// Restart in place: forget every entry (control-plane table clear);
    /// the `offered`/`reports` telemetry stays.
    pub(crate) fn reset(&mut self) {
        self.table.clear();
    }

    /// Charge this table to a resource ledger.
    pub(crate) fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        self.table.account(ledger, module);
        self.hash.account(ledger, module);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_u32(0x0a00_0000 | n),
            (n % 50_000) as u16,
            Ipv4Addr::from_octets([10, 99, 0, 1]),
            80,
        )
    }

    #[test]
    fn first_packet_always_reported() {
        let mut gc = GroupCache::new("t", 1024, 100, 1);
        assert_eq!(gc.offer(flow(1)), DedupOutcome::NewFlow);
    }

    #[test]
    fn same_flow_suppressed_until_threshold() {
        let mut gc = GroupCache::new("t", 1024, 10, 1);
        assert_eq!(gc.offer(flow(1)), DedupOutcome::NewFlow);
        // Counter runs 2..9 suppressed; at 10 (== target) a report fires.
        for i in 2..10 {
            assert_eq!(gc.offer(flow(1)), DedupOutcome::Suppressed { counter: i });
        }
        assert_eq!(gc.offer(flow(1)), DedupOutcome::CounterReport { counter: 10 });
        // Then again at 20.
        for i in 11..20 {
            assert_eq!(gc.offer(flow(1)), DedupOutcome::Suppressed { counter: i });
        }
        assert_eq!(gc.offer(flow(1)), DedupOutcome::CounterReport { counter: 20 });
    }

    #[test]
    fn collision_reports_both_flows() {
        // Table of 1 entry: every flow collides.
        let mut gc = GroupCache::new("t", 1, 100, 1);
        assert_eq!(gc.offer(flow(1)), DedupOutcome::NewFlow);
        gc.offer(flow(1));
        gc.offer(flow(1));
        match gc.offer(flow(2)) {
            DedupOutcome::Evicted { old_flow, old_counter } => {
                assert_eq!(old_flow, flow(1));
                assert_eq!(old_counter, 3);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // Ping-pong back: flow(1) is reported again — the false positive
        // the switch CPU removes later.
        assert!(matches!(gc.offer(flow(1)), DedupOutcome::Evicted { .. }));
    }

    #[test]
    fn zero_false_negatives_under_collision_storm() {
        // Every flow that ever appears must be reported at least once,
        // even in a 4-entry table with 1000 flows.
        let mut gc = GroupCache::new("t", 4, 1_000_000, 1);
        let mut reported = std::collections::HashSet::new();
        for round in 0..3 {
            for n in 0..1000 {
                match gc.offer(flow(n)) {
                    DedupOutcome::NewFlow => {
                        reported.insert(flow(n));
                    }
                    DedupOutcome::Evicted { old_flow, .. } => {
                        reported.insert(old_flow);
                        reported.insert(flow(n));
                    }
                    DedupOutcome::CounterReport { .. } | DedupOutcome::Suppressed { .. } => {}
                }
            }
            let _ = round;
        }
        for n in 0..1000 {
            assert!(reported.contains(&flow(n)), "flow {n} never reported — false negative");
        }
    }

    #[test]
    fn suppression_ratio_high_for_heavy_flows() {
        // 10 flows, 10k packets each, big table: ~1 report per C packets.
        let mut gc = GroupCache::new("t", 4096, 128, 1);
        for _ in 0..10_000 {
            for n in 0..10 {
                gc.offer(flow(n));
            }
        }
        assert!(gc.suppression_ratio() > 0.95, "ratio {}", gc.suppression_ratio());
    }

    #[test]
    fn reset_forgets_table_and_keeps_counters() {
        let mut gc = GroupCache::new("t", 16, 10, 1);
        gc.offer(flow(1));
        gc.offer(flow(1));
        gc.reset();
        assert_eq!((gc.offered, gc.reports), (2, 1));
        assert_eq!(gc.offer(flow(1)), DedupOutcome::NewFlow);
    }

    #[test]
    fn c_of_zero_is_clamped() {
        let mut gc = GroupCache::new("t", 16, 0, 1);
        gc.offer(flow(1));
        // With c clamped to 1 every packet is a counter report, not a panic
        // or an infinite suppression.
        assert!(matches!(gc.offer(flow(1)), DedupOutcome::CounterReport { .. }));
    }
}

/// The bloom-filter deduplication alternative the paper rejects (§3.4):
/// memory-efficient, but hash collisions make it *drop first reports* —
/// false negatives, which are fatal for network exoneration. Included for
/// the ablation benchmark that reproduces that argument.
#[derive(Debug)]
pub struct BloomDedup {
    bits: Vec<u64>,
    nbits: usize,
    hashes: [HashUnit; 3],
    /// Packets offered.
    pub offered: u64,
    /// Reports produced.
    pub reports: u64,
}

impl BloomDedup {
    /// Create with `nbits` filter bits.
    pub fn new(nbits: usize, seed: u32) -> Self {
        let nbits = nbits.max(64);
        BloomDedup {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
            hashes: [
                HashUnit::new(seed ^ 0x1111, 32),
                HashUnit::new(seed ^ 0x2222, 32),
                HashUnit::new(seed ^ 0x3333, 32),
            ],
            offered: 0,
            reports: 0,
        }
    }

    /// Offer one event packet; returns true when it should be reported
    /// (i.e. the filter believes the flow is new).
    pub fn offer(&mut self, flow: fet_packet::FlowKey) -> bool {
        self.offered += 1;
        let mut all_set = true;
        let idxs: Vec<usize> =
            self.hashes.iter().map(|h| h.hash_flow(&flow) as usize % self.nbits).collect();
        for &i in &idxs {
            if self.bits[i / 64] & (1 << (i % 64)) == 0 {
                all_set = false;
            }
        }
        for &i in &idxs {
            self.bits[i / 64] |= 1 << (i % 64);
        }
        if !all_set {
            self.reports += 1;
        }
        !all_set
    }
}

#[cfg(test)]
mod bloom_tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn flow(n: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_u32(0x0a00_0000 | n),
            (n % 50_000) as u16,
            Ipv4Addr::from_octets([10, 99, 0, 1]),
            80,
        )
    }

    #[test]
    fn suppresses_repeats() {
        let mut b = BloomDedup::new(1 << 16, 1);
        assert!(b.offer(flow(1)));
        assert!(!b.offer(flow(1)));
        assert!(!b.offer(flow(1)));
    }

    #[test]
    fn saturated_filter_has_false_negatives() {
        // A deliberately tiny filter: with enough distinct flows, some
        // first reports get swallowed — the paper's §3.4 disqualifier.
        let mut b = BloomDedup::new(256, 1);
        let mut missed_first_report = 0;
        for n in 0..1_000 {
            if !b.offer(flow(n)) {
                missed_first_report += 1;
            }
        }
        assert!(missed_first_report > 0, "expected bloom false negatives");
    }

    #[test]
    fn group_cache_never_misses_where_bloom_does() {
        let mut bloom = BloomDedup::new(256, 1);
        let mut gc = GroupCache::new("gc", 16, 1_000_000, 1);
        let mut bloom_reported = std::collections::HashSet::new();
        let mut gc_reported = std::collections::HashSet::new();
        for n in 0..1_000 {
            if bloom.offer(flow(n)) {
                bloom_reported.insert(flow(n));
            }
            match gc.offer(flow(n)) {
                DedupOutcome::NewFlow => {
                    gc_reported.insert(flow(n));
                }
                DedupOutcome::Evicted { old_flow, .. } => {
                    gc_reported.insert(old_flow);
                    gc_reported.insert(flow(n));
                }
                _ => {}
            }
        }
        // Group caching reports every flow at least once; bloom does not.
        assert_eq!(gc_reported.len(), 1_000);
        assert!(bloom_reported.len() < 1_000);
    }
}
