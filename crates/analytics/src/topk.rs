//! Space-Saving top-k sketch (Metwally, Agrawal, El Abbadi 2005) over
//! victim flows, in the HashPipe lineage of data-plane heavy-hitter
//! detection: a hard-bounded table of `k` counters that absorbs an
//! unbounded stream and answers "which flows did this fault hurt most?"
//! with a provable per-entry error bound.
//!
//! Guarantees (for total absorbed weight `W` and capacity `k`):
//!
//! * every entry reports `count` and `error` with
//!   `count - error <= true_weight <= count`;
//! * any flow whose true weight exceeds `W / k` is present in the table
//!   (zero false negatives above the guarantee threshold);
//! * memory is exactly `k` entries, whatever the stream does.

use fet_packet::FlowKey;
use std::collections::HashMap;

/// One reported heavy-hitter entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry {
    /// The victim flow.
    pub flow: FlowKey,
    /// Estimated weight (an overestimate: `true <= count`).
    pub count: u64,
    /// Maximum overestimation (`count - error <= true`).
    pub error: u64,
}

impl TopKEntry {
    /// Guaranteed lower bound on the flow's true weight.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.error
    }
}

/// The Space-Saving sketch: at most `k` monitored flows.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    k: usize,
    table: HashMap<FlowKey, (u64, u64)>, // flow -> (count, error)
    /// Offers absorbed (every offer is absorbed; the sketch never rejects).
    pub offered: u64,
    /// Total absorbed weight `W` (guarantee threshold is `W / k`).
    pub total_weight: u64,
    /// Evictions of the minimum entry (replacement pressure).
    pub evictions: u64,
}

impl SpaceSaving {
    /// A sketch tracking at most `k` flows (`k >= 1`).
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        SpaceSaving {
            k,
            table: HashMap::with_capacity(k),
            offered: 0,
            total_weight: 0,
            evictions: 0,
        }
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Monitored flows right now (≤ k).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing was offered yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Absorb one observation of `flow` with `weight`. Never rejects.
    pub fn offer(&mut self, flow: FlowKey, weight: u64) {
        let weight = weight.max(1);
        self.offered += 1;
        self.total_weight += weight;
        if let Some((count, _)) = self.table.get_mut(&flow) {
            *count += weight;
            return;
        }
        if self.table.len() < self.k {
            self.table.insert(flow, (weight, 0));
            return;
        }
        // Replace the minimum-count entry; ties break on the smallest flow
        // key so the same stream always evicts the same victim.
        let (&victim, &(min_count, _)) =
            self.table.iter().min_by_key(|&(f, &(c, _))| (c, *f)).expect("k >= 1 and table full");
        self.table.remove(&victim);
        // The newcomer inherits the victim's count as its error bound: its
        // true weight is at most `min_count + weight`, at least `weight`.
        self.table.insert(flow, (min_count + weight, min_count));
        self.evictions += 1;
    }

    /// The top `n` entries, heaviest first (deterministic tie-break on the
    /// flow key).
    pub fn top(&self, n: usize) -> Vec<TopKEntry> {
        heaviest(self.entries().collect(), n)
    }

    /// Every monitored entry, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = TopKEntry> + '_ {
        self.table.iter().map(|(&flow, &(count, error))| TopKEntry { flow, count, error })
    }

    /// The smallest monitored count (the eviction bar; 0 while not full).
    pub fn min_count(&self) -> u64 {
        if self.table.len() < self.k {
            return 0;
        }
        self.table.values().map(|&(c, _)| c).min().unwrap_or(0)
    }

    /// Estimated (count, error) for a flow, if monitored.
    pub fn estimate(&self, flow: &FlowKey) -> Option<(u64, u64)> {
        self.table.get(flow).copied()
    }
}

/// The `n` heaviest of `v`, heaviest first, ties broken on the flow key.
/// Flows must be distinct, so the order is total and the result exact.
pub(crate) fn heaviest(mut v: Vec<TopKEntry>, n: usize) -> Vec<TopKEntry> {
    let order = |a: &TopKEntry, b: &TopKEntry| b.count.cmp(&a.count).then(a.flow.cmp(&b.flow));
    if n < v.len() {
        v.select_nth_unstable_by(n, order);
        v.truncate(n);
    }
    v.sort_unstable_by(order);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_u32(0x0a00_0000 | n),
            (n % 60_000) as u16,
            Ipv4Addr::from_octets([10, 200, 0, 1]),
            80,
        )
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(8);
        for n in 0..5u32 {
            for _ in 0..=n {
                s.offer(flow(n), 1);
            }
        }
        for n in 0..5u32 {
            assert_eq!(s.estimate(&flow(n)), Some((u64::from(n) + 1, 0)));
        }
        assert_eq!(s.min_count(), 0, "not full yet");
        let top = s.top(2);
        assert_eq!(top[0].flow, flow(4));
        assert_eq!(top[1].flow, flow(3));
    }

    #[test]
    fn error_bounds_hold_under_eviction() {
        let mut s = SpaceSaving::new(4);
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        // A skewed stream: flows 0..3 heavy, 4..20 light noise.
        for round in 0..50u32 {
            for n in 0..4u32 {
                s.offer(flow(n), 3);
                *truth.entry(flow(n)).or_default() += 3;
            }
            let noise = 4 + (round % 17);
            s.offer(flow(noise), 1);
            *truth.entry(flow(noise)).or_default() += 1;
        }
        for e in s.top(4) {
            let t = truth.get(&e.flow).copied().unwrap_or(0);
            assert!(t <= e.count, "true {t} > count {} for {:?}", e.count, e.flow);
            assert!(e.guaranteed() <= t, "lower bound {} > true {t}", e.guaranteed());
        }
    }

    #[test]
    fn heavy_hitters_above_threshold_never_evicted() {
        let mut s = SpaceSaving::new(8);
        // One flow takes half the total weight; it must be present.
        for i in 0..1000u32 {
            s.offer(flow(0), 1);
            s.offer(flow(1 + (i % 100)), 1);
        }
        assert!(s.estimate(&flow(0)).is_some(), "flow above W/k must survive");
        assert_eq!(s.top(1)[0].flow, flow(0));
        assert!(s.total_weight / 8 < 1000);
    }

    #[test]
    fn memory_is_hard_bounded() {
        let mut s = SpaceSaving::new(16);
        for n in 0..10_000u32 {
            s.offer(flow(n), 1);
        }
        assert_eq!(s.len(), 16);
        assert_eq!(s.offered, 10_000);
        assert!(s.evictions > 0);
    }

    #[test]
    fn entries_and_top_agree() {
        let mut s = SpaceSaving::new(8);
        for n in 0..6u32 {
            s.offer(flow(n), u64::from(n % 3) + 1);
        }
        let mut all: Vec<TopKEntry> = s.entries().collect();
        assert_eq!(all.len(), 6);
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.flow.cmp(&b.flow)));
        for n in 0..=7 {
            assert_eq!(s.top(n), all[..n.min(all.len())], "top({n})");
        }
    }
}
