//! Tumbling + sliding time-window aggregates per (device, event type,
//! drop reason), in the bounded-memory spirit of compact telemetry
//! summaries: the key table and the bucket ring are both hard-capped, and
//! an offer that would grow past the cap is *refused* (the caller routes
//! the event to the top-k sketch or the shed counter — never silently
//! dropped).

use fet_packet::event::{DropCode, EventDetail, EventType};
use netseer::StoredEvent;
use std::collections::{HashMap, VecDeque};

/// The aggregation key: where, what, and (for drops) why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggKey {
    /// Reporting device.
    pub device: u32,
    /// Event class.
    pub ty: EventType,
    /// Drop reason for the three drop classes, `None` otherwise.
    pub reason: Option<DropCode>,
}

impl AggKey {
    /// The key of a stored event.
    pub(crate) fn of(e: &StoredEvent) -> Self {
        let reason = match e.record.detail {
            EventDetail::Drop { code, .. } => Some(code),
            _ => None,
        };
        AggKey { device: e.device, ty: e.record.ty, reason }
    }

    /// Deterministic sort key (DropCode has no Ord; use wire codes).
    fn order(&self) -> (u32, u8, u8) {
        (self.device, self.ty.code(), self.reason.map_or(0, |c| c.code()))
    }
}

/// Aggregate counts for one key in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Event records aggregated.
    pub events: u64,
    /// Total weight (the records' packet counters — a counter report for
    /// 128 suppressed packets weighs 128, not 1).
    pub weight: u64,
}

impl WindowStats {
    fn add(&mut self, weight: u64) {
        self.events += 1;
        self.weight += weight;
    }
}

/// Bounded tumbling-window aggregator with a sliding view over the last
/// `sliding_buckets` windows and cumulative per-key totals.
#[derive(Debug, Clone)]
pub(crate) struct WindowAggregator {
    width_ns: u64,
    sliding_buckets: usize,
    max_keys: usize,
    /// Retained tumbling buckets, oldest first: (bucket index, per-key stats).
    buckets: VecDeque<(u64, HashMap<AggKey, WindowStats>)>,
    totals: HashMap<AggKey, WindowStats>,
    /// Events accepted into the aggregates.
    pub(crate) aggregated: u64,
    /// Offers refused because a new key would exceed `max_keys`.
    pub(crate) rejected: u64,
    /// Accepted events older than the oldest retained bucket (they count
    /// in `totals` but have no tumbling bucket anymore).
    pub(crate) late: u64,
}

impl WindowAggregator {
    /// A new aggregator: `width_ns` per tumbling window, a sliding view of
    /// `sliding_buckets` windows, at most `max_keys` distinct keys.
    pub(crate) fn new(width_ns: u64, sliding_buckets: usize, max_keys: usize) -> Self {
        WindowAggregator {
            width_ns: width_ns.max(1),
            sliding_buckets: sliding_buckets.max(1),
            max_keys: max_keys.max(1),
            buckets: VecDeque::new(),
            totals: HashMap::new(),
            aggregated: 0,
            rejected: 0,
            late: 0,
        }
    }

    /// The bucket index covering time `t`.
    pub(crate) fn bucket_of(&self, t: u64) -> u64 {
        t / self.width_ns
    }

    /// Offer one event: true = aggregated, false = refused (key table
    /// full). A refusal leaves the aggregator untouched so the caller can
    /// give the event another disposition.
    pub(crate) fn offer(&mut self, time_ns: u64, key: AggKey, weight: u64) -> bool {
        if !self.totals.contains_key(&key) && self.totals.len() >= self.max_keys {
            self.rejected += 1;
            return false;
        }
        let weight = weight.max(1);
        self.totals.entry(key).or_default().add(weight);
        self.aggregated += 1;
        let bucket = self.bucket_of(time_ns);
        // Deliveries are per-device ordered but may interleave slightly
        // across devices: place the event in its (possibly out-of-order)
        // bucket if the ring still covers it, else count it late.
        if self.buckets.front().is_some_and(|&(oldest, _)| bucket < oldest) {
            self.late += 1;
            return true;
        }
        match self.buckets.iter().position(|&(b, _)| b >= bucket) {
            Some(i) if self.buckets[i].0 == bucket => {
                self.buckets[i].1.entry(key).or_default().add(weight);
            }
            Some(i) => {
                let mut map = HashMap::new();
                map.entry(key).or_insert_with(WindowStats::default).add(weight);
                self.buckets.insert(i, (bucket, map));
            }
            None => {
                let mut map = HashMap::new();
                map.entry(key).or_insert_with(WindowStats::default).add(weight);
                self.buckets.push_back((bucket, map));
            }
        }
        while self.buckets.len() > self.sliding_buckets {
            self.buckets.pop_front();
        }
        true
    }

    /// The tumbling aggregate of one bucket, if still retained.
    #[cfg(test)]
    fn tumbling(&self, bucket: u64) -> Option<&HashMap<AggKey, WindowStats>> {
        self.buckets.iter().find(|(b, _)| *b == bucket).map(|(_, m)| m)
    }

    /// The sliding aggregate: every retained bucket summed per key.
    #[cfg(test)]
    fn sliding(&self) -> HashMap<AggKey, WindowStats> {
        let mut out: HashMap<AggKey, WindowStats> = HashMap::new();
        for (_, map) in &self.buckets {
            for (&k, s) in map {
                let e = out.entry(k).or_default();
                e.events += s.events;
                e.weight += s.weight;
            }
        }
        out
    }

    /// Cumulative total for one key.
    #[cfg(test)]
    fn total(&self, key: &AggKey) -> WindowStats {
        self.totals.get(key).copied().unwrap_or_default()
    }

    /// All cumulative totals, deterministically ordered.
    pub(crate) fn totals(&self) -> Vec<(AggKey, WindowStats)> {
        let mut v: Vec<(AggKey, WindowStats)> = self.totals.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by_key(|(k, _)| k.order());
        v
    }

    /// Fold another aggregator's totals into this one (per-shard merge).
    /// Only the cumulative totals merge; tumbling buckets stay per-shard.
    pub(crate) fn merge_totals_from(&mut self, other: &WindowAggregator) {
        for (&k, s) in &other.totals {
            let e = self.totals.entry(k).or_default();
            e.events += s.events;
            e.weight += s.weight;
        }
        self.aggregated += other.aggregated;
        self.rejected += other.rejected;
        self.late += other.late;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(device: u32, ty: EventType) -> AggKey {
        AggKey { device, ty, reason: None }
    }

    #[test]
    fn tumbling_buckets_split_on_width() {
        let mut w = WindowAggregator::new(100, 4, 64);
        assert!(w.offer(10, key(1, EventType::Congestion), 1));
        assert!(w.offer(99, key(1, EventType::Congestion), 2));
        assert!(w.offer(100, key(1, EventType::Congestion), 1));
        let b0 = w.tumbling(0).unwrap();
        assert_eq!(b0[&key(1, EventType::Congestion)], WindowStats { events: 2, weight: 3 });
        let b1 = w.tumbling(1).unwrap();
        assert_eq!(b1[&key(1, EventType::Congestion)], WindowStats { events: 1, weight: 1 });
    }

    #[test]
    fn sliding_view_sums_retained_buckets_only() {
        let mut w = WindowAggregator::new(100, 2, 64);
        let k = key(7, EventType::Pause);
        w.offer(50, k, 1); // bucket 0 — will be evicted
        w.offer(150, k, 1); // bucket 1
        w.offer(250, k, 1); // bucket 2 — evicts bucket 0
        assert!(w.tumbling(0).is_none(), "bucket 0 out of the ring");
        assert_eq!(w.sliding()[&k].events, 2);
        // Cumulative totals still see everything.
        assert_eq!(w.total(&k).events, 3);
    }

    #[test]
    fn key_cap_refuses_without_side_effects() {
        let mut w = WindowAggregator::new(100, 4, 2);
        assert!(w.offer(0, key(1, EventType::Congestion), 1));
        assert!(w.offer(0, key(2, EventType::Congestion), 1));
        assert!(!w.offer(0, key(3, EventType::Congestion), 1), "third key must be refused");
        // Existing keys still aggregate.
        assert!(w.offer(0, key(1, EventType::Congestion), 5));
        assert_eq!(w.rejected, 1);
        assert_eq!(w.aggregated, 3);
        assert_eq!(w.totals().len(), 2);
        assert_eq!(w.total(&key(1, EventType::Congestion)).weight, 6);
    }

    #[test]
    fn late_events_count_in_totals_not_buckets() {
        let mut w = WindowAggregator::new(100, 2, 64);
        let k = key(1, EventType::MmuDrop);
        w.offer(500, k, 1); // bucket 5
        w.offer(650, k, 1); // bucket 6
        assert!(w.offer(10, k, 1), "late event still aggregates");
        assert_eq!(w.late, 1);
        assert_eq!(w.total(&k).events, 3);
        assert_eq!(w.sliding()[&k].events, 2, "late event has no bucket");
    }
}
