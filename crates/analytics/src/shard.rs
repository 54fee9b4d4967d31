//! One analytics shard: a windowed aggregator plus a Space-Saving sketch,
//! with a per-shard [`AnalyticsLedger`] that accounts for every ingested
//! event so nothing disappears silently — the analytics-side extension of
//! the transport's `generated == delivered + shed + pending +
//! lost_to_crash` discipline.

use crate::topk::SpaceSaving;
use crate::window::{AggKey, WindowAggregator};
use netseer::StoredEvent;
/// Parks between merges of the reorder buffer's incoming chunk into its
/// sorted run: small enough to bound the forced-release scan, large
/// enough to keep the merge amortized-cheap per event.
const REORDER_CHUNK: usize = 256;

/// Disposition accounting for one shard (or, summed, the whole engine).
///
/// Identity: `ingested == aggregated + sketch_absorbed + shed_analytics
/// + late_shed + pending_reorder`.
///
/// Every event gets exactly one disposition:
/// * `aggregated` — the window aggregator accepted it (the common case);
/// * `sketch_absorbed` — the aggregator's key table was full but the event
///   is a loss/congestion report, so the top-k sketch (which never
///   rejects) still captured its flow;
/// * `shed_analytics` — neither structure could hold it; counted, not lost;
/// * `late_shed` — arrived behind the event-time watermark by more than
///   the lateness bound; booked, never silently dropped;
/// * `pending_reorder` — parked in the event-time reorder buffer, waiting
///   for the watermark (occupancy, not cumulative; drains to zero on
///   `ShardWorker::flush`).
///
/// `late_admitted` is a memo, *outside* the identity: events behind the
/// watermark but within the lateness bound are admitted and take one of
/// the three ordinary dispositions; the memo records how many took that
/// late path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyticsLedger {
    /// Events handed to the shard.
    pub ingested: u64,
    /// Accepted by the window aggregator.
    pub aggregated: u64,
    /// Refused by the aggregator, absorbed by the top-k sketch.
    pub sketch_absorbed: u64,
    /// Refused by both; accounted as analytics shed.
    pub shed_analytics: u64,
    /// Behind the watermark but within the lateness bound: admitted
    /// anyway (memo — these also count in one of the terms above).
    pub late_admitted: u64,
    /// Behind the watermark by more than the lateness bound: shed.
    pub late_shed: u64,
    /// Currently parked in the event-time reorder buffer.
    pub pending_reorder: u64,
}

impl AnalyticsLedger {
    fn accounted(&self) -> u64 {
        self.aggregated
            + self.sketch_absorbed
            + self.shed_analytics
            + self.late_shed
            + self.pending_reorder
    }

    /// True when the identity holds.
    pub fn balanced(&self) -> bool {
        self.ingested == self.accounted()
    }

    /// Events unaccounted for (0 when balanced).
    pub(crate) fn missing(&self) -> i64 {
        self.ingested as i64 - self.accounted() as i64
    }

    /// Panic with a full breakdown unless balanced.
    pub fn assert_balanced(&self) {
        assert!(
            self.balanced(),
            "analytics ledger unbalanced: ingested {} != aggregated {} + sketch_absorbed {} \
             + shed_analytics {} + late_shed {} + pending_reorder {} (missing {})",
            self.ingested,
            self.aggregated,
            self.sketch_absorbed,
            self.shed_analytics,
            self.late_shed,
            self.pending_reorder,
            self.missing()
        );
    }
}

impl std::ops::AddAssign for AnalyticsLedger {
    fn add_assign(&mut self, rhs: Self) {
        let AnalyticsLedger {
            ingested,
            aggregated,
            sketch_absorbed,
            shed_analytics,
            late_admitted,
            late_shed,
            pending_reorder,
        } = rhs;
        self.ingested += ingested;
        self.aggregated += aggregated;
        self.sketch_absorbed += sketch_absorbed;
        self.shed_analytics += shed_analytics;
        self.late_admitted += late_admitted;
        self.late_shed += late_shed;
        self.pending_reorder += pending_reorder;
    }
}

impl std::iter::Sum for AnalyticsLedger {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut acc, l| {
            acc += l;
            acc
        })
    }
}

/// One flow-hash shard: windows + sketch + ledger, with an optional
/// event-time front end (watermark + bounded reorder buffer).
#[derive(Debug, Clone)]
pub(crate) struct ShardWorker {
    /// Tumbling/sliding aggregates for this shard's flows.
    pub(crate) windows: WindowAggregator,
    /// Heaviest loss/congestion flows in this shard.
    pub(crate) topk: SpaceSaving,
    /// Disposition accounting.
    pub(crate) ledger: AnalyticsLedger,
    /// Watermark lag behind the max stamp seen, ns. With `reorder_cap`
    /// both zero the event-time front end is disabled and [`absorb`]
    /// (Self::absorb) is the exact arrival-order path.
    lateness_bound_ns: u64,
    /// Max parked events; an overflow releases the oldest immediately.
    reorder_cap: usize,
    /// Parked events sorted *descending* by (stamp, arrival tiebreak):
    /// the buffer minimum pops O(1) off the tail.
    sorted: Vec<(u64, u64, StoredEvent)>,
    /// Recent parks, unsorted; merged into `sorted` every
    /// [`REORDER_CHUNK`] parks so the merge stays amortized-O(1)/event.
    incoming: Vec<(u64, u64, StoredEvent)>,
    /// Minimum (stamp, arrival) key across `incoming` (`None` = empty).
    incoming_min: Option<(u64, u64)>,
    /// Merge scratch, reused to avoid per-merge allocation.
    scratch: Vec<(u64, u64, StoredEvent)>,
    /// Arrival tiebreak so equal stamps release in arrival order.
    arrival_seq: u64,
    /// Largest event-time stamp seen; the watermark trails it by
    /// `lateness_bound_ns`.
    max_stamp_ns: u64,
}

impl ShardWorker {
    /// A shard with the given window geometry and sketch capacity, in
    /// arrival-order (processing-time) mode.
    pub(crate) fn new(
        window_ns: u64,
        sliding_buckets: usize,
        max_agg_keys: usize,
        topk_k: usize,
    ) -> Self {
        ShardWorker {
            windows: WindowAggregator::new(window_ns, sliding_buckets, max_agg_keys),
            topk: SpaceSaving::new(topk_k),
            ledger: AnalyticsLedger::default(),
            lateness_bound_ns: 0,
            reorder_cap: 0,
            sorted: Vec::new(),
            incoming: Vec::new(),
            incoming_min: None,
            scratch: Vec::new(),
            arrival_seq: 0,
            max_stamp_ns: 0,
        }
    }

    /// Switch on the event-time front end: events sort in a reorder
    /// buffer (≤ `reorder_cap` parked) until the watermark — max stamp
    /// seen minus `lateness_bound_ns` — passes them; events arriving
    /// behind the watermark are admitted if within the bound, shed (and
    /// booked) otherwise. `(0, 0)` keeps the arrival-order path.
    pub(crate) fn with_event_time(mut self, lateness_bound_ns: u64, reorder_cap: usize) -> Self {
        self.lateness_bound_ns = lateness_bound_ns;
        self.reorder_cap = reorder_cap;
        self
    }

    /// True when the event-time front end is active.
    pub(crate) fn event_time_enabled(&self) -> bool {
        self.lateness_bound_ns > 0 || self.reorder_cap > 0
    }

    /// The current watermark: stamps below this are late.
    pub(crate) fn watermark_ns(&self) -> u64 {
        self.max_stamp_ns.saturating_sub(self.lateness_bound_ns)
    }

    /// Absorb one delivered event, assigning it exactly one disposition
    /// (possibly deferred through the reorder buffer).
    pub(crate) fn absorb(&mut self, e: &StoredEvent) {
        self.ledger.ingested += 1;
        if !self.event_time_enabled() {
            self.dispose(e);
            return;
        }
        let t = e.time_ns;
        let watermark = self.watermark_ns();
        if self.max_stamp_ns > 0 && t < watermark {
            // Late: behind the watermark. Within the bound it still
            // counts (the aggregator books it `late`, totals stay
            // exact); beyond the bound it is shed — and booked.
            if watermark - t <= self.lateness_bound_ns {
                self.ledger.late_admitted += 1;
                self.dispose(e);
            } else {
                self.ledger.late_shed += 1;
            }
            return;
        }
        self.max_stamp_ns = self.max_stamp_ns.max(t);
        self.arrival_seq += 1;
        let key = (t, self.arrival_seq);
        self.incoming_min = Some(match self.incoming_min {
            Some(m) if m < key => m,
            _ => key,
        });
        self.incoming.push((key.0, key.1, *e));
        if self.incoming.len() >= REORDER_CHUNK {
            self.compact();
        }
        self.ledger.pending_reorder += 1;
        if self.sorted.len() + self.incoming.len() > self.reorder_cap {
            // Cap overflow: release the oldest parked event now rather
            // than dropping anything.
            self.release_one();
        }
        self.release_ripe();
    }

    /// Sort the incoming chunk and merge it into the descending run.
    /// Amortized O(1) comparisons and sequential moves per parked event.
    fn compact(&mut self) {
        if self.incoming.is_empty() {
            return;
        }
        self.incoming.sort_unstable_by_key(|p| std::cmp::Reverse((p.0, p.1)));
        self.scratch.clear();
        self.scratch.reserve(self.sorted.len() + self.incoming.len());
        let (mut i, mut j) = (0, 0);
        while i < self.sorted.len() && j < self.incoming.len() {
            let (a, b) = (self.sorted[i], self.incoming[j]);
            if (a.0, a.1) > (b.0, b.1) {
                self.scratch.push(a);
                i += 1;
            } else {
                self.scratch.push(b);
                j += 1;
            }
        }
        self.scratch.extend_from_slice(&self.sorted[i..]);
        self.scratch.extend_from_slice(&self.incoming[j..]);
        std::mem::swap(&mut self.sorted, &mut self.scratch);
        self.incoming.clear();
        self.incoming_min = None;
    }

    /// The smallest parked (stamp, arrival) key, without releasing it.
    fn peek_min_key(&self) -> Option<(u64, u64)> {
        let run = self.sorted.last().map(|p| (p.0, p.1));
        match (run, self.incoming_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pop the oldest parked event and give it its final disposition.
    /// O(1) off the sorted run in the common case; a bounded
    /// O([`REORDER_CHUNK`]) scan when the minimum sits in the chunk.
    fn release_one(&mut self) {
        let from_incoming = match (self.sorted.last(), self.incoming_min) {
            (Some(s), Some(m)) => m < (s.0, s.1),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return,
        };
        let ev = if from_incoming {
            let mut k = 0;
            for (i, p) in self.incoming.iter().enumerate() {
                if (p.0, p.1) < (self.incoming[k].0, self.incoming[k].1) {
                    k = i;
                }
            }
            let p = self.incoming.swap_remove(k);
            self.incoming_min = self.incoming.iter().map(|p| (p.0, p.1)).min();
            p.2
        } else {
            self.sorted.pop().expect("sorted run nonempty on this branch").2
        };
        self.ledger.pending_reorder -= 1;
        self.dispose(&ev);
    }

    /// Release parked events the watermark has passed, in event-time
    /// order.
    fn release_ripe(&mut self) {
        let watermark = self.watermark_ns();
        while let Some((t, _)) = self.peek_min_key() {
            if t >= watermark {
                break;
            }
            self.release_one();
        }
    }

    /// Drain the reorder buffer unconditionally (end of stream): every
    /// parked event gets its final disposition and `pending_reorder`
    /// returns to zero.
    pub(crate) fn flush(&mut self) {
        self.compact();
        while let Some(p) = self.sorted.pop() {
            self.ledger.pending_reorder -= 1;
            self.dispose(&p.2);
        }
    }

    /// The final disposition: exactly the pre-event-time absorb logic.
    fn dispose(&mut self, e: &StoredEvent) {
        let weight = u64::from(e.record.counter.max(1));
        let interesting = e.record.ty.is_drop() || e.record.ty == fet_packet::EventType::Congestion;
        // Victim flows feed the sketch regardless of the aggregator's
        // verdict — the sketch ranks flows, the windows count keys, and
        // the two answer different questions.
        if interesting {
            self.topk.offer(e.record.flow, weight);
        }
        if self.windows.offer(e.time_ns, AggKey::of(e), weight) {
            self.ledger.aggregated += 1;
        } else if interesting {
            self.ledger.sketch_absorbed += 1;
        } else {
            self.ledger.shed_analytics += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn ev(device: u32, ty: EventType, time_ns: u64) -> StoredEvent {
        let detail = if ty.is_drop() {
            EventDetail::Drop { ingress_port: 1, egress_port: 2, code: DropCode::TableMiss }
        } else {
            EventDetail::Congestion { egress_port: 2, queue: 0, latency_us: 100 }
        };
        StoredEvent {
            time_ns,
            device,
            epoch: 0,
            seq: 0,
            record: EventRecord {
                ty,
                flow: FlowKey::tcp(
                    Ipv4Addr::from_u32(0x0a00_0000 | device),
                    1,
                    Ipv4Addr::from_octets([10, 9, 9, 9]),
                    80,
                ),
                detail,
                counter: 2,
                hash: device,
            },
        }
    }

    #[test]
    fn every_event_gets_exactly_one_disposition() {
        // max_agg_keys = 2: devices 1 and 2 aggregate, the rest overflow.
        let mut s = ShardWorker::new(100, 4, 2, 8);
        for device in 1..=6u32 {
            // Half drops (sketch-absorbable), half PathChange (sheddable).
            let ty = if device % 2 == 0 { EventType::PathChange } else { EventType::MmuDrop };
            s.absorb(&ev(device, ty, 10));
        }
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.ingested, 6);
        assert_eq!(s.ledger.aggregated, 2, "first two keys accepted");
        assert_eq!(s.ledger.sketch_absorbed, 2, "overflowing drops hit the sketch");
        assert_eq!(s.ledger.shed_analytics, 2, "overflowing path-changes shed");
    }

    #[test]
    fn drop_weight_reaches_the_sketch_even_when_aggregated() {
        let mut s = ShardWorker::new(100, 4, 64, 8);
        let e = ev(1, EventType::InterSwitchDrop, 5);
        s.absorb(&e);
        assert_eq!(s.ledger.aggregated, 1);
        let est = s.topk.entries().find(|x| x.flow == e.record.flow).map(|x| (x.count, x.error));
        assert_eq!(est, Some((2, 0)), "counter weight 2");
    }

    #[test]
    fn event_time_zero_config_is_exact_passthrough() {
        let mut a = ShardWorker::new(100, 4, 64, 8);
        let mut b = ShardWorker::new(100, 4, 64, 8).with_event_time(0, 0);
        for (i, t) in [500u64, 10, 350, 350, 90].into_iter().enumerate() {
            let e = ev(i as u32 % 3 + 1, EventType::MmuDrop, t);
            a.absorb(&e);
            b.absorb(&e);
        }
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.windows.totals(), b.windows.totals());
        assert_eq!(a.windows.late, b.windows.late);
    }

    #[test]
    fn reorder_buffer_releases_in_event_time_order() {
        let mut s = ShardWorker::new(100, 8, 64, 8).with_event_time(200, 16);
        // Stamps arrive shuffled; watermark (max - 200) releases them
        // sorted, so the aggregator books zero of its own `late`.
        for t in [300u64, 100, 250, 600, 420, 500, 900, 880] {
            s.absorb(&ev(1, EventType::MmuDrop, t));
        }
        s.flush();
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.pending_reorder, 0);
        assert_eq!(s.ledger.ingested, 8);
        assert_eq!(s.ledger.aggregated, 8);
        assert_eq!(s.ledger.late_shed, 0);
        assert_eq!(s.windows.late, 0, "reorder buffer absorbed the disorder");
    }

    #[test]
    fn deep_late_events_are_shed_and_booked() {
        let mut s = ShardWorker::new(100, 8, 64, 8).with_event_time(50, 4);
        s.absorb(&ev(1, EventType::MmuDrop, 10_000));
        // Watermark is 9_950; within-bound late admits, deeper sheds.
        s.absorb(&ev(1, EventType::MmuDrop, 9_920));
        s.absorb(&ev(1, EventType::MmuDrop, 3));
        s.flush();
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.late_admitted, 1);
        assert_eq!(s.ledger.late_shed, 1);
        assert_eq!(s.ledger.ingested, 3);
        assert_eq!(s.ledger.aggregated, 2, "the shed event never reached the windows");
    }

    #[test]
    fn cap_overflow_releases_oldest_instead_of_dropping() {
        let mut s = ShardWorker::new(100, 8, 64, 8).with_event_time(u64::MAX / 2, 2);
        // Watermark never advances past 0 (huge bound), so only the cap
        // can release events — and it must release, not drop.
        for t in [40u64, 10, 30, 20] {
            s.absorb(&ev(1, EventType::MmuDrop, t));
        }
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.pending_reorder, 2, "cap holds two parked");
        assert_eq!(s.ledger.aggregated, 2, "overflow released the two oldest");
        s.flush();
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.aggregated, 4);
        assert_eq!(s.ledger.late_shed, 0);
    }

    #[test]
    fn ledger_add_assign_sums_shards() {
        let mut a = AnalyticsLedger {
            ingested: 3,
            aggregated: 2,
            sketch_absorbed: 1,
            ..Default::default()
        };
        let b =
            AnalyticsLedger { ingested: 2, aggregated: 1, shed_analytics: 1, ..Default::default() };
        a += b;
        assert_eq!(a.ingested, 5);
        a.assert_balanced();
    }
}
