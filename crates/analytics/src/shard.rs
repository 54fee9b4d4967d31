//! One analytics shard: a capped per-key count table plus a
//! Space-Saving sketch, with a per-shard [`AnalyticsLedger`] that
//! accounts for every ingested event so nothing disappears silently —
//! the analytics-side extension of the transport's `generated ==
//! delivered + shed + pending + lost_to_crash` discipline.

use crate::engine::AnalyticsConfig;
use crate::topk::SpaceSaving;
use fet_packet::event::{DropCode, EventDetail, EventType};
use netseer::StoredEvent;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

/// Event-time buckets in the reorder ring. Parked stamps lie within the
/// lateness bound below the max stamp, and the bound spans at most
/// `RING - 2` buckets, so events a lap apart never share a slot.
const RING: usize = 256;

/// A parked event, ordered by its release key.
#[derive(Debug, Clone, Copy)]
struct Parked {
    /// Tiebreak so equal stamps release in arrival order.
    arrival: u64,
    event: StoredEvent,
}

impl Parked {
    /// (stamp, arrival): unique per shard, so a total order.
    fn key(&self) -> (u64, u64) {
        (self.event.time_ns, self.arrival)
    }
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Parked {}

impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Parked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

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
    fn of(e: &StoredEvent) -> Self {
        let reason = match e.record.detail {
            EventDetail::Drop { code, .. } => Some(code),
            _ => None,
        };
        AggKey { device: e.device, ty: e.record.ty, reason }
    }

    /// Deterministic sort key (DropCode has no Ord; use wire codes).
    pub(crate) fn order(&self) -> (u32, u8, u8) {
        (self.device, self.ty.code(), self.reason.map_or(0, |c| c.code()))
    }
}

/// Cumulative counts for one key since the engine started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Event records aggregated.
    pub events: u64,
    /// Total weight (the records' packet counters — a counter report for
    /// 128 suppressed packets weighs 128, not 1).
    pub weight: u64,
}

impl WindowStats {
    /// Fold `other` into these counts.
    pub(crate) fn merge(&mut self, other: WindowStats) {
        self.events += other.events;
        self.weight += other.weight;
    }
}

/// Disposition accounting for one shard (or, summed, the whole engine).
///
/// Identity: `ingested == aggregated + sketch_absorbed + shed_analytics
/// + late_shed + pending_reorder`.
///
/// Every event gets exactly one disposition:
/// * `aggregated` — the shard's per-key table counted it (the common case);
/// * `sketch_absorbed` — the per-key table was full but the event
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
    /// Counted in the per-key table.
    pub aggregated: u64,
    /// Refused by the full per-key table, absorbed by the top-k sketch.
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

/// One flow-hash shard: per-key totals + sketch + ledger, with an
/// optional event-time front end (watermark + bounded reorder buffer).
#[derive(Debug, Clone)]
pub(crate) struct ShardWorker {
    /// Cumulative counts per (device, type, reason) for this shard's
    /// flows, at most `max_agg_keys` keys.
    pub(crate) totals: HashMap<AggKey, WindowStats>,
    max_agg_keys: usize,
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
    /// Parked events in buckets after `front_bucket`, unsorted, at
    /// `(stamp >> bucket_shift) % RING`.
    ring: Vec<Vec<Parked>>,
    /// Log2 of the bucket width, ns.
    bucket_shift: u32,
    /// Parked events of bucket `front_bucket`, sorted descending: the
    /// next release pops off the tail.
    front: Vec<Parked>,
    /// Events parked after their bucket was opened into `front`: a
    /// min-heap, so such a park costs O(log n) however full the bucket.
    opened: BinaryHeap<Reverse<Parked>>,
    /// The last bucket opened into `front`.
    front_bucket: u64,
    /// Arrival tiebreak so equal stamps release in arrival order.
    arrival_seq: u64,
    /// Largest event-time stamp seen; the watermark trails it by
    /// `lateness_bound_ns`.
    max_stamp_ns: u64,
}

impl ShardWorker {
    /// A shard with `cfg`'s key cap and sketch capacity. With
    /// `cfg.lateness_bound_ns` and `cfg.reorder_cap` both zero it runs
    /// the arrival-order (processing-time) path; otherwise events sort
    /// in a reorder buffer (≤ `reorder_cap` parked) until the watermark
    /// — max stamp seen minus `lateness_bound_ns` — passes them, and
    /// events arriving behind the watermark are admitted if within the
    /// bound, shed (and booked) otherwise.
    pub(crate) fn new(cfg: &AnalyticsConfig) -> Self {
        ShardWorker {
            totals: HashMap::new(),
            max_agg_keys: cfg.max_agg_keys.max(1),
            topk: SpaceSaving::new(cfg.topk_k),
            ledger: AnalyticsLedger::default(),
            lateness_bound_ns: cfg.lateness_bound_ns,
            reorder_cap: cfg.reorder_cap,
            ring: vec![Vec::new(); RING],
            // Buckets just wide enough that `lateness_bound_ns >> shift < RING - 2`.
            bucket_shift: u64::BITS - (cfg.lateness_bound_ns / (RING as u64 - 2)).leading_zeros(),
            front: Vec::new(),
            opened: BinaryHeap::new(),
            front_bucket: 0,
            arrival_seq: 0,
            max_stamp_ns: 0,
        }
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
            // counts (totals stay exact); beyond the bound it is shed —
            // and booked.
            if watermark - t <= self.lateness_bound_ns {
                self.ledger.late_admitted += 1;
                self.dispose(e);
            } else {
                self.ledger.late_shed += 1;
            }
            return;
        }
        self.max_stamp_ns = self.max_stamp_ns.max(t);
        // Releasing before parking leaves every parked stamp within the
        // bound below the max, so the ring cannot alias; it releases the
        // same events in the same order as parking first would.
        self.release_ripe();
        self.park(e);
        if self.ledger.pending_reorder > self.reorder_cap as u64 {
            // Cap overflow: release the oldest parked event now rather
            // than dropping anything.
            self.release_one();
        }
    }

    /// Park `e` until the watermark passes it: in its ring bucket, or
    /// in `opened` if that bucket is already open.
    fn park(&mut self, e: &StoredEvent) {
        self.arrival_seq += 1;
        let p = Parked { arrival: self.arrival_seq, event: *e };
        let bucket = e.time_ns >> self.bucket_shift;
        if self.ledger.pending_reorder == 0 {
            self.front_bucket = bucket;
        }
        if bucket <= self.front_bucket {
            self.opened.push(Reverse(p));
        } else {
            self.ring[bucket as usize % RING].push(p);
        }
        self.ledger.pending_reorder += 1;
    }

    /// The release key of the oldest parked event and whether it sits in
    /// `opened`. Opens ring buckets in order while nothing open is left.
    fn next_release(&mut self) -> Option<((u64, u64), bool)> {
        while self.front.is_empty() && self.opened.is_empty() && self.ledger.pending_reorder > 0 {
            self.front_bucket += 1;
            let bucket = &mut self.ring[self.front_bucket as usize % RING];
            std::mem::swap(&mut self.front, bucket);
            // The drained front goes back to the ring with room for a
            // typical bucket, so one burst's capacity is not kept in
            // every slot it passes through.
            bucket.shrink_to(16);
            self.front.sort_unstable_by(|a, b| b.cmp(a));
        }
        let front = self.front.last().map(|p| (p.key(), false));
        let opened = self.opened.peek().map(|Reverse(p)| (p.key(), true));
        match (front, opened) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Release the oldest parked event to its final disposition.
    fn release_one(&mut self) {
        if let Some((_, opened)) = self.next_release() {
            self.release(opened);
        }
    }

    /// Release parked events the watermark has passed, in event-time
    /// order.
    fn release_ripe(&mut self) {
        let watermark = self.watermark_ns();
        while let Some(((t, _), opened)) = self.next_release() {
            if t >= watermark {
                break;
            }
            self.release(opened);
        }
    }

    /// Pop the event [`next_release`](Self::next_release) found and
    /// give it its final disposition.
    fn release(&mut self, opened: bool) {
        let parked = if opened { self.opened.pop().map(|Reverse(p)| p) } else { self.front.pop() };
        let p = parked.expect("next_release found a parked event");
        self.ledger.pending_reorder -= 1;
        self.dispose(&p.event);
    }

    /// Drain the reorder buffer unconditionally (end of stream): every
    /// parked event gets its final disposition and `pending_reorder`
    /// returns to zero.
    pub(crate) fn flush(&mut self) {
        while self.ledger.pending_reorder > 0 {
            self.release_one();
        }
    }

    /// The final disposition: exactly the pre-event-time absorb logic.
    /// A new key is refused once the table holds `max_agg_keys`, leaving
    /// the table untouched so the event takes another disposition.
    fn dispose(&mut self, e: &StoredEvent) {
        let weight = u64::from(e.record.counter.max(1));
        let interesting = e.record.ty.is_drop() || e.record.ty == EventType::Congestion;
        // Victim flows feed the sketch regardless of the table's verdict
        // — the sketch ranks flows, the table counts keys, and the two
        // answer different questions.
        if interesting {
            self.topk.offer(e.record.flow, weight);
        }
        let key = AggKey::of(e);
        if self.totals.len() < self.max_agg_keys || self.totals.contains_key(&key) {
            self.totals.entry(key).or_default().merge(WindowStats { events: 1, weight });
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
    use fet_netsim::rng::Pcg32;
    use fet_packet::event::EventRecord;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    /// A shard with the given key cap and event-time front end, k = 8.
    fn shard(max_agg_keys: usize, lateness_bound_ns: u64, reorder_cap: usize) -> ShardWorker {
        ShardWorker::new(&AnalyticsConfig {
            max_agg_keys,
            topk_k: 8,
            lateness_bound_ns,
            reorder_cap,
            ..AnalyticsConfig::default()
        })
    }

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
        let mut s = shard(2, 0, 0);
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
    fn key_cap_refuses_without_side_effects() {
        let mut s = shard(2, 0, 0);
        let key = |device| AggKey::of(&ev(device, EventType::PathChange, 0));
        s.absorb(&ev(1, EventType::PathChange, 0));
        s.absorb(&ev(2, EventType::PathChange, 0));
        s.absorb(&ev(3, EventType::PathChange, 0));
        assert_eq!(s.ledger.shed_analytics, 1, "third key must be refused");
        assert!(!s.totals.contains_key(&key(3)), "a refused key leaves no entry");
        // Existing keys still aggregate.
        s.absorb(&ev(1, EventType::PathChange, 0));
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.aggregated, 3);
        assert_eq!(s.totals.len(), 2);
        assert_eq!(s.totals[&key(1)], WindowStats { events: 2, weight: 4 });
        assert_eq!(s.totals[&key(2)], WindowStats { events: 1, weight: 2 });
    }

    #[test]
    fn drop_weight_reaches_the_sketch_even_when_aggregated() {
        let mut s = shard(64, 0, 0);
        let e = ev(1, EventType::InterSwitchDrop, 5);
        s.absorb(&e);
        assert_eq!(s.ledger.aggregated, 1);
        let est = s.topk.entries().find(|x| x.flow == e.record.flow).map(|x| (x.count, x.error));
        assert_eq!(est, Some((2, 0)), "counter weight 2");
    }

    #[test]
    fn event_time_zero_config_is_exact_passthrough() {
        // (0, 0) disposes each event on arrival, whatever its stamp: no
        // event parks, none is late, and the totals are the plain
        // per-key counts of the stream.
        let mut s = shard(64, 0, 0);
        let mut want: HashMap<AggKey, WindowStats> = HashMap::new();
        for (i, t) in [500u64, 10, 350, 350, 90].into_iter().enumerate() {
            let e = ev(i as u32 % 3 + 1, EventType::MmuDrop, t);
            s.absorb(&e);
            want.entry(AggKey::of(&e)).or_default().merge(WindowStats { events: 1, weight: 2 });
            assert_eq!(s.ledger.aggregated, i as u64 + 1, "event {i} disposed on arrival");
            assert_eq!(s.ledger.pending_reorder, 0);
        }
        s.ledger.assert_balanced();
        assert_eq!((s.ledger.late_admitted, s.ledger.late_shed), (0, 0));
        assert_eq!(s.totals, want);
    }

    /// The order in which a shard releases events stamped `stamps`, one
    /// device (hence one key) each. With the key cap at `k` the table
    /// admits exactly the keys of the first `k` events released, so
    /// stepping `k` up from 1 reads the order off the table.
    fn release_order(stamps: &[u64], bound: u64, cap: usize) -> Vec<usize> {
        let mut order = Vec::new();
        loop {
            let mut s = shard(order.len() + 1, bound, cap);
            for (device, &t) in stamps.iter().enumerate() {
                s.absorb(&ev(device as u32, EventType::MmuDrop, t));
            }
            s.flush();
            s.ledger.assert_balanced();
            assert_eq!(s.ledger.pending_reorder, 0);
            match s.totals.keys().map(|k| k.device as usize).find(|d| !order.contains(d)) {
                Some(d) => order.push(d),
                None => return order,
            }
        }
    }

    /// The reorder contract, run naively: park, release the oldest on
    /// cap overflow, then release whatever the watermark has passed;
    /// late events are admitted on arrival within the bound, never
    /// released beyond it.
    fn naive_release_order(stamps: &[u64], bound: u64, cap: usize) -> Vec<usize> {
        let (mut max, mut parked, mut out) = (0u64, Vec::<(u64, usize)>::new(), Vec::new());
        let pop_oldest = |parked: &mut Vec<(u64, usize)>| {
            let i = (0..parked.len()).min_by_key(|&i| parked[i]).expect("parked");
            parked.remove(i).1
        };
        for (i, &t) in stamps.iter().enumerate() {
            let watermark = max.saturating_sub(bound);
            if max > 0 && t < watermark {
                if watermark - t <= bound {
                    out.push(i);
                }
                continue;
            }
            max = max.max(t);
            parked.push((t, i));
            if parked.len() > cap {
                out.push(pop_oldest(&mut parked));
            }
            let watermark = max.saturating_sub(bound);
            while parked.iter().any(|p| p.0 < watermark) {
                out.push(pop_oldest(&mut parked));
            }
        }
        parked.sort_unstable();
        out.extend(parked.iter().map(|p| p.1));
        out
    }

    #[test]
    fn reorder_buffer_releases_in_event_time_order() {
        let stamps = [300u64, 100, 250, 600, 420, 500, 900, 880];
        let released: Vec<u64> =
            release_order(&stamps, 200, 16).into_iter().map(|d| stamps[d]).collect();
        let mut sorted = stamps;
        sorted.sort_unstable();
        assert_eq!(released, sorted, "watermark releases in event-time order");
    }

    #[test]
    fn reorder_buffer_matches_naive_model() {
        // A slowly rising clock; each stamp is the clock itself, the
        // watermark give or take a few ns (often landing in a bucket
        // already opened), or up to 2.5 bounds behind (late admits and
        // sheds). Equal stamps, many laps of the bucket ring, and caps
        // small enough to force overflow releases all occur.
        for (seed, bound) in [0u64, 3, 1_000, 1 << 40].into_iter().enumerate() {
            for cap in [1usize, 4, 16, 1_000] {
                let mut rng = Pcg32::new(seed as u64, cap as u64);
                let b = bound.min(1 << 20);
                let mut clock = b;
                let stamps: Vec<u64> = (0..200)
                    .map(|_| {
                        clock += u64::from(rng.next_below(b as u32 / 8 + 2));
                        match rng.next_below(3) {
                            0 => clock,
                            1 => clock - b + u64::from(rng.next_below(8)),
                            _ => clock
                                .saturating_sub(u64::from(rng.next_below(b as u32 * 5 / 2 + 1))),
                        }
                    })
                    .collect();
                assert_eq!(
                    release_order(&stamps, bound, cap),
                    naive_release_order(&stamps, bound, cap),
                    "bound {bound}, cap {cap}"
                );
            }
        }
    }

    #[test]
    fn deep_late_events_are_shed_and_booked() {
        let mut s = shard(64, 50, 4);
        s.absorb(&ev(1, EventType::MmuDrop, 10_000));
        // Watermark is 9_950; within-bound late admits, deeper sheds.
        s.absorb(&ev(1, EventType::MmuDrop, 9_920));
        s.absorb(&ev(1, EventType::MmuDrop, 3));
        s.flush();
        s.ledger.assert_balanced();
        assert_eq!(s.ledger.late_admitted, 1);
        assert_eq!(s.ledger.late_shed, 1);
        assert_eq!(s.ledger.ingested, 3);
        assert_eq!(s.ledger.aggregated, 2, "the shed event never reached the table");
    }

    #[test]
    fn cap_overflow_releases_oldest_instead_of_dropping() {
        let mut s = shard(64, u64::MAX / 2, 2);
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
