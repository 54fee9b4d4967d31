//! Backend event storage and the operator query interface (§3.2 step 4):
//! "Operators could flexibly query the storage by specifying a flow,
//! event, device, or period and obtain related flow events."

use fet_packet::event::{EventRecord, EventType};
use fet_packet::FlowKey;
use std::collections::{BTreeSet, HashMap};

/// One event at rest in the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredEvent {
    /// Backend receive time, ns.
    pub time_ns: u64,
    /// Reporting device.
    pub device: u32,
    /// Sender connection epoch at delivery time (bumped per device
    /// restart). `(device, epoch, seq)` is the exactly-once dedup key.
    pub epoch: u32,
    /// Per-device delivery sequence number (monotonic across epochs).
    pub seq: u64,
    /// The 24-byte record.
    pub record: EventRecord,
}

/// A query: every field is an optional conjunctive filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Query {
    /// Restrict to one flow.
    pub(crate) flow: Option<FlowKey>,
    /// Restrict to one device.
    pub(crate) device: Option<u32>,
    /// Restrict to one event type.
    pub(crate) ty: Option<EventType>,
    /// Restrict to a half-open time window `[from, to)`.
    pub(crate) window: Option<(u64, u64)>,
}

impl Query {
    /// Match everything.
    pub fn any() -> Self {
        Query::default()
    }

    /// Filter by flow.
    pub fn flow(mut self, f: FlowKey) -> Self {
        self.flow = Some(f);
        self
    }

    /// Filter by device.
    pub fn device(mut self, d: u32) -> Self {
        self.device = Some(d);
        self
    }

    /// Filter by event type.
    pub fn ty(mut self, t: EventType) -> Self {
        self.ty = Some(t);
        self
    }

    /// Filter by time window.
    pub fn window(mut self, from: u64, to: u64) -> Self {
        self.window = Some((from, to));
        self
    }

    fn matches(&self, e: &StoredEvent) -> bool {
        self.flow.is_none_or(|f| e.record.flow == f)
            && self.device.is_none_or(|d| e.device == d)
            && self.ty.is_none_or(|t| e.record.ty == t)
            && self.window.is_none_or(|(a, b)| e.time_ns >= a && e.time_ns < b)
    }
}

/// Event store, indexed by flow and by device; a query with neither
/// filter (window- or type-only) scans every event. `Clone` is
/// deliberate: the collector's crash model checkpoints the store by
/// value and reverts to the clone on a hard kill (see
/// [`crate::recovery::Collector`]).
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    events: Vec<StoredEvent>,
    by_flow: HashMap<FlowKey, Vec<usize>>,
    by_device: HashMap<u32, Vec<usize>>,
}

impl EventStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert one event.
    pub(crate) fn insert(&mut self, e: StoredEvent) {
        let i = self.events.len();
        self.by_flow.entry(e.record.flow).or_default().push(i);
        self.by_device.entry(e.device).or_default().push(i);
        self.events.push(e);
    }

    /// Bulk insert.
    pub(crate) fn extend(&mut self, it: impl IntoIterator<Item = StoredEvent>) {
        for e in it {
            self.insert(e);
        }
    }

    /// Run a query, in insertion order. Uses the narrowest applicable
    /// index, flow then device; any other query scans every event.
    pub fn query(&self, q: &Query) -> Vec<&StoredEvent> {
        let idx = match (q.flow, q.device) {
            (Some(f), _) => self.by_flow.get(&f),
            (None, Some(d)) => self.by_device.get(&d),
            (None, None) => return self.events.iter().filter(|e| q.matches(e)).collect(),
        };
        let idx = idx.map(Vec::as_slice).unwrap_or_default();
        idx.iter().map(|&i| &self.events[i]).filter(|e| q.matches(e)).collect()
    }

    /// Total stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events.
    pub fn events(&self) -> &[StoredEvent] {
        &self.events
    }

    /// Distinct (device, flow) pairs for one event type — the unit compared
    /// against [`fet_netsim::GroundTruth::flow_events`] for coverage.
    pub fn flow_events(&self, ty: EventType) -> BTreeSet<(u32, FlowKey)> {
        self.events
            .iter()
            .filter(|e| e.record.ty == ty)
            .map(|e| (e.device, e.record.flow))
            .collect()
    }

    /// Per-device, per-type event counts — the dashboard view an operator
    /// scans before drilling into flow queries.
    pub fn summarize(&self) -> Vec<(u32, EventType, usize)> {
        let mut counts: HashMap<(u32, EventType), usize> = HashMap::new();
        for e in &self.events {
            *counts.entry((e.device, e.record.ty)).or_insert(0) += 1;
        }
        let mut v: Vec<(u32, EventType, usize)> =
            counts.into_iter().map(|((d, t), n)| (d, t, n)).collect();
        v.sort_by_key(|&(d, t, n)| (d, t, std::cmp::Reverse(n)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::EventDetail;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn ev(t: u64, dev: u32, ty: EventType, n: u16) -> StoredEvent {
        StoredEvent {
            time_ns: t,
            device: dev,
            epoch: 0,
            seq: t,
            record: EventRecord {
                ty,
                flow: flow(n),
                detail: EventDetail::Pause { egress_port: 0, queue: 0 },
                counter: 1,
                hash: u32::from(n),
            },
        }
    }

    fn store() -> EventStore {
        let mut s = EventStore::new();
        s.insert(ev(10, 1, EventType::Congestion, 1));
        s.insert(ev(20, 1, EventType::Pause, 1));
        s.insert(ev(30, 2, EventType::Congestion, 2));
        s.insert(ev(40, 2, EventType::Congestion, 1));
        s
    }

    #[test]
    fn query_by_flow() {
        let s = store();
        let r = s.query(&Query::any().flow(flow(1)));
        assert_eq!(r.len(), 3);
        let r = s.query(&Query::any().flow(flow(9)));
        assert!(r.is_empty());
    }

    #[test]
    fn query_by_device_and_type() {
        let s = store();
        let r = s.query(&Query::any().device(2).ty(EventType::Congestion));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn query_by_window() {
        let s = store();
        let r = s.query(&Query::any().window(15, 35));
        assert_eq!(r.len(), 2);
        // Degenerate windows are empty, not panicking.
        assert!(s.query(&Query::any().window(20, 20)).is_empty());
        assert!(s.query(&Query::any().window(30, 10)).is_empty());
    }

    #[test]
    fn random_conjunctive_queries_match_naive_filter() {
        // Random stores queried with every optional filter drawn
        // independently: whichever index path the query takes, it returns
        // exactly the naive filter's events, in insertion order.
        let mut rng = fet_netsim::rng::Pcg32::new(0x5709_E0E5, 1);
        let mut window_only = 0;
        for _ in 0..300 {
            let mut s = EventStore::new();
            for _ in 0..rng.next_below(100) {
                let ty = EventType::from_code(1 + rng.next_below(6) as u8).unwrap();
                let t = u64::from(rng.next_below(1_000));
                s.insert(ev(t, rng.next_below(4), ty, rng.next_below(8) as u16));
            }
            let q_flow = rng.chance(0.5).then(|| flow(rng.next_below(8) as u16));
            let q_device = rng.chance(0.5).then(|| rng.next_below(4));
            let q_ty =
                rng.chance(0.5).then(|| EventType::from_code(1 + rng.next_below(6) as u8).unwrap());
            let q_window = rng
                .chance(0.5)
                .then(|| (u64::from(rng.next_below(500)), 500 + u64::from(rng.next_below(500))));
            let q = Query { flow: q_flow, device: q_device, ty: q_ty, window: q_window };
            if q_flow.is_none() && q_device.is_none() && q_ty.is_none() && q_window.is_some() {
                window_only += 1;
            }
            let want: Vec<&StoredEvent> = s
                .events()
                .iter()
                .filter(|e| q_flow.is_none_or(|f| e.record.flow == f))
                .filter(|e| q_device.is_none_or(|d| e.device == d))
                .filter(|e| q_ty.is_none_or(|t| e.record.ty == t))
                .filter(|e| q_window.is_none_or(|(a, b)| a <= e.time_ns && e.time_ns < b))
                .collect();
            assert_eq!(s.query(&q), want, "{q:?}");
        }
        assert!(window_only >= 5, "only {window_only} window-only queries drawn");
    }

    #[test]
    fn conjunctive_filters() {
        let s = store();
        let r = s.query(&Query::any().flow(flow(1)).device(2).window(0, 100));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].time_ns, 40);
    }

    #[test]
    fn flow_events_deduplicate() {
        let mut s = store();
        s.insert(ev(50, 2, EventType::Congestion, 1));
        let fe = s.flow_events(EventType::Congestion);
        // (1, f1), (2, f2), (2, f1)
        assert_eq!(fe.len(), 3);
    }

    #[test]
    fn summarize_gives_device_type_counts() {
        let s = store();
        let sum = s.summarize();
        assert!(sum.contains(&(1, EventType::Congestion, 1)));
        assert!(sum.contains(&(2, EventType::Congestion, 2)));
        assert!(sum.contains(&(1, EventType::Pause, 1)));
        assert_eq!(sum.len(), 3);
    }

    #[test]
    fn counts() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }
}
