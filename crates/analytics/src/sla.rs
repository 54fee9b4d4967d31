//! SLA evaluation: turn the event stream into per-device *breach
//! windows* — contiguous spans in which a device violated its loss or
//! congestion-latency budget. Operators consume breach windows, not raw
//! events: "device 3 was out of SLA from 12ms to 19ms, 841 drops, peak
//! queue delay 510us".

use fet_packet::event::EventDetail;
use netseer::StoredEvent;
use std::collections::HashMap;

/// The budget a device must stay within per evaluation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaPolicy {
    /// Evaluation window width, ns.
    pub window_ns: u64,
    /// Maximum dropped-packet weight tolerated per window.
    pub max_drops_per_window: u64,
    /// Maximum congestion queuing delay tolerated, microseconds.
    pub max_congestion_latency_us: u16,
}

impl Default for SlaPolicy {
    fn default() -> Self {
        // 1ms windows, 64 dropped packets tolerated, 400us queue delay.
        SlaPolicy { window_ns: 1_000_000, max_drops_per_window: 64, max_congestion_latency_us: 400 }
    }
}

/// One contiguous span of SLA violation on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreachWindow {
    /// The violating device.
    pub device: u32,
    /// Span start (inclusive), ns.
    pub from_ns: u64,
    /// Span end (exclusive), ns.
    pub to_ns: u64,
    /// Dropped-packet weight inside the span.
    pub drops: u64,
    /// Worst congestion latency observed inside the span, us.
    pub peak_latency_us: u16,
}

/// Per-device accumulator for the evaluation window in progress.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceWindow {
    bucket: u64,
    drops: u64,
    peak_latency_us: u16,
}

/// Streams events and emits [`BreachWindow`]s. Memory is bounded: one
/// small accumulator per device plus a capped breach list.
#[derive(Debug, Clone)]
pub(crate) struct SlaEvaluator {
    policy: SlaPolicy,
    open: HashMap<u32, DeviceWindow>,
    /// Breach in progress per device (merged while contiguous).
    current: HashMap<u32, BreachWindow>,
    breaches: Vec<BreachWindow>,
    max_breaches: usize,
    /// Breach windows discarded because `max_breaches` was reached.
    pub(crate) dropped_breaches: u64,
    /// Events inspected.
    pub(crate) observed: u64,
}

impl SlaEvaluator {
    /// An evaluator for `policy`, retaining at most `max_breaches` windows.
    pub(crate) fn new(policy: SlaPolicy, max_breaches: usize) -> Self {
        SlaEvaluator {
            policy,
            open: HashMap::new(),
            current: HashMap::new(),
            breaches: Vec::new(),
            max_breaches: max_breaches.max(1),
            dropped_breaches: 0,
            observed: 0,
        }
    }

    /// Inspect one delivered event.
    ///
    /// Deliveries are per-device ordered, so a new bucket index closes the
    /// device's previous evaluation window; slight cross-device interleave
    /// is fine because all state is per-device.
    pub(crate) fn observe(&mut self, e: &StoredEvent) {
        self.observed += 1;
        let bucket = e.time_ns / self.policy.window_ns.max(1);
        let w = self.open.entry(e.device).or_insert(DeviceWindow { bucket, ..Default::default() });
        if bucket != w.bucket {
            let closed = *w;
            let device = e.device;
            self.close_window(device, closed);
            self.open.insert(device, DeviceWindow { bucket, ..Default::default() });
        }
        let w = self.open.get_mut(&e.device).expect("just inserted");
        match e.record.detail {
            EventDetail::Drop { .. } => w.drops += u64::from(e.record.counter.max(1)),
            EventDetail::Congestion { latency_us, .. } => {
                w.peak_latency_us = w.peak_latency_us.max(latency_us);
            }
            _ => {}
        }
    }

    fn close_window(&mut self, device: u32, w: DeviceWindow) {
        let width = self.policy.window_ns.max(1);
        let breached = w.drops > self.policy.max_drops_per_window
            || w.peak_latency_us > self.policy.max_congestion_latency_us;
        let from_ns = w.bucket * width;
        let to_ns = from_ns + width;
        if !breached {
            // A clean window ends any breach in progress.
            if let Some(b) = self.current.remove(&device) {
                self.push_breach(b);
            }
            return;
        }
        match self.current.get_mut(&device) {
            // Contiguous with the breach in progress: extend it.
            Some(b) if b.to_ns == from_ns => {
                b.to_ns = to_ns;
                b.drops += w.drops;
                b.peak_latency_us = b.peak_latency_us.max(w.peak_latency_us);
            }
            Some(_) => {
                let prev = self.current.remove(&device).expect("matched Some");
                self.push_breach(prev);
                self.current.insert(
                    device,
                    BreachWindow {
                        device,
                        from_ns,
                        to_ns,
                        drops: w.drops,
                        peak_latency_us: w.peak_latency_us,
                    },
                );
            }
            None => {
                self.current.insert(
                    device,
                    BreachWindow {
                        device,
                        from_ns,
                        to_ns,
                        drops: w.drops,
                        peak_latency_us: w.peak_latency_us,
                    },
                );
            }
        }
    }

    fn push_breach(&mut self, b: BreachWindow) {
        if self.breaches.len() >= self.max_breaches {
            self.dropped_breaches += 1;
            return;
        }
        self.breaches.push(b);
    }

    /// Flush every open window and breach-in-progress, then return all
    /// breach windows sorted by (device, start).
    pub(crate) fn finish(&mut self) -> Vec<BreachWindow> {
        let mut open: Vec<(u32, DeviceWindow)> = self.open.drain().collect();
        open.sort_by_key(|&(d, _)| d);
        for (device, w) in open {
            self.close_window(device, w);
        }
        let mut current: Vec<BreachWindow> = self.current.drain().map(|(_, b)| b).collect();
        current.sort_by_key(|b| (b.device, b.from_ns));
        for b in current {
            self.push_breach(b);
        }
        let mut out = self.breaches.clone();
        out.sort_by_key(|b| (b.device, b.from_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn policy() -> SlaPolicy {
        SlaPolicy { window_ns: 100, max_drops_per_window: 2, max_congestion_latency_us: 400 }
    }

    fn drop_ev(device: u32, time_ns: u64, counter: u16) -> StoredEvent {
        StoredEvent {
            time_ns,
            device,
            epoch: 0,
            seq: 0,
            record: EventRecord {
                ty: EventType::PipelineDrop,
                flow: FlowKey::tcp(
                    Ipv4Addr::from_octets([10, 0, 0, 1]),
                    1,
                    Ipv4Addr::from_octets([10, 0, 0, 2]),
                    80,
                ),
                detail: EventDetail::Drop {
                    ingress_port: 1,
                    egress_port: 2,
                    code: DropCode::TableMiss,
                },
                counter,
                hash: 1,
            },
        }
    }

    fn cong_ev(device: u32, time_ns: u64, latency_us: u16) -> StoredEvent {
        let mut e = drop_ev(device, time_ns, 1);
        e.record.ty = EventType::Congestion;
        e.record.detail = EventDetail::Congestion { egress_port: 2, queue: 0, latency_us };
        e
    }

    #[test]
    fn quiet_device_has_no_breaches() {
        let mut s = SlaEvaluator::new(policy(), 16);
        s.observe(&drop_ev(1, 10, 1));
        s.observe(&drop_ev(1, 150, 1));
        assert!(s.finish().is_empty());
    }

    #[test]
    fn contiguous_breach_windows_merge() {
        let mut s = SlaEvaluator::new(policy(), 16);
        // Windows 0 and 1 both breach (3 drops each), window 2 is clean.
        for t in [10, 20, 30, 110, 120, 130] {
            s.observe(&drop_ev(1, t, 1));
        }
        s.observe(&drop_ev(1, 250, 1));
        let b = s.finish();
        assert_eq!(b.len(), 1, "two contiguous breach windows merge into one");
        assert_eq!((b[0].from_ns, b[0].to_ns), (0, 200));
        assert_eq!(b[0].drops, 6);
    }

    #[test]
    fn latency_breach_and_gap_splits_spans() {
        let mut s = SlaEvaluator::new(policy(), 16);
        s.observe(&cong_ev(2, 50, 900)); // window 0 breaches on latency
        s.observe(&cong_ev(2, 150, 10)); // window 1 clean
        s.observe(&drop_ev(2, 250, 3)); // window 2 breaches on drops
        let b = s.finish();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].peak_latency_us, 900);
        assert_eq!(b[1].drops, 3);
    }

    #[test]
    fn breach_list_is_bounded() {
        let mut s = SlaEvaluator::new(policy(), 2);
        // Alternate breach / clean windows so each breach finalizes alone.
        for w in 0..10u64 {
            s.observe(&drop_ev(3, w * 200 + 10, 3)); // breach window
            s.observe(&drop_ev(3, w * 200 + 110, 1)); // clean window closes it
        }
        let b = s.finish();
        assert_eq!(b.len(), 2);
        assert!(
            s.dropped_breaches >= 7,
            "overflowing breaches counted, got {}",
            s.dropped_breaches
        );
    }
}
