//! Ground-truth oracle.
//!
//! The tracer records every data-plane event the simulator *actually*
//! causes, with full flow information — including for silently dropped and
//! corrupted frames, where it peeks at the frame before the fault. This is
//! what the paper approximates with NetSight's per-packet telemetry when it
//! claims "zero FP/FN": our oracle is exact, so coverage and accuracy
//! scores are exact too.

use fet_packet::event::{DropCode, EventType};
use fet_packet::FlowKey;
use std::collections::BTreeSet;

/// One ground-truth event occurrence (per packet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtEvent {
    /// Simulation time, ns.
    pub time_ns: u64,
    /// Device where the event happened. For inter-switch events this is the
    /// *upstream* device (whose egress lost the frame), matching where
    /// NetSeer reports them.
    pub device: u32,
    /// Event class.
    pub ty: EventType,
    /// Victim flow (None only for non-IP frames, e.g. corrupted PFC).
    pub flow: Option<FlowKey>,
    /// Drop reason when `ty` is a drop class.
    pub drop_code: Option<DropCode>,
    /// ACL rule id for ACL denies.
    pub acl_rule: Option<u32>,
}

/// Accumulates ground truth for one simulation run.
#[derive(Debug, Default)]
pub struct GroundTruth {
    events: Vec<GtEvent>,
}

impl GroundTruth {
    /// Fresh, empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&mut self, ev: GtEvent) {
        self.events.push(ev);
    }

    /// All recorded events.
    pub fn events(&self) -> &[GtEvent] {
        &self.events
    }

    /// Number of packet-level events of a type.
    pub fn count(&self, ty: EventType) -> usize {
        self.events.iter().filter(|e| e.ty == ty).count()
    }

    /// The set of distinct flow-level events of a type: (device, flow).
    /// This is the unit of the paper's coverage metric — a monitor covers a
    /// flow event if it reported that flow experiencing that event at that
    /// device.
    pub fn flow_events(&self, ty: EventType) -> BTreeSet<(u32, FlowKey)> {
        self.events
            .iter()
            .filter(|e| e.ty == ty)
            .filter_map(|e| e.flow.map(|f| (e.device, f)))
            .collect()
    }

    /// Take all recorded events, leaving the oracle empty (shard merge).
    pub(crate) fn drain(&mut self) -> Vec<GtEvent> {
        std::mem::take(&mut self.events)
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

    fn ev(t: u64, dev: u32, ty: EventType, n: u16) -> GtEvent {
        GtEvent {
            time_ns: t,
            device: dev,
            ty,
            flow: Some(flow(n)),
            drop_code: None,
            acl_rule: None,
        }
    }

    #[test]
    fn counts_by_type() {
        let mut gt = GroundTruth::new();
        gt.record(ev(1, 0, EventType::Congestion, 1));
        gt.record(ev(2, 0, EventType::Congestion, 1));
        gt.record(ev(3, 1, EventType::PipelineDrop, 2));
        assert_eq!(gt.count(EventType::Congestion), 2);
        assert_eq!(gt.count(EventType::PipelineDrop), 1);
        assert_eq!(gt.count(EventType::Pause), 0);
    }

    #[test]
    fn flow_events_deduplicate_packets() {
        let mut gt = GroundTruth::new();
        for t in 0..100 {
            gt.record(ev(t, 3, EventType::Congestion, 7));
        }
        let set = gt.flow_events(EventType::Congestion);
        assert_eq!(set.len(), 1);
        assert!(set.contains(&(3, flow(7))));
    }

    #[test]
    fn same_flow_different_devices_are_distinct() {
        let mut gt = GroundTruth::new();
        gt.record(ev(1, 1, EventType::MmuDrop, 5));
        gt.record(ev(1, 2, EventType::MmuDrop, 5));
        assert_eq!(gt.flow_events(EventType::MmuDrop).len(), 2);
    }
}
