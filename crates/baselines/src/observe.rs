//! Shared observation log + event-packet coverage scoring.
//!
//! Coverage semantics (matching the paper's §5.2 methodology): a monitor
//! covers a ground-truth flow event iff it captured *the packet that
//! experienced the event* — matched here by (device, flow) plus the
//! event's exact timestamp (ingress time for path-change/pause, egress
//! time for congestion and inter-switch loss, hook time for drops).

use fet_netsim::tracer::GroundTruth;
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use std::collections::{BTreeSet, HashMap};

/// What kind of packet observation this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObsKind {
    /// A forwarded packet mirrored at egress.
    Forwarded,
    /// A packet mirrored at a drop hook.
    Dropped(EventType),
}

/// One mirrored-packet observation.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Device that mirrored it.
    pub device: u32,
    /// The packet's flow.
    pub flow: FlowKey,
    /// The packet's arrival time at the device, ns.
    pub t_ingress: u64,
    /// Its dequeue (egress) time, ns; 0 when not applicable.
    pub t_egress: u64,
    /// Forwarded or dropped.
    pub(crate) kind: ObsKind,
}

/// A monitor's accumulated observations.
#[derive(Debug, Default)]
pub struct ObservationLog {
    /// All observations in arrival order.
    pub obs: Vec<Observation>,
}

impl ObservationLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub(crate) fn record(&mut self, o: Observation) {
        self.obs.push(o);
    }
}

/// Score a monitor's coverage of `ty` against ground truth:
/// returns (covered flow events, total flow events).
pub fn coverage(gt: &GroundTruth, log: &ObservationLog, ty: EventType) -> (usize, usize) {
    // Ground-truth event-packet times per (device, flow).
    let mut times: HashMap<(u32, FlowKey), BTreeSet<u64>> = HashMap::new();
    for e in gt.events().iter().filter(|e| e.ty == ty) {
        if let Some(f) = e.flow {
            times.entry((e.device, f)).or_default().insert(e.time_ns);
        }
    }
    let total = times.len();
    if total == 0 {
        return (0, 0);
    }
    let mut covered: BTreeSet<(u32, FlowKey)> = BTreeSet::new();
    for o in &log.obs {
        let key = (o.device, o.flow);
        let Some(ts) = times.get(&key) else { continue };
        let hit = match (ty, o.kind) {
            // Drop classes need the drop-hook (or last-egress) observation.
            (EventType::PipelineDrop, ObsKind::Dropped(EventType::PipelineDrop))
            | (EventType::MmuDrop, ObsKind::Dropped(EventType::MmuDrop)) => {
                ts.contains(&o.t_ingress) || ts.contains(&o.t_egress)
            }
            // Inter-switch loss: the upstream egress mirror of the very
            // packet that then died on the wire.
            (EventType::InterSwitchDrop, ObsKind::Forwarded) => ts.contains(&o.t_egress),
            // Congestion: egress mirror of a packet whose recorded latency
            // marked it (the timestamp match implies the threshold).
            (EventType::Congestion, ObsKind::Forwarded) => ts.contains(&o.t_egress),
            // Path change / pause: events stamped at ingress processing.
            (EventType::PathChange, ObsKind::Forwarded)
            | (EventType::Pause, ObsKind::Forwarded) => ts.contains(&o.t_ingress),
            _ => false,
        };
        if hit {
            covered.insert(key);
        }
    }
    (covered.len(), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_netsim::tracer::GtEvent;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn gt_with(ty: EventType, dev: u32, n: u16, t: u64) -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.record(GtEvent {
            time_ns: t,
            device: dev,
            ty,
            flow: Some(flow(n)),
            drop_code: None,
            acl_rule: None,
        });
        gt
    }

    #[test]
    fn congestion_covered_only_by_matching_egress_time() {
        let gt = gt_with(EventType::Congestion, 1, 5, 1_000);
        let mut log = ObservationLog::new();
        // Wrong time: not the event packet.
        log.record(Observation {
            device: 1,
            flow: flow(5),
            t_ingress: 0,
            t_egress: 999,
            kind: ObsKind::Forwarded,
        });
        assert_eq!(coverage(&gt, &log, EventType::Congestion), (0, 1));
        // The event packet itself.
        log.record(Observation {
            device: 1,
            flow: flow(5),
            t_ingress: 0,
            t_egress: 1_000,
            kind: ObsKind::Forwarded,
        });
        assert_eq!(coverage(&gt, &log, EventType::Congestion), (1, 1));
    }

    #[test]
    fn path_change_matches_ingress_time() {
        let gt = gt_with(EventType::PathChange, 2, 7, 5_000);
        let mut log = ObservationLog::new();
        log.record(Observation {
            device: 2,
            flow: flow(7),
            t_ingress: 5_000,
            t_egress: 9_999,
            kind: ObsKind::Forwarded,
        });
        assert_eq!(coverage(&gt, &log, EventType::PathChange), (1, 1));
    }

    #[test]
    fn drops_need_drop_observations() {
        let gt = gt_with(EventType::PipelineDrop, 3, 1, 100);
        let mut log = ObservationLog::new();
        log.record(Observation {
            device: 3,
            flow: flow(1),
            t_ingress: 100,
            t_egress: 0,
            kind: ObsKind::Forwarded,
        });
        assert_eq!(coverage(&gt, &log, EventType::PipelineDrop), (0, 1));
        log.record(Observation {
            device: 3,
            flow: flow(1),
            t_ingress: 100,
            t_egress: 0,
            kind: ObsKind::Dropped(EventType::PipelineDrop),
        });
        assert_eq!(coverage(&gt, &log, EventType::PipelineDrop), (1, 1));
    }

    #[test]
    fn wrong_device_never_covers() {
        let gt = gt_with(EventType::Congestion, 1, 5, 1_000);
        let mut log = ObservationLog::new();
        log.record(Observation {
            device: 2,
            flow: flow(5),
            t_ingress: 0,
            t_egress: 1_000,
            kind: ObsKind::Forwarded,
        });
        assert_eq!(coverage(&gt, &log, EventType::Congestion), (0, 1));
    }

    #[test]
    fn empty_ground_truth_scores_zero_total() {
        let gt = GroundTruth::new();
        let log = ObservationLog::new();
        assert_eq!(coverage(&gt, &log, EventType::Pause), (0, 0));
    }
}
