//! Cross-device loss localization (paper §6 case study: "which link is
//! eating packets?").
//!
//! Two independent signals describe one lossy link:
//!
//! * the **upstream** switch's ring-buffer recovery path reports
//!   `InterSwitchDrop` events whose detail names the egress port the
//!   victims left on (Fig. 5 steps 5–6);
//! * the **downstream** switch's gap detector counts sequence gaps on its
//!   ingress port (Fig. 5 steps 2–4) — a count the collector scrapes as a
//!   control-plane gap report, since gaps alone produce notifications, not
//!   backend events.
//!
//! The correlator joins the two through the topology's link map: a verdict
//! is *corroborated* when both ends of the same link agree, which rules
//! out a lying/miscounting device and localizes the loss to the wire
//! between them rather than to either box.

use fet_packet::event::{EventDetail, EventRecord, EventType};
use std::collections::HashMap;

/// One directed link: traffic flows `up:up_port → down:down_port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Upstream (transmitting) device.
    pub up: u32,
    /// Upstream egress port.
    pub up_port: u8,
    /// Downstream (receiving) device.
    pub down: u32,
    /// Downstream ingress port.
    pub down_port: u8,
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} -> {}:{}", self.up, self.up_port, self.down, self.down_port)
    }
}

/// The wiring of the fleet: `(device, egress port) → (peer, peer port)`.
#[derive(Debug, Clone, Default)]
pub struct LinkMap {
    forward: HashMap<(u32, u8), (u32, u8)>,
}

impl LinkMap {
    /// Build from directed attachments `(node, port, peer, peer_port)`.
    pub fn from_endpoints(endpoints: impl IntoIterator<Item = (u32, u8, u32, u8)>) -> Self {
        let mut forward = HashMap::new();
        for (n, p, peer, peer_port) in endpoints {
            forward.insert((n, p), (peer, peer_port));
        }
        LinkMap { forward }
    }

    /// Resolve the link leaving `device` on `port`.
    pub(crate) fn link(&self, device: u32, port: u8) -> Option<LinkId> {
        self.forward.get(&(device, port)).map(|&(down, down_port)| LinkId {
            up: device,
            up_port: port,
            down,
            down_port,
        })
    }
}

/// A downstream gap-detector scrape: `gaps` sequence gaps observed on
/// `device`'s ingress `port` since the last report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapReport {
    /// The downstream device.
    pub(crate) device: u32,
    /// Its ingress port (where the tagged frames arrive).
    pub(crate) port: u8,
    /// Sequence gaps counted there.
    pub(crate) gaps: u64,
}

/// The correlator's judgement on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVerdict {
    /// The accused link.
    pub link: LinkId,
    /// Upstream `InterSwitchDrop` reports charged to this link.
    pub upstream_reports: u64,
    /// Their total packet weight (event counters summed).
    pub upstream_weight: u64,
    /// Downstream sequence gaps on the link's receiving port.
    pub downstream_gaps: u64,
    /// Both ends agree the link lost packets.
    pub corroborated: bool,
}

/// Joins upstream loss reports with downstream gap reports per link.
#[derive(Debug, Clone, Default)]
pub(crate) struct Correlator {
    map: LinkMap,
    upstream: HashMap<(u32, u8), (u64, u64)>, // (device, egress) -> (reports, weight)
    downstream: HashMap<(u32, u8), u64>,      // (device, ingress) -> gaps
    /// Upstream reports whose (device, port) has no link in the map.
    pub(crate) unmapped: u64,
}

impl Correlator {
    /// A correlator over the given wiring.
    pub(crate) fn new(map: LinkMap) -> Self {
        Correlator { map, ..Correlator::default() }
    }

    /// Feed one delivered event; only `InterSwitchDrop` reports matter.
    pub(crate) fn observe(&mut self, device: u32, rec: &EventRecord) {
        if rec.ty != EventType::InterSwitchDrop {
            return;
        }
        let EventDetail::Drop { egress_port, .. } = rec.detail else {
            return;
        };
        if self.map.link(device, egress_port).is_none() {
            self.unmapped += 1;
            return;
        }
        let e = self.upstream.entry((device, egress_port)).or_default();
        e.0 += 1;
        e.1 += u64::from(rec.counter.max(1));
    }

    /// Feed one downstream gap-detector scrape.
    pub(crate) fn ingest_gap_report(&mut self, r: GapReport) {
        if r.gaps > 0 {
            *self.downstream.entry((r.device, r.port)).or_default() += r.gaps;
        }
    }

    /// Rank every implicated link, worst first: corroborated links before
    /// one-sided suspicions, then by upstream weight, then gaps. Ties
    /// break on the link id so the ranking is deterministic.
    pub(crate) fn localize(&self) -> Vec<LinkVerdict> {
        let mut out: Vec<LinkVerdict> = Vec::new();
        let mut covered: HashMap<(u32, u8), bool> = HashMap::new();
        for (&(device, port), &(reports, weight)) in &self.upstream {
            let Some(link) = self.map.link(device, port) else { continue };
            let gaps = self.downstream.get(&(link.down, link.down_port)).copied().unwrap_or(0);
            covered.insert((link.down, link.down_port), true);
            out.push(LinkVerdict {
                link,
                upstream_reports: reports,
                upstream_weight: weight,
                downstream_gaps: gaps,
                corroborated: reports > 0 && gaps > 0,
            });
        }
        // Downstream-only suspicions: gaps whose upstream reports never
        // arrived (e.g. every redundant notification copy died).
        for (&(down, down_port), &gaps) in &self.downstream {
            if covered.contains_key(&(down, down_port)) {
                continue;
            }
            // The reverse attachment names the upstream side.
            let Some(rev) = self.map.link(down, down_port) else { continue };
            out.push(LinkVerdict {
                link: LinkId { up: rev.down, up_port: rev.down_port, down, down_port },
                upstream_reports: 0,
                upstream_weight: 0,
                downstream_gaps: gaps,
                corroborated: false,
            });
        }
        out.sort_by(|a, b| {
            b.corroborated
                .cmp(&a.corroborated)
                .then(b.upstream_weight.cmp(&a.upstream_weight))
                .then(b.downstream_gaps.cmp(&a.downstream_gaps))
                .then(a.link.cmp(&b.link))
        });
        out
    }

    /// The single most likely lossy link, if any verdict is corroborated.
    pub(crate) fn culprit(&self) -> Option<LinkVerdict> {
        self.localize().into_iter().find(|v| v.corroborated)
    }

    /// Drop all observed counts, keeping the link map (the wiring is
    /// static truth; the counts revert with the events that produced
    /// them — used by the checkpoint-less engine restart path).
    pub(crate) fn reset_counts(&mut self) {
        self.upstream.clear();
        self.downstream.clear();
        self.unmapped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::DropCode;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn isw_drop(port: u8, counter: u16) -> EventRecord {
        EventRecord {
            ty: EventType::InterSwitchDrop,
            flow: flow(counter),
            detail: EventDetail::Drop {
                ingress_port: port,
                egress_port: port,
                code: DropCode::LinkLoss,
            },
            counter,
            hash: u32::from(counter),
        }
    }

    /// 1:2 -> 2:5 and the reverse direction 2:5 -> 1:2.
    fn map() -> LinkMap {
        LinkMap::from_endpoints([(1, 2, 2, 5), (2, 5, 1, 2), (3, 0, 4, 1), (4, 1, 3, 0)])
    }

    #[test]
    fn corroborated_link_wins() {
        let mut c = Correlator::new(map());
        c.observe(1, &isw_drop(2, 3));
        c.observe(1, &isw_drop(2, 1));
        c.ingest_gap_report(GapReport { device: 2, port: 5, gaps: 2 });
        // A noisier but uncorroborated upstream claim elsewhere.
        c.observe(3, &isw_drop(0, 50));
        let v = c.culprit().expect("corroborated verdict");
        assert_eq!(v.link, LinkId { up: 1, up_port: 2, down: 2, down_port: 5 });
        assert!(v.corroborated);
        assert_eq!(v.upstream_reports, 2);
        assert_eq!(v.upstream_weight, 4);
        assert_eq!(v.downstream_gaps, 2);
        // The ranking puts the corroborated link first despite less weight.
        assert_eq!(c.localize()[0].link.up, 1);
    }

    #[test]
    fn downstream_only_suspicion_is_uncorroborated() {
        let mut c = Correlator::new(map());
        c.ingest_gap_report(GapReport { device: 2, port: 5, gaps: 7 });
        assert!(c.culprit().is_none());
        let v = &c.localize()[0];
        assert_eq!(v.link, LinkId { up: 1, up_port: 2, down: 2, down_port: 5 });
        assert_eq!(v.downstream_gaps, 7);
        assert!(!v.corroborated);
    }

    #[test]
    fn unmapped_reports_are_counted_not_dropped_silently() {
        let mut c = Correlator::new(map());
        c.observe(9, &isw_drop(9, 1));
        assert_eq!(c.unmapped, 1);
        assert!(c.localize().is_empty());
    }

    #[test]
    fn non_loss_events_are_ignored() {
        let mut c = Correlator::new(map());
        let rec = EventRecord {
            ty: EventType::Congestion,
            flow: flow(1),
            detail: EventDetail::Congestion { egress_port: 2, queue: 0, latency_us: 9 },
            counter: 1,
            hash: 1,
        };
        c.observe(1, &rec);
        assert!(c.localize().is_empty());
    }
}
