//! NetSight (NSDI'14) model: every switch mirrors **every packet** it
//! processes, truncated to 64 bytes, plus metadata (forwarding latency and
//! ports) — "very similar to INT postcard mode" (paper §5). Full event
//! coverage, crushing overhead.

use crate::observe::{ObsKind, Observation, ObservationLog};
use fet_netsim::monitor::{Actions, EgressCtx, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_packet::event::DropCode;
use fet_packet::FlowKey;
use std::any::Any;

/// Truncated mirror + metadata size per postcard.
pub(crate) const POSTCARD_BYTES: usize = 64 + 16;

/// The per-switch NetSight agent.
#[derive(Debug, Default)]
pub struct NetSightMonitor {
    /// Everything this switch mirrored.
    pub log: ObservationLog,
    /// Postcards emitted.
    pub(crate) postcards: u64,
}

impl NetSightMonitor {
    /// Fresh agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SwitchMonitor for NetSightMonitor {
    fn on_egress(&mut self, ctx: &EgressCtx<'_>, _frame: &mut Vec<u8>, out: &mut Actions) {
        let Some(flow) = ctx.meta.flow else { return };
        self.log.record(Observation {
            device: ctx.node,
            flow,
            t_ingress: ctx.meta.ingress_ts_ns,
            t_egress: ctx.now_ns,
            kind: ObsKind::Forwarded,
        });
        self.postcards += 1;
        out.report(POSTCARD_BYTES);
    }

    fn on_pipeline_drop(
        &mut self,
        ctx: &IngressCtx,
        _frame: &[u8],
        flow: Option<FlowKey>,
        _code: DropCode,
        _egress_port: Option<u8>,
        _acl_rule: u32,
        out: &mut Actions,
    ) {
        let Some(flow) = flow else { return };
        self.log.record(Observation {
            device: ctx.node,
            flow,
            t_ingress: ctx.now_ns,
            t_egress: 0,
            kind: ObsKind::Dropped(fet_packet::EventType::PipelineDrop),
        });
        self.postcards += 1;
        out.report(POSTCARD_BYTES);
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, _frame: &[u8], out: &mut Actions) {
        self.log.record(Observation {
            device: ctx.node,
            flow: ctx.flow,
            t_ingress: ctx.now_ns,
            t_egress: 0,
            kind: ObsKind::Dropped(fet_packet::EventType::MmuDrop),
        });
        self.postcards += 1;
        out.report(POSTCARD_BYTES);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_pdp::PacketMeta;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            1,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            2,
        )
    }

    #[test]
    fn mirrors_every_forwarded_packet() {
        let mut m = NetSightMonitor::new();
        let mut meta = PacketMeta::arriving(100, 64);
        meta.flow = Some(flow());
        meta.egress_ts_ns = 150;
        let ctx = EgressCtx {
            now_ns: 150,
            node: 1,
            port: 2,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta: &meta,
        };
        let mut out = Actions::new();
        let mut f = vec![0u8; 64];
        m.on_egress(&ctx, &mut f, &mut out);
        m.on_egress(&ctx, &mut f, &mut out);
        assert_eq!(m.postcards, 2);
        assert_eq!(out.report_bytes, 2 * POSTCARD_BYTES as u64);
        assert_eq!(m.log.obs[0].t_ingress, 100);
        assert_eq!(m.log.obs[0].t_egress, 150);
    }

    #[test]
    fn mirrors_drops_too() {
        let mut m = NetSightMonitor::new();
        let ictx = IngressCtx::parse(5, 1, 0, &[0u8; 64]);
        let mut out = Actions::new();
        m.on_pipeline_drop(&ictx, &[0u8; 64], Some(flow()), DropCode::TableMiss, None, 0, &mut out);
        assert_eq!(m.log.obs.len(), 1);
        assert_eq!(m.log.obs[0].kind, ObsKind::Dropped(fet_packet::EventType::PipelineDrop));
    }

    #[test]
    fn non_ip_frames_not_mirrored() {
        let mut m = NetSightMonitor::new();
        let meta = PacketMeta::arriving(100, 64);
        let ctx = EgressCtx {
            now_ns: 150,
            node: 1,
            port: 2,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta: &meta,
        };
        let mut out = Actions::new();
        let mut f = vec![0u8; 64];
        m.on_egress(&ctx, &mut f, &mut out);
        assert_eq!(m.postcards, 0);
    }
}
