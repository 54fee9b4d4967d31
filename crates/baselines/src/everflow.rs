//! EverFlow (SIGCOMM'15) model, configured as in the paper's testbed
//! (§5): switches mirror SYN and FIN packets with ERSPAN, and an
//! "on-demand" mode repeatedly traces 1,000 random flows per minute.
//! Mirroring happens wherever the packet is seen — including at drop
//! hooks, since ERSPAN matches in ingress before the drop — but only for
//! matched packets, so coverage of arbitrary-flow events stays tiny.

use crate::observe::{ObsKind, Observation, ObservationLog};
use fet_netsim::counters::PortCounters;
use fet_netsim::monitor::{Actions, EgressCtx, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_netsim::rng::Pcg32;
use fet_packet::event::DropCode;
use fet_packet::tcp::TcpSegment;
use fet_packet::{FlowKey, IpProtocol};
use std::any::Any;
use std::collections::HashSet;

/// Bytes per ERSPAN mirror (truncated to 64 B like the paper's setup).
pub(crate) const MIRROR_BYTES: usize = 64 + 14;

/// Per-switch EverFlow agent.
#[derive(Debug)]
pub struct EverFlowMonitor {
    /// Flows currently traced on demand.
    pub(crate) traced: HashSet<FlowKey>,
    /// Recently seen flows (candidate pool for on-demand rotation).
    seen: Vec<FlowKey>,
    seen_set: HashSet<FlowKey>,
    /// How many flows each rotation traces.
    pub(crate) trace_set_size: usize,
    /// Rotation interval, ns (paper: one minute).
    pub(crate) rotate_interval_ns: u64,
    rng: Pcg32,
    /// Everything mirrored.
    pub log: ObservationLog,
    /// Mirrors emitted.
    pub(crate) mirrors: u64,
}

impl EverFlowMonitor {
    /// Create with explicit rotation parameters.
    pub fn with_params(seed: u64, trace_set_size: usize, rotate_interval_ns: u64) -> Self {
        EverFlowMonitor {
            traced: HashSet::new(),
            seen: Vec::new(),
            seen_set: HashSet::new(),
            trace_set_size,
            rotate_interval_ns,
            rng: Pcg32::new(seed, 31),
            log: ObservationLog::new(),
            mirrors: 0,
        }
    }

    fn is_syn_fin(frame: &[u8], flow: &FlowKey) -> bool {
        if flow.proto != IpProtocol::Tcp {
            return false;
        }
        let off = fet_packet::ETHERNET_HEADER_LEN + fet_packet::IPV4_HEADER_LEN;
        if frame.len() < off {
            return false;
        }
        TcpSegment::new_checked(&frame[off..]).map(|t| t.is_syn() || t.is_fin()).unwrap_or(false)
    }

    fn matches(&self, frame: &[u8], flow: &FlowKey) -> bool {
        self.traced.contains(flow) || Self::is_syn_fin(frame, flow)
    }

    fn note_seen(&mut self, flow: FlowKey) {
        if self.seen_set.insert(flow) {
            self.seen.push(flow);
            // Bound the pool.
            if self.seen.len() > 100_000 {
                let old = self.seen.remove(0);
                self.seen_set.remove(&old);
            }
        }
    }

    /// Rotate the on-demand trace set (called from the timer).
    pub(crate) fn rotate(&mut self) {
        self.traced.clear();
        if self.seen.is_empty() {
            return;
        }
        for _ in 0..self.trace_set_size {
            let i = self.rng.next_below(self.seen.len() as u32) as usize;
            self.traced.insert(self.seen[i]);
        }
    }
}

impl SwitchMonitor for EverFlowMonitor {
    fn on_routed(&mut self, ctx: &RoutedCtx, _frame: &[u8], _out: &mut Actions) {
        self.note_seen(ctx.flow);
    }

    fn on_egress(&mut self, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {
        let Some(flow) = ctx.meta.flow else { return };
        if !self.matches(frame, &flow) {
            return;
        }
        self.log.record(Observation {
            device: ctx.node,
            flow,
            t_ingress: ctx.meta.ingress_ts_ns,
            t_egress: ctx.now_ns,
            kind: ObsKind::Forwarded,
        });
        self.mirrors += 1;
        out.report(MIRROR_BYTES);
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
        // Only on-demand traced flows are mirrored at drop sites: the
        // SYN/FIN mirror lives at egress, which a dropped packet never
        // reaches (why the paper measures EverFlow's drop coverage <1%).
        if !self.traced.contains(&flow) {
            return;
        }
        self.log.record(Observation {
            device: ctx.node,
            flow,
            t_ingress: ctx.now_ns,
            t_egress: 0,
            kind: ObsKind::Dropped(fet_packet::EventType::PipelineDrop),
        });
        self.mirrors += 1;
        out.report(MIRROR_BYTES);
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, _frame: &[u8], out: &mut Actions) {
        if !self.traced.contains(&ctx.flow) {
            return;
        }
        self.log.record(Observation {
            device: ctx.node,
            flow: ctx.flow,
            t_ingress: ctx.now_ns,
            t_egress: 0,
            kind: ObsKind::Dropped(fet_packet::EventType::MmuDrop),
        });
        self.mirrors += 1;
        out.report(MIRROR_BYTES);
    }

    fn on_timer(&mut self, _now_ns: u64, _counters: &[PortCounters], _out: &mut Actions) {
        self.rotate();
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        Some(self.rotate_interval_ns)
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
    use fet_packet::builder::build_data_packet;
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::tcp::flags;
    use fet_pdp::PacketMeta;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn ectx<'a>(meta: &'a PacketMeta) -> EgressCtx<'a> {
        EgressCtx {
            now_ns: 10,
            node: 0,
            port: 0,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta,
        }
    }

    #[test]
    fn syn_and_fin_mirrored_data_not() {
        let mut m = EverFlowMonitor::with_params(1, 1_000, 60 * fet_netsim::SECONDS);
        let mut meta = PacketMeta::arriving(0, 64);
        meta.flow = Some(flow(1));
        let mut out = Actions::new();
        let mut syn = build_data_packet(&flow(1), 10, flags::SYN, 0, 64);
        let mut data = build_data_packet(&flow(1), 10, flags::ACK, 0, 64);
        let mut fin = build_data_packet(&flow(1), 10, flags::FIN | flags::ACK, 0, 64);
        m.on_egress(&ectx(&meta), &mut syn, &mut out);
        m.on_egress(&ectx(&meta), &mut data, &mut out);
        m.on_egress(&ectx(&meta), &mut fin, &mut out);
        assert_eq!(m.mirrors, 2);
    }

    #[test]
    fn traced_flows_fully_mirrored() {
        let mut m = EverFlowMonitor::with_params(1, 1_000, 60 * fet_netsim::SECONDS);
        m.traced.insert(flow(9));
        let mut meta = PacketMeta::arriving(0, 64);
        meta.flow = Some(flow(9));
        let mut out = Actions::new();
        let mut data = build_data_packet(&flow(9), 10, flags::ACK, 0, 64);
        m.on_egress(&ectx(&meta), &mut data, &mut out);
        assert_eq!(m.mirrors, 1);
    }

    #[test]
    fn rotation_picks_from_seen_pool() {
        let mut m = EverFlowMonitor::with_params(1, 5, 1);
        let mut out = Actions::new();
        for n in 0..100u16 {
            let rctx = RoutedCtx {
                now_ns: 0,
                node: 0,
                ingress_port: 0,
                egress_port: 1,
                queue: 0,
                queue_paused: false,
                flow: flow(n),
            };
            m.on_routed(&rctx, &[], &mut out);
        }
        m.rotate();
        assert!(!m.traced.is_empty() && m.traced.len() <= 5);
        let before: Vec<FlowKey> = m.traced.iter().copied().collect();
        m.rotate();
        // New random set (with overwhelming probability differs).
        let after: Vec<FlowKey> = m.traced.iter().copied().collect();
        let _ = (before, after);
    }

    #[test]
    fn dropped_traced_packet_mirrored() {
        let mut m = EverFlowMonitor::with_params(1, 1_000, 60 * fet_netsim::SECONDS);
        m.traced.insert(flow(2));
        let f = build_data_packet(&flow(2), 10, flags::ACK, 0, 64);
        let ictx = IngressCtx::parse(7, 0, 0, &f);
        let mut out = Actions::new();
        m.on_pipeline_drop(&ictx, &f, Some(flow(2)), DropCode::TableMiss, None, 0, &mut out);
        assert_eq!(m.log.obs.len(), 1);
    }

    #[test]
    fn untraced_drop_invisible_even_with_syn() {
        let mut m = EverFlowMonitor::with_params(1, 1_000, 60 * fet_netsim::SECONDS);
        let f = build_data_packet(&flow(3), 10, flags::SYN, 0, 64);
        let ictx = IngressCtx::parse(7, 0, 0, &f);
        let mut out = Actions::new();
        m.on_pipeline_drop(&ictx, &f, Some(flow(3)), DropCode::TableMiss, None, 0, &mut out);
        assert!(m.log.obs.is_empty());
    }
}
