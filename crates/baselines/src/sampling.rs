//! 1:k packet sampling (sFlow-style with egress metadata). Samples
//! forwarded packets only — dropped packets are never sampled, which is
//! why the paper finds "sampling cannot capture packet drops".

use crate::observe::{ObsKind, Observation, ObservationLog};
use fet_netsim::monitor::{Actions, EgressCtx, SwitchMonitor};
use std::any::Any;

/// Bytes mirrored per sample (truncated header + metadata).
pub(crate) const SAMPLE_BYTES: usize = 128;

/// Per-switch 1:k sampler.
#[derive(Debug)]
pub struct SamplingMonitor {
    /// Sampling ratio denominator (1:k).
    pub(crate) k: u64,
    counter: u64,
    /// What was sampled.
    pub log: ObservationLog,
    /// Samples emitted.
    pub(crate) samples: u64,
}

impl SamplingMonitor {
    /// Create a 1:k sampler.
    pub fn new(k: u64) -> Self {
        SamplingMonitor { k: k.max(1), counter: 0, log: ObservationLog::new(), samples: 0 }
    }
}

impl SwitchMonitor for SamplingMonitor {
    fn on_egress(&mut self, ctx: &EgressCtx<'_>, _frame: &mut Vec<u8>, out: &mut Actions) {
        let Some(flow) = ctx.meta.flow else { return };
        self.counter += 1;
        if !self.counter.is_multiple_of(self.k) {
            return;
        }
        self.log.record(Observation {
            device: ctx.node,
            flow,
            t_ingress: ctx.meta.ingress_ts_ns,
            t_egress: ctx.now_ns,
            kind: ObsKind::Forwarded,
        });
        self.samples += 1;
        out.report(SAMPLE_BYTES);
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
    use fet_packet::FlowKey;
    use fet_pdp::PacketMeta;

    #[test]
    fn samples_every_kth_packet() {
        let mut m = SamplingMonitor::new(10);
        let mut meta = PacketMeta::arriving(0, 64);
        meta.flow = Some(FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            1,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            2,
        ));
        let ctx = EgressCtx {
            now_ns: 1,
            node: 0,
            port: 0,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta: &meta,
        };
        let mut out = Actions::new();
        let mut f = vec![0u8; 64];
        for _ in 0..100 {
            m.on_egress(&ctx, &mut f, &mut out);
        }
        assert_eq!(m.samples, 10);
        assert_eq!(out.report_bytes, 10 * SAMPLE_BYTES as u64);
    }

    #[test]
    fn k_one_samples_everything() {
        let mut m = SamplingMonitor::new(1);
        let mut meta = PacketMeta::arriving(0, 64);
        meta.flow = Some(FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            1,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            2,
        ));
        let ctx = EgressCtx {
            now_ns: 1,
            node: 0,
            port: 0,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta: &meta,
        };
        let mut out = Actions::new();
        let mut f = vec![0u8; 64];
        for _ in 0..5 {
            m.on_egress(&ctx, &mut f, &mut out);
        }
        assert_eq!(m.samples, 5);
    }

    #[test]
    fn zero_k_clamped() {
        let m = SamplingMonitor::new(0);
        assert_eq!(m.k, 1);
    }
}
