//! The monitor hook interface — the boundary between the simulated switch
//! hardware and any telemetry system running on it.
//!
//! NetSeer (crates/core) and every baseline (crates/baselines) implement
//! [`SwitchMonitor`]. The switch calls the hooks at the same points a
//! programmable pipeline would expose:
//!
//! | hook               | pipeline position                               |
//! |--------------------|-------------------------------------------------|
//! | `on_ingress`       | after the parser, before the tag is removed: sees the frame as it arrived, with the tag's sequence number and the kind of the frame beneath it parsed into [`IngressCtx`] — may consume the frame (a notification addressed to this switch) |
//! | `on_routed`        | end of the ingress pipeline: flow, ports, queue and pause state resolved; the frame without its tag |
//! | `on_pipeline_drop` | wherever the pipeline kills a packet            |
//! | `on_mmu_drop`      | the MMU's drop path (NetSeer redirects this)    |
//! | `on_egress`        | egress pipeline at dequeue: queuing delay known; on a tagged link the frame carries an open tag header, which the hook claims with [`Actions::tag`] |
//! | `on_timer`         | periodic control-plane tick (CPU pacing, expiry) |
//!
//! The hop tag belongs to the switch's parser and deparser, as in a
//! programmable pipeline: the parser reads it, the ASIC removes it by
//! sliding the 12 MAC bytes over it, and at a tagged egress the deparser
//! re-forms it in the same place and writes the sequence number the
//! monitor claimed. A header nobody claims is closed again. No hook
//! moves a payload.
//!
//! Hooks communicate back through [`Actions`]: frames to transmit (e.g.
//! loss notifications on a high-priority queue), the bytes of
//! management-plane reports, metered for the overhead figures, and the
//! egress tag claim.

use crate::counters::PortCounters;
use fet_packet::builder::FrameKind;
use fet_packet::event::DropCode;
use fet_packet::{FlowKey, SEQTAG_LEN};
use fet_pdp::PacketMeta;
use std::any::Any;

/// Context for ingress-side hooks.
#[derive(Debug, Clone, Copy)]
pub struct IngressCtx {
    /// Simulation time, ns.
    pub now_ns: u64,
    /// This device's id.
    pub node: u32,
    /// Arrival port.
    pub port: u8,
    /// Sequence number of the frame's hop tag, `None` when it carries no
    /// whole tag.
    pub seq: Option<u32>,
    /// Kind of the frame beneath the hop tag (the frame's own kind when
    /// it carries none).
    pub kind: FrameKind,
}

impl IngressCtx {
    /// The context for `frame` arriving on `port`: the parser's one pass
    /// over it fills [`seq`](Self::seq) and [`kind`](Self::kind).
    pub fn parse(now_ns: u64, node: u32, port: u8, frame: &[u8]) -> Self {
        let (seq, kind) = fet_packet::builder::parse_hop(frame);
        IngressCtx { now_ns, node, port, seq, kind }
    }

    /// `frame` (as it arrived) from the view of the frame beneath its hop
    /// tag: from byte 12 on, the bytes the tag's removal leaves. Only its
    /// first 12 bytes, the MAC addresses, differ from that frame's.
    pub fn untagged<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        if self.seq.is_some() {
            &frame[SEQTAG_LEN..]
        } else {
            frame
        }
    }
}

/// Context after routing: everything the end of the ingress pipeline knows.
#[derive(Debug, Clone, Copy)]
pub struct RoutedCtx {
    /// Simulation time, ns.
    pub now_ns: u64,
    /// This device's id.
    pub node: u32,
    /// Arrival port.
    pub ingress_port: u8,
    /// Chosen egress port.
    pub egress_port: u8,
    /// Egress priority queue.
    pub queue: u8,
    /// True if that queue is currently PFC-paused.
    pub queue_paused: bool,
    /// The packet's flow.
    pub flow: FlowKey,
}

/// Context for the egress pipeline (at dequeue).
#[derive(Debug, Clone, Copy)]
pub struct EgressCtx<'a> {
    /// Simulation time, ns.
    pub now_ns: u64,
    /// This device's id.
    pub node: u32,
    /// Egress port.
    pub port: u8,
    /// Egress queue the packet waited in.
    pub queue: u8,
    /// True when the downstream neighbor runs telemetry.
    pub peer_tagged: bool,
    /// True when the frame carries an open hop-tag header (sequence
    /// number 0) for the monitor to claim with [`Actions::tag`]: the
    /// link is tagged and the frame can take a tag (not PFC, not already
    /// tagged). Unclaimed, the header is closed before transmission.
    pub tag_open: bool,
    /// The switch's congestion verdict: a data packet whose queuing delay
    /// exceeded [`SwitchConfig::congestion_threshold_ns`]. The same
    /// comparison records ground truth, so a monitor that reads it can
    /// never disagree with the fabric about what congestion is.
    ///
    /// [`SwitchConfig::congestion_threshold_ns`]: crate::switchdev::SwitchConfig::congestion_threshold_ns
    pub congested: bool,
    /// Packet metadata (timestamps filled in; queuing delay available).
    pub meta: &'a PacketMeta,
}

/// What `on_ingress` decided about the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookVerdict {
    /// Keep processing the (possibly rewritten) frame.
    Continue,
    /// The monitor consumed the frame (e.g. a loss notification); the
    /// switch stops processing it.
    Consume,
}

/// A frame the monitor asks the switch to transmit.
#[derive(Debug, Clone)]
pub struct EmitFrame {
    /// Egress port to send on.
    pub out_port: u8,
    /// Complete Ethernet frame.
    pub frame: Vec<u8>,
    /// Send on the dedicated high-priority queue (notifications).
    pub high_priority: bool,
}

/// Out-parameters for all hooks.
#[derive(Debug, Default)]
pub struct Actions {
    /// Frames to transmit.
    pub emit: Vec<EmitFrame>,
    /// Bytes of management-plane reports (their contents stay inside the
    /// monitor's own state; only the volume reaches the overhead figures).
    pub report_bytes: u64,
    /// The sequence number `on_egress` claimed the open tag header with.
    pub tag: Option<u32>,
}

impl Actions {
    /// Fresh empty action set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a frame for transmission.
    pub fn emit(&mut self, out_port: u8, frame: Vec<u8>, high_priority: bool) {
        self.emit.push(EmitFrame { out_port, frame, high_priority });
    }

    /// Meter a management-plane report of `bytes`.
    pub fn report(&mut self, bytes: usize) {
        self.report_bytes += bytes as u64;
    }

    /// Claim the open hop-tag header of the departing frame with `seq`
    /// (see [`EgressCtx::tag_open`]).
    pub fn tag(&mut self, seq: u32) {
        self.tag = Some(seq);
    }

    /// True when nothing was produced.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.emit.is_empty() && self.report_bytes == 0 && self.tag.is_none()
    }
}

/// The telemetry interface implemented by NetSeer and all baselines.
#[allow(unused_variables)]
pub trait SwitchMonitor: Any + Send {
    /// Frame arrived, as it came off the wire (`ctx` holds what the
    /// parser read). May consume it; must not re-frame it.
    fn on_ingress(
        &mut self,
        ctx: &IngressCtx,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        HookVerdict::Continue
    }

    /// Routing resolved (end of ingress pipeline).
    fn on_routed(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {}

    /// The pipeline dropped a packet.
    #[allow(clippy::too_many_arguments)]
    fn on_pipeline_drop(
        &mut self,
        ctx: &IngressCtx,
        frame: &[u8],
        flow: Option<FlowKey>,
        code: DropCode,
        egress_port: Option<u8>,
        acl_rule: u32,
        out: &mut Actions,
    ) {
    }

    /// The MMU dropped (or, under NetSeer, redirected) a packet.
    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {}

    /// Egress pipeline at dequeue (queuing delay known). Claims an open
    /// tag header through [`Actions::tag`]; must not re-frame the frame.
    fn on_egress(&mut self, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {}

    /// PFC pause state of (port, priority) changed.
    fn on_pause_state(&mut self, now_ns: u64, port: u8, prio: u8, paused: bool) {}

    /// Periodic control-plane tick.
    fn on_timer(&mut self, now_ns: u64, counters: &[PortCounters], out: &mut Actions) {}

    /// Requested tick interval, ns (None = no timer).
    fn timer_interval_ns(&self) -> Option<u64> {
        None
    }

    /// Downcast support for experiment harnesses.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl SwitchMonitor for Nop {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn default_hooks_do_nothing() {
        let mut m = Nop;
        let mut frame = vec![0u8; 64];
        let ctx = IngressCtx::parse(0, 0, 0, &frame);
        let mut out = Actions::new();
        assert_eq!(m.on_ingress(&ctx, &mut frame, &mut out), HookVerdict::Continue);
        assert!(out.is_empty());
        assert_eq!(m.timer_interval_ns(), None);
    }

    #[test]
    fn actions_collect() {
        let mut a = Actions::new();
        a.emit(3, vec![1, 2, 3], true);
        a.report(128);
        a.report(64);
        assert_eq!(a.emit.len(), 1);
        assert_eq!(a.emit[0].out_port, 3);
        assert!(a.emit[0].high_priority);
        assert_eq!(a.report_bytes, 192);
        assert!(!a.is_empty());
    }

    #[test]
    fn downcasting_works() {
        struct WithState {
            hits: u32,
        }
        impl SwitchMonitor for WithState {
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut m: Box<dyn SwitchMonitor> = Box::new(WithState { hits: 5 });
        let s = m.as_any_mut().downcast_mut::<WithState>().unwrap();
        s.hits += 1;
        assert_eq!(m.as_any().downcast_ref::<WithState>().unwrap().hits, 6);
    }
}
