//! The simulated programmable switch: ingress pipeline (parse → ACL → TTL →
//! LPM route → ECMP), shared-buffer MMU, per-priority egress queues with
//! PFC, and the monitor hook points listed in [`crate::monitor`].

use crate::counters::PortCounters;
use crate::fxhash::FxHashMap;
use crate::mmu::{Mmu, MmuConfig, MmuVerdict};
use crate::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
use crate::tracer::{GroundTruth, GtEvent};
use fet_packet::builder::{
    extract_flow, insert_seqtag_in_place, set_seqtag_seq, slide_in_seqtag, slide_out_seqtag,
    strip_seqtag_in_place, taggable, FrameKind,
};
use fet_packet::ethernet::ETHERNET_HEADER_LEN;
use fet_packet::event::{DropCode, EventType};
use fet_packet::ipv4::{Ipv4Addr, Ipv4Packet};
use fet_packet::pfc::{quanta_to_ns, PfcFrame, PFC_CLASSES};
use fet_packet::{FlowKey, SEQTAG_LEN};
use fet_pdp::hash::slot;
use fet_pdp::table::{AclAction, AclTable, LpmTable};
use fet_pdp::{HashUnit, PacketMeta};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Number of egress priority queues per port.
pub(crate) const QUEUES: u8 = 8;

/// The queue used for monitor-emitted high-priority traffic
/// (loss notifications ride "an independent queue in high priority").
pub(crate) const HIGH_PRIO_QUEUE: u8 = 7;

/// MTU, bytes: frames larger than this are pipeline-dropped.
const MTU: usize = 1600;

/// PFC pause quanta sent when a queue crosses XOFF.
const PFC_QUANTA: u16 = 4096;

/// Finite packet-processing capacity (middlebox model, paper §3.7).
/// A device with one drops packets it cannot process in time — the
/// "buffer overflow" class of local middlebox events.
#[derive(Debug, Clone, Copy)]
pub struct ProcessingModel {
    /// Processing throughput, Gbps.
    pub gbps: f64,
    /// Backlog the processing queue absorbs, bytes.
    pub buffer_bytes: u64,
}

/// Static switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of front-panel ports.
    pub ports: u8,
    /// MMU configuration.
    pub mmu: MmuConfig,
    /// Queuing delay above which a packet is a congestion event, ns.
    pub congestion_threshold_ns: u64,
    /// Bitmask of PFC-protected (lossless) priorities.
    pub pfc_priorities: u8,
    /// ECMP hash seed (per-switch, like a per-device hash rotation).
    pub ecmp_seed: u32,
    /// Optional processing-capacity limit (None = ASIC line rate).
    /// Middleboxes (firewalls, load balancers) set this; overload drops
    /// are reported with [`DropCode::Overload`].
    pub processing: Option<ProcessingModel>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 32,
            mmu: MmuConfig::default(),
            congestion_threshold_ns: 20 * crate::time::MICROS,
            pfc_priorities: 0,
            ecmp_seed: 1,
            processing: None,
        }
    }
}

/// A set of port numbers as a 256-bit mask. Iterates in ascending port
/// order; inserting a port twice is a no-op.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortSet([u64; 4]);

impl PortSet {
    /// Add `port`.
    pub(crate) fn insert(&mut self, port: u8) {
        self.0[usize::from(port >> 6)] |= 1 << (port & 63);
    }

    /// The ports, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = u8> {
        let mut words = self.0;
        let mut w = 0;
        std::iter::from_fn(move || {
            while w < words.len() {
                if words[w] != 0 {
                    let bit = words[w].trailing_zeros();
                    words[w] &= words[w] - 1;
                    return Some((w as u32 * 64 + bit) as u8);
                }
                w += 1;
            }
            None
        })
    }
}

/// What a device asks of the engine after an arrival, a dequeue or a
/// monitor tick. Switches and hosts return the same type, so the engine
/// acts on every device through one path.
#[derive(Debug, Default)]
pub struct Effects {
    /// Ports that enqueued traffic and may need a dequeue scheduled.
    pub(crate) kick_ports: PortSet,
    /// PFC frames to transmit immediately (bypass queues, MAC control).
    pub(crate) pfc_frames: Vec<(u8, Vec<u8>)>,
    /// Bytes the monitor reported on the management network.
    pub(crate) report_bytes: u64,
}

/// Result of dequeuing one frame for transmission.
#[derive(Debug)]
pub struct DequeueResult {
    /// The (possibly monitor-rewritten) frame to put on the wire.
    pub frame: Vec<u8>,
    /// Extra effects (PFC resumes, monitor actions).
    pub(crate) effects: Effects,
}

/// One simulated switch.
pub struct SwitchDevice {
    /// Device id (assigned by the engine).
    pub(crate) id: u32,
    /// Human-readable name (e.g. "tor0", "agg1", "core0").
    pub name: String,
    /// Configuration.
    pub(crate) config: SwitchConfig,
    /// IPv4 routing table: destination prefix → ECMP port set.
    pub routes: LpmTable<Vec<u8>>,
    /// Ingress ACL.
    pub acl: AclTable,
    /// Port link state (true = up).
    pub port_up: Vec<bool>,
    /// Ports whose peer also runs telemetry (sequence tagging applies).
    pub tag_ports: Vec<bool>,
    /// Per-port counters.
    pub counters: Vec<PortCounters>,
    /// The attached telemetry monitor, if any.
    pub monitor: Option<Box<dyn SwitchMonitor>>,
    mmu: Mmu,
    /// Queued frames with their metadata. A frame that arrived tagged
    /// keeps the tag's bytes as headroom in front: its buffer holds
    /// `meta.frame_len` bytes of frame after `len() - meta.frame_len`
    /// bytes of room (see [`untagged`]).
    queues: Vec<VecDeque<(Vec<u8>, PacketMeta)>>,
    /// Per port, bit `q` set while queue `q` holds a frame (`QUEUES` is
    /// 8, so one byte per port).
    backlog: Vec<u8>,
    /// TX pause deadline per (port, prio); 0 = not paused.
    paused_until: Vec<u64>,
    /// For each (egress port, prio) crossing XOFF: the ingress ports we
    /// paused, with the time their pause expires (PAUSE is refreshed while
    /// the queue stays above XOFF; XON resumes exactly these ports, in
    /// ascending port order).
    paused_upstreams: HashMap<(u8, u8), BTreeMap<u8, u64>>,
    ecmp_hash: HashUnit,
    /// Middlebox processing serializer (None for plain switches).
    processor: Option<fet_pdp::RateLimitedChannel>,
    /// Exact per-flow (ingress, egress) map for the ground-truth oracle's
    /// path-change record (unbounded — this is the oracle, not the DUT).
    /// Only ever probed by key, so its Fx hash order reaches no output.
    gt_paths: FxHashMap<FlowKey, (u8, u8)>,
    /// Whether each port's serializer is currently busy.
    pub port_busy: Vec<bool>,
    /// Per port, the `(time, seq)` key of a tx-done that found the port
    /// drained and so was recorded rather than scheduled (see
    /// `Simulator::kick_port`).
    pub(crate) idle_tx: Vec<Option<(u64, u64)>>,
}

impl std::fmt::Debug for SwitchDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchDevice")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl SwitchDevice {
    /// Create a switch.
    pub fn new(id: u32, name: impl Into<String>, config: SwitchConfig) -> Self {
        let ports = usize::from(config.ports);
        let mmu = Mmu::new(config.ports, config.mmu);
        SwitchDevice {
            id,
            name: name.into(),
            routes: LpmTable::new(),
            acl: AclTable::new(),
            port_up: vec![true; ports],
            tag_ports: vec![false; ports],
            counters: vec![PortCounters::default(); ports],
            monitor: None,
            mmu,
            queues: (0..ports * usize::from(QUEUES)).map(|_| VecDeque::new()).collect::<Vec<_>>(),
            backlog: vec![0; ports],
            paused_until: vec![0; ports * PFC_CLASSES],
            paused_upstreams: HashMap::new(),
            ecmp_hash: HashUnit::new(config.ecmp_seed, 32),
            processor: config
                .processing
                .map(|p| fet_pdp::RateLimitedChannel::new(p.gbps, p.buffer_bytes)),
            gt_paths: FxHashMap::default(),
            port_busy: vec![false; ports],
            idle_tx: vec![None; ports],
            config,
        }
    }

    /// Attach a telemetry monitor.
    pub fn set_monitor(&mut self, m: Box<dyn SwitchMonitor>) {
        self.monitor = Some(m);
    }

    fn qidx(&self, port: u8, queue: u8) -> usize {
        usize::from(port) * usize::from(QUEUES) + usize::from(queue)
    }

    /// Is TX currently paused for (port, prio)?
    pub(crate) fn tx_paused(&self, now_ns: u64, port: u8, prio: u8) -> bool {
        now_ns < self.paused_until[self.qidx(port, prio)]
    }

    #[cfg(test)]
    pub(crate) fn queue_len(&self, port: u8, queue: u8) -> usize {
        self.queues[self.qidx(port, queue)].len()
    }

    #[cfg(test)]
    fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    fn record_drop(
        &self,
        gt: &mut GroundTruth,
        now_ns: u64,
        ty: EventType,
        flow: Option<FlowKey>,
        code: DropCode,
        acl_rule: Option<u32>,
    ) {
        gt.record(GtEvent {
            time_ns: now_ns,
            device: self.id,
            ty,
            flow,
            drop_code: Some(code),
            acl_rule,
        });
    }

    /// Handle a frame arriving on `port` at `now_ns`.
    pub fn handle_arrival(
        &mut self,
        now_ns: u64,
        port: u8,
        mut frame: Vec<u8>,
        fcs_error: bool,
        gt: &mut GroundTruth,
    ) -> Effects {
        let mut fx = Effects::default();
        let p = usize::from(port);
        self.counters[p].rx_pkts += 1;
        self.counters[p].rx_bytes += frame.len() as u64;

        // Corrupted frames die at the MAC; nothing downstream of the MAC —
        // including the monitor — ever sees them (paper §3.3).
        if fcs_error {
            self.counters[p].fcs_errors += 1;
            return fx;
        }

        // The parser's one pass: the hop tag and the kind beneath it.
        let ctx = IngressCtx::parse(now_ns, self.id, port, &frame);
        // Monitor ingress hook (reads sequence tags, consumes notifications).
        if let Some(m) = self.monitor.as_mut() {
            let mut actions = Actions::new();
            let verdict = m.on_ingress(&ctx, &mut frame, &mut actions);
            self.apply_actions(now_ns, actions, gt, &mut fx);
            if verdict == HookVerdict::Consume {
                return fx;
            }
        }
        // The ASIC removes the hop tag whatever the monitor did: a
        // missing, crashed or tag-blind monitor never leaks a tag to the
        // next hop.
        let room = remove_tag(&ctx, &mut frame);

        match ctx.kind {
            FrameKind::Pfc => {
                self.handle_pfc(now_ns, port, &frame[room..], &mut fx);
                fx
            }
            FrameKind::Ipv4 => {
                self.ingress_pipeline(&ctx, frame, room, gt, &mut fx);
                fx
            }
            FrameKind::LossNotification => {
                // A notification no monitor consumed (none attached, or it
                // is down): nothing useful to do — count it as handled.
                fx
            }
            FrameKind::Cebp | FrameKind::Other => {
                // CEBPs never appear on external wires; garbage is dropped.
                self.counters[p].pipeline_drops += 1;
                self.record_drop(
                    gt,
                    now_ns,
                    EventType::PipelineDrop,
                    None,
                    DropCode::ParseError,
                    None,
                );
                fx
            }
        }
    }

    fn handle_pfc(&mut self, now_ns: u64, port: u8, frame: &[u8], fx: &mut Effects) {
        let Ok(pfc) = PfcFrame::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            return;
        };
        for prio in 0..PFC_CLASSES {
            let i = self.qidx(port, prio as u8);
            if pfc.pauses(prio) {
                let dur = quanta_to_ns(pfc.timer(prio), 100.0);
                self.paused_until[i] = now_ns + dur;
                if let Some(m) = self.monitor.as_mut() {
                    m.on_pause_state(now_ns, port, prio as u8, true);
                }
            } else if pfc.resumes(prio) {
                self.paused_until[i] = 0;
                if let Some(m) = self.monitor.as_mut() {
                    m.on_pause_state(now_ns, port, prio as u8, false);
                }
                fx.kick_ports.insert(port);
            }
        }
    }

    /// The ingress pipeline over `frame[room..]`, the frame the parser
    /// left (its first `room` bytes are the removed tag's headroom).
    fn ingress_pipeline(
        &mut self,
        ictx: &IngressCtx,
        mut frame: Vec<u8>,
        room: usize,
        gt: &mut GroundTruth,
        fx: &mut Effects,
    ) {
        let (now_ns, port) = (ictx.now_ns, ictx.port);
        let len = frame.len() - room;
        let Some(flow) = extract_flow(&frame[room..]) else {
            let frame = &frame[room..];
            self.pipeline_drop(now_ns, ictx, frame, None, DropCode::ParseError, None, 0, gt, fx);
            return;
        };

        // Middlebox processing capacity: a device that cannot keep up
        // drops the packet locally (§3.7's "buffer overflow" event).
        if let Some(proc) = self.processor.as_mut() {
            if proc.offer(now_ns, len).is_none() {
                self.pipeline_drop(
                    now_ns,
                    ictx,
                    &frame[room..],
                    Some(flow),
                    DropCode::Overload,
                    None,
                    0,
                    gt,
                    fx,
                );
                return;
            }
        }

        // ACL.
        let (verdict, rule_id) = self.acl.evaluate(&flow);
        if verdict == AclAction::Deny {
            self.pipeline_drop(
                now_ns,
                ictx,
                &frame[room..],
                Some(flow),
                DropCode::AclDeny,
                None,
                rule_id,
                gt,
                fx,
            );
            return;
        }

        // TTL.
        let l3 = room + l3_offset(&frame[room..]);
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[l3..]);
            if ip.ttl() <= 1 {
                ip.decrement_ttl();
                self.pipeline_drop(
                    now_ns,
                    ictx,
                    &frame[room..],
                    Some(flow),
                    DropCode::TtlExpired,
                    None,
                    0,
                    gt,
                    fx,
                );
                return;
            }
            ip.decrement_ttl();
        }

        // Route: resolve the ECMP member while the route is borrowed. A
        // one-member route (every downlink) needs no hash: `h % 1 == 0`.
        let route = self.routes.lookup(flow.dst).filter(|v| !v.is_empty());
        let hash = &self.ecmp_hash;
        let Some(egress_port) = route.map(|ecmp| match ecmp[..] {
            [only] => only,
            _ => ecmp[slot(hash.hash_flow(&flow) as usize, ecmp.len())],
        }) else {
            self.pipeline_drop(
                now_ns,
                ictx,
                &frame[room..],
                Some(flow),
                DropCode::TableMiss,
                None,
                0,
                gt,
                fx,
            );
            return;
        };
        if !self.port_up[usize::from(egress_port)] {
            self.pipeline_drop(
                now_ns,
                ictx,
                &frame[room..],
                Some(flow),
                DropCode::PortDown,
                Some(egress_port),
                0,
                gt,
                fx,
            );
            return;
        }

        // MTU.
        if len > MTU {
            self.pipeline_drop(
                now_ns,
                ictx,
                &frame[room..],
                Some(flow),
                DropCode::MtuExceeded,
                Some(egress_port),
                0,
                gt,
                fx,
            );
            return;
        }

        let queue = Ipv4Packet::new_unchecked(&frame[l3..]).dscp() >> 3;

        // Ground truth: path change (first packet of a flow, or port pair
        // changed).
        let prev = self.gt_paths.insert(flow, (port, egress_port));
        if prev != Some((port, egress_port)) {
            gt.record(GtEvent {
                time_ns: now_ns,
                device: self.id,
                ty: EventType::PathChange,
                flow: Some(flow),
                drop_code: None,
                acl_rule: None,
            });
        }

        let queue_paused = self.tx_paused(now_ns, egress_port, queue);
        let rctx = RoutedCtx {
            now_ns,
            node: self.id,
            ingress_port: port,
            egress_port,
            queue,
            queue_paused,
            flow,
        };

        // Ground truth: pause event (packet heading to a paused queue).
        if queue_paused {
            gt.record(GtEvent {
                time_ns: now_ns,
                device: self.id,
                ty: EventType::Pause,
                flow: Some(flow),
                drop_code: None,
                acl_rule: None,
            });
        }

        let mut actions = Actions::new();
        if let Some(m) = self.monitor.as_mut() {
            m.on_routed(&rctx, &frame[room..], &mut actions);
        }
        self.apply_actions(now_ns, actions, gt, fx);

        // MMU admission.
        let mut meta = PacketMeta::arriving(now_ns, len);
        meta.egress_port = Some(egress_port);
        meta.queue = queue;
        meta.flow = Some(flow);
        self.enqueue(now_ns, frame, meta, rctx, gt, fx);
    }

    /// Try to enqueue a frame whose routing is already resolved (also used
    /// for monitor-emitted frames).
    fn enqueue(
        &mut self,
        now_ns: u64,
        frame: Vec<u8>,
        meta: PacketMeta,
        rctx: RoutedCtx,
        gt: &mut GroundTruth,
        fx: &mut Effects,
    ) {
        let eport = rctx.egress_port;
        let queue = rctx.queue;
        match self.mmu.admit(eport, queue, meta.frame_len as u64) {
            MmuVerdict::Admit => {
                let qi = self.qidx(eport, queue);
                self.queues[qi].push_back((frame, meta));
                self.backlog[usize::from(eport)] |= 1 << queue;
                fx.kick_ports.insert(eport);
                // PFC XOFF: pause the contributing ingress port, and keep
                // refreshing the pause while the queue stays above XOFF
                // (real PFC re-arms before the quanta expire).
                if self.config.pfc_priorities & (1 << queue) != 0
                    && self.mmu.above_xoff(eport, queue)
                {
                    let pause_ns = fet_packet::pfc::quanta_to_ns(PFC_QUANTA, 100.0);
                    let ups = self.paused_upstreams.entry((eport, queue)).or_default();
                    let entry = ups.entry(rctx.ingress_port).or_insert(0);
                    // Refresh once 60% of the previous pause has elapsed.
                    if now_ns + (pause_ns * 2 / 5) >= *entry {
                        *entry = now_ns + pause_ns;
                        let pfc =
                            fet_packet::builder::build_pfc_frame(usize::from(queue), PFC_QUANTA);
                        self.counters[usize::from(rctx.ingress_port)].pfc_tx += 1;
                        fx.pfc_frames.push((rctx.ingress_port, pfc));
                    }
                }
            }
            MmuVerdict::Drop => {
                self.counters[usize::from(eport)].mmu_drops += 1;
                // Monitor-emitted frames (meta.flow unset) are not data
                // traffic: losing one is a telemetry capacity limit, not a
                // ground-truth flow event.
                if meta.flow.is_some() {
                    self.record_drop(
                        gt,
                        now_ns,
                        EventType::MmuDrop,
                        Some(rctx.flow),
                        DropCode::BufferFull,
                        None,
                    );
                    let mut actions = Actions::new();
                    if let Some(m) = self.monitor.as_mut() {
                        m.on_mmu_drop(&rctx, untagged(&frame, &meta), &mut actions);
                    }
                    self.apply_actions(now_ns, actions, gt, fx);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn pipeline_drop(
        &mut self,
        now_ns: u64,
        ictx: &IngressCtx,
        frame: &[u8],
        flow: Option<FlowKey>,
        code: DropCode,
        egress_port: Option<u8>,
        acl_rule: u32,
        gt: &mut GroundTruth,
        fx: &mut Effects,
    ) {
        self.counters[usize::from(ictx.port)].pipeline_drops += 1;
        self.record_drop(
            gt,
            now_ns,
            EventType::PipelineDrop,
            flow,
            code,
            (code == DropCode::AclDeny).then_some(acl_rule),
        );
        let mut actions = Actions::new();
        if let Some(m) = self.monitor.as_mut() {
            m.on_pipeline_drop(ictx, frame, flow, code, egress_port, acl_rule, &mut actions);
        }
        self.apply_actions(now_ns, actions, gt, fx);
    }

    /// Periodic control-plane tick: run the monitor's timer hook (if a
    /// monitor is attached) and enqueue what it emits.
    pub(crate) fn on_timer(&mut self, now_ns: u64, gt: &mut GroundTruth) -> Effects {
        let mut fx = Effects::default();
        let mut actions = Actions::new();
        if let Some(m) = self.monitor.as_mut() {
            m.on_timer(now_ns, &self.counters, &mut actions);
        }
        self.apply_actions(now_ns, actions, gt, &mut fx);
        fx
    }

    /// Apply monitor actions: enqueue emitted frames, forward report bytes.
    fn apply_actions(
        &mut self,
        now_ns: u64,
        actions: Actions,
        gt: &mut GroundTruth,
        fx: &mut Effects,
    ) {
        fx.report_bytes += actions.report_bytes;
        for e in actions.emit {
            if usize::from(e.out_port) >= usize::from(self.config.ports)
                || !self.port_up[usize::from(e.out_port)]
            {
                continue;
            }
            let queue = if e.high_priority { HIGH_PRIO_QUEUE } else { 0 };
            let flow = extract_flow(&e.frame).unwrap_or(FlowKey::tcp(
                Ipv4Addr::from_u32(0),
                0,
                Ipv4Addr::from_u32(0),
                0,
            ));
            let mut meta = PacketMeta::arriving(now_ns, e.frame.len());
            meta.egress_port = Some(e.out_port);
            meta.queue = queue;
            let rctx = RoutedCtx {
                now_ns,
                node: self.id,
                ingress_port: e.out_port,
                egress_port: e.out_port,
                queue,
                queue_paused: false,
                flow,
            };
            self.enqueue(now_ns, e.frame, meta, rctx, gt, fx);
        }
    }

    /// Dequeue the next frame from `port` for transmission, if any.
    /// Picks the highest-priority unpaused non-empty queue.
    pub fn dequeue(
        &mut self,
        now_ns: u64,
        port: u8,
        gt: &mut GroundTruth,
    ) -> Option<DequeueResult> {
        let mut fx = Effects::default();
        let ready = self.transmittable(now_ns, port);
        if ready == 0 {
            return None;
        }
        let chosen = QUEUES - 1 - ready.leading_zeros() as u8;
        let qi = self.qidx(port, chosen);
        let (mut frame, mut meta) = self.queues[qi].pop_front()?;
        if self.queues[qi].is_empty() {
            self.backlog[usize::from(port)] &= !(1 << chosen);
        }
        self.mmu.release(port, chosen, meta.frame_len as u64);

        // PFC XON: resume upstreams we had paused, now that we drained.
        if self.config.pfc_priorities & (1 << chosen) != 0 && self.mmu.below_xon(port, chosen) {
            if let Some(ups) = self.paused_upstreams.remove(&(port, chosen)) {
                for up in ups.into_keys() {
                    let pfc = fet_packet::builder::build_pfc_frame(usize::from(chosen), 0);
                    self.counters[usize::from(up)].pfc_tx += 1;
                    fx.pfc_frames.push((up, pfc));
                }
            }
        }

        meta.egress_ts_ns = now_ns;

        // Ground truth: congestion (queuing delay over threshold). Only data
        // traffic counts — monitor-emitted frames carry a zero flow.
        let congested =
            meta.flow.is_some() && meta.queuing_delay_ns() > self.config.congestion_threshold_ns;
        if congested {
            gt.record(GtEvent {
                time_ns: now_ns,
                device: self.id,
                ty: EventType::Congestion,
                flow: meta.flow,
                drop_code: None,
                acl_rule: None,
            });
        }

        let mut actions = Actions::new();
        let peer_tagged = self.tag_ports[usize::from(port)];
        let tag_open = open_tag(&mut frame, meta.frame_len, peer_tagged && self.monitor.is_some());
        if let Some(m) = self.monitor.as_mut() {
            let ctx = EgressCtx {
                now_ns,
                node: self.id,
                port,
                queue: chosen,
                peer_tagged,
                tag_open,
                congested,
                meta: &meta,
            };
            m.on_egress(&ctx, &mut frame, &mut actions);
        }
        seal_tag(&mut frame, tag_open, actions.tag);
        self.apply_actions(now_ns, actions, gt, &mut fx);

        let pc = &mut self.counters[usize::from(port)];
        pc.tx_pkts += 1;
        pc.tx_bytes += frame.len() as u64;

        Some(DequeueResult { frame, effects: fx })
    }

    /// The non-empty queues of `port`, ascending.
    fn backlogged(&self, port: u8) -> impl Iterator<Item = u8> {
        let mut mask = self.backlog[usize::from(port)];
        std::iter::from_fn(move || {
            let q = (mask != 0).then(|| mask.trailing_zeros() as u8)?;
            mask &= mask - 1;
            Some(q)
        })
    }

    /// The non-empty, unpaused queues of `port`, one bit per queue.
    fn transmittable(&self, now_ns: u64, port: u8) -> u8 {
        self.backlogged(port)
            .filter(|&q| !self.tx_paused(now_ns, port, q))
            .fold(0, |m, q| m | 1 << q)
    }

    /// True when every queue of `port` is empty.
    pub(crate) fn drained(&self, port: u8) -> bool {
        self.backlog[usize::from(port)] == 0
    }

    /// True if any queue on `port` could transmit right now.
    pub(crate) fn has_transmittable(&self, now_ns: u64, port: u8) -> bool {
        self.transmittable(now_ns, port) != 0
    }

    /// Earliest pause expiry among nonempty paused queues of `port`
    /// (engine schedules a retry then).
    pub(crate) fn earliest_pause_expiry(&self, now_ns: u64, port: u8) -> Option<u64> {
        self.backlogged(port)
            .map(|q| self.paused_until[self.qidx(port, q)])
            .filter(|&t| t > now_ns)
            .min()
    }
}

/// Offset of the IPv4 header inside the frame (skips a sequence tag).
fn l3_offset(frame: &[u8]) -> usize {
    use fet_packet::ethernet::{EtherType, EthernetFrame};
    let eth = EthernetFrame::new_unchecked(frame);
    if eth.ethertype() == EtherType::NetSeerSeq {
        ETHERNET_HEADER_LEN + SEQTAG_LEN
    } else {
        ETHERNET_HEADER_LEN
    }
}

/// The parser's removal of the hop tag `ctx` read: slide the MAC bytes
/// over it, so the payload stays where it is and the tag's bytes become
/// headroom. Returns that headroom (0 for an untagged frame).
pub(crate) fn remove_tag(ctx: &IngressCtx, frame: &mut [u8]) -> usize {
    if ctx.seq.is_none() {
        return 0;
    }
    slide_out_seqtag(frame);
    SEQTAG_LEN
}

/// The frame in a queued buffer, past any headroom its removed tag left.
fn untagged<'a>(frame: &'a [u8], meta: &PacketMeta) -> &'a [u8] {
    &frame[frame.len() - meta.frame_len..]
}

/// The deparser's first half, before the egress hook: `frame` holds a
/// `len`-byte frame behind `frame.len() - len` bytes of headroom. On a
/// tagged link (`tag_link`) a taggable frame gets an open tag header
/// with sequence number 0 — formed in the headroom when there is some,
/// so only the MAC bytes move, else inserted — and `true` comes back.
/// Otherwise the headroom is dropped and `false` comes back.
pub(crate) fn open_tag(frame: &mut Vec<u8>, len: usize, tag_link: bool) -> bool {
    let room = frame.len() - len;
    if tag_link && taggable(&frame[room..]) {
        if room == 0 {
            insert_seqtag_in_place(frame, 0).expect("a taggable frame takes a tag");
        } else {
            slide_in_seqtag(frame, 0);
        }
        true
    } else {
        frame.drain(..room);
        false
    }
}

/// The deparser's second half, after the egress hook: write the claimed
/// sequence number into an open tag header, or close a header nobody
/// claimed.
pub(crate) fn seal_tag(frame: &mut Vec<u8>, tag_open: bool, claim: Option<u32>) {
    match (tag_open, claim) {
        (true, Some(seq)) => set_seqtag_seq(frame, seq),
        (true, None) => {
            strip_seqtag_in_place(frame).expect("an open header strips");
        }
        (false, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::builder::build_data_packet;
    use fet_packet::tcp::flags;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::from_octets([a, b, c, d])
    }

    fn flow() -> FlowKey {
        FlowKey::tcp(ip(10, 0, 0, 1), 1000, ip(10, 0, 1, 1), 80)
    }

    fn sw() -> SwitchDevice {
        let mut s = SwitchDevice::new(0, "sw0", SwitchConfig::default());
        s.routes.insert(ip(10, 0, 1, 0), 24, vec![2]);
        s
    }

    #[test]
    fn port_set_iterates_ascending_without_duplicates() {
        let mut set = PortSet::default();
        assert_eq!(set.iter().next(), None);
        for p in [200, 3, 64, 3, 255, 0, 63, 200] {
            set.insert(p);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 200, 255]);
    }

    #[test]
    fn forwards_routed_packet() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, flags::SYN, 0, 64);
        let fx = s.handle_arrival(0, 1, pkt, false, &mut gt);
        assert_eq!(fx.kick_ports.iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.queue_len(2, 0), 1);
        let out = s.dequeue(0, 2, &mut gt).unwrap();
        assert!(extract_flow(&out.frame).is_some());
        assert_eq!(s.counters[2].tx_pkts, 1);
        // TTL decremented in flight.
        let ipp = Ipv4Packet::new_unchecked(&out.frame[ETHERNET_HEADER_LEN..]);
        assert_eq!(ipp.ttl(), 63);
    }

    /// The egress port `s` picks for `flow`, read off the kick set.
    fn egress_of(s: &mut SwitchDevice, flow: &FlowKey) -> u8 {
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(flow, 100, 0, 0, 64);
        let fx = s.handle_arrival(0, 1, pkt, false, &mut gt);
        let ports: Vec<u8> = fx.kick_ports.iter().collect();
        assert_eq!(ports.len(), 1, "one egress per packet");
        let port = ports[0];
        s.dequeue(0, port, &mut gt).expect("queued");
        port
    }

    #[test]
    fn ecmp_member_choice() {
        let flows: Vec<FlowKey> =
            (0..200u16).map(|sp| FlowKey::tcp(ip(10, 0, 0, 1), sp, ip(10, 0, 1, 1), 80)).collect();
        // A one-member route forwards every flow to that member.
        let mut single = sw();
        for f in &flows {
            assert_eq!(egress_of(&mut single, f), 2, "{f:?}");
        }
        // A two-member route splits exactly as `hash_flow % 2` over the
        // switch's seeded ECMP unit, 100/100 as it always has.
        let mut pair = SwitchDevice::new(0, "sw0", SwitchConfig::default());
        pair.routes.insert(ip(10, 0, 1, 0), 24, vec![2, 5]);
        let unit = HashUnit::new(SwitchConfig::default().ecmp_seed, 32);
        let mut split = [0usize; 2];
        for f in &flows {
            let want = [2, 5][unit.hash_flow(f) as usize % 2];
            assert_eq!(egress_of(&mut pair, f), want, "{f:?}");
            split[usize::from(want == 5)] += 1;
        }
        assert_eq!(split, [100, 100]);
    }

    #[test]
    fn route_miss_is_pipeline_drop() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let other = FlowKey::tcp(ip(10, 0, 0, 1), 1, ip(172, 16, 0, 1), 80);
        let pkt = build_data_packet(&other, 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        assert_eq!(s.counters[1].pipeline_drops, 1);
        assert_eq!(gt.count(EventType::PipelineDrop), 1);
        assert_eq!(gt.events()[0].drop_code, Some(DropCode::TableMiss));
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 1);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        let drops: Vec<_> = gt.events().iter().filter_map(|e| e.drop_code).collect();
        assert_eq!(drops, vec![DropCode::TtlExpired]);
    }

    #[test]
    fn acl_deny_drops_with_rule_id() {
        use fet_pdp::table::{AclAction, AclRule};
        let mut s = sw();
        s.acl.install(AclRule {
            rule_id: 42,
            priority: 1,
            src: None,
            dst: None,
            sport: None,
            dport: Some(80),
            proto: None,
            action: AclAction::Deny,
        });
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        assert_eq!(gt.events()[0].drop_code, Some(DropCode::AclDeny));
        assert_eq!(gt.events()[0].acl_rule, Some(42));
    }

    #[test]
    fn port_down_drops() {
        let mut s = sw();
        s.port_up[2] = false;
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        assert_eq!(gt.events()[0].drop_code, Some(DropCode::PortDown));
    }

    #[test]
    fn oversize_frame_drops() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 1700, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        assert_eq!(gt.events()[0].drop_code, Some(DropCode::MtuExceeded));
    }

    #[test]
    fn fcs_error_dies_at_mac() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let fx = s.handle_arrival(0, 1, pkt, true, &mut gt);
        assert_eq!(fx.kick_ports, PortSet::default());
        assert_eq!(s.counters[1].fcs_errors, 1);
        // No pipeline drop recorded — corruption is recorded at the link.
        assert_eq!(gt.events().len(), 0);
    }

    #[test]
    fn first_packet_records_path_change_gt() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt.clone(), false, &mut gt);
        assert_eq!(gt.count(EventType::PathChange), 1);
        // Second packet of the same flow: no new event.
        let _ = s.handle_arrival(10, 1, pkt, false, &mut gt);
        assert_eq!(gt.count(EventType::PathChange), 1);
    }

    #[test]
    fn congestion_gt_when_delay_exceeds_threshold() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        // Dequeue 30us later (> 20us threshold).
        let _ = s.dequeue(30 * crate::time::MICROS, 2, &mut gt).unwrap();
        assert_eq!(gt.count(EventType::Congestion), 1);
    }

    #[test]
    fn mmu_exhaustion_records_mmu_drop() {
        let mut cfg = SwitchConfig::default();
        cfg.mmu.total_bytes = 2_000;
        cfg.mmu.alpha = 10.0;
        let mut s = SwitchDevice::new(0, "s", cfg);
        s.routes.insert(ip(10, 0, 1, 0), 24, vec![2]);
        let mut gt = GroundTruth::new();
        for _ in 0..10 {
            let pkt = build_data_packet(&flow(), 400, 0, 0, 64);
            let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        }
        assert!(gt.count(EventType::MmuDrop) > 0);
        assert!(s.counters[2].mmu_drops > 0);
    }

    #[test]
    fn pfc_pause_blocks_dequeue_until_expiry() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        // Receive a PAUSE for priority 0 on port 2.
        let pfc = fet_packet::builder::build_pfc_frame(0, 1000);
        let _ = s.handle_arrival(10, 2, pfc, false, &mut gt);
        assert!(s.tx_paused(11, 2, 0));
        assert!(s.dequeue(11, 2, &mut gt).is_none());
        let expiry = s.earliest_pause_expiry(11, 2).unwrap();
        assert!(expiry > 11);
        // After expiry it flows again.
        assert!(s.dequeue(expiry + 1, 2, &mut gt).is_some());
    }

    #[test]
    fn pfc_resume_frame_unblocks() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        let pause = fet_packet::builder::build_pfc_frame(0, 60000);
        let _ = s.handle_arrival(10, 2, pause, false, &mut gt);
        assert!(s.dequeue(20, 2, &mut gt).is_none());
        let resume = fet_packet::builder::build_pfc_frame(0, 0);
        let fx = s.handle_arrival(30, 2, resume, false, &mut gt);
        assert!(fx.kick_ports.iter().any(|p| p == 2));
        assert!(s.dequeue(31, 2, &mut gt).is_some());
    }

    #[test]
    fn pause_gt_recorded_for_packets_to_paused_queue() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pause = fet_packet::builder::build_pfc_frame(0, 60000);
        let _ = s.handle_arrival(0, 2, pause, false, &mut gt);
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(10, 1, pkt, false, &mut gt);
        assert_eq!(gt.count(EventType::Pause), 1);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn xoff_emits_pause_to_upstream() {
        let mut cfg = SwitchConfig::default();
        cfg.pfc_priorities = 0x01;
        cfg.mmu.pfc_xoff_bytes = 300;
        cfg.mmu.pfc_xon_bytes = 100;
        let mut s = SwitchDevice::new(0, "s", cfg);
        s.routes.insert(ip(10, 0, 1, 0), 24, vec![2]);
        let mut gt = GroundTruth::new();
        let mut sent_pfc = false;
        for _ in 0..5 {
            let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
            let fx = s.handle_arrival(0, 1, pkt, false, &mut gt);
            sent_pfc |= !fx.pfc_frames.is_empty();
        }
        assert!(sent_pfc, "XOFF crossing should emit PFC");
        assert!(s.counters[1].pfc_tx >= 1);
        // Draining emits a resume.
        let mut resumed = false;
        for t in 0..5 {
            if let Some(r) = s.dequeue(t, 2, &mut gt) {
                resumed |= !r.effects.pfc_frames.is_empty();
            }
        }
        assert!(resumed, "XON crossing should emit resume");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn xon_resumes_paused_upstreams_in_port_order() {
        // Every fresh switch is a fresh map; a hash-ordered map would come
        // out ascending for all of them only by a 1-in-6^16 chance.
        for _ in 0..16 {
            let mut cfg = SwitchConfig::default();
            cfg.pfc_priorities = 0x01;
            cfg.mmu.pfc_xoff_bytes = 300;
            cfg.mmu.pfc_xon_bytes = 100;
            let mut s = SwitchDevice::new(0, "s", cfg);
            s.routes.insert(ip(10, 0, 1, 0), 24, vec![2]);
            let mut gt = GroundTruth::new();
            for port in [5, 1, 3, 5, 1, 3] {
                let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
                let _ = s.handle_arrival(0, port, pkt, false, &mut gt);
            }
            assert!([1, 3, 5].iter().all(|&p| s.counters[p].pfc_tx >= 1), "all three paused");
            let mut resumed = Vec::new();
            for t in 0..6 {
                if let Some(r) = s.dequeue(t, 2, &mut gt) {
                    resumed.extend(r.effects.pfc_frames.into_iter().map(|(p, _)| p));
                }
            }
            assert_eq!(resumed, vec![1, 3, 5], "XON frames leave in port order");
        }
    }

    /// A monitor that lets every frame through untouched.
    struct Passive;
    impl SwitchMonitor for Passive {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A monitor that claims every open tag header with a fixed number.
    struct Claim(u32);
    impl SwitchMonitor for Claim {
        fn on_egress(&mut self, ctx: &EgressCtx<'_>, _frame: &mut Vec<u8>, out: &mut Actions) {
            if ctx.tag_open {
                out.tag(self.0);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn seq_tag_never_leaks_to_the_next_hop() {
        // No monitor, or one that never claims a tag (a crashed NetSeer
        // behaves so): whether or not the egress link is tagged, the
        // frame leaves untagged, the tag's bytes gone.
        for tagged_egress in [false, true] {
            for monitor in [None, Some(Box::new(Passive) as Box<dyn SwitchMonitor>)] {
                let mut s = sw();
                s.monitor = monitor;
                s.tag_ports[1] = true;
                s.tag_ports[2] = tagged_egress;
                let mut gt = GroundTruth::new();
                let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
                let mut tagged = pkt.clone();
                fet_packet::builder::insert_seqtag_in_place(&mut tagged, 7).unwrap();
                let _ = s.handle_arrival(0, 1, tagged, false, &mut gt);
                let out = s.dequeue(0, 2, &mut gt).unwrap();
                assert_eq!(out.frame, build_data_packet(&flow(), 100, 0, 0, 63), "tag stripped");
                assert_eq!(s.counters[2].tx_bytes, pkt.len() as u64);
            }
        }
    }

    #[test]
    fn tagged_hop_moves_no_payload() {
        let mut s = sw();
        s.monitor = Some(Box::new(Claim(0xabcd)));
        s.tag_ports[1] = true;
        s.tag_ports[2] = true;
        let mut gt = GroundTruth::new();
        let mut frame = build_data_packet(&flow(), 1000, 0, 0, 64);
        fet_packet::builder::insert_seqtag_in_place(&mut frame, 7).unwrap();
        // The old path: strip, forward (TTL 64 -> 63), tag again.
        let mut want = frame.clone();
        fet_packet::builder::strip_seqtag_in_place(&mut want).unwrap();
        let mut ip = Ipv4Packet::new_unchecked(&mut want[ETHERNET_HEADER_LEN..]);
        ip.set_ttl(63);
        ip.fill_checksum();
        fet_packet::builder::insert_seqtag_in_place(&mut want, 0xabcd).unwrap();

        let (ptr, cap) = (frame.as_ptr(), frame.capacity());
        let _ = s.handle_arrival(0, 1, frame, false, &mut gt);
        // The MMU holds the frame at its length without the tag.
        assert_eq!(s.mmu().depth(2, 0), (want.len() - SEQTAG_LEN) as u64);
        let out = s.dequeue(0, 2, &mut gt).unwrap();
        assert_eq!((out.frame.as_ptr(), out.frame.capacity()), (ptr, cap), "the buffer moved");
        assert_eq!(out.frame, want);
        assert_eq!(s.counters[1].rx_bytes, want.len() as u64);
        assert_eq!(s.counters[2].tx_bytes, want.len() as u64);
    }

    #[test]
    fn untagged_arrival_is_tagged_at_a_tagged_egress() {
        let mut s = sw();
        s.monitor = Some(Box::new(Claim(5)));
        s.tag_ports[2] = true;
        let mut gt = GroundTruth::new();
        let _ = s.handle_arrival(0, 1, build_data_packet(&flow(), 100, 0, 0, 64), false, &mut gt);
        let out = s.dequeue(0, 2, &mut gt).unwrap();
        let want = build_data_packet(&flow(), 100, 0, 0, 63);
        assert_eq!(out.frame, fet_packet::reference::insert_seqtag(&want, 5).unwrap());
    }

    #[test]
    fn high_priority_queue_preempts() {
        let mut s = sw();
        let mut gt = GroundTruth::new();
        let pkt = build_data_packet(&flow(), 100, 0, 0, 64);
        let _ = s.handle_arrival(0, 1, pkt, false, &mut gt);
        // A high-DSCP packet lands in a higher queue and leaves first.
        let urgent = build_data_packet(&flow(), 100, 0, 63, 64);
        let _ = s.handle_arrival(1, 1, urgent, false, &mut gt);
        let first = s.dequeue(2, 2, &mut gt).unwrap();
        let ipp = Ipv4Packet::new_unchecked(&first.frame[ETHERNET_HEADER_LEN..]);
        assert_eq!(ipp.dscp(), 63);
    }
}
