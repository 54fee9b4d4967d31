//! Hosts: rate-paced traffic generation, UDP echo responders for probe
//! traffic, per-flow receive accounting, and optional NIC telemetry.
//!
//! The paper's testbed servers carry Netronome SmartNICs that run NetSeer's
//! inter-switch drop detection for the edge links; a [`Host`] can carry the
//! same [`SwitchMonitor`] implementation on its single NIC port.

use crate::counters::PortCounters;
use crate::fxhash::FxHashMap;
use crate::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, SwitchMonitor};
use crate::switchdev::{open_tag, remove_tag, seal_tag, DequeueResult, Effects};
use fet_packet::builder::{
    build_data_packet_in, build_tagged_data_packet_in, data_packet_len, extract_flow, FrameKind,
};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::tcp::flags;
use fet_packet::FrameArena;
use fet_packet::{FlowKey, IpProtocol};
use fet_pdp::PacketMeta;
use std::collections::{HashMap, VecDeque};

/// Destination UDP port recognized as "echo this back" (probe responder).
pub const PROBE_ECHO_PORT: u16 = 7;

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The host's IPv4 address.
    pub ip: Ipv4Addr,
    /// NIC line rate, Gbps.
    pub nic_gbps: f64,
    /// NIC transmit queue capacity, bytes.
    pub txq_cap_bytes: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            ip: Ipv4Addr::from_octets([10, 0, 0, 1]),
            nic_gbps: 25.0,
            txq_cap_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One application flow a host will transmit.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// 5-tuple (source must be this host).
    pub key: FlowKey,
    /// Total application bytes to send.
    pub total_bytes: u64,
    /// Payload bytes per packet.
    pub pkt_payload: usize,
    /// Pacing rate, Gbps.
    pub rate_gbps: f64,
    /// Start time, ns.
    pub start_ns: u64,
    /// DSCP marking (selects the fabric priority queue).
    pub dscp: u8,
}

/// Transmit-side progress of a flow.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowProgress {
    /// Bytes handed to the NIC so far.
    pub(crate) sent_bytes: u64,
    /// Packets emitted.
    pub(crate) pkts_sent: u64,
    /// True once the FIN-marked last packet was emitted.
    pub(crate) done: bool,
}

/// Receive-side statistics per flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxStats {
    /// Bytes received (frame payload lengths).
    pub bytes: u64,
    /// Packets received.
    pub pkts: u64,
    /// Last arrival, ns.
    pub last_ns: u64,
    /// FIN observed (flow completed in order).
    pub fin_seen: bool,
}

/// One measured probe RTT sample.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    /// When the probe was sent, ns.
    pub sent_ns: u64,
    /// Round-trip time, ns.
    pub rtt_ns: u64,
}

/// TTL of every data packet a host sends.
const HOST_TTL: u8 = 64;

/// One entry of the NIC transmit queue.
enum Queued {
    /// A data packet (flow traffic, probes, probe replies), held as what
    /// its frame is built from: the frame is a pure function of these
    /// fields, so it is built in [`Host::dequeue_tx`] just before it
    /// leaves, like a NIC fetching a descriptor's bytes at transmit time.
    Packet { flow: FlowKey, payload_len: usize, tcp_flags: u8, dscp: u8 },
    /// Frame bytes the NIC monitor emitted.
    Frame(Vec<u8>),
}

impl Queued {
    /// On-wire length of the frame this entry transmits.
    fn wire_len(&self) -> u64 {
        match self {
            Queued::Packet { flow, payload_len, .. } => data_packet_len(flow, *payload_len) as u64,
            Queued::Frame(f) => f.len() as u64,
        }
    }
}

/// A simulated server.
pub struct Host {
    /// Device id.
    pub(crate) id: u32,
    /// Configuration.
    pub config: HostConfig,
    /// Flow transmit schedule.
    pub(crate) flows: Vec<(FlowSpec, FlowProgress)>,
    /// NIC counters.
    pub counters: PortCounters,
    /// Per-flow receive stats. Fx-hashed: iteration order is arbitrary,
    /// so fold over it or look flows up; never list it in order.
    pub rx_flows: FxHashMap<FlowKey, RxStats>,
    /// Probe RTT samples (Pingmesh substrate).
    pub probe_samples: Vec<ProbeSample>,
    /// Probes sent but not yet answered: probe id → sent time.
    outstanding_probes: HashMap<u16, u64>,
    next_probe_id: u16,
    /// Lost-probe count (for probe loss statistics).
    pub probes_lost: u64,
    /// Optional NIC telemetry (NetSeer-on-SmartNIC).
    pub monitor: Option<Box<dyn SwitchMonitor>>,
    txq: VecDeque<Queued>,
    /// On-wire bytes of everything in `txq`.
    txq_bytes: u64,
    /// TX serializer busy flag (engine-managed).
    pub port_busy: bool,
    /// The `(time, seq)` key of a tx-done that found the NIC drained and
    /// so was recorded rather than scheduled (see `Simulator::kick_port`).
    pub(crate) idle_tx: Option<(u64, u64)>,
    /// PFC pause deadline for the NIC (0 = not paused).
    pub(crate) paused_until: u64,
    /// Frames dropped because the TX queue overflowed.
    pub txq_drops: u64,
    /// Recycled frame buffers: departing data packets draw from here,
    /// consumed arrivals retire into it — steady-state sources never
    /// allocate.
    arena: FrameArena,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("ip", &self.config.ip)
            .finish_non_exhaustive()
    }
}

impl Host {
    /// Create a host.
    pub fn new(id: u32, config: HostConfig) -> Self {
        Host {
            id,
            config,
            flows: Vec::new(),
            counters: PortCounters::default(),
            rx_flows: FxHashMap::default(),
            probe_samples: Vec::new(),
            outstanding_probes: HashMap::new(),
            next_probe_id: 20_000,
            probes_lost: 0,
            monitor: None,
            txq: VecDeque::new(),
            txq_bytes: 0,
            port_busy: false,
            idle_tx: None,
            paused_until: 0,
            txq_drops: 0,
            arena: FrameArena::new(),
        }
    }

    /// Register a flow to transmit. Returns its index for scheduling.
    pub fn add_flow(&mut self, spec: FlowSpec) -> usize {
        self.flows.push((spec, FlowProgress::default()));
        self.flows.len() - 1
    }

    /// Emit the next packet of flow `idx`. Returns the inter-packet gap to
    /// the next emission (ns), or `None` when the flow just finished.
    /// The frame lands in the NIC TX queue (`kick` the port afterwards).
    pub fn emit_flow_packet(&mut self, idx: usize, _now_ns: u64) -> Option<u64> {
        let (spec, prog) = &mut self.flows[idx];
        if prog.done {
            return None;
        }
        let remaining = spec.total_bytes - prog.sent_bytes;
        let payload = (spec.pkt_payload as u64).min(remaining) as usize;
        let is_first = prog.sent_bytes == 0;
        let is_last = remaining <= spec.pkt_payload as u64;
        let tcp_flags = match spec.key.proto {
            IpProtocol::Tcp => {
                let mut f = flags::ACK;
                if is_first {
                    f |= flags::SYN;
                }
                if is_last {
                    f |= flags::FIN;
                }
                f
            }
            _ => 0,
        };
        prog.sent_bytes += payload as u64;
        prog.pkts_sent += 1;
        if is_last {
            prog.done = true;
        }
        let gap = crate::time::tx_time_ns(data_packet_len(&spec.key, payload), spec.rate_gbps);
        let done = prog.done;
        let packet =
            Queued::Packet { flow: spec.key, payload_len: payload, tcp_flags, dscp: spec.dscp };
        self.enqueue(packet);
        if done {
            None
        } else {
            Some(gap)
        }
    }

    /// Push a frame into the NIC TX queue (drops on overflow).
    pub(crate) fn enqueue_tx(&mut self, frame: Vec<u8>) -> bool {
        self.enqueue(Queued::Frame(frame))
    }

    fn enqueue(&mut self, entry: Queued) -> bool {
        let len = entry.wire_len();
        if self.txq_bytes + len > self.config.txq_cap_bytes {
            self.txq_drops += 1;
            return false;
        }
        self.txq_bytes += len;
        self.txq.push_back(entry);
        true
    }

    /// Dequeue the next frame for transmission, honoring PFC pause and
    /// running the NIC egress telemetry hook. The NIC's link is tagged
    /// when it runs a monitor, so a data packet is then built with its
    /// tag header already open.
    pub fn dequeue_tx(&mut self, now_ns: u64) -> Option<DequeueResult> {
        if now_ns < self.paused_until {
            return None;
        }
        let entry = self.txq.pop_front()?;
        let len = entry.wire_len();
        self.txq_bytes -= len;
        let len = len as usize;
        let tag_link = self.monitor.is_some();
        let (mut frame, tag_open, descriptor) = match entry {
            Queued::Packet { flow, payload_len, tcp_flags, dscp } => {
                let a = &mut self.arena;
                let frame = if tag_link {
                    build_tagged_data_packet_in(a, &flow, payload_len, tcp_flags, dscp, HOST_TTL)
                } else {
                    build_data_packet_in(a, &flow, payload_len, tcp_flags, dscp, HOST_TTL)
                };
                (frame, tag_link, Some(flow))
            }
            Queued::Frame(mut frame) => {
                let open = open_tag(&mut frame, len, tag_link);
                (frame, open, None)
            }
        };
        let mut effects = Effects::default();
        if let Some(m) = self.monitor.as_mut() {
            let mut meta = PacketMeta::arriving(now_ns, len);
            meta.egress_ts_ns = now_ns;
            // A TCP or UDP descriptor's key is the one its frame parses
            // to; anything else is parsed (through the open tag header).
            meta.flow = match descriptor {
                Some(f) if matches!(f.proto, IpProtocol::Tcp | IpProtocol::Udp) => Some(f),
                _ => extract_flow(&frame),
            };
            let ctx = EgressCtx {
                now_ns,
                node: self.id,
                port: 0,
                queue: 0,
                peer_tagged: true,
                tag_open,
                congested: false,
                meta: &meta,
            };
            let mut actions = Actions::new();
            m.on_egress(&ctx, &mut frame, &mut actions);
            seal_tag(&mut frame, tag_open, actions.tag);
            self.apply_actions(actions, &mut effects);
        }
        self.counters.tx_pkts += 1;
        self.counters.tx_bytes += frame.len() as u64;
        Some(DequeueResult { frame, effects })
    }

    /// Periodic control-plane tick: run the NIC monitor's timer hook (if a
    /// monitor is attached) and queue what it emits.
    pub(crate) fn on_timer(&mut self, now_ns: u64) -> Effects {
        let mut fx = Effects::default();
        if let Some(m) = self.monitor.as_mut() {
            let mut actions = Actions::new();
            m.on_timer(now_ns, std::slice::from_ref(&self.counters), &mut actions);
            self.apply_actions(actions, &mut fx);
        }
        fx
    }

    /// Apply NIC monitor actions: queue emitted frames on the single port
    /// (kicking it when one was accepted) and forward report bytes.
    fn apply_actions(&mut self, actions: Actions, fx: &mut Effects) {
        fx.report_bytes += actions.report_bytes;
        for e in actions.emit {
            if self.enqueue_tx(e.frame) {
                fx.kick_ports.insert(0);
            }
        }
    }

    /// True when the TX queue holds frames and is not paused.
    pub(crate) fn has_transmittable(&self, now_ns: u64) -> bool {
        !self.txq.is_empty() && now_ns >= self.paused_until
    }

    /// When a PFC pause holding back queued frames expires (the engine
    /// schedules a retry then); `None` when not paused or nothing waits.
    pub(crate) fn earliest_pause_expiry(&self, now_ns: u64) -> Option<u64> {
        (self.paused_until > now_ns && self.txq_bytes > 0).then_some(self.paused_until)
    }

    /// Handle an arriving frame.
    pub(crate) fn handle_arrival(
        &mut self,
        now_ns: u64,
        frame: Vec<u8>,
        fcs_error: bool,
    ) -> Effects {
        let mut fx = Effects::default();
        self.counters.rx_pkts += 1;
        self.counters.rx_bytes += frame.len() as u64;
        if fcs_error {
            self.counters.fcs_errors += 1;
            return fx;
        }

        let mut frame = frame;
        let ctx = IngressCtx::parse(now_ns, self.id, 0, &frame);
        if let Some(m) = self.monitor.as_mut() {
            let mut actions = Actions::new();
            let verdict = m.on_ingress(&ctx, &mut frame, &mut actions);
            self.apply_actions(actions, &mut fx);
            if verdict == HookVerdict::Consume {
                return fx;
            }
        }
        // The NIC's parser removes the hop tag as a switch's does.
        let room = remove_tag(&ctx, &mut frame);
        let untagged = &frame[room..];

        match ctx.kind {
            FrameKind::Pfc => {
                self.counters.pfc_rx += 1;
                if let Ok(pfc) = fet_packet::pfc::PfcFrame::new_checked(
                    &untagged[fet_packet::ETHERNET_HEADER_LEN..],
                ) {
                    for prio in 0..fet_packet::pfc::PFC_CLASSES {
                        if pfc.pauses(prio) {
                            let dur = fet_packet::pfc::quanta_to_ns(
                                pfc.timer(prio),
                                self.config.nic_gbps,
                            );
                            self.paused_until = self.paused_until.max(now_ns + dur);
                        } else if pfc.resumes(prio) {
                            self.paused_until = 0;
                            fx.kick_ports.insert(0);
                        }
                    }
                }
            }
            FrameKind::Ipv4 => {
                if let Some(flow) = extract_flow(untagged) {
                    self.receive_data(now_ns, untagged, flow, &mut fx);
                }
            }
            _ => {}
        }
        // The frame terminates here (hosts never forward); retire its
        // buffer so the next emission reuses it instead of allocating.
        self.arena.put(frame);
        fx
    }

    fn receive_data(&mut self, now_ns: u64, frame: &[u8], flow: FlowKey, fx: &mut Effects) {
        // Probe responder: echo UDP packets aimed at the echo port.
        if flow.proto == IpProtocol::Udp && flow.dport == PROBE_ECHO_PORT {
            let reply =
                Queued::Packet { flow: flow.reversed(), payload_len: 8, tcp_flags: 0, dscp: 46 };
            if self.enqueue(reply) {
                fx.kick_ports.insert(0);
            }
            return;
        }
        // Probe reply: match an outstanding probe by id (our sport).
        if flow.proto == IpProtocol::Udp && flow.sport == PROBE_ECHO_PORT {
            if let Some(sent) = self.outstanding_probes.remove(&flow.dport) {
                self.probe_samples.push(ProbeSample { sent_ns: sent, rtt_ns: now_ns - sent });
            }
            return;
        }
        // Ordinary data: account it.
        let s = self.rx_flows.entry(flow).or_default();
        s.bytes += frame.len() as u64;
        s.pkts += 1;
        s.last_ns = now_ns;
        if flow.proto == IpProtocol::Tcp {
            if let Ok(t) = fet_packet::tcp::TcpSegment::new_checked(
                &frame[fet_packet::ETHERNET_HEADER_LEN + fet_packet::IPV4_HEADER_LEN..],
            ) {
                if t.is_fin() {
                    s.fin_seen = true;
                }
            }
        }
    }

    /// Send one probe to `target`. Returns true if enqueued (kick the port).
    pub(crate) fn send_probe(&mut self, now_ns: u64, target: Ipv4Addr) -> bool {
        let id = self.next_probe_id;
        self.next_probe_id = self.next_probe_id.wrapping_add(1).max(20_000);
        let flow = FlowKey::udp(self.config.ip, id, target, PROBE_ECHO_PORT);
        self.outstanding_probes.insert(id, now_ns);
        self.enqueue(Queued::Packet { flow, payload_len: 8, tcp_flags: 0, dscp: 0 })
    }

    /// Expire probes older than `timeout_ns` (counted as lost).
    pub(crate) fn expire_probes(&mut self, now_ns: u64, timeout_ns: u64) {
        let before = self.outstanding_probes.len();
        self.outstanding_probes.retain(|_, sent| now_ns.saturating_sub(*sent) < timeout_ns);
        self.probes_lost += (before - self.outstanding_probes.len()) as u64;
    }

    /// Total bytes currently waiting in the TX queue.
    pub fn txq_depth_bytes(&self) -> u64 {
        self.txq_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::builder::build_data_packet;

    fn host() -> Host {
        Host::new(
            7,
            HostConfig {
                ip: Ipv4Addr::from_octets([10, 0, 0, 5]),
                nic_gbps: 25.0,
                txq_cap_bytes: 1 << 20,
            },
        )
    }

    fn spec(total: u64, pkt: usize) -> FlowSpec {
        FlowSpec {
            key: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 5]),
                1234,
                Ipv4Addr::from_octets([10, 0, 1, 9]),
                80,
            ),
            total_bytes: total,
            pkt_payload: pkt,
            rate_gbps: 10.0,
            start_ns: 0,
            dscp: 0,
        }
    }

    #[test]
    fn flow_emission_paces_and_finishes() {
        let mut h = host();
        let idx = h.add_flow(spec(2_500, 1_000));
        // 3 packets: 1000 + 1000 + 500.
        assert!(h.emit_flow_packet(idx, 0).is_some());
        assert!(h.emit_flow_packet(idx, 0).is_some());
        assert_eq!(h.emit_flow_packet(idx, 0), None);
        assert!(h.flows[idx].1.done);
        assert_eq!(h.flows[idx].1.pkts_sent, 3);
        assert_eq!(h.flows[idx].1.sent_bytes, 2_500);
        // Emitting a finished flow is a no-op.
        assert_eq!(h.emit_flow_packet(idx, 0), None);
        assert_eq!(h.flows[idx].1.pkts_sent, 3);
    }

    #[test]
    fn syn_and_fin_are_marked() {
        let mut h = host();
        let idx = h.add_flow(spec(2_000, 1_000));
        let _ = h.emit_flow_packet(idx, 0);
        let _ = h.emit_flow_packet(idx, 0);
        let first = h.dequeue_tx(0).unwrap().frame;
        let last = h.dequeue_tx(0).unwrap().frame;
        let t = |f: &Vec<u8>| {
            fet_packet::tcp::TcpSegment::new_checked(
                &f[fet_packet::ETHERNET_HEADER_LEN + fet_packet::IPV4_HEADER_LEN..],
            )
            .unwrap()
            .flags()
        };
        assert!(t(&first) & flags::SYN != 0);
        assert!(t(&first) & flags::FIN == 0);
        assert!(t(&last) & flags::FIN != 0);
    }

    #[test]
    fn dequeued_frames_match_the_builder() {
        let mut h = host();
        let s = spec(2_500, 1_000);
        let key = s.key;
        let idx = h.add_flow(s);
        while h.emit_flow_packet(idx, 0).is_some() {}
        for (payload, tcp_flags) in
            [(1_000, flags::ACK | flags::SYN), (1_000, flags::ACK), (500, flags::ACK | flags::FIN)]
        {
            let frame = h.dequeue_tx(0).unwrap().frame;
            assert_eq!(frame, build_data_packet(&key, payload, tcp_flags, 0, 64));
        }
        // A probe, and the reply its target queues.
        let target = Ipv4Addr::from_octets([10, 0, 1, 9]);
        let mut b = Host::new(8, HostConfig { ip: target, ..HostConfig::default() });
        assert!(h.send_probe(0, target));
        let probe = h.dequeue_tx(0).unwrap().frame;
        let probe_key = FlowKey::udp(h.config.ip, 20_000, target, PROBE_ECHO_PORT);
        assert_eq!(probe, build_data_packet(&probe_key, 8, 0, 0, 64));
        let _ = b.handle_arrival(0, probe, false);
        let reply = b.dequeue_tx(0).unwrap().frame;
        assert_eq!(reply, build_data_packet(&probe_key.reversed(), 8, 0, 46, 64));
        assert_eq!((h.txq_depth_bytes(), b.txq_depth_bytes()), (0, 0));
    }

    #[test]
    fn rx_accounting_tracks_flow() {
        let mut h = host();
        let key = FlowKey::tcp(Ipv4Addr::from_octets([10, 0, 9, 9]), 5, h.config.ip, 80);
        let f1 = build_data_packet(&key, 500, flags::SYN, 0, 60);
        let f2 = build_data_packet(&key, 500, flags::FIN, 0, 60);
        let _ = h.handle_arrival(100, f1, false);
        let _ = h.handle_arrival(200, f2, false);
        let s = h.rx_flows[&key];
        assert_eq!(s.pkts, 2);
        assert_eq!(s.last_ns, 200);
        assert!(s.fin_seen);
    }

    #[test]
    fn probe_echo_roundtrip() {
        let mut a = host();
        let mut b = Host::new(
            8,
            HostConfig { ip: Ipv4Addr::from_octets([10, 0, 1, 9]), ..HostConfig::default() },
        );
        assert!(a.send_probe(1_000, b.config.ip));
        let probe = a.dequeue_tx(1_000).unwrap().frame;
        // b echoes.
        let fx = b.handle_arrival(2_000, probe, false);
        assert_eq!(fx.kick_ports.iter().collect::<Vec<_>>(), vec![0]);
        let reply = b.dequeue_tx(2_000).unwrap().frame;
        // a measures RTT.
        let _ = a.handle_arrival(3_500, reply, false);
        assert_eq!(a.probe_samples.len(), 1);
        assert_eq!(a.probe_samples[0].rtt_ns, 2_500);
    }

    #[test]
    fn probe_expiry_counts_losses() {
        let mut a = host();
        a.send_probe(0, Ipv4Addr::from_octets([10, 0, 1, 9]));
        a.expire_probes(2_000_000, 1_000_000);
        assert_eq!(a.probes_lost, 1);
        assert_eq!(a.probe_samples.len(), 0);
    }

    #[test]
    fn txq_overflow_drops() {
        let mut h = Host::new(1, HostConfig { txq_cap_bytes: 100, ..HostConfig::default() });
        assert!(h.enqueue_tx(vec![0; 80]));
        assert!(!h.enqueue_tx(vec![0; 80]));
        assert_eq!(h.txq_drops, 1);
    }

    #[test]
    fn pfc_pause_blocks_nic() {
        let mut h = host();
        h.enqueue_tx(vec![0; 64]);
        let pause = fet_packet::builder::build_pfc_frame(0, 1000);
        let _ = h.handle_arrival(0, pause, false);
        assert!(h.paused_until > 0);
        assert!(h.dequeue_tx(1).is_none());
        assert!(!h.has_transmittable(1));
        assert_eq!(h.earliest_pause_expiry(1), Some(h.paused_until));
        let resume = fet_packet::builder::build_pfc_frame(0, 0);
        let fx = h.handle_arrival(2, resume, false);
        assert_eq!(fx.kick_ports.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(h.earliest_pause_expiry(3), None);
        assert!(h.dequeue_tx(3).is_some());
    }

    #[test]
    fn corrupted_frame_counted_not_processed() {
        let mut h = host();
        let key = FlowKey::tcp(Ipv4Addr::from_octets([10, 0, 9, 9]), 5, h.config.ip, 80);
        let f = build_data_packet(&key, 100, 0, 0, 60);
        let _ = h.handle_arrival(0, f, true);
        assert_eq!(h.counters.fcs_errors, 1);
        assert!(h.rx_flows.is_empty());
    }
}
