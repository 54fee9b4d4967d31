//! The discrete-event engine: owns all devices and links, orders events on
//! a nanosecond timeline, and moves frames between devices.

use crate::host::Host;
use crate::link::{Link, LinkDirection, LinkOutcome};
use crate::monitor::SwitchMonitor;
use crate::ring::SpscRing;
use crate::switchdev::{Effects, SwitchDevice};
use crate::time::tx_time_ns;
use crate::tracer::{GroundTruth, GtEvent};
use crate::wheel::EventWheel;
use fet_packet::builder::extract_flow;
use fet_packet::event::{DropCode, EventType};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a device in the simulator.
pub type NodeId = u32;

/// A device: either a switch or a host.
// Networks hold tens of devices, so the size difference between the two
// variants is irrelevant next to the indirection a Box would add to every
// per-packet access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node {
    /// A switch.
    Switch(SwitchDevice),
    /// A host.
    Host(Host),
    /// A slot whose device is temporarily owned by another shard of a
    /// parallel run (see [`Simulator::run_until_parallel`]). Never visible
    /// to user code outside a parallel segment.
    Vacant,
}

impl Node {
    /// The serializer state of `port` (a host has only port 0): its busy
    /// flag and the key of a recorded idle tx-done.
    fn port_state(&mut self, port: u8) -> (&mut bool, &mut Option<(u64, u64)>) {
        match self {
            Node::Switch(sw) => {
                let p = usize::from(port);
                (&mut sw.port_busy[p], &mut sw.idle_tx[p])
            }
            Node::Host(h) => (&mut h.port_busy, &mut h.idle_tx),
            Node::Vacant => panic!("port state of a vacant node"),
        }
    }

    /// Number of ports whose serializer state the engine keeps.
    fn port_count(&self) -> usize {
        match self {
            Node::Switch(sw) => sw.port_busy.len(),
            Node::Host(_) => 1,
            Node::Vacant => 0,
        }
    }

    /// True when every queue of `port` is empty.
    fn drained(&self, port: u8) -> bool {
        match self {
            Node::Switch(sw) => sw.drained(port),
            Node::Host(h) => h.txq_depth_bytes() == 0,
            Node::Vacant => panic!("port state of a vacant node"),
        }
    }

    /// True if `port` could transmit right now.
    fn has_transmittable(&self, now_ns: u64, port: u8) -> bool {
        match self {
            Node::Switch(sw) => sw.has_transmittable(now_ns, port),
            Node::Host(h) => h.has_transmittable(now_ns),
            Node::Vacant => panic!("port state of a vacant node"),
        }
    }

    /// When a PFC pause holding back queued frames on `port` expires.
    fn earliest_pause_expiry(&self, now_ns: u64, port: u8) -> Option<u64> {
        match self {
            Node::Switch(sw) => sw.earliest_pause_expiry(now_ns, port),
            Node::Host(h) => h.earliest_pause_expiry(now_ns),
            Node::Vacant => panic!("port state of a vacant node"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Peer {
    pub(crate) node: NodeId,
    pub(crate) port: u8,
    pub(crate) link: usize,
    /// True when traveling this hop uses the link's a→b direction.
    pub(crate) a_to_b: bool,
}

/// Scheduled simulator events.
pub(crate) enum SimEvent {
    Arrive { node: NodeId, port: u8, frame: Vec<u8>, fcs_error: bool },
    Dequeue { node: NodeId, port: u8 },
    RetryPort { node: NodeId, port: u8 },
    HostFlowEmit { host: NodeId, flow: usize },
    HostProbeRound { host: NodeId, interval_ns: u64, timeout_ns: u64 },
    MonitorTimer { node: NodeId, interval_ns: u64 },
    Control { idx: usize },
}

impl SimEvent {
    /// The node that will handle this event, `None` for controls (which
    /// act on the whole simulator).
    pub(crate) fn target(&self) -> Option<NodeId> {
        match *self {
            SimEvent::Arrive { node, .. }
            | SimEvent::Dequeue { node, .. }
            | SimEvent::RetryPort { node, .. }
            | SimEvent::MonitorTimer { node, .. } => Some(node),
            SimEvent::HostFlowEmit { host, .. } | SimEvent::HostProbeRound { host, .. } => {
                Some(host)
            }
            SimEvent::Control { .. } => None,
        }
    }
}

/// The canonical event key `(time, lane, seq)`.
///
/// `lane` is the scheduling origin: device id + 1 for events pushed while
/// handling that device's events, 0 for external pushes (pre-run setup and
/// controls). `seq` counts pushes per lane. Because a device's pushes are
/// totally ordered by its own execution, the key is identical whether the
/// fleet runs serially or sharded — it is the total order both modes share.
pub(crate) type EventKey = (u64, u32, u64);

pub(crate) struct QEntry {
    pub(crate) time: u64,
    pub(crate) lane: u32,
    pub(crate) seq: u64,
    pub(crate) ev: SimEvent,
}

impl QEntry {
    pub(crate) fn key(&self) -> EventKey {
        (self.time, self.lane, self.seq)
    }
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Worker-side context of a parallel run: which devices this shard owns and
/// the SPSC ring grid for cross-shard event hand-off (only frame arrivals
/// ever cross shards; see `parallel.rs` for the proof sketch).
/// `rings[src][dst]` is produced only by shard `src` and consumed only by
/// shard `dst`, satisfying the SPSC contract in `ring.rs`.
pub(crate) struct ShardCtx {
    pub(crate) shards: u32,
    pub(crate) shard: u32,
    pub(crate) rings: Arc<Vec<Vec<SpscRing<QEntry>>>>,
}

/// Counters for the parallel executor's cross-shard synchronization,
/// surfaced through `fet-export` as the `fet_sim_*` families.
///
/// Zero after a purely serial run. The values are deterministic for a
/// fixed (scenario, shard count, ring capacity) triple — the BSP epoch
/// schedule is a pure function of event keys — but they legitimately
/// *differ across shard counts*, so they live outside the serial-vs-
/// parallel fingerprint and are checked by the same-configuration
/// determinism sweep instead (det_19).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Parallel segments executed (scripted controls delimit segments).
    pub segments: u64,
    /// Worker processing rounds (one epoch-barrier cycle each), summed
    /// over workers.
    pub epochs_executed: u64,
    /// Additional Δ-lookahead windows covered without a barrier thanks
    /// to batched epoch advancement, summed over workers.
    pub epochs_batched: u64,
    /// Cross-shard events handed off through the SPSC rings.
    pub ring_messages: u64,
    /// Pushes that found a ring full and took the overflow lane.
    pub ring_stalls: u64,
}

impl SyncStats {
    /// Fold a segment's worth of counters into the run total.
    pub(crate) fn merge(&mut self, other: &SyncStats) {
        self.segments += other.segments;
        self.epochs_executed += other.epochs_executed;
        self.epochs_batched += other.epochs_batched;
        self.ring_messages += other.ring_messages;
        self.ring_stalls += other.ring_stalls;
    }
}

/// Management-plane (monitoring traffic) accounting: the bytes every
/// monitor reported, the numerator of the paper's overhead ratio.
#[derive(Debug, Default)]
pub struct MgmtAccounting {
    bytes: u64,
}

impl MgmtAccounting {
    /// Fold another accounting into this one (shard merge).
    pub(crate) fn merge(&mut self, other: &MgmtAccounting) {
        self.bytes += other.bytes;
    }

    /// Total management bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

type ControlFn = Box<dyn FnOnce(&mut Simulator) + Send>;

/// The simulator: devices, links, event queue, ground truth, accounting.
pub struct Simulator {
    pub(crate) now: u64,
    /// Key of the event being handled (or last handled).
    pub(crate) cur: EventKey,
    pub(crate) queue: EventWheel,
    /// Per-lane push counters (lane 0 = external, lane d+1 = device d).
    pub(crate) lane_seqs: Vec<u64>,
    /// All devices.
    pub nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    /// The wiring, dense: `ports[node][port]` is the far end of that port
    /// (`None` = unwired). Read on every transmit.
    pub(crate) ports: Vec<Vec<Option<Peer>>>,
    /// Ground-truth oracle.
    pub gt: GroundTruth,
    /// Monitoring traffic accounting.
    pub mgmt: MgmtAccounting,
    pub(crate) controls: Vec<Option<ControlFn>>,
    pub(crate) events_processed: u64,
    pub(crate) timers_armed: bool,
    /// `(host id, ip)` in id order — lets the probe path look up targets
    /// without touching other nodes (they may live on another shard).
    pub(crate) host_ip_cache: Vec<(NodeId, fet_packet::ipv4::Ipv4Addr)>,
    /// Present only on the worker simulators of a parallel segment.
    pub(crate) shard: Option<ShardCtx>,
    /// Cross-shard synchronization counters (all zero for serial runs).
    pub(crate) sync: SyncStats,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Empty simulator.
    pub fn new() -> Self {
        Simulator {
            now: 0,
            cur: (0, 0, 0),
            queue: EventWheel::new(),
            lane_seqs: vec![0],
            nodes: Vec::new(),
            links: Vec::new(),
            ports: Vec::new(),
            gt: GroundTruth::new(),
            mgmt: MgmtAccounting::default(),
            controls: Vec::new(),
            events_processed: 0,
            timers_armed: false,
            host_ip_cache: Vec::new(),
            shard: None,
            sync: SyncStats::default(),
        }
    }

    /// Current simulation time, ns.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Cross-shard synchronization counters accumulated by
    /// [`run_until_parallel`](Self::run_until_parallel) (all zero for
    /// serial runs).
    pub fn sync_stats(&self) -> SyncStats {
        self.sync
    }

    /// Add a switch; returns its node id.
    pub(crate) fn add_switch(&mut self, sw: SwitchDevice) -> NodeId {
        let id = self.nodes.len() as NodeId;
        debug_assert_eq!(sw.id, id, "switch id must match its slot");
        self.nodes.push(Node::Switch(sw));
        self.lane_seqs.push(0);
        id
    }

    /// Add a host; returns its node id.
    pub(crate) fn add_host(&mut self, h: Host) -> NodeId {
        let id = self.nodes.len() as NodeId;
        debug_assert_eq!(h.id, id, "host id must match its slot");
        self.host_ip_cache.push((id, h.config.ip));
        self.nodes.push(Node::Host(h));
        self.lane_seqs.push(0);
        id
    }

    /// Next node id that will be assigned.
    pub(crate) fn next_node_id(&self) -> NodeId {
        self.nodes.len() as NodeId
    }

    /// Connect (a, pa) ↔ (b, pb) with a full-duplex link. Returns link index.
    pub(crate) fn connect(&mut self, a: NodeId, pa: u8, b: NodeId, pb: u8, link: Link) -> usize {
        let idx = self.links.len();
        self.links.push(link);
        self.wire(a, pa, Peer { node: b, port: pb, link: idx, a_to_b: true });
        self.wire(b, pb, Peer { node: a, port: pa, link: idx, a_to_b: false });
        idx
    }

    /// Record `peer` as the far end of `(node, port)`, growing the table.
    fn wire(&mut self, node: NodeId, port: u8, peer: Peer) {
        let (n, p) = (node as usize, usize::from(port));
        if self.ports.len() <= n {
            self.ports.resize_with(n + 1, Vec::new);
        }
        let row = &mut self.ports[n];
        if row.len() <= p {
            row.resize(p + 1, None);
        }
        row[p] = Some(peer);
    }

    /// The far end of `(node, port)`, if wired.
    #[inline]
    fn peer(&self, node: NodeId, port: u8) -> Option<Peer> {
        *self.ports.get(node as usize)?.get(usize::from(port))?
    }

    /// Every wired `(node, port, peer)`, ascending by `(node, port)`.
    pub(crate) fn wired(&self) -> impl Iterator<Item = (NodeId, u8, Peer)> + '_ {
        self.ports.iter().enumerate().flat_map(|(node, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(port, peer)| Some((node as NodeId, port as u8, (*peer)?)))
        })
    }

    /// Fault-injection access: the direction of `link` leaving `(node, port)`.
    pub fn link_direction_mut(&mut self, node: NodeId, port: u8) -> Option<&mut LinkDirection> {
        let peer = self.peer(node, port)?;
        let l = &mut self.links[peer.link];
        Some(if peer.a_to_b { &mut l.ab } else { &mut l.ba })
    }

    /// Peer of a port: (node, port).
    pub fn peer_of(&self, node: NodeId, port: u8) -> Option<(NodeId, u8)> {
        self.peer(node, port).map(|p| (p.node, p.port))
    }

    /// Borrow a switch.
    pub fn switch(&self, id: NodeId) -> &SwitchDevice {
        match &self.nodes[id as usize] {
            Node::Switch(s) => s,
            _ => panic!("node {id} is not a resident switch"),
        }
    }

    /// Mutably borrow a switch.
    pub fn switch_mut(&mut self, id: NodeId) -> &mut SwitchDevice {
        match &mut self.nodes[id as usize] {
            Node::Switch(s) => s,
            _ => panic!("node {id} is not a resident switch"),
        }
    }

    /// Borrow a host.
    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id as usize] {
            Node::Host(h) => h,
            _ => panic!("node {id} is not a resident host"),
        }
    }

    /// Mutably borrow a host.
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id as usize] {
            Node::Host(h) => h,
            _ => panic!("node {id} is not a resident host"),
        }
    }

    /// Remove the monitor of any node (switch or host), e.g. to wrap it
    /// and reinstall it with
    /// [`install_node_monitor`](Simulator::install_node_monitor). The
    /// node's monitor timer keeps firing and finding nothing meanwhile, so
    /// reinstalling resumes ticks without re-arming.
    pub fn take_node_monitor(&mut self, id: NodeId) -> Option<Box<dyn SwitchMonitor>> {
        match &mut self.nodes[id as usize] {
            Node::Switch(s) => s.monitor.take(),
            Node::Host(h) => h.monitor.take(),
            Node::Vacant => None,
        }
    }

    /// Attach a monitor to any node (switch or host), replacing any
    /// monitor already there.
    pub fn install_node_monitor(&mut self, id: NodeId, m: Box<dyn SwitchMonitor>) {
        match &mut self.nodes[id as usize] {
            Node::Switch(s) => s.set_monitor(m),
            Node::Host(h) => h.monitor = Some(m),
            Node::Vacant => panic!("node {id} is not resident"),
        }
    }

    /// Iterator over switch ids.
    pub fn switch_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Switch(_)))
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Iterator over host ids.
    pub fn host_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Host(_)))
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Push an event with the canonical `(time, lane, seq)` key. `lane` is
    /// the scheduling origin (0 = external, device id + 1 otherwise). On a
    /// parallel shard, events for non-resident nodes are diverted to the
    /// outbox instead of the local queue; the keys are assigned either way,
    /// so the global total order is shard-independent.
    pub(crate) fn push_keyed(&mut self, lane: u32, time: u64, ev: SimEvent) {
        let seq = self.lane_seqs[lane as usize];
        self.lane_seqs[lane as usize] = seq + 1;
        let entry = QEntry { time, lane, seq, ev };
        if let Some(ctx) = self.shard.as_mut() {
            if let Some(target) = entry.ev.target() {
                let dest = target % ctx.shards;
                if dest != ctx.shard {
                    ctx.rings[ctx.shard as usize][dest as usize].push(entry);
                    return;
                }
            }
        }
        self.queue.push(entry);
    }

    /// Push from a device's own execution (lane = device id + 1).
    fn push_node(&mut self, origin: NodeId, time: u64, ev: SimEvent) {
        self.push_keyed(origin + 1, time, ev);
    }

    /// Push from outside any device's execution (setup and controls).
    fn push(&mut self, time: u64, ev: SimEvent) {
        self.push_keyed(0, time, ev);
    }

    /// Schedule a scripted control action (fault injection, route change).
    pub fn schedule_control(
        &mut self,
        at_ns: u64,
        f: impl FnOnce(&mut Simulator) + Send + 'static,
    ) {
        let idx = self.controls.len();
        self.controls.push(Some(Box::new(f)));
        self.push(at_ns, SimEvent::Control { idx });
    }

    /// Schedule flow `flow_idx` of `host` to begin at its spec'd start time.
    pub fn schedule_flow(&mut self, host: NodeId, flow_idx: usize) {
        let start = match &self.nodes[host as usize] {
            Node::Host(h) => h.flows[flow_idx].0.start_ns,
            _ => panic!("flows start at hosts"),
        };
        self.push(start, SimEvent::HostFlowEmit { host, flow: flow_idx });
    }

    /// Start Pingmesh-style probing at `host`: a probe round to every other
    /// host every `interval_ns`, with loss timeout `timeout_ns`.
    pub fn schedule_probing(
        &mut self,
        host: NodeId,
        start_ns: u64,
        interval_ns: u64,
        timeout_ns: u64,
    ) {
        self.push(start_ns, SimEvent::HostProbeRound { host, interval_ns, timeout_ns });
    }

    /// Arm monitor timers for all devices (idempotent; call before run).
    pub(crate) fn arm_monitor_timers(&mut self) {
        if self.timers_armed {
            return;
        }
        self.timers_armed = true;
        let ids: Vec<(NodeId, u64)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                let iv = match n {
                    Node::Switch(s) => s.monitor.as_ref()?.timer_interval_ns()?,
                    Node::Host(h) => h.monitor.as_ref()?.timer_interval_ns()?,
                    Node::Vacant => return None,
                };
                Some((i as NodeId, iv))
            })
            .collect();
        for (node, interval_ns) in ids {
            self.push(self.now + interval_ns, SimEvent::MonitorTimer { node, interval_ns });
        }
    }

    /// Run until the queue is empty or simulated time reaches `until_ns`.
    pub fn run_until(&mut self, until_ns: u64) {
        self.arm_monitor_timers();
        while let Some((time, _, _)) = self.queue.peek_key() {
            if time > until_ns {
                break;
            }
            let entry = self.queue.pop().expect("peeked");
            self.step(entry);
        }
        self.finish_run(until_ns);
    }

    /// Handle one popped event: move the clock to it and dispatch it.
    pub(crate) fn step(&mut self, entry: QEntry) {
        self.now = entry.time;
        self.cur = entry.key();
        self.events_processed += 1;
        self.dispatch(entry.ev);
    }

    /// End a `run_until*` call at `until_ns`: every recorded tx-done up to
    /// `until_ns` has happened, and the clock stands where the last event
    /// left it, one ns on (capped at `until_ns`).
    pub(crate) fn finish_run(&mut self, until_ns: u64) {
        self.retire_idle_tx((until_ns.saturating_add(1), 0, 0));
        self.now = self.now.max(until_ns.min(self.now + 1));
    }

    /// Retire every recorded tx-done keyed below `bound`: its port went
    /// idle then, and the clock has passed it.
    fn retire_idle_tx(&mut self, bound: EventKey) {
        for (id, n) in self.nodes.iter_mut().enumerate() {
            for port in 0..n.port_count() {
                let (busy, idle_tx) = n.port_state(port as u8);
                if let Some((time, seq)) = *idle_tx {
                    if (time, id as u32 + 1, seq) < bound {
                        *idle_tx = None;
                        *busy = false;
                        self.now = self.now.max(time);
                    }
                }
            }
        }
    }

    /// Run like [`run_until`](Self::run_until), but with the fleet sharded
    /// across `shards` worker threads (devices assigned round-robin by id).
    /// The result — device state, delivered events, ground truth, ledgers,
    /// management accounting, RNG streams — is bit-identical to the serial
    /// run at any shard count; see `DESIGN.md` §11 for the argument.
    pub fn run_until_parallel(&mut self, until_ns: u64, shards: usize) {
        crate::parallel::run(self, until_ns, shards);
    }

    pub(crate) fn dispatch(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Arrive { node, port, frame, fcs_error } => {
                self.handle_arrive(node, port, frame, fcs_error)
            }
            SimEvent::Dequeue { node, port } => self.handle_dequeue(node, port),
            SimEvent::RetryPort { node, port } => self.kick_port(node, port),
            SimEvent::HostFlowEmit { host, flow } => self.handle_flow_emit(host, flow),
            SimEvent::HostProbeRound { host, interval_ns, timeout_ns } => {
                self.handle_probe_round(host, interval_ns, timeout_ns)
            }
            SimEvent::MonitorTimer { node, interval_ns } => {
                self.handle_monitor_timer(node, interval_ns)
            }
            SimEvent::Control { idx } => {
                // A control may read any port's state: settle the
                // tx-dones that precede it first.
                self.retire_idle_tx(self.cur);
                if let Some(f) = self.controls[idx].take() {
                    f(self);
                }
            }
        }
    }

    fn handle_arrive(&mut self, node: NodeId, port: u8, frame: Vec<u8>, fcs_error: bool) {
        let now = self.now;
        let fx = match &mut self.nodes[node as usize] {
            Node::Switch(sw) => sw.handle_arrival(now, port, frame, fcs_error, &mut self.gt),
            Node::Host(h) => h.handle_arrival(now, frame, fcs_error),
            Node::Vacant => panic!("arrival routed to a vacant node {node}"),
        };
        self.apply_effects(node, fx);
    }

    fn apply_effects(&mut self, node: NodeId, fx: Effects) {
        self.mgmt.bytes += fx.report_bytes;
        // PFC frames bypass queues: serialize immediately on the wire.
        for (port, pfc) in fx.pfc_frames {
            self.transmit(node, port, pfc);
        }
        for p in fx.kick_ports.iter() {
            self.kick_port(node, p);
        }
    }

    /// Ensure `port` of `node` is actively draining (schedules a dequeue if
    /// the serializer is idle and something is transmittable).
    ///
    /// A tx-done that found the port drained was recorded on the port
    /// instead of scheduled (see [`handle_dequeue`](Self::handle_dequeue)).
    /// If its key is still ahead of the event being handled, it becomes
    /// the `Dequeue` it would have been, under that key, so the schedule
    /// is unchanged. If its key is behind, the port went idle at it.
    fn kick_port(&mut self, node: NodeId, port: u8) {
        let now = self.now;
        let n = &mut self.nodes[node as usize];
        let (busy, idle_tx) = n.port_state(port);
        match idle_tx.take() {
            Some((time, seq)) if (time, node + 1, seq) > self.cur => {
                let ev = SimEvent::Dequeue { node, port };
                self.queue.push(QEntry { time, lane: node + 1, seq, ev });
                return;
            }
            Some(_) => *busy = false,
            None if *busy => return,
            None => {}
        }
        if n.has_transmittable(now, port) {
            *n.port_state(port).0 = true;
            self.push_node(node, now, SimEvent::Dequeue { node, port });
        } else if let Some(t) = n.earliest_pause_expiry(now, port) {
            self.push_node(node, t, SimEvent::RetryPort { node, port });
        }
    }

    fn handle_dequeue(&mut self, node: NodeId, port: u8) {
        let now = self.now;
        let res = match &mut self.nodes[node as usize] {
            Node::Switch(sw) => sw.dequeue(now, port, &mut self.gt),
            Node::Host(h) => h.dequeue_tx(now),
            Node::Vacant => panic!("dequeue routed to a vacant node {node}"),
        };
        match res {
            Some(res) => {
                let tx_done = self.transmit(node, port, res.frame);
                self.apply_effects(node, res.effects);
                if self.nodes[node as usize].drained(port) {
                    // The tx-done would only find the port idle: take its
                    // seq as `push_node` would, and record it on the port.
                    let lane = node as usize + 1;
                    let seq = self.lane_seqs[lane];
                    self.lane_seqs[lane] = seq + 1;
                    let idle_tx = self.nodes[node as usize].port_state(port).1;
                    debug_assert!(idle_tx.is_none(), "a busy port records one tx-done");
                    *idle_tx = Some((tx_done, seq));
                } else {
                    self.push_node(node, tx_done, SimEvent::Dequeue { node, port });
                }
            }
            None => {
                let n = &mut self.nodes[node as usize];
                *n.port_state(port).0 = false;
                if let Some(t) = n.earliest_pause_expiry(now, port) {
                    self.push_node(node, t, SimEvent::RetryPort { node, port });
                }
            }
        }
    }

    /// Put `frame` on the wire leaving `(node, port)`. Returns the time the
    /// serializer frees up. Applies link faults; records ground truth for
    /// inter-switch losses.
    fn transmit(&mut self, node: NodeId, port: u8, frame: Vec<u8>) -> u64 {
        let now = self.now;
        let Some(peer) = self.peer(node, port) else {
            // Unconnected port: the frame evaporates (like a dark fiber).
            return now + 1;
        };
        let link = &mut self.links[peer.link];
        let gbps = link.gbps;
        let prop = link.prop_ns;
        let dir = if peer.a_to_b { &mut link.ab } else { &mut link.ba };
        let tx = tx_time_ns(frame.len(), gbps);
        let outcome = dir.judge(now);
        match outcome {
            LinkOutcome::Delivered => {
                self.push_node(
                    node,
                    now + tx + prop,
                    SimEvent::Arrive { node: peer.node, port: peer.port, frame, fcs_error: false },
                );
            }
            LinkOutcome::SilentDrop => {
                self.gt.record(GtEvent {
                    time_ns: now,
                    device: node,
                    ty: EventType::InterSwitchDrop,
                    flow: extract_flow(&frame),
                    drop_code: Some(DropCode::LinkLoss),
                    acl_rule: None,
                });
            }
            LinkOutcome::Corrupted => {
                self.gt.record(GtEvent {
                    time_ns: now,
                    device: node,
                    ty: EventType::InterSwitchDrop,
                    flow: extract_flow(&frame),
                    drop_code: Some(DropCode::LinkLoss),
                    acl_rule: None,
                });
                // With the residual-corruption model enabled the bytes are
                // actually damaged and the frame is delivered as if the FCS
                // missed it; otherwise classic FCS-kill semantics apply.
                let mut frame = frame;
                let escaped_fcs = dir.mutate_corrupted(&mut frame);
                self.push_node(
                    node,
                    now + tx + prop,
                    SimEvent::Arrive {
                        node: peer.node,
                        port: peer.port,
                        frame,
                        fcs_error: !escaped_fcs,
                    },
                );
            }
        }
        now + tx
    }

    fn handle_flow_emit(&mut self, host: NodeId, flow: usize) {
        let now = self.now;
        let gap = {
            let h = self.host_mut(host);
            h.emit_flow_packet(flow, now)
        };
        self.kick_port(host, 0);
        if let Some(gap) = gap {
            self.push_node(host, now + gap, SimEvent::HostFlowEmit { host, flow });
        }
    }

    fn handle_probe_round(&mut self, host: NodeId, interval_ns: u64, timeout_ns: u64) {
        let now = self.now;
        // Targets come from the ip cache, not the node table: on a parallel
        // shard the other hosts are not resident. The cache is in id order,
        // exactly matching the old host_ids() iteration.
        let targets: Vec<_> =
            self.host_ip_cache.iter().filter(|&&(h, _)| h != host).map(|&(_, ip)| ip).collect();
        {
            let h = self.host_mut(host);
            h.expire_probes(now, timeout_ns);
            for t in targets {
                h.send_probe(now, t);
            }
        }
        self.kick_port(host, 0);
        self.push_node(
            host,
            now + interval_ns,
            SimEvent::HostProbeRound { host, interval_ns, timeout_ns },
        );
    }

    fn handle_monitor_timer(&mut self, node: NodeId, interval_ns: u64) {
        let now = self.now;
        let fx = match &mut self.nodes[node as usize] {
            Node::Switch(sw) => sw.on_timer(now, &mut self.gt),
            Node::Host(h) => h.on_timer(now),
            Node::Vacant => panic!("monitor timer routed to a vacant node {node}"),
        };
        self.apply_effects(node, fx);
        self.push_node(node, now + interval_ns, SimEvent::MonitorTimer { node, interval_ns });
    }

    /// Find the host owning an IP address.
    pub fn host_by_ip(&self, ip: fet_packet::ipv4::Ipv4Addr) -> Option<NodeId> {
        self.nodes.iter().enumerate().find_map(|(i, n)| match n {
            Node::Host(h) if h.config.ip == ip => Some(i as NodeId),
            _ => None,
        })
    }

    /// Adjacency of the whole network: node → [(local port, peer node)],
    /// each list ascending by port.
    pub fn adjacency(&self) -> HashMap<NodeId, Vec<(u8, NodeId)>> {
        let mut adj: HashMap<NodeId, Vec<(u8, NodeId)>> = HashMap::new();
        for (node, port, peer) in self.wired() {
            adj.entry(node).or_default().push((port, peer.node));
        }
        adj
    }

    /// Every directed attachment: `(node, port, peer, peer_port)`, sorted.
    /// The wiring truth used to build the analytics layer's link map.
    pub fn link_endpoints(&self) -> Vec<(NodeId, u8, NodeId, u8)> {
        self.wired().map(|(node, port, peer)| (node, port, peer.node, peer.port)).collect()
    }

    /// Total data bytes transmitted by all hosts (the "original traffic"
    /// denominator of the paper's overhead figures).
    pub fn host_tx_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.counters.tx_bytes),
                _ => None,
            })
            .sum()
    }

    /// Total bytes transmitted by all switch ports (per-hop traffic volume).
    pub fn switch_tx_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Switch(s) => Some(s.counters.iter().map(|c| c.tx_bytes).sum::<u64>()),
                _ => None,
            })
            .sum()
    }
}

/// Steady-state driver for the event queue's micro-benchmark: keeps
/// `depth` events queued, and each [`step`](Self::step) pops the earliest
/// and pushes one more at the fleet's horizon mix (a quarter at the
/// current ns, most 80–600 ns ahead, a tail out to ~1 ms). Not part of
/// the simulator's API.
#[doc(hidden)]
pub struct QueueBench {
    queue: EventWheel,
    horizons: Vec<u64>,
    next: usize,
    seq: u64,
    now: u64,
}

impl QueueBench {
    /// A queue holding `depth` events, with horizons drawn from `seed`.
    pub fn new(depth: usize, seed: u64) -> Self {
        let mut rng = crate::rng::Pcg32::new(seed, 0x51);
        let horizons = (0..4096)
            .map(|_| match rng.next_below(100) {
                0..=24 => 0,
                25..=89 => 80 + u64::from(rng.next_below(520)),
                90..=97 => 600 + u64::from(rng.next_below(20_000)),
                _ => 100_000 + u64::from(rng.next_below(900_000)),
            })
            .collect();
        let mut b = QueueBench { queue: EventWheel::new(), horizons, next: 0, seq: 0, now: 0 };
        for _ in 0..depth {
            b.push();
        }
        b
    }

    fn push(&mut self) {
        let dt = self.horizons[self.next];
        self.next = (self.next + 1) % self.horizons.len();
        let lane = (self.seq % 97) as u32;
        let ev = SimEvent::Dequeue { node: lane, port: 0 };
        self.queue.push(QEntry { time: self.now + dt, lane, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Pop the earliest event and push one more; returns the popped time.
    pub fn step(&mut self) -> u64 {
        let e = self.queue.pop().expect("the queue never drains");
        self.now = e.time;
        self.push();
        e.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::FlowSpec;
    use crate::routing::install_ecmp_routes;
    use crate::time::{MILLIS, SECONDS};
    use crate::topology::{build_fat_tree, FatTreeParams};
    use fet_packet::FlowKey;

    fn setup() -> (Simulator, crate::topology::FatTree) {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        install_ecmp_routes(&mut sim);
        (sim, ft)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_flow(
        sim: &mut Simulator,
        ft: &crate::topology::FatTree,
        src: usize,
        dst: usize,
        sport: u16,
        bytes: u64,
        rate: f64,
        start: u64,
    ) -> FlowKey {
        let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
        let h = ft.hosts[src];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: bytes,
            pkt_payload: 1000,
            rate_gbps: rate,
            start_ns: start,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
        key
    }

    #[test]
    fn cross_pod_flow_delivers_every_byte() {
        let (mut sim, ft) = setup();
        let key = add_flow(&mut sim, &ft, 0, 7, 1000, 50_000, 5.0, 0);
        sim.run_until(SECONDS);
        let rx = sim.host(ft.hosts[7]).rx_flows.get(&key).copied().expect("flow seen");
        assert_eq!(rx.pkts, 50);
        assert!(rx.fin_seen, "FIN should arrive");
        // No drops anywhere on a healthy fabric.
        assert_eq!(sim.gt.count(fet_packet::EventType::MmuDrop), 0);
        assert_eq!(sim.gt.count(fet_packet::EventType::InterSwitchDrop), 0);
        assert_eq!(sim.gt.count(fet_packet::EventType::PipelineDrop), 0);
    }

    #[test]
    fn same_tor_flow_stays_local() {
        let (mut sim, ft) = setup();
        let key = add_flow(&mut sim, &ft, 0, 1, 1001, 10_000, 5.0, 0);
        sim.run_until(SECONDS);
        let rx = sim.host(ft.hosts[1]).rx_flows.get(&key).copied().unwrap();
        assert_eq!(rx.pkts, 10);
        // Aggs and cores never forwarded data.
        for &agg in ft.aggs.iter().flatten() {
            let tx: u64 = sim.switch(agg).counters.iter().map(|c| c.tx_pkts).sum();
            assert_eq!(tx, 0, "agg should be idle for intra-ToR traffic");
        }
    }

    #[test]
    fn silent_link_drop_recorded_in_ground_truth() {
        let (mut sim, ft) = setup();
        let key = add_flow(&mut sim, &ft, 0, 7, 1002, 20_000, 5.0, 0);
        // Break the ToR0_0 uplink toward agg0_0 (drop 3 frames at 10us).
        let tor = ft.edges[0][0];
        // ToR ports 0,1 connect to aggs (wired before hosts).
        for port in 0..2 {
            let dir = sim.link_direction_mut(tor, port).unwrap();
            dir.faults.burst_drop =
                Some(crate::link::BurstDrop { at_ns: 10_000, count: 3, corrupt: false });
        }
        sim.run_until(SECONDS);
        let lost = sim.gt.count(fet_packet::EventType::InterSwitchDrop);
        assert_eq!(lost, 3, "exactly the burst should be lost");
        let rx = sim.host(ft.hosts[7]).rx_flows.get(&key).copied().unwrap();
        assert_eq!(rx.pkts, 17);
        // Ground truth knows the victim flow even for silent drops.
        let fe = sim.gt.flow_events(fet_packet::EventType::InterSwitchDrop);
        assert!(fe.contains(&(tor, key)));
    }

    #[test]
    fn incast_produces_congestion_and_mmu_drops() {
        let mut params = FatTreeParams::default();
        // Small buffers to force congestion quickly.
        params.switch_config.mmu.total_bytes = 64 * 1024;
        params.switch_config.congestion_threshold_ns = 5 * crate::time::MICROS;
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &params);
        install_ecmp_routes(&mut sim);
        // 7 hosts blast host 0 at full NIC rate.
        for src in 1..8 {
            add_flow(&mut sim, &ft, src, 0, 2000 + src as u16, 2_000_000, 25.0, 0);
        }
        sim.run_until(20 * MILLIS);
        assert!(sim.gt.count(fet_packet::EventType::Congestion) > 0, "expected congestion");
        assert!(sim.gt.count(fet_packet::EventType::MmuDrop) > 0, "expected incast drops");
    }

    #[test]
    fn blackhole_route_drops_with_table_miss() {
        let (mut sim, ft) = setup();
        let key = add_flow(&mut sim, &ft, 0, 7, 1003, 10_000, 5.0, 0);
        let tor = ft.edges[0][0];
        let victim_ip = ft.host_ips[7];
        sim.schedule_control(5 * crate::time::MICROS, move |s| {
            crate::routing::remove_route(s, tor, victim_ip);
        });
        sim.run_until(SECONDS);
        let drops = sim.gt.count(fet_packet::EventType::PipelineDrop);
        assert!(drops > 0, "blackhole should drop");
        let fe = sim.gt.flow_events(fet_packet::EventType::PipelineDrop);
        assert!(fe.contains(&(tor, key)));
    }

    #[test]
    fn probing_measures_rtts() {
        let (mut sim, ft) = setup();
        sim.schedule_probing(ft.hosts[0], 0, MILLIS, 100 * MILLIS);
        sim.run_until(10 * MILLIS);
        let h = sim.host(ft.hosts[0]);
        // ~10 rounds x 7 targets.
        assert!(h.probe_samples.len() >= 60, "samples {}", h.probe_samples.len());
        for s in &h.probe_samples {
            assert!(s.rtt_ns > 0 && s.rtt_ns < MILLIS, "rtt {}", s.rtt_ns);
        }
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = || {
            let (mut sim, ft) = setup();
            for src in 1..8 {
                add_flow(&mut sim, &ft, src, 0, 3000 + src as u16, 500_000, 25.0, 0);
            }
            let tor = ft.edges[0][0];
            sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.001;
            sim.run_until(10 * MILLIS);
            (sim.events_processed(), sim.gt.events().len(), sim.host_tx_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_arrives_as_fcs_error_and_dies_at_mac() {
        let (mut sim, ft) = setup();
        add_flow(&mut sim, &ft, 0, 2, 1004, 10_000, 5.0, 0);
        let tor = ft.edges[0][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.corrupt_prob = 1.0;
        }
        sim.run_until(SECONDS);
        // Everything crossing the uplinks was corrupted: receiver got nothing.
        assert!(sim.host(ft.hosts[2]).rx_flows.is_empty());
        // The downstream agg counted FCS errors.
        let fcs: u64 = ft.aggs[0]
            .iter()
            .map(|&a| sim.switch(a).counters.iter().map(|c| c.fcs_errors).sum::<u64>())
            .sum();
        assert!(fcs > 0);
        assert_eq!(sim.gt.count(fet_packet::EventType::InterSwitchDrop) as u64, fcs);
    }
}

#[cfg(test)]
mod engine_unit_tests {
    use super::*;
    use crate::host::HostConfig;
    use crate::monitor::{Actions, SwitchMonitor};
    use crate::switchdev::{SwitchConfig, SwitchDevice};
    use std::any::Any;

    /// A monitor that reports a fixed number of bytes per timer tick and,
    /// when `emit` is set, also sends one frame per tick on port 0.
    struct TickReporter {
        interval: u64,
        ticks: u32,
        emit: bool,
    }
    impl SwitchMonitor for TickReporter {
        fn on_timer(
            &mut self,
            _now_ns: u64,
            _counters: &[crate::counters::PortCounters],
            out: &mut Actions,
        ) {
            self.ticks += 1;
            out.report(100);
            if self.emit {
                out.emit(0, vec![0; 64], false);
            }
        }
        fn timer_interval_ns(&self) -> Option<u64> {
            Some(self.interval)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn monitor_timers_fire_on_interval_and_meter_reports() {
        let mut sim = Simulator::new();
        let mut sw = SwitchDevice::new(0, "s", SwitchConfig::default());
        sw.set_monitor(Box::new(TickReporter { interval: 1_000, ticks: 0, emit: false }));
        let id = sim.add_switch(sw);
        sim.run_until(10_500);
        let m = sim.switch(id).monitor.as_ref().unwrap();
        let t = m.as_any().downcast_ref::<TickReporter>().unwrap();
        assert_eq!(t.ticks, 10, "ticks at 1us intervals over 10.5us");
        assert_eq!(sim.mgmt.total_bytes(), 1_000);
    }

    #[test]
    fn host_monitor_timer_meters_reports_and_transmits_emits() {
        let mut sim = Simulator::new();
        let mut h = Host::new(0, HostConfig::default());
        h.monitor = Some(Box::new(TickReporter { interval: 1_000, ticks: 0, emit: true }));
        let id = sim.add_host(h);
        sim.run_until(10_500);
        let h = sim.host(id);
        let t = h.monitor.as_ref().unwrap().as_any().downcast_ref::<TickReporter>().unwrap();
        assert_eq!(t.ticks, 10, "ticks at 1us intervals over 10.5us");
        assert_eq!(sim.mgmt.total_bytes(), 1_000);
        // Every emitted frame was queued, kicked and put on the (unwired)
        // NIC port; the serializer went idle again after each.
        assert_eq!(h.counters.tx_pkts, 10);
        assert_eq!(h.txq_depth_bytes(), 0);
        assert!(!h.port_busy);
    }

    /// Records the time of every NIC dequeue.
    struct EgressLog(Vec<u64>);
    impl SwitchMonitor for EgressLog {
        fn on_egress(
            &mut self,
            ctx: &crate::monitor::EgressCtx<'_>,
            _frame: &mut Vec<u8>,
            _out: &mut Actions,
        ) {
            self.0.push(ctx.now_ns);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Host 0 sends one 1000-byte packet at t = 2000 to host 1 over a
    /// 25 Gbps link; the packet's tx-done (t = 2338) finds the NIC drained.
    /// A second one-packet flow starts at `second_ns`, and host 1
    /// optionally starts probing host 0 at `probe_ns` (a probe sent at
    /// 1000 reaches host 0 at 2338, and host 0 answers it). Returns the
    /// simulator after `run_until(until)` and host 0's dequeue times.
    fn idle_port_world(second_ns: u64, probe_ns: Option<u64>, until: u64) -> (Simulator, Vec<u64>) {
        use crate::host::FlowSpec;
        use fet_packet::ipv4::Ipv4Addr;
        let ips = [Ipv4Addr::from_octets([10, 0, 0, 1]), Ipv4Addr::from_octets([10, 0, 0, 2])];
        let mut sim = Simulator::new();
        for (id, &ip) in ips.iter().enumerate() {
            let mut h = Host::new(id as NodeId, HostConfig { ip, ..HostConfig::default() });
            if id == 0 {
                h.monitor = Some(Box::new(EgressLog(Vec::new())));
            }
            sim.add_host(h);
        }
        sim.connect(0, 0, 1, 0, Link::new(25.0, 1_000, 7));
        for (sport, start_ns) in [(1, 2_000), (2, second_ns)] {
            let key = fet_packet::FlowKey::tcp(ips[0], sport, ips[1], 80);
            let spec = FlowSpec {
                key,
                total_bytes: 1000,
                pkt_payload: 1000,
                rate_gbps: 25.0,
                start_ns,
                dscp: 0,
            };
            let idx = sim.host_mut(0).add_flow(spec);
            sim.schedule_flow(0, idx);
        }
        if let Some(at) = probe_ns {
            sim.schedule_probing(1, at, crate::time::SECONDS, crate::time::SECONDS);
        }
        sim.run_until(until);
        let log = sim.host(0).monitor.as_ref().unwrap().as_any().downcast_ref::<EgressLog>();
        let times = log.unwrap().0.clone();
        (sim, times)
    }

    #[test]
    fn frame_enqueued_before_an_idle_tx_done_leaves_at_it() {
        let (sim, times) = idle_port_world(2_337, None, 10_000);
        assert_eq!(times, vec![2_000, 2_338]);
        assert!(!sim.host(0).port_busy);
    }

    #[test]
    fn frame_enqueued_at_an_idle_tx_done_leaves_at_it() {
        let (sim, times) = idle_port_world(2_338, None, 10_000);
        assert_eq!(times, vec![2_000, 2_338]);
        assert!(!sim.host(0).port_busy);
        // A kick at the tx-done's ns that sorts after it (host 1's lane
        // follows host 0's) finds the port idle and answers at once.
        let (sim, times) = idle_port_world(5_000, Some(1_000), 10_000);
        assert_eq!(times, vec![2_000, 2_338, 5_000]);
        assert!(!sim.host(0).port_busy);
    }

    #[test]
    fn frame_enqueued_after_an_idle_tx_done_leaves_on_arrival() {
        let (sim, times) = idle_port_world(2_339, None, 10_000);
        assert_eq!(times, vec![2_000, 2_339]);
        assert!(!sim.host(0).port_busy);
    }

    #[test]
    fn run_until_retires_an_idle_tx_done_it_passes() {
        let (sim, times) = idle_port_world(5_000, None, 2_337);
        assert_eq!((times, sim.host(0).port_busy, sim.now()), (vec![2_000], true, 2_001));
        let (sim, times) = idle_port_world(5_000, None, 2_338);
        assert_eq!((times, sim.host(0).port_busy, sim.now()), (vec![2_000], false, 2_338));
    }

    #[test]
    fn controls_fire_once_in_time_order() {
        let mut sim = Simulator::new();
        let sw = SwitchDevice::new(0, "s", SwitchConfig::default());
        let id = sim.add_switch(sw);
        sim.schedule_control(2_000, move |s| {
            s.switch_mut(id).port_up[1] = false;
        });
        sim.schedule_control(1_000, move |s| {
            assert!(s.switch(id).port_up[1], "earlier control sees pre-state");
        });
        sim.run_until(5_000);
        assert!(!sim.switch(id).port_up[1]);
    }

    #[test]
    fn unconnected_port_transmits_into_the_void() {
        // A frame sent on a dark port must not crash or loop.
        let mut sim = Simulator::new();
        let mut sw = SwitchDevice::new(0, "s", SwitchConfig::default());
        sw.routes.insert(
            fet_packet::ipv4::Ipv4Addr::from_octets([10, 0, 0, 9]),
            32,
            vec![5], // port 5 is unwired
        );
        let id = sim.add_switch(sw);
        let flow = fet_packet::FlowKey::tcp(
            fet_packet::ipv4::Ipv4Addr::from_octets([10, 0, 0, 1]),
            1,
            fet_packet::ipv4::Ipv4Addr::from_octets([10, 0, 0, 9]),
            2,
        );
        let frame = fet_packet::builder::build_data_packet(&flow, 100, 0, 0, 64);
        // Inject directly via a control that enqueues an arrival.
        sim.schedule_control(0, move |s| {
            let Node::Switch(sw) = &mut s.nodes[id as usize] else { unreachable!() };
            let fx = sw.handle_arrival(0, 0, frame.clone(), false, &mut s.gt);
            assert_eq!(fx.kick_ports.iter().collect::<Vec<_>>(), vec![5]);
        });
        sim.run_until(1_000);
        // Frame is queued on port 5 but never transmitted (no kick); the
        // simulation simply drains without panicking.
        assert_eq!(sim.switch(id).queue_len(5, 0), 1);
    }
}
