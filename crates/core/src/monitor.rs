//! [`NetSeerMonitor`] — the full NetSeer data-plane program, wired into the
//! emulated switch via [`fet_netsim::SwitchMonitor`], or into a SmartNIC
//! ([`Role::Nic`]) where only the inter-switch drop module runs and events
//! go to a local log (paper §4, "NIC").

use crate::acl_agg::{AclAggregator, AclOutcome};
use crate::batch::{CebpBatcher, PushOutcome};
use crate::config::NetSeerConfig;
use crate::cpu::SwitchCpu;
use crate::dedup::{DedupOutcome, GroupCache};
use crate::detect::interswitch::PendingLookups;
use crate::detect::interswitch::RING_SLOT_BITS;
use crate::detect::pause::PauseTracker;
use crate::detect::{GapDetector, PathTable, PortTagger};
use crate::extract::Extractor;
use crate::faults::{streams, CorruptionGen, CrashKind, DeliveryLedger, DeviceClock, LossGen};
use crate::recovery::{CrashReport, RecoveryLog};
use crate::storage::StoredEvent;
use crate::tables::{DedupTable, PortTable};
use crate::transport::{ReliableChannel, DEFAULT_MAX_RETRIES};
use fet_netsim::counters::PortCounters;
use fet_netsim::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_packet::builder::{
    build_cebp_frame, build_notification_frames_with, parse_cebp_frame, parse_notification,
    FrameKind,
};
use fet_packet::ethernet::ETHERNET_HEADER_LEN;
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType, EVENT_RECORD_LEN};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::pfc::{PfcFrame, PFC_CLASSES};
use fet_packet::{FlowKey, IpProtocol};
use fet_pdp::resources::ALL_RESOURCE_KINDS;
use fet_pdp::{RateLimitedChannel, ResourceKind, ResourceLedger, TOFINO_32D};
use std::any::Any;

/// Where this monitor instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A full switch deployment: all detectors + event path.
    Switch,
    /// A SmartNIC: inter-switch drop detection only, events logged locally.
    Nic,
}

/// Per-step volume accounting (regenerates Figure 13).
#[derive(Debug, Default, Clone, Copy)]
pub struct StepStats {
    /// Data packets the pipeline saw.
    pub packets_seen: u64,
    /// Their bytes.
    pub packets_bytes: u64,
    /// Packets selected as event packets (step 1).
    pub event_packets: u64,
    /// Their bytes.
    pub event_packet_bytes: u64,
    /// Final reports delivered to the backend.
    pub final_reports: u64,
    /// Final report bytes on the management network.
    pub final_bytes: u64,
}

/// Overhead of a TCP/IP report message around the batched events.
const REPORT_HEADER_BYTES: usize = 54;

/// Synthetic "flow" carrying an ACL rule id, since ACL drops aggregate per
/// rule rather than per flow (§3.4). Proto 255 marks it unmistakably.
pub fn acl_rule_flow(rule_id: u32) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::from_u32(rule_id),
        dst: Ipv4Addr::from_u32(0),
        sport: 0,
        dport: 0,
        proto: IpProtocol::Other(255),
    }
}

/// The NetSeer data-plane + control-plane program for one device.
pub struct NetSeerMonitor {
    /// Configuration.
    pub(crate) cfg: NetSeerConfig,
    /// Switch or NIC deployment.
    pub(crate) role: Role,
    device: u32,
    // --- detection state (§3.3) ---
    // Flat 256-slot tables indexed by the u8 port (no per-packet hashing).
    taggers: PortTable<PortTagger>,
    gaps: PortTable<GapDetector>,
    pending: PortTable<PendingLookups>,
    /// PFC queue status (pause detection).
    pub(crate) pause_tracker: PauseTracker,
    /// Learned flow paths (path-change detection).
    pub(crate) path_table: PathTable,
    // --- aggregation (§3.4) ---
    /// One group cache per event type, indexed by discriminant.
    pub dedup: DedupTable,
    /// ACL-rule-granularity drop aggregation.
    pub(crate) acl: AclAggregator,
    /// 24-byte record builder.
    pub extractor: Extractor,
    // --- batching + CPU + transport (§3.5, §3.6) ---
    /// The circulating event batcher.
    pub batcher: CebpBatcher,
    /// The switch CPU model.
    pub cpu: SwitchCpu,
    /// Reliable TCP-ish reporting channel to the backend.
    pub(crate) transport: ReliableChannel,
    mmu_redirect: RateLimitedChannel,
    /// The internal port that carries redirected ingress/MMU event packets
    /// (and CEBPs): pause, ingress pipeline drop, and MMU drop events are
    /// "jointly limited by the bandwidth of switch's internal port" (§4).
    internal_port: RateLimitedChannel,
    /// MMU drops missed because the 40G redirect path was saturated.
    pub mmu_redirect_missed: u64,
    /// Events missed because the internal port was saturated.
    pub internal_port_missed: u64,
    /// Events that reached the backend (or the NIC's local log).
    pub delivered: Vec<StoredEvent>,
    /// Per-step volume stats.
    pub stats: StepStats,
    // --- fault injection + delivery accounting ---
    /// Loss process applied to each arriving loss-notification copy.
    notif_loss: LossGen,
    /// Byte damage applied to each outgoing CEBP report attempt.
    cebp_corrupt: CorruptionGen,
    /// Byte damage applied to each outgoing loss-notification copy.
    notif_corrupt: CorruptionGen,
    /// Event records handed to the reporting path (ledger numerator).
    pub(crate) events_generated: u64,
    /// Events shed because the transport exhausted its retry budget.
    pub(crate) transport_failed_events: u64,
    /// Notification copies eaten by the injected loss process.
    pub(crate) notification_copies_dropped: u64,
    /// CEBP report attempts whose CRC trailer failed at the collector.
    /// Each failure is an implicit NACK: the sender retransmits.
    pub(crate) cebp_crc_failures: u64,
    /// Batches abandoned after every CRC retransmit failed; their events
    /// are the ledger's `corrupted` term.
    pub(crate) corrupted_batches: u64,
    /// Events in abandoned corrupted batches (terminal, counted — the
    /// damaged frames are never parsed into the store).
    pub(crate) corrupted_events: u64,
    /// Arriving loss-notification copies rejected by their CRC trailer.
    pub notifications_crc_rejected: u64,
    // --- crash recovery ---
    /// Write-ahead log positions for the pending set plus a periodic
    /// checkpoint of the tagger heads (see [`crate::recovery`]).
    pub recovery: RecoveryLog,
    /// Monotonic delivery sequence number; `(device, epoch, seq)` is the
    /// collector's exactly-once dedup key.
    next_delivery_seq: u64,
    /// Reused scratch for the records produced by one `raise` call.
    records_scratch: Vec<(FlowKey, u16)>,
    /// Liveness heartbeat: advances on every timer tick while the control
    /// loop is healthy; the watchdog declares the monitor suspect when it
    /// stops (see [`crate::watchdog`]).
    pub heartbeat: u64,
    /// This device's virtual clock (identity unless
    /// [`FaultPlan::clock`](crate::faults::FaultPlan::clock) is active).
    /// Rewrites recorded stamps only — event times, snapshot stamps,
    /// heartbeat readings — never control flow, so a clock-faulted run
    /// generates exactly the same event set as an unfaulted one.
    clock: DeviceClock,
    /// Fault injection: a wedged control loop. Timer ticks and pumping do
    /// nothing (the heartbeat freezes, batches pile up and shed, no
    /// checkpoints are taken) until a restart clears it.
    wedged: bool,
}

/// Counter report interval C of Algorithm 1 (§3.4).
pub(crate) const DEDUP_C: u32 = 128;

/// Path-change flow table entries.
const PATH_ENTRIES: usize = 8192;

/// Max pending ring-buffer lookups buffered per port.
const PENDING_LOOKUP_CAP: usize = 4096;

/// Control-plane tick interval, ns.
pub const TIMER_INTERVAL_NS: u64 = 100 * fet_netsim::MICROS;

/// Ceiling on the collector-driven batch-flush widening stride: under
/// backpressure the monitor forces partial batches out only every
/// `2^level` timer ticks, and this caps the stride so a runaway backlog
/// signal can never silence the reporting path entirely.
pub(crate) const BACKPRESSURE_MAX_WIDEN: u32 = 8;

impl std::fmt::Debug for NetSeerMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSeerMonitor")
            .field("device", &self.device)
            .field("role", &self.role)
            .finish_non_exhaustive()
    }
}

impl NetSeerMonitor {
    /// Create a monitor for a device. `device` must match the node id the
    /// monitor is attached to; `seed` diversifies hash units per device.
    pub fn new(device: u32, role: Role, cfg: NetSeerConfig) -> Self {
        let seed = device.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let mk = |name: &'static str, salt: u32| {
            GroupCache::new(name, cfg.dedup_entries, DEDUP_C, seed ^ salt)
        };
        let dedup = DedupTable::build(|ty| match ty {
            EventType::Congestion => mk("dedup-congestion", 1),
            EventType::PipelineDrop => mk("dedup-pipedrop", 2),
            EventType::MmuDrop => mk("dedup-mmudrop", 3),
            EventType::InterSwitchDrop => mk("dedup-iswdrop", 4),
            EventType::PathChange => mk("dedup-path", 5),
            EventType::Pause => mk("dedup-pause", 6),
        });
        NetSeerMonitor {
            role,
            device,
            taggers: PortTable::new(),
            gaps: PortTable::new(),
            pending: PortTable::new(),
            pause_tracker: PauseTracker::new(64),
            path_table: PathTable::new(PATH_ENTRIES, seed ^ 0xabcd),
            dedup,
            acl: AclAggregator::new(u64::from(DEDUP_C)),
            extractor: Extractor::new(),
            batcher: CebpBatcher::new(&cfg),
            cpu: SwitchCpu::new(&cfg),
            transport: ReliableChannel::with_process(
                cfg.faults.mgmt_loss,
                cfg.faults.mgmt_partitions.clone(),
                50 * fet_netsim::MICROS,
                0,
                cfg.faults.seed ^ u64::from(seed),
                DEFAULT_MAX_RETRIES,
            ),
            mmu_redirect: RateLimitedChannel::new(cfg.capacity.mmu_redirect_gbps, 1 << 20),
            internal_port: RateLimitedChannel::new(cfg.capacity.internal_port_gbps, 4 << 20),
            mmu_redirect_missed: 0,
            internal_port_missed: 0,
            delivered: Vec::new(),
            stats: StepStats::default(),
            notif_loss: LossGen::new(
                cfg.faults.notification_loss,
                cfg.faults.seed ^ u64::from(seed),
                streams::NOTIFICATION,
            ),
            cebp_corrupt: CorruptionGen::new(
                cfg.faults.cebp_corruption,
                cfg.faults.seed ^ u64::from(seed),
                streams::CEBP_CORRUPT,
            ),
            notif_corrupt: CorruptionGen::new(
                cfg.faults.notification_corruption,
                cfg.faults.seed ^ u64::from(seed),
                streams::NOTIF_CORRUPT,
            ),
            events_generated: 0,
            transport_failed_events: 0,
            notification_copies_dropped: 0,
            cebp_crc_failures: 0,
            corrupted_batches: 0,
            corrupted_events: 0,
            notifications_crc_rejected: 0,
            recovery: {
                let mut recovery = RecoveryLog::new(cfg.checkpoint_interval_ns);
                recovery.set_torn_wal(CorruptionGen::new(
                    cfg.faults.torn_wal,
                    cfg.faults.seed ^ u64::from(seed),
                    streams::WAL_CORRUPT,
                ));
                recovery
            },
            next_delivery_seq: 0,
            records_scratch: Vec::with_capacity(4),
            heartbeat: 0,
            clock: DeviceClock::new(&cfg.faults.clock, cfg.faults.seed, device),
            wedged: false,
            cfg,
        }
    }

    /// The end-to-end delivery-accounting snapshot: every event handed to
    /// the reporting path is delivered, shed at a counted choke point, or
    /// still pending in the batcher. [`DeliveryLedger::balanced`] failing
    /// means silent loss — a bug, not a degradation mode.
    pub fn ledger(&self) -> DeliveryLedger {
        DeliveryLedger {
            generated: self.events_generated,
            delivered: self.stats.final_reports,
            shed_stack: self.batcher.dropped,
            shed_pcie: self.cpu.pcie_rejected_events,
            shed_cpu_overload: self.cpu.shed_overload,
            shed_false_positive: self.cpu.fp_eliminated,
            shed_transport: self.transport_failed_events,
            pending: self.batcher.backlog() as u64,
            buffered: 0,
            lost_to_crash: self.recovery.lost_to_crash,
            corrupted: self.corrupted_events,
            // Monitors emit simulator-born events; only wire ingestion
            // (crate::wire) books malformed records.
            malformed: 0,
        }
    }

    /// Wedge the control loop (fault injection): the heartbeat freezes and
    /// timer ticks / pumping become no-ops until [`restart`](Self::restart).
    pub(crate) fn wedge(&mut self) {
        self.wedged = true;
    }

    /// Is the control loop wedged?
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Is the switch-CPU process down — crashed and not yet restarted?
    /// Every hook is a no-op meanwhile.
    pub fn is_down(&self) -> bool {
        self.recovery.killed_at().is_some()
    }

    /// Record the collector's backpressure level (piggybacked on transport
    /// ACKs in a real deployment). The next timer tick converts it into a
    /// flush-widening stride of `2^level` ticks, capped by
    /// `BACKPRESSURE_MAX_WIDEN`. Level 0 restores
    /// flush-every-tick.
    pub fn set_backpressure(&mut self, level: u32) {
        self.transport.rx_backpressure_hint = level;
    }

    fn tagger(&mut self, port: u8) -> &mut PortTagger {
        let slots = self.cfg.ring_slots;
        self.taggers.get_or_insert_with(port, || PortTagger::new(slots))
    }

    /// Ring-buffer tagger stats for a port (diagnostics).
    pub fn tagger_stats(&self, port: u8) -> Option<(u64, u64, u64)> {
        self.taggers.get(port).map(|t| (t.tagged, t.lookup_hits, t.lookup_misses))
    }

    /// The device id this monitor reports as.
    pub fn device(&self) -> u32 {
        self.device
    }

    /// Total sequence gaps detected across ports.
    pub fn gaps_detected(&self) -> u64 {
        self.gaps.values().map(|g| g.gaps_detected).sum()
    }

    /// Per-ingress-port sequence-gap counts, sorted by port — the
    /// control-plane scrape the analytics correlator joins against
    /// upstream loss reports.
    pub fn gap_counts(&self) -> Vec<(u8, u64)> {
        // PortTable iteration is already in ascending port order.
        self.gaps.iter().map(|(port, g)| (port, g.gaps_detected)).collect()
    }

    /// Redirect an ingress-side event packet through the internal port;
    /// false when the port is saturated and the event is lost (§4).
    fn internal_redirect(&mut self, now_ns: u64, bytes: usize) -> bool {
        if self.internal_port.offer(now_ns, bytes).is_none() {
            self.internal_port_missed += 1;
            return false;
        }
        true
    }

    /// The core event path: dedup → extract → batch (or local log on NICs).
    fn raise(
        &mut self,
        now_ns: u64,
        ty: EventType,
        flow: FlowKey,
        detail: EventDetail,
        original_len: usize,
        out: &mut Actions,
    ) {
        // Partial deployment (§2.3): skip flows outside the filter.
        if let Some(filter) = self.cfg.flow_filter {
            if !filter.matches(&flow) {
                return;
            }
        }
        self.stats.event_packets += 1;
        self.stats.event_packet_bytes += original_len as u64;
        // Reused scratch: no per-event allocation in steady state.
        let mut records = std::mem::take(&mut self.records_scratch);
        records.clear();
        if self.cfg.enable_dedup {
            let cache = self.dedup.get_mut(ty);
            match cache.offer(flow) {
                DedupOutcome::Suppressed { .. } => {}
                DedupOutcome::NewFlow => records.push((flow, 1)),
                DedupOutcome::CounterReport { counter } => {
                    records.push((flow, counter.min(u32::from(u16::MAX)) as u16));
                }
                DedupOutcome::Evicted { old_flow, old_counter } => {
                    records.push((old_flow, old_counter.min(u32::from(u16::MAX)) as u16));
                    records.push((flow, 1));
                }
            }
        } else {
            records.push((flow, 1));
        }
        for (f, counter) in records.drain(..) {
            let hash = self.dedup.get(ty).flow_hash(&f);
            let rec = self.extractor.extract(ty, f, detail, counter, hash, original_len);
            self.dispatch_record(now_ns, rec, out);
        }
        self.records_scratch = records;
        self.pump(now_ns, out);
    }

    /// Push one finished record into the reporting path.
    fn dispatch_record(&mut self, now_ns: u64, rec: EventRecord, out: &mut Actions) {
        self.events_generated += 1;
        match self.role {
            Role::Switch => self.push_pending(now_ns, rec),
            Role::Nic => {
                // NICs log locally (paper §4): no CEBP/CPU path. The stamp
                // is the NIC's local clock reading, not global time.
                self.delivered.push(StoredEvent {
                    time_ns: self.clock.local_time(now_ns),
                    device: self.device,
                    epoch: self.transport.epoch,
                    seq: self.next_delivery_seq,
                    record: rec,
                });
                self.next_delivery_seq += 1;
                self.stats.final_reports += 1;
                self.stats.final_bytes += EVENT_RECORD_LEN as u64;
                out.report(EVENT_RECORD_LEN);
            }
        }
    }

    /// Offer one record to the batcher, logging the mutation in the WAL.
    /// Shedding (priority-aware, when the bounded stack is full) is
    /// counted inside the batcher — never silent — and an eviction is made
    /// durable immediately: the victim's shed is already counted, so a
    /// post-crash replay must never resurrect it.
    fn push_pending(&mut self, now_ns: u64, rec: EventRecord) {
        match self.batcher.push(now_ns, rec) {
            PushOutcome::Stored => self.recovery.log_enq(),
            PushOutcome::ShedVictim { .. } => {
                self.recovery.log_removal();
                self.recovery.log_enq();
            }
            PushOutcome::ShedIncoming => {}
        }
    }

    /// Advance batcher → CPU → transport, delivering finished events.
    /// Returns at once unless the batcher has a visit due, as it has on
    /// most packets.
    #[inline]
    fn pump(&mut self, now_ns: u64, out: &mut Actions) {
        if self.wedged || !self.batcher.due(now_ns) {
            return;
        }
        for batch in self.batcher.poll(now_ns) {
            self.deliver_batch(batch, out);
        }
    }

    fn deliver_batch(&mut self, batch: crate::batch::Batch, out: &mut Actions) {
        // The batch's events just left the pending set; the departure is
        // fsynced before any downstream effect (delivery or a counted
        // shed) so replay can never bring them back.
        self.recovery.log_removal();
        let wire = batch.wire_bytes();
        let survived = self.cpu.process_batch(batch.ready_ns, &batch.events, wire);
        if survived.is_empty() {
            return;
        }
        let last_done = survived.last().expect("nonempty").done_ns;
        let bytes = survived.len() * EVENT_RECORD_LEN + REPORT_HEADER_BYTES;
        let records: Vec<EventRecord> = survived.iter().map(|s| s.record).collect();
        // Each transport attempt carries a real CEBP wire frame whose CRC32C
        // trailer the collector verifies. A CRC failure is an implicit NACK
        // (no ACK carries the reject): the sender retransmits, bounded by
        // the transport retry budget. With no corruption configured the
        // first attempt always verifies, so this loop runs exactly once.
        let mut send_at = last_done;
        for _attempt in 0..=DEFAULT_MAX_RETRIES {
            match self.transport.send(send_at, bytes) {
                Ok(delivery) => {
                    let mut frame = build_cebp_frame(survived.len() as u16, &records)
                        .expect("report-sized CEBP always fits");
                    self.cebp_corrupt.corrupt(&mut frame);
                    match parse_cebp_frame(&frame) {
                        Ok(_) => {
                            for s in &survived {
                                // Stamped with the *monitor's* local clock:
                                // a skewed device reports skewed times, and
                                // downstream consumers must cope.
                                self.delivered.push(StoredEvent {
                                    time_ns: self
                                        .clock
                                        .local_time(delivery.delivered_ns.max(s.done_ns)),
                                    device: self.device,
                                    epoch: self.transport.epoch,
                                    seq: self.next_delivery_seq,
                                    record: s.record,
                                });
                                self.next_delivery_seq += 1;
                            }
                            self.stats.final_reports += survived.len() as u64;
                            self.stats.final_bytes += bytes as u64;
                            out.report(bytes);
                            return;
                        }
                        Err(_) => {
                            // Poison: count the damaged frame, never parse
                            // it into the store, and retransmit.
                            self.cebp_crc_failures += 1;
                            send_at = delivery.delivered_ns;
                        }
                    }
                }
                Err(_failure) => {
                    // Retry budget exhausted (e.g. a partition outlasting
                    // the backoff schedule): shed-and-count, never silent.
                    self.transport_failed_events += survived.len() as u64;
                    return;
                }
            }
        }
        // Every attempt was damaged beyond its CRC: terminal corruption,
        // counted in the ledger's `corrupted` term.
        self.corrupted_batches += 1;
        self.corrupted_events += survived.len() as u64;
    }

    /// Drain up to `n` pending ring lookups for a port, raising drop events.
    fn drain_pending(&mut self, now_ns: u64, port: u8, n: usize, out: &mut Actions) {
        for _ in 0..n {
            let Some(seq) = self.pending.get_mut(port).and_then(|p| p.pop()) else {
                return;
            };
            let hit = self.tagger(port).lookup(seq);
            if let Some(flow) = hit {
                self.raise(
                    now_ns,
                    EventType::InterSwitchDrop,
                    flow,
                    EventDetail::Drop {
                        ingress_port: port,
                        egress_port: port,
                        code: DropCode::LinkLoss,
                    },
                    64,
                    out,
                );
            }
        }
    }

    /// Take a checkpoint now: record the tagger heads (ascending by port,
    /// as the port table iterates) and fsync the WAL. Global time drives
    /// the cadence.
    pub(crate) fn checkpoint(&mut self, now_ns: u64) {
        let heads = self.taggers.iter().map(|(p, t)| (p, t.head())).collect();
        self.recovery.checkpoint(now_ns, heads);
    }

    /// This device's virtual clock (identity unless clock faults are
    /// configured in [`FaultPlan::clock`](crate::faults::FaultPlan::clock)).
    pub fn clock(&self) -> &DeviceClock {
        &self.clock
    }

    /// The switch-CPU process dies at `now_ns`: the monitor stays on its
    /// device, [down](Self::is_down), until [`restart`](Self::restart) —
    /// the data plane forwards unobserved meanwhile. A clean stop
    /// checkpoints on the way down (lossless); a hard kill loses the
    /// un-fsynced WAL tail. Crashing a down monitor does nothing.
    pub(crate) fn crash(&mut self, kind: CrashKind, now_ns: u64) {
        if self.is_down() {
            return;
        }
        if kind == CrashKind::Clean {
            self.checkpoint(now_ns);
        }
        self.recovery.record_kill(kind, now_ns, self.batcher.pending_events());
    }

    /// Recover from the durable state: reset the pipeline in place, replay
    /// the durable pending set into it, reconnect the transport under a new
    /// epoch, and account exactly what the kill destroyed.
    ///
    /// Counters are the measurement apparatus, so they never move: each
    /// subsystem's `reset` clears only its genuinely volatile state (the
    /// CPU's FP window, dedup tables, ring contents, learned paths, pause
    /// state, queued ring lookups, channel backlogs). Replayed
    /// events re-enter the batcher without touching `events_generated` —
    /// they were counted when first generated — and a replayed set larger
    /// than the stack re-sheds by priority, counted as usual.
    pub(crate) fn restart(&mut self, now_ns: u64) -> CrashReport {
        // A restart always un-wedges: the fresh process has a live loop.
        self.wedged = false;
        let kill = self.recovery.complete_restart();

        // Each subsystem clears its volatile state in place; counters stay.
        self.batcher.reset();
        self.cpu.reset();
        // Ring contents are lost — lookups in the gap window count misses,
        // never misreport — but numbering resumes at the checkpointed head.
        let heads = self.recovery.tagger_heads();
        for (port, tagger) in self.taggers.iter_mut() {
            tagger.reset(heads.iter().find(|&&(p, _)| p == port).map_or(0, |&(_, head)| head));
        }
        // Gap detectors re-base: the first frame after downtime re-syncs
        // instead of charging a loss burst.
        for g in self.gaps.values_mut() {
            g.rebase();
        }
        // Queued ring lookups generated no event yet: the ledger is unaffected.
        for p in self.pending.values_mut() {
            p.reset();
        }
        for cache in self.dedup.values_mut() {
            cache.reset();
        }
        // Learned paths and pause state rebuild from live traffic; the
        // internal channels restart idle.
        self.path_table.reset();
        self.pause_tracker.reset();
        self.mmu_redirect.reset();
        self.internal_port.reset();

        // Reconnect under a new epoch: the collector rejects retransmits
        // from the dead epoch, and the `(device, epoch, seq)` key turns
        // redelivery into exactly-once accounting.
        let epoch = self.transport.reconnect(now_ns);

        // Re-materialize the durable pending set (already counted in
        // `events_generated` before the crash).
        for &rec in &kill.durable {
            self.push_pending(now_ns, rec);
        }

        // A fresh post-recovery baseline: the next hard kill can only
        // lose what arrives after this instant.
        self.checkpoint(now_ns);
        let replayed = kill.durable.len() as u64;
        CrashReport {
            device: self.device,
            kind: kill.kind,
            killed_ns: kill.at_ns,
            restart_ns: now_ns,
            epoch,
            pending_at_kill: replayed + kill.lost,
            replayed,
            lost: kill.lost,
        }
    }

    /// A neighboring device restarted: re-sync this ingress port's gap
    /// detector on the next tagged frame instead of charging the
    /// sequence discontinuity as an inter-switch loss burst.
    pub(crate) fn rebase_ingress(&mut self, port: u8) {
        self.gaps.get_or_insert_with(port, GapDetector::default).rebase();
    }

    /// Assemble the PDP resource picture of this deployment (Figure 7).
    /// Declares every stateful structure at its real size, in pipeline
    /// order (the order [`fet_pdp::place`] lays them out), plus calibrated
    /// fixed costs for the match-action logic around them.
    pub fn resource_usage(&self) -> ResourceLedger {
        let mut ledger = ResourceLedger::new(TOFINO_32D);
        // The base forwarding program (switch.p4) NetSeer extends, as
        // calibrated shares of the chip in `ALL_RESOURCE_KINDS` order.
        let shares = [0.30, 0.28, 0.25, 0.35, 0.32, 0.30, 0.08, 0.40];
        let capacities = ALL_RESOURCE_KINDS.into_iter().zip(TOFINO_32D.capacity);
        for ((kind, cap), share) in capacities.zip(shares) {
            ledger.charge("switch.p4", kind, (cap as f64 * share) as u64);
        }

        // Ingress: the expected sequence per port, then event detection.
        // The two per-port sequence registers are declared for their stage
        // and ALU only: the pinned Figure 7 ledger (`monitor_footprint`)
        // charges no SRAM for them (32 bits per port, under 0.001% of the
        // chip's SRAM for 64 ports).
        let (det, isw) = ("event-detection", "inter-switch");
        ledger.declare(isw, "gap-expected-seq", 0, u32::BITS, 1);
        self.pause_tracker.account(&mut ledger, det);
        self.path_table.account(&mut ledger, det);
        for c in self.dedup.values() {
            c.account(&mut ledger, "dedup");
        }
        // Egress: one wide ring array serves every port (indexed by port x
        // slot), written per packet and read per lookup, so its ALU cost is
        // fixed and its SRAM is the per-port rings' slots.
        ledger.declare(isw, "seq-counter", 0, u32::BITS, 1);
        let ring_slots = self.taggers.values().map(|t| t.slots() as u64).sum();
        ledger.declare(isw, "isw-ring", ring_slots, RING_SLOT_BITS, 2);
        // Batching: the cross-stage stack of 24 B records, pushed and popped.
        let stack = self.cfg.stack_capacity as u64;
        ledger.declare("batching", "event-stack", stack, EVENT_RECORD_LEN as u32 * 8, 2);

        // Stateless logic: actions, PHV fields, crossbar keys.
        ledger.charge(det, ResourceKind::VliwActions, 12);
        ledger.charge(det, ResourceKind::PhvBits, 160);
        ledger.charge(det, ResourceKind::ExactXbar, 104);
        ledger.charge(isw, ResourceKind::PhvBits, 48);
        ledger.charge(isw, ResourceKind::VliwActions, 8);
        ledger.charge("dedup", ResourceKind::VliwActions, 12);
        ledger.charge("batching", ResourceKind::VliwActions, 10);
        ledger.charge("batching", ResourceKind::PhvBits, 224);
        ledger
    }
}

impl SwitchMonitor for NetSeerMonitor {
    fn on_ingress(
        &mut self,
        ctx: &IngressCtx,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        if self.is_down() {
            return HookVerdict::Continue;
        }
        self.device = ctx.node;
        self.stats.packets_seen += 1;
        self.stats.packets_bytes += frame.len() as u64;

        // Watch the upstream's sequence tag for gaps (Fig. 5 steps 2–4);
        // the parser read it, and the switch removes it after this hook.
        if let Some(seq) = ctx.seq {
            let gap = self.gaps.get_or_insert_with(ctx.port, GapDetector::default).observe(seq);
            if let Some((lo, hi)) = gap {
                let copies = self.cfg.notification_copies;
                for mut nf in build_notification_frames_with(lo, hi, ctx.port, copies) {
                    // Injected byte damage per copy: the receiver's
                    // CRC trailer catches what survives the FCS.
                    self.notif_corrupt.corrupt(&mut nf);
                    out.emit(ctx.port, nf, true);
                }
            }
        }

        let frame = ctx.untagged(frame);
        match ctx.kind {
            FrameKind::LossNotification => {
                // Injected fault: this notification copy died on the wire.
                // Redundant copies (paper: three) are each drawn
                // independently, so survival of any one suffices.
                if self.notif_loss.lose() {
                    self.notification_copies_dropped += 1;
                    return HookVerdict::Consume;
                }
                // Fig. 5 step 5: queue ring lookups for the missing range.
                // `parse_notification` verifies the CRC32C trailer first, so
                // a corrupted range can never queue bogus ring lookups.
                match parse_notification(frame) {
                    Ok((lo, hi, _copy, _port)) => {
                        self.pending
                            .get_or_insert_with(ctx.port, || {
                                PendingLookups::new(PENDING_LOOKUP_CAP)
                            })
                            .push_range(lo, hi);
                    }
                    Err(_) => {
                        // Counted, never parsed: redundant copies mean any
                        // intact sibling still recovers the range.
                        self.notifications_crc_rejected += 1;
                    }
                }
                self.pump(ctx.now_ns, out);
                return HookVerdict::Consume;
            }
            FrameKind::Pfc => {
                // Queue status detector: parse PAUSE/RESUME ourselves.
                if let Ok(pfc) = PfcFrame::new_checked(&frame[ETHERNET_HEADER_LEN..]) {
                    for prio in 0..PFC_CLASSES {
                        if pfc.pauses(prio) {
                            self.pause_tracker.set(ctx.port, prio as u8, true);
                        } else if pfc.resumes(prio) {
                            self.pause_tracker.set(ctx.port, prio as u8, false);
                        }
                    }
                }
            }
            _ => {}
        }
        self.pump(ctx.now_ns, out);
        HookVerdict::Continue
    }

    fn on_routed(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        if self.role == Role::Nic || self.is_down() {
            return;
        }
        // Pause event: the packet heads to a queue our tracker says is
        // paused (§3.3 "queue status detector ... looks up in ingress").
        if self.pause_tracker.is_paused(ctx.egress_port, ctx.queue) || ctx.queue_paused {
            // Pause event packets are redirected via the internal port.
            if self.internal_redirect(ctx.now_ns, frame.len()) {
                self.raise(
                    ctx.now_ns,
                    EventType::Pause,
                    ctx.flow,
                    EventDetail::Pause { egress_port: ctx.egress_port, queue: ctx.queue },
                    frame.len(),
                    out,
                );
            }
        }
        // Path change.
        if self.path_table.offer(ctx.flow, ctx.ingress_port, ctx.egress_port).is_some() {
            self.raise(
                ctx.now_ns,
                EventType::PathChange,
                ctx.flow,
                EventDetail::PathChange {
                    ingress_port: ctx.ingress_port,
                    egress_port: ctx.egress_port,
                },
                frame.len(),
                out,
            );
        }
    }

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
        if self.role == Role::Nic || self.is_down() {
            return;
        }
        if code == DropCode::AclDeny {
            // Aggregate at ACL-rule granularity (§3.4).
            match self.acl.record(acl_rule) {
                AclOutcome::Counted => {}
                AclOutcome::FirstReport | AclOutcome::ThresholdReport { .. } => {
                    let count = self.acl.count(acl_rule).min(u64::from(u16::MAX)) as u16;
                    let hash = acl_rule;
                    let rec = self.extractor.extract(
                        EventType::PipelineDrop,
                        acl_rule_flow(acl_rule),
                        EventDetail::Drop {
                            ingress_port: ctx.port,
                            egress_port: egress_port.unwrap_or(0xff),
                            code,
                        },
                        count,
                        hash,
                        frame.len(),
                    );
                    self.stats.event_packets += 1;
                    self.stats.event_packet_bytes += frame.len() as u64;
                    self.dispatch_record(ctx.now_ns, rec, out);
                    self.pump(ctx.now_ns, out);
                }
            }
            return;
        }
        let Some(flow) = flow else {
            return; // non-IP garbage has no flow to report
        };
        // Ingress pipeline drops redirect through the internal port (§4).
        if !self.internal_redirect(ctx.now_ns, frame.len()) {
            return;
        }
        self.raise(
            ctx.now_ns,
            EventType::PipelineDrop,
            flow,
            EventDetail::Drop {
                ingress_port: ctx.port,
                egress_port: egress_port.unwrap_or(0xff),
                code,
            },
            frame.len(),
            out,
        );
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        if self.role == Role::Nic || self.is_down() {
            return;
        }
        // The MMU redirects the doomed packet to an internal port (≤40 Gbps,
        // §4); beyond that rate the event is lost.
        if self.mmu_redirect.offer(ctx.now_ns, frame.len()).is_none() {
            self.mmu_redirect_missed += 1;
            return;
        }
        if !self.internal_redirect(ctx.now_ns, frame.len()) {
            return;
        }
        self.raise(
            ctx.now_ns,
            EventType::MmuDrop,
            ctx.flow,
            EventDetail::Drop {
                ingress_port: ctx.ingress_port,
                egress_port: ctx.egress_port,
                code: DropCode::BufferFull,
            },
            frame.len(),
            out,
        );
    }

    fn on_egress(&mut self, ctx: &EgressCtx<'_>, _frame: &mut Vec<u8>, out: &mut Actions) {
        if self.is_down() {
            return;
        }
        // Congestion: the switch's own threshold verdict (switch role only),
        // so detection and ground truth can never disagree.
        if self.role == Role::Switch && ctx.congested {
            if let Some(flow) = ctx.meta.flow {
                let delay = ctx.meta.queuing_delay_ns();
                let latency_us = (delay / 1_000).min(u64::from(u16::MAX)) as u16;
                self.raise(
                    ctx.now_ns,
                    EventType::Congestion,
                    flow,
                    EventDetail::Congestion { egress_port: ctx.port, queue: ctx.queue, latency_us },
                    ctx.meta.frame_len,
                    out,
                );
            }
        }
        // Inter-switch numbering + ring recording (Fig. 5 step 1): claim
        // the tag header the switch opened, and one pending ring lookup
        // per departing packet (§3.3: subsequent packets trigger the
        // lookups).
        if ctx.peer_tagged {
            if ctx.tag_open {
                let seq = self.tagger(ctx.port).next(ctx.meta.flow.unwrap_or(acl_rule_flow(0)));
                out.tag(seq);
            }
            self.drain_pending(ctx.now_ns, ctx.port, 1, out);
        }
        self.pump(ctx.now_ns, out);
    }

    fn on_timer(&mut self, now_ns: u64, _counters: &[PortCounters], out: &mut Actions) {
        // A wedged control loop does nothing: the heartbeat freezes (the
        // watchdog's suspicion signal), batches pile up and shed by
        // priority, and no checkpoints are taken. A dead one does nothing
        // either.
        if self.wedged || self.is_down() {
            return;
        }
        self.heartbeat += 1;
        // CPU-assisted backstop: drain pending lookups even on quiet ports.
        // Draining touches no other port's entry, so the table's ports hold
        // still while the loop borrows the monitor.
        for i in 0..self.pending.len() {
            self.drain_pending(now_ns, self.pending.port_at(i), 64, out);
        }
        self.pump(now_ns, out);
        // Collector backpressure widens the flush interval: a pressured
        // collector means partial batches wait 2^level ticks (bounded by
        // BACKPRESSURE_MAX_WIDEN) so the fabric sends fewer, fuller CEBPs. Full batches
        // still deliver through pump() above regardless of stride.
        let level = self.transport.rx_backpressure_hint.min(31);
        let stride = (1u32 << level).min(BACKPRESSURE_MAX_WIDEN);
        self.batcher.set_flush_stride(stride);
        // Age out partial batches so light traffic still reports promptly.
        for batch in self.batcher.flush(now_ns) {
            self.deliver_batch(batch, out);
        }
        self.cpu.expire(now_ns);
        self.pump(now_ns, out);
        // Periodic durability: checkpoint the detector heads and fsync the
        // WAL, bounding what a hard kill can destroy.
        if self.recovery.due(now_ns) {
            self.checkpoint(now_ns);
        }
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        Some(TIMER_INTERVAL_NS)
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
    use fet_packet::builder::{
        build_data_packet, build_pfc_frame, insert_seqtag_in_place, set_seqtag_seq,
        strip_seqtag_in_place,
    };
    use fet_packet::reference::insert_seqtag;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn mon() -> NetSeerMonitor {
        NetSeerMonitor::new(3, Role::Switch, NetSeerConfig::default())
    }

    /// The ingress context the switch's parser gives `frame` on `port`.
    fn ictx(port: u8, now: u64, frame: &[u8]) -> IngressCtx {
        IngressCtx::parse(now, 3, port, frame)
    }

    /// `frame` arrives on `port`: the hook sees it as it came, then the
    /// switch removes its tag.
    fn arrive(
        m: &mut NetSeerMonitor,
        port: u8,
        now: u64,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        let ctx = ictx(port, now, frame);
        let v = m.on_ingress(&ctx, frame, out);
        if ctx.seq.is_some() {
            strip_seqtag_in_place(frame).expect("parsed tag");
        }
        v
    }

    /// `frame` departs under `ctx`: on a tagged link the switch opens a
    /// tag header before the hook and writes the claimed seq after it.
    fn depart(m: &mut NetSeerMonitor, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {
        if ctx.tag_open {
            insert_seqtag_in_place(frame, 0).expect("taggable");
        }
        m.on_egress(ctx, frame, out);
        if let Some(seq) = out.tag.take() {
            set_seqtag_seq(frame, seq);
        }
    }

    #[test]
    fn egress_claims_the_tag_and_ingress_reads_it() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let mut out = Actions::new();
        let orig = build_data_packet(&flow(1), 100, 0, 0, 64);
        let mut meta = fet_pdp::PacketMeta::arriving(0, orig.len());
        meta.flow = Some(flow(1));
        let ectx = EgressCtx {
            now_ns: 0,
            node: 3,
            port: 2,
            queue: 0,
            peer_tagged: true,
            tag_open: true,
            congested: false,
            meta: &meta,
        };
        for want in 0..3 {
            let mut frame = orig.clone();
            insert_seqtag_in_place(&mut frame, 0).unwrap();
            let opened = frame.clone();
            up.on_egress(&ectx, &mut frame, &mut out);
            assert_eq!(frame, opened, "the hook leaves the frame to the switch");
            assert_eq!(out.tag.take(), Some(want), "consecutive per-port numbering");
        }
        // A closed header (no tag may ride the frame) is never claimed.
        let mut frame = orig.clone();
        up.on_egress(&EgressCtx { tag_open: false, ..ectx }, &mut frame, &mut out);
        assert_eq!(out.tag, None);
        // Downstream reads the parsed seq off the frame as it arrived.
        let mut frame = insert_seqtag(&orig, 0).unwrap();
        let arrived = frame.clone();
        let v = down.on_ingress(&ictx(5, 100, &frame), &mut frame, &mut out);
        assert_eq!(v, HookVerdict::Continue);
        assert_eq!(frame, arrived, "the switch, not the hook, removes the tag");
        assert_eq!(down.gaps.get(5).map(|g| g.packets_seen), Some(1));
    }

    /// A switch that forwards `flow(1)` from tagged port 1 to tagged
    /// port 2 under `m`.
    fn tagged_switch(m: NetSeerMonitor) -> fet_netsim::SwitchDevice {
        let mut s = fet_netsim::SwitchDevice::new(3, "sw", fet_netsim::SwitchConfig::default());
        s.routes.insert(Ipv4Addr::from_octets([10, 0, 0, 2]), 32, vec![2]);
        s.tag_ports[1] = true;
        s.tag_ports[2] = true;
        s.set_monitor(Box::new(m));
        s
    }

    #[test]
    fn seq_tag_never_leaks_past_a_crashed_monitor() {
        let sent = insert_seqtag(&build_data_packet(&flow(1), 100, 0, 0, 64), 7).unwrap();
        let forwarded = build_data_packet(&flow(1), 100, 0, 0, 63);
        let mut crashed = mon();
        crashed.crash(CrashKind::Hard, 0);
        for (m, want) in [(mon(), insert_seqtag(&forwarded, 0).unwrap()), (crashed, forwarded)] {
            let mut s = tagged_switch(m);
            let mut gt = fet_netsim::GroundTruth::new();
            let _ = s.handle_arrival(10, 1, sent.clone(), false, &mut gt);
            let out = s.dequeue(10, 2, &mut gt).expect("forwarded");
            assert_eq!(out.frame, want, "a live monitor tags anew, a crashed one not at all");
        }
    }

    #[test]
    fn gap_triggers_three_notifications() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let meta = fet_pdp::PacketMeta::arriving(0, 64);
        // Upstream sends seq 0,1,2,3,4; the wire eats 1..=3.
        let mut arrived = Vec::new();
        for n in 0..5u16 {
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: 0,
                node: 3,
                port: 2,
                queue: 0,
                peer_tagged: true,
                tag_open: true,
                congested: false,
                meta: &meta,
            };
            let mut out = Actions::new();
            depart(&mut up, &ectx, &mut f, &mut out);
            if n == 0 || n == 4 {
                arrived.push(f);
            }
        }
        let mut out = Actions::new();
        for mut f in arrived {
            arrive(&mut down, 5, 10, &mut f, &mut out);
        }
        // Three redundant notification copies, high priority, back the way
        // the packets came.
        assert_eq!(out.emit.len(), 3);
        assert!(out.emit.iter().all(|e| e.high_priority && e.out_port == 5));
        assert_eq!(down.gaps_detected(), 1);
    }

    #[test]
    fn notification_roundtrip_recovers_lost_flows() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let meta = fet_pdp::PacketMeta::arriving(0, 64);
        // seq 0 arrives, 1 and 2 lost, 3 arrives.
        let mut survivors = Vec::new();
        for n in 0..4u16 {
            let mut meta = meta.clone();
            meta.flow = Some(flow(n));
            let ectx = EgressCtx {
                now_ns: 0,
                node: 3,
                port: 2,
                queue: 0,
                peer_tagged: true,
                tag_open: true,
                congested: false,
                meta: &meta,
            };
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let mut out = Actions::new();
            depart(&mut up, &ectx, &mut f, &mut out);
            if n == 0 || n == 3 {
                survivors.push(f);
            }
        }
        let mut down_out = Actions::new();
        for mut f in survivors {
            arrive(&mut down, 5, 10, &mut f, &mut down_out);
        }
        // Deliver the notifications back to the upstream on its port 2.
        let mut up_out = Actions::new();
        for e in down_out.emit {
            let mut f = e.frame;
            let v = arrive(&mut up, 2, 20, &mut f, &mut up_out);
            assert_eq!(v, HookVerdict::Consume);
        }
        // Subsequent egress packets drain the pending lookups.
        let ectx = EgressCtx {
            now_ns: 100,
            node: 3,
            port: 2,
            queue: 0,
            peer_tagged: true,
            tag_open: true,
            congested: false,
            meta: &meta,
        };
        for n in 10..14u16 {
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let mut out = Actions::new();
            depart(&mut up, &ectx, &mut f, &mut out);
        }
        // Force the event path to the end.
        let mut out = Actions::new();
        up.on_timer(10_000_000_000, &[], &mut out);
        let lost: Vec<FlowKey> = up
            .delivered
            .iter()
            .filter(|e| e.record.ty == EventType::InterSwitchDrop)
            .map(|e| e.record.flow)
            .collect();
        assert_eq!(lost, vec![flow(1), flow(2)]);
    }

    #[test]
    fn congestion_event_reported_once_per_flow() {
        let mut m = mon();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = 100 * fet_netsim::MICROS; // 100us delay
        let mut out = Actions::new();
        for _ in 0..50 {
            let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: meta.egress_ts_ns,
                node: 3,
                port: 1,
                queue: 0,
                peer_tagged: false,
                tag_open: false,
                congested: true,
                meta: &meta,
            };
            m.on_egress(&ectx, &mut f, &mut out);
        }
        m.on_timer(10_000_000_000, &[], &mut out);
        let cong: Vec<_> =
            m.delivered.iter().filter(|e| e.record.ty == EventType::Congestion).collect();
        // 50 event packets dedup to a single initial report (c=128 not hit).
        assert_eq!(cong.len(), 1);
        assert_eq!(cong[0].record.flow, flow(1));
        assert_eq!(m.stats.event_packets, 50);
    }

    #[test]
    fn below_threshold_is_not_congestion() {
        let mut m = mon();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = fet_netsim::MICROS;
        let mut out = Actions::new();
        let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
        let ectx = EgressCtx {
            now_ns: meta.egress_ts_ns,
            node: 3,
            port: 1,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: false,
            meta: &meta,
        };
        m.on_egress(&ectx, &mut f, &mut out);
        assert_eq!(m.stats.event_packets, 0);
    }

    #[test]
    fn pause_event_on_paused_queue() {
        let mut m = mon();
        let mut out = Actions::new();
        // The PAUSE arrives on port 7, which the detector parses in ingress.
        arrive(&mut m, 7, 0, &mut build_pfc_frame(0, 0xffff), &mut out);
        let rctx = RoutedCtx {
            now_ns: 10,
            node: 3,
            ingress_port: 1,
            egress_port: 7,
            queue: 0,
            queue_paused: false,
            flow: flow(2),
        };
        let f = build_data_packet(&flow(2), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.delivered.iter().filter(|e| e.record.ty == EventType::Pause).count(), 1);
    }

    #[test]
    fn path_change_reported_for_new_flow() {
        let mut m = mon();
        let mut out = Actions::new();
        let rctx = RoutedCtx {
            now_ns: 10,
            node: 3,
            ingress_port: 1,
            egress_port: 2,
            queue: 0,
            queue_paused: false,
            flow: flow(9),
        };
        let f = build_data_packet(&flow(9), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        m.on_routed(&rctx, &f, &mut out); // second packet: no event
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.delivered.iter().filter(|e| e.record.ty == EventType::PathChange).count(), 1);
    }

    #[test]
    fn acl_drops_aggregate_per_rule() {
        let mut m = mon();
        let mut out = Actions::new();
        let f = build_data_packet(&flow(1), 100, 0, 0, 64);
        for i in 0..300u16 {
            // Different flows, same rule.
            let _ = i;
            m.on_pipeline_drop(
                &ictx(1, 10, &f),
                &f,
                Some(flow(i)),
                DropCode::AclDeny,
                None,
                42,
                &mut out,
            );
        }
        m.on_timer(10_000_000_000, &[], &mut out);
        let acl_events: Vec<_> =
            m.delivered.iter().filter(|e| e.record.ty == EventType::PipelineDrop).collect();
        // 300 drops → first + 2 threshold refreshers (C=128), NOT 300.
        assert_eq!(acl_events.len(), 3);
        assert!(acl_events.iter().all(|e| e.record.flow == acl_rule_flow(42)));
        assert_eq!(m.acl.count(42), 300);
    }

    #[test]
    fn table_miss_drop_reports_victim_flow() {
        let mut m = mon();
        let mut out = Actions::new();
        let f = build_data_packet(&flow(5), 100, 0, 0, 64);
        m.on_pipeline_drop(
            &ictx(1, 10, &f),
            &f,
            Some(flow(5)),
            DropCode::TableMiss,
            None,
            0,
            &mut out,
        );
        m.on_timer(10_000_000_000, &[], &mut out);
        let ev = m
            .delivered
            .iter()
            .find(|e| e.record.ty == EventType::PipelineDrop)
            .expect("drop event");
        assert_eq!(ev.record.flow, flow(5));
        match ev.record.detail {
            EventDetail::Drop { code, .. } => assert_eq!(code, DropCode::TableMiss),
            other => panic!("wrong detail {other:?}"),
        }
    }

    #[test]
    fn mmu_redirect_capacity_limits_drop_events() {
        let mut cfg = NetSeerConfig::default();
        cfg.capacity.mmu_redirect_gbps = 0.001; // ~1 Mbps: saturates fast
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        let rctx = RoutedCtx {
            now_ns: 0,
            node: 3,
            ingress_port: 1,
            egress_port: 2,
            queue: 0,
            queue_paused: false,
            flow: flow(1),
        };
        let f = build_data_packet(&flow(1), 1000, 0, 0, 64);
        for _ in 0..2_000 {
            m.on_mmu_drop(&rctx, &f, &mut out);
        }
        assert!(m.mmu_redirect_missed > 0, "redirect should saturate");
    }

    #[test]
    fn nic_role_logs_locally_and_skips_switch_detectors() {
        let mut m = NetSeerMonitor::new(9, Role::Nic, NetSeerConfig::default());
        let mut out = Actions::new();
        // NICs ignore routed/pipeline hooks.
        let rctx = RoutedCtx {
            now_ns: 0,
            node: 9,
            ingress_port: 0,
            egress_port: 0,
            queue: 0,
            queue_paused: true,
            flow: flow(1),
        };
        let f = build_data_packet(&flow(1), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        assert!(m.delivered.is_empty());
    }

    #[test]
    fn cebp_corruption_retransmits_then_delivers() {
        use crate::faults::CorruptionSpec;
        let mut cfg = NetSeerConfig::default();
        // Mild damage: most attempts fail on a 46-byte report frame, but
        // the implicit-NACK retransmit loop almost always gets one through.
        cfg.faults.cebp_corruption = CorruptionSpec::bit_flips(0.02);
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        for n in 0..30u16 {
            let mut meta = fet_pdp::PacketMeta::arriving(0, 100);
            meta.flow = Some(flow(n));
            meta.egress_ts_ns = 100 * fet_netsim::MICROS;
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: meta.egress_ts_ns,
                node: 3,
                port: 1,
                queue: 0,
                peer_tagged: false,
                tag_open: false,
                congested: true,
                meta: &meta,
            };
            m.on_egress(&ectx, &mut f, &mut out);
            m.on_timer((u64::from(n) + 1) * 10_000_000, &[], &mut out);
        }
        assert_eq!(m.events_generated, 30);
        assert!(m.cebp_crc_failures > 0, "some attempts must fail CRC");
        assert!(m.stats.final_reports > 0, "retransmits must get batches through");
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
    }

    #[test]
    fn hopeless_cebp_corruption_is_terminal_and_counted() {
        use crate::faults::CorruptionSpec;
        let mut cfg = NetSeerConfig::default();
        // Half the bytes damaged per attempt: no attempt ever verifies.
        cfg.faults.cebp_corruption = CorruptionSpec::bit_flips(0.5);
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = 100 * fet_netsim::MICROS;
        let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
        let ectx = EgressCtx {
            now_ns: meta.egress_ts_ns,
            node: 3,
            port: 1,
            queue: 0,
            peer_tagged: false,
            tag_open: false,
            congested: true,
            meta: &meta,
        };
        m.on_egress(&ectx, &mut f, &mut out);
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.stats.final_reports, 0);
        assert_eq!((m.corrupted_batches, m.corrupted_events), (1, 1));
        assert_eq!(m.ledger().corrupted, 1);
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
    }

    #[test]
    fn corrupted_notification_copy_is_rejected_not_parsed() {
        let mut m = mon();
        let mut out = Actions::new();
        let frames = build_notification_frames_with(5, 9, 2, 3);
        for (i, mut f) in frames.into_iter().enumerate() {
            if i == 0 {
                // Damage one copy's payload: its CRC trailer condemns it.
                f[ETHERNET_HEADER_LEN + 2] ^= 0x10;
            }
            let v = arrive(&mut m, 2, 20, &mut f, &mut out);
            assert_eq!(v, HookVerdict::Consume);
        }
        assert_eq!(m.notifications_crc_rejected, 1);
        // The intact siblings still recovered the range.
        assert!(m.pending.get(2).is_some());
    }

    #[test]
    fn wedged_monitor_freezes_heartbeat_until_restart() {
        let mut m = mon();
        let mut out = Actions::new();
        m.on_timer(1_000_000, &[], &mut out);
        m.on_timer(2_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 2);
        m.wedge();
        assert!(m.is_wedged());
        m.on_timer(3_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 2, "a wedged loop makes no progress");
        m.crash(CrashKind::Hard, 4_000_000);
        let report = m.restart(5_000_000);
        assert!(!m.is_wedged(), "restart un-wedges");
        assert_eq!(report.kind, CrashKind::Hard);
        m.on_timer(6_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 3);
        assert!(m.ledger().balanced());
    }

    #[test]
    fn resource_usage_matches_paper_shape() {
        let mut m = mon();
        // Touch a few ports so ring buffers exist.
        let meta = fet_pdp::PacketMeta::arriving(0, 64);
        for port in 0..4u8 {
            let mut f = build_data_packet(&flow(port.into()), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: 0,
                node: 3,
                port,
                queue: 0,
                peer_tagged: true,
                tag_open: true,
                congested: false,
                meta: &meta,
            };
            let mut out = Actions::new();
            depart(&mut m, &ectx, &mut f, &mut out);
        }
        let ledger = m.resource_usage();
        // Nothing over budget; stateful ALU is the top NetSeer consumer.
        assert!(!ledger.over_budget());
        let alu = ledger.usage_fraction(ResourceKind::StatefulAlu);
        assert!(alu > 0.25 && alu <= 1.0, "ALU usage {alu}");
        for kind in [
            ResourceKind::ExactXbar,
            ResourceKind::TernaryXbar,
            ResourceKind::HashBits,
            ResourceKind::TcamBits,
        ] {
            assert!(ledger.usage_fraction(kind) < 0.6, "{kind:?} too high");
        }
        // All four NetSeer modules present.
        let mods = ledger.modules();
        for want in ["switch.p4", "event-detection", "inter-switch", "dedup", "batching"] {
            assert!(mods.contains(&want), "missing module {want}");
        }
    }

    /// One egress pass on `port` for `flow(n)` at `now`; returns the frame
    /// as it leaves (tagged when `peer_tagged`).
    fn egress(
        m: &mut NetSeerMonitor,
        now: u64,
        port: u8,
        peer_tagged: bool,
        congested: bool,
        n: u16,
        out: &mut Actions,
    ) -> Vec<u8> {
        let mut meta = fet_pdp::PacketMeta::arriving(0, 64);
        meta.flow = Some(flow(n));
        meta.egress_ts_ns = now;
        let mut frame = build_data_packet(&flow(n), 100, 0, 0, 64);
        let tag_open = peer_tagged;
        let ectx = EgressCtx {
            now_ns: now,
            node: 3,
            port,
            queue: 0,
            peer_tagged,
            tag_open,
            congested,
            meta: &meta,
        };
        depart(m, &ectx, &mut frame, out);
        frame
    }

    fn routed(m: &mut NetSeerMonitor, now: u64, n: u16, egress_port: u8, out: &mut Actions) {
        let rctx = RoutedCtx {
            now_ns: now,
            node: 3,
            ingress_port: 1,
            egress_port,
            queue: 0,
            queue_paused: false,
            flow: flow(n),
        };
        m.on_routed(&rctx, &build_data_packet(&flow(n), 100, 0, 0, 64), out);
    }

    /// Every cumulative counter a restart must carry forward untouched.
    fn carried_counters(m: &NetSeerMonitor) -> Vec<(&'static str, u64)> {
        let (b, c) = (&m.batcher, &m.cpu);
        let mut v = vec![
            ("events_generated", m.events_generated),
            ("event_packets", m.stats.event_packets),
            ("final_reports", m.stats.final_reports),
            ("batcher.dropped", b.dropped),
            ("batcher.delivered_batches", b.delivered_batches),
            ("batcher.delivered_events", b.delivered_events),
            ("batcher.flush_calls", b.flush_calls),
            ("batcher.flushes_skipped", b.flushes_skipped),
            ("batcher.flush_stride", u64::from(b.flush_stride())),
            ("cpu.received", c.received),
            ("cpu.fp_eliminated", c.fp_eliminated),
            ("cpu.pcie_rejected_events", c.pcie_rejected_events),
            ("cpu.shed_overload", c.shed_overload),
            ("cpu.busy_ns", c.busy_ns),
            ("path.offered", m.path_table.offered),
            ("path.reported", m.path_table.reported),
            ("pause.pauses_seen", m.pause_tracker.pauses_seen),
            ("pause.resumes_seen", m.pause_tracker.resumes_seen),
            ("mmu_redirect_missed", m.mmu_redirect_missed),
            ("internal_port_missed", m.internal_port_missed),
        ];
        for t in m.taggers.values() {
            v.push(("tagger.tagged", t.tagged));
            v.push(("tagger.lookup_hits", t.lookup_hits));
            v.push(("tagger.lookup_misses", t.lookup_misses));
        }
        for p in m.pending.values() {
            v.push(("pending.overflowed", p.overflowed));
            v.push(("pending.copies_received", p.copies_received));
            v.push(("pending.duplicate_copies", p.duplicate_copies));
            v.push(("pending.ranges_accepted", p.ranges_accepted));
            v.push(("pending.corrupted_ranges", p.corrupted_ranges));
        }
        for g in m.gaps.values() {
            v.push(("gap.packets_seen", g.packets_seen));
            v.push(("gap.gaps_detected", g.gaps_detected));
            v.push(("gap.packets_missing", g.packets_missing));
        }
        for cache in m.dedup.values() {
            v.push(("dedup.offered", cache.offered));
            v.push(("dedup.reports", cache.reports));
        }
        v
    }

    #[test]
    fn restart_resets_volatile_state_and_carries_counters() {
        let mut m = mon();
        let mut out = Actions::new();
        // Tag five frames on port 2; loop seq 0 and 3 back in on port 5 so
        // its gap detector counts a two-packet gap.
        let tagged: Vec<Vec<u8>> =
            (0..5).map(|n| egress(&mut m, 0, 2, true, false, n, &mut out)).collect();
        for i in [0, 3] {
            arrive(&mut m, 5, 10, &mut tagged[i].clone(), &mut out);
        }
        assert_eq!(m.gaps_detected(), 1);
        // Dedup: one heavy congested flow plus twenty light ones.
        for _ in 0..10 {
            egress(&mut m, 100, 1, false, true, 1, &mut out);
        }
        for n in 10..30 {
            egress(&mut m, 100, 1, false, true, n, &mut out);
        }
        // A path change, and a pause event toward a PFC-paused queue.
        routed(&mut m, 200, 9, 2, &mut out);
        arrive(&mut m, 7, 200, &mut build_pfc_frame(0, 0xffff), &mut out);
        routed(&mut m, 200, 2, 7, &mut out);
        // The timer flushes everything so far through the CPU.
        m.on_timer(1_000_000, &[], &mut out);
        assert!(m.stats.final_reports > 0 && m.cpu.working_set() > 0);
        // A partial CEBP, then queued ring lookups on port 2.
        for n in 40..46 {
            egress(&mut m, 1_000_100, 1, false, true, n, &mut out);
        }
        for mut f in build_notification_frames_with(0, 99, 2, 3) {
            arrive(&mut m, 2, 1_000_200, &mut f, &mut out);
        }
        assert_eq!(m.pending.get(2).map(|p| p.len()), Some(100));
        m.checkpoint(1_000_300);
        // Enqueues after the checkpoint: what a hard kill may destroy.
        for n in 50..56 {
            egress(&mut m, 1_000_400, 1, false, true, n, &mut out);
        }
        assert!(m.batcher.backlog() > 0, "a partial CEBP is in flight at the kill");
        assert!(m.pause_tracker.is_paused(7, 0));

        let before = carried_counters(&m);
        let accepted = m.batcher.accepted;
        let shed_by_type = m.batcher.shed_by_type.clone();
        m.crash(CrashKind::Hard, 1_000_500);
        let report = m.restart(1_000_600);

        // Counters never move; replay re-enters the batcher as accepts.
        assert_eq!(carried_counters(&m), before);
        assert_eq!(m.batcher.accepted, accepted + report.replayed);
        assert_eq!(m.batcher.shed_by_type, shed_by_type);
        assert_eq!(m.batcher.backlog() as u64, report.replayed);
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
        // Volatile state starts empty.
        assert_eq!(m.pending.get(2).map(|p| p.len()), Some(0));
        assert!(!m.pause_tracker.is_paused(7, 0));
        assert_eq!(m.cpu.working_set(), 0);
        // The same flows are new again to dedup and to the path table.
        assert_eq!(m.dedup.get_mut(EventType::Congestion).offer(flow(1)), DedupOutcome::NewFlow);
        let reported = m.path_table.reported;
        routed(&mut m, 1_000_700, 9, 2, &mut out);
        assert_eq!(m.path_table.reported, reported + 1);
        // Tagger numbering continues from the checkpointed head.
        let mut f = egress(&mut m, 1_000_700, 2, true, false, 7, &mut out);
        assert_eq!(strip_seqtag_in_place(&mut f).ok(), Some(5));
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
    }
}
