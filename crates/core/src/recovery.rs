//! Crash recovery for the switch-CPU model and the collector.
//!
//! NetSeer's delivery guarantee (§3.5–§3.6) is only as strong as its most
//! volatile component: the CEBP batcher, group caches, and ring buffers
//! all live in switch memory, and the paper's lossless story silently
//! assumes neither the switch CPU nor the collector ever restarts. This
//! module supplies the missing half of the fault model:
//!
//! 1. **Write-ahead log + periodic checkpoint** ([`RecoveryLog`]): the
//!    monitor logs every mutation of its pending set (enqueue, priority
//!    eviction, batch departure) and periodically checkpoints the per-port
//!    tagger heads. The log is kept as one position, the count of
//!    enqueues since the last fsync: the pending set itself is the live
//!    batcher's, and a kill keeps all of it but that un-fsynced tail.
//!
//! 2. **Fsync discipline**: every *removal* (a batch leaving, a victim
//!    evicted) is fsynced before its effect is externalized, so a hard
//!    kill can only lose trailing *enqueues*. Replay therefore never
//!    resurrects an event that was already delivered or shed — the ledger
//!    can lose to a crash but never double-count — and `lost_to_crash` is
//!    bounded by the enqueues since the last fsync. A torn write damages
//!    that tail on its way to disk; per-record CRCs keep its valid prefix.
//!
//! 3. **Exactly-once reconciliation** ([`Collector`]): senders stamp every
//!    delivered event with `(epoch, seq)`; the collector gates on
//!    `EpochReceiver` per device, so at-least-once retransmission after
//!    any restart (sender's or collector's) dedups to exactly-once
//!    accounting, and pre-restart retransmits are rejected by epoch. The
//!    store is insert-only, so a collector checkpoint records its length
//!    and a hard kill truncates back to it.
//!
//! 4. **Restart drivers** ([`schedule_device_crashes`],
//!    [`run_collector_crash_drill`]): turn a crash schedule — typically
//!    drawn by [`seeded_device_crashes`] — into scripted kill/restart
//!    actions inside the simulator. A crashed monitor stays on its node,
//!    down, until it restarts in place.
//!
//! [`seeded_device_crashes`]: crate::faults::seeded_device_crashes

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::config::CollectorConfig;
use crate::deploy::netseer_mut;
use crate::faults::{CollectorCrash, CorruptionGen, CrashKind, DeliveryLedger, DeviceCrash};
use crate::spill::SpillStore;
use crate::storage::{EventStore, StoredEvent};
use crate::transport::{EpochReceiver, RxVerdict};
use fet_netsim::engine::Simulator;
use fet_packet::checksum::crc32c;
use fet_packet::event::{EventRecord, EVENT_RECORD_LEN};

/// Record tag of an enqueued event in the serialized WAL tail.
const WAL_TAG_ENQ: u8 = 1;

/// Per-record CRC trailer length in the serialized WAL.
pub(crate) const WAL_RECORD_CRC_LEN: usize = 4;

/// Append one `[tag][payload][crc32c over tag+payload]` record — the
/// on-disk framing of both the recovery WAL and the spill segments, whose
/// per-record CRC lets replay stop cleanly at the first record a torn
/// write damaged.
pub(crate) fn encode_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(payload);
    let crc = crc32c(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Check one record at the head of `buf` and hand its tag and payload to
/// `parse`. `payload_len` sizes the payload per tag (`None` = unknown
/// tag). Returns the parsed value and the bytes consumed, or `None` on a
/// truncated tail, an unknown tag, a CRC mismatch, or a payload `parse`
/// rejects — every way a torn write manifests. Never panics.
pub(crate) fn decode_record<T>(
    buf: &[u8],
    payload_len: impl FnOnce(u8) -> Option<usize>,
    parse: impl FnOnce(u8, &[u8]) -> Option<T>,
) -> Option<(T, usize)> {
    let tag = *buf.first()?;
    let body_len = 1 + payload_len(tag)?;
    let crc = buf.get(body_len..body_len + WAL_RECORD_CRC_LEN)?;
    if crc32c(&buf[..body_len]).to_be_bytes() != crc {
        return None;
    }
    Some((parse(tag, &buf[1..body_len])?, body_len + WAL_RECORD_CRC_LEN))
}

/// The longest valid record prefix of a (possibly torn) byte stream, one
/// `decode` call per record: replay stops at the first bad record.
pub(crate) fn decode_prefix<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<(T, usize)>,
) -> Vec<T> {
    let mut out = Vec::new();
    let mut off = 0;
    while let Some((v, used)) = decode(&bytes[off..]) {
        out.push(v);
        off += used;
    }
    out
}

/// Serialize enqueued events as the WAL's `[1][24 B record][crc32c]`
/// records.
fn encode_enqueues(recs: &[EventRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(recs.len() * (1 + EVENT_RECORD_LEN + WAL_RECORD_CRC_LEN));
    for rec in recs {
        let mut b = [0u8; EVENT_RECORD_LEN];
        rec.write_to(&mut b);
        encode_record(&mut out, WAL_TAG_ENQ, &b);
    }
    out
}

/// Decode the longest valid enqueue-record prefix of a (possibly torn)
/// WAL tail: everything before the first bad record is recovered,
/// everything at and after it is lost — never deserialized as garbage.
fn decode_enqueues(bytes: &[u8]) -> Vec<EventRecord> {
    let len = |tag| (tag == WAL_TAG_ENQ).then_some(EVENT_RECORD_LEN);
    decode_prefix(bytes, |buf| decode_record(buf, len, |_, p| EventRecord::parse(p).ok()))
}

/// A recorded kill, held while the component is down.
#[derive(Debug)]
pub(crate) struct Kill {
    pub(crate) kind: CrashKind,
    pub(crate) at_ns: u64,
    /// The pending set the durable log rebuilds, in pending order.
    pub(crate) durable: Vec<EventRecord>,
    /// Pending events the kill destroyed.
    pub(crate) lost: u64,
}

/// Accounting summary of one completed restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// The restarted device.
    pub device: u32,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
    /// When the component died, ns.
    pub killed_ns: u64,
    /// When it came back, ns.
    pub restart_ns: u64,
    /// Transport epoch after the reconnect handshake.
    pub epoch: u32,
    /// Pending events at the moment of death.
    pub pending_at_kill: u64,
    /// Pending events the durable log rebuilt and the restart replayed.
    pub replayed: u64,
    /// Pending events the kill destroyed (`pending_at_kill - replayed`);
    /// 0 for clean stops, bounded by the un-fsynced enqueue tail for hard
    /// kills.
    pub lost: u64,
}

/// The write-ahead log for one monitor, kept as one position.
///
/// The monitor calls `log_enq` and `log_removal` as it mutates its pending
/// set, `checkpoint` on its cadence, and `record_kill`/`complete_restart`
/// across a crash. Removals (an eviction, a batch departure) fsync eagerly
/// (write-ahead discipline: the log entry is durable before the removal's
/// effect — a delivery or a counted shed — is externalized); enqueues ride
/// until the next fsync, which is what bounds `lost_to_crash`.
///
/// Every removal, checkpoint and clean stop fsyncs, and enqueues append at
/// the back of the pending order, so the un-fsynced tail of the log is
/// always the last `unsynced` events of the live pending set (open CEBP,
/// then stack). The durable pending set is therefore the live set minus
/// that suffix: the log needs no copy of either.
#[derive(Debug, Default)]
pub struct RecoveryLog {
    /// Enqueues since the last fsync.
    unsynced: usize,
    /// Per-port tagger numbering heads at the last checkpoint (the
    /// notification ring-buffer heads): `(port, next_seq)`.
    tagger_heads: Vec<(u8, u32)>,
    interval_ns: u64,
    last_checkpoint_ns: u64,
    kill: Option<Kill>,
    /// When armed, hard kills tear the un-fsynced tail instead of cleanly
    /// truncating it: the tail is serialized, damaged, and decoded back,
    /// keeping only the record prefix whose per-record CRCs still verify.
    torn_wal: Option<CorruptionGen>,
    /// Completed crash/restart cycles.
    pub restarts: u64,
    /// Events destroyed across all hard kills (the ledger's
    /// `lost_to_crash` term).
    pub(crate) lost_to_crash: u64,
    /// WAL records rejected during torn-tail recovery (CRC mismatch,
    /// truncated tail, or cut off behind the first bad record).
    pub(crate) wal_records_rejected: u64,
}

impl RecoveryLog {
    /// Create with a checkpoint cadence.
    pub(crate) fn new(interval_ns: u64) -> Self {
        RecoveryLog { interval_ns: interval_ns.max(1), ..Default::default() }
    }

    /// Log an enqueue at the back of the pending set. Not fsynced — this
    /// is the only record class a hard kill can destroy.
    pub(crate) fn log_enq(&mut self) {
        self.unsynced += 1;
    }

    /// Log a removal from the pending set — a priority eviction or a batch
    /// departure — and fsync. The removed events are about to be counted
    /// shed or delivered downstream, so the log must never forget the
    /// removal: replay would otherwise resurrect them and double-count.
    pub(crate) fn log_removal(&mut self) {
        self.unsynced = 0;
    }

    /// Is a checkpoint due at `now_ns`?
    pub(crate) fn due(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_checkpoint_ns) >= self.interval_ns
    }

    /// Install a fresh checkpoint of the tagger heads; the log is durable
    /// again.
    pub(crate) fn checkpoint(&mut self, now_ns: u64, tagger_heads: Vec<(u8, u32)>) {
        self.tagger_heads = tagger_heads;
        self.unsynced = 0;
        self.last_checkpoint_ns = now_ns;
    }

    /// The tagger heads of the current checkpoint.
    pub(crate) fn tagger_heads(&self) -> &[(u8, u32)] {
        &self.tagger_heads
    }

    /// The component died with `pending` live (in pending order). A clean
    /// stop flushes the tail; a hard kill truncates it, or tears it when
    /// the torn-write model is armed. The durable pending set is computed
    /// now and held until [`complete_restart`](Self::complete_restart).
    pub(crate) fn record_kill(&mut self, kind: CrashKind, at_ns: u64, pending: Vec<EventRecord>) {
        let mut durable = pending;
        let pending_at_kill = durable.len();
        if kind == CrashKind::Hard {
            let synced = pending_at_kill
                .checked_sub(self.unsynced)
                .expect("the unsynced enqueues are a suffix of the pending set");
            let tail = durable.split_off(synced);
            if let Some(gen) = self.torn_wal.as_mut().filter(|g| g.spec.is_active()) {
                // Torn-write model: the tail was mid-flush when power
                // died, so part of it made it to disk — damaged. Replay
                // keeps the prefix that still passes per-record CRCs and
                // loses everything at and after the first bad record.
                let mut bytes = encode_enqueues(&tail);
                gen.corrupt(&mut bytes);
                let survivors = decode_enqueues(&bytes);
                // Byte duplication can re-align into spurious extra
                // records; never recover more than were written.
                let survived = survivors.len().min(tail.len());
                self.wal_records_rejected += (tail.len() - survived) as u64;
                durable.extend_from_slice(&survivors[..survived]);
            }
        }
        self.unsynced = 0;
        let lost = (pending_at_kill - durable.len()) as u64;
        self.kill = Some(Kill { kind, at_ns, durable, lost });
    }

    /// Arm the torn-write failure model for hard kills. With no generator
    /// (or an inactive spec) hard kills cleanly truncate the un-fsynced
    /// tail.
    pub(crate) fn set_torn_wal(&mut self, gen: CorruptionGen) {
        self.torn_wal = Some(gen);
    }

    /// When the component died, while it is down (until `complete_restart`).
    pub(crate) fn killed_at(&self) -> Option<u64> {
        self.kill.as_ref().map(|k| k.at_ns)
    }

    /// Close the books on a restart: fold what the kill destroyed into
    /// `lost_to_crash` and hand back the kill, whose durable set the
    /// caller re-materializes. Panics if no kill was recorded.
    pub(crate) fn complete_restart(&mut self) -> Kill {
        let kill = self.kill.take().expect("complete_restart without record_kill");
        self.lost_to_crash += kill.lost;
        self.restarts += 1;
        kill
    }
}

/// The backend collector with crash-consistent, exactly-once ingestion
/// and durable backpressure buffering.
///
/// Every [`StoredEvent`] arrives stamped `(device, epoch, seq)`; a
/// per-device `EpochReceiver` admits each key once, rejects same-epoch
/// duplicates, and refuses retransmits from pre-restart epochs. Because
/// ingestion is idempotent, recovery after a collector crash is simply
/// *re-offering*: senders keep their delivered history, and a
/// reconciliation pass re-ingests it — accepted exactly where the
/// reverted store is missing events, deduped everywhere else. The store
/// only grows, so a checkpoint keeps its length, not a copy: a hard kill
/// truncates the store to that prefix and restores the gates and cursors
/// cloned beside it.
///
/// Under burst overload the admission order is **memory → spill → shed**:
/// once the undrained in-memory backlog passes the configured watermark,
/// deliveries divert verbatim into a bounded disk-backed [`SpillStore`]
/// and only a full spill refuses (counted). Spilled events pass the
/// epoch/seq gates when they are *applied* to the store
/// ([`pump_spill`](Self::pump_spill)), never at spill-admission — so the
/// gates always mirror the store exactly, the pair reverts together on a
/// hard kill, and replaying the spill from the durable cursor re-admits
/// each event exactly once.
#[derive(Debug)]
pub struct Collector {
    cfg: CollectorConfig,
    store: EventStore,
    gates: HashMap<u32, EpochReceiver>,
    checkpoint: Option<CollectorCheckpoint>,
    subscribers: HashMap<u32, usize>,
    next_subscriber: u32,
    quarantine: Vec<PoisonFrame>,
    spill: SpillStore,
    /// Crash/restart cycles survived.
    pub restarts: u64,
    /// Poison frames offered to quarantine, including any dropped after
    /// the retention bound was reached.
    pub poison_seen: u64,
    /// Deliveries diverted to the spill (admitted to disk, not memory).
    pub spilled: u64,
    /// Deliveries refused because the spill byte budget was exhausted —
    /// the shed-of-last-resort the spill exists to make rare.
    pub overflow_refused: u64,
    /// Events applied to the store from the spill.
    pub spill_applied: u64,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::with_config(CollectorConfig::default())
    }
}

/// An input frame the collector refused to parse (a wire datagram the
/// parser rejected), kept verbatim up to a prefix for inspection; it never
/// reaches the event store.
#[derive(Debug, Clone)]
pub struct PoisonFrame {
    /// The device id the frame's stream is filed under.
    pub device: u32,
    /// The rejected wire bytes, verbatim.
    pub frame: Vec<u8>,
    /// The parse failure that condemned it.
    pub reason: String,
}

/// The durable part of a collector: what a hard kill reverts to. The
/// store is insert-only, so its checkpoint is a length: the surviving
/// prefix. Cursors ride along so a subscriber's position rewinds together
/// with the store it indexes into.
#[derive(Debug, Clone, Default)]
struct CollectorCheckpoint {
    store_len: usize,
    gates: HashMap<u32, EpochReceiver>,
    cursors: HashMap<u32, usize>,
}

impl Collector {
    /// Empty collector with the default configuration (spilling disabled:
    /// the memory watermark is never reached).
    pub fn new() -> Self {
        Collector::default()
    }

    /// Empty collector with an explicit [`CollectorConfig`] (watermark,
    /// spill budget, quarantine retention).
    pub fn with_config(cfg: CollectorConfig) -> Self {
        Collector {
            spill: SpillStore::new(&cfg),
            cfg,
            store: EventStore::default(),
            gates: HashMap::new(),
            checkpoint: None,
            subscribers: HashMap::new(),
            next_subscriber: 0,
            quarantine: Vec::new(),
            restarts: 0,
            poison_seen: 0,
            spilled: 0,
            overflow_refused: 0,
            spill_applied: 0,
        }
    }

    /// Offer a slice of deliveries. Returns how many were accepted into
    /// the in-memory store (the rest were duplicates, stale-epoch
    /// retransmits, diverted to the spill, or refused-and-counted when
    /// the spill budget ran out — never silently absorbed).
    ///
    /// Admission order: while the spill holds undrained records OR the
    /// undrained memory backlog is at the watermark, deliveries go to the
    /// spill **verbatim and ungated** — FIFO order is preserved (an event
    /// must not overtake the spilled events ahead of it) and the gates
    /// stay exactly in sync with the store. Gating happens at apply time
    /// in [`pump_spill`](Self::pump_spill).
    pub fn ingest(&mut self, events: &[StoredEvent]) -> u64 {
        let mut accepted = 0;
        for e in events {
            if !self.spill.is_drained() || self.backlog() >= self.cfg.memory_watermark {
                if self.spill.append(*e) {
                    self.spilled += 1;
                } else {
                    self.overflow_refused += 1;
                }
                continue;
            }
            if self.gates.entry(e.device).or_default().accept(e.epoch, e.seq) == RxVerdict::Accepted
            {
                self.store.insert(*e);
                accepted += 1;
            }
        }
        accepted
    }

    /// The undrained in-memory backlog: stored events the slowest
    /// subscriber has not drained yet (0 with no subscribers — nothing is
    /// waiting on anyone).
    pub fn backlog(&self) -> usize {
        let len = self.store.len();
        let min_cursor = self.subscribers.values().copied().min().unwrap_or(len);
        len - min_cursor.min(len)
    }

    /// Apply spilled events to the store while the backlog is below the
    /// watermark: each drained record passes the per-device epoch/seq
    /// gate (duplicate spill copies dedup here) and inserts exactly like
    /// a live delivery. Returns how many events were applied. The durable
    /// spill cursor does not advance until [`checkpoint`](Self::checkpoint).
    pub fn pump_spill(&mut self) -> u64 {
        let mut applied = 0;
        while !self.spill.is_drained() && self.backlog() < self.cfg.memory_watermark {
            let Some(e) = self.spill.drain_next() else { break };
            if self.gates.entry(e.device).or_default().accept(e.epoch, e.seq) == RxVerdict::Accepted
            {
                self.store.insert(e);
                self.spill_applied += 1;
                applied += 1;
            }
        }
        applied
    }

    /// Deliveries parked in the spill and not yet applied to the store —
    /// the fleet ledger's `buffered` term.
    pub fn buffered(&self) -> u64 {
        self.spill.pending()
    }

    /// Spill records re-read after a crash rewound the read cursor.
    pub fn spill_replayed(&self) -> u64 {
        self.spill.replayed
    }

    /// The spill store (telemetry: segment counts, fsyncs, cursors).
    pub fn spill(&self) -> &SpillStore {
        &self.spill
    }

    /// Arm the torn-tail failure model for the spill: a hard kill damages
    /// the open segment past its sync watermark instead of cleanly
    /// truncating it. Draw the generator on
    /// [`streams::SPILL_CORRUPT`](crate::faults::streams::SPILL_CORRUPT).
    pub fn set_torn_spill(&mut self, gen: CorruptionGen) {
        self.spill.set_torn(gen);
    }

    /// How hard the collector is pushing back, in widening levels: 0 below
    /// the watermark, then one level per watermark-multiple of combined
    /// memory backlog + spill occupancy. Monitors widen their batch-flush
    /// stride to `2^level` (capped by their own config) — deterministic,
    /// bounded, and zero when spilling is disabled.
    pub fn backpressure_level(&self) -> u32 {
        let wm = self.cfg.memory_watermark;
        if wm == 0 || wm == usize::MAX {
            return 0;
        }
        let load = self.backlog() as u64 + self.spill.pending();
        (load / wm as u64).min(u64::from(u32::MAX)) as u32
    }

    /// Re-bucket a fleet [`DeliveryLedger`] for this collector's view:
    /// deliveries currently parked in the spill move from `delivered`
    /// into `buffered`, keeping the extended identity `generated ==
    /// delivered + shed + pending + buffered + lost_to_crash + corrupted`
    /// exact end to end.
    pub fn refine_fleet_ledger(&self, ledger: &mut DeliveryLedger) {
        let buffered = self.spill.pending();
        ledger.delivered = ledger.delivered.saturating_sub(buffered);
        ledger.buffered += buffered;
    }

    /// Durably checkpoint the store (its length), the dedup gates, and the
    /// subscriber cursors, and commit the spill cursor (fsync data through the read
    /// position, advance + fsync the durable cursor, delete acked
    /// segments). A hard kill reverts to the latest checkpoint — and the
    /// spill replays exactly the records applied since it.
    pub fn checkpoint(&mut self) {
        self.checkpoint = Some(CollectorCheckpoint {
            store_len: self.store.len(),
            gates: self.gates.clone(),
            cursors: self.subscribers.clone(),
        });
        self.spill.commit();
    }

    /// Crash and restart. A clean stop fsyncs the spill and checkpoints
    /// on the way down (loses nothing); a hard kill truncates the store to
    /// its checkpointed length, reverts gates and subscriber cursors to
    /// the last checkpoint, tears the spill's
    /// un-fsynced tail (longest-valid-prefix recovery), and rewinds the
    /// spill read position to the durable cursor so the unacked suffix
    /// replays through the reverted gates. Returns how many stored events
    /// were rolled back.
    pub fn crash_restart(&mut self, kind: CrashKind) -> u64 {
        if kind == CrashKind::Clean {
            self.spill.fsync();
            self.checkpoint();
        }
        let before = self.store.len();
        let cp = self.checkpoint.clone().unwrap_or_default();
        self.store.truncate(cp.store_len);
        self.gates = cp.gates;
        // Subscribers registered after the checkpoint keep their id but
        // rewind to the surviving prefix.
        for (id, cursor) in self.subscribers.iter_mut() {
            *cursor = cp.cursors.get(id).copied().unwrap_or(*cursor).min(self.store.len());
        }
        self.spill.crash();
        let reverted = (before - self.store.len()) as u64;
        self.restarts += 1;
        reverted
    }

    /// Quarantined poison frames retained at most this deep; overflow is
    /// still counted in `poison_seen`.
    pub(crate) const MAX_QUARANTINE: usize = 64;

    /// Quarantine a poison frame for inspection. Returns `true` when the
    /// frame was retained, `false` when only counted (bound reached).
    pub(crate) fn quarantine_poison(&mut self, frame: PoisonFrame) -> bool {
        self.poison_seen += 1;
        if self.quarantine.len() < Self::MAX_QUARANTINE {
            self.quarantine.push(frame);
            true
        } else {
            false
        }
    }

    /// The quarantined poison frames, oldest first.
    pub fn quarantine(&self) -> &[PoisonFrame] {
        &self.quarantine
    }

    /// Register a delivery subscriber starting at the beginning of the
    /// store. Returns the subscription id for [`drain_ordered`].
    ///
    /// [`drain_ordered`]: Self::drain_ordered
    pub fn subscribe(&mut self) -> u32 {
        let id = self.next_subscriber;
        self.next_subscriber += 1;
        self.subscribers.insert(id, 0);
        id
    }

    /// Drain every event stored since this subscriber last drained, in
    /// acceptance order (per-device epoch/seq-monotonic — the gates admit
    /// each `(device, epoch, seq)` exactly once, so the drained stream is
    /// duplicate-free by construction). Advances the cursor.
    pub fn drain_ordered(&mut self, id: u32) -> Vec<StoredEvent> {
        let Some(cursor) = self.subscribers.get_mut(&id) else {
            return Vec::new();
        };
        let from = (*cursor).min(self.store.len());
        *cursor = self.store.len();
        self.store.events()[from..].to_vec()
    }

    /// The stored events.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// Stored event count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Same-epoch duplicates suppressed across all devices.
    pub fn duplicates_rejected(&self) -> u64 {
        self.gates.values().map(|g| g.duplicates_rejected).sum()
    }

    /// Pre-restart-epoch retransmits rejected across all devices.
    pub fn stale_epoch_rejected(&self) -> u64 {
        self.gates.values().map(|g| g.stale_epoch_rejected).sum()
    }
}

/// Handle to the crash reports produced by [`schedule_device_crashes`]:
/// the scripted actions run inside the simulator, so results surface
/// through this shared log after `run_until`.
#[derive(Debug, Clone, Default)]
pub struct CrashLog {
    reports: Arc<Mutex<Vec<CrashReport>>>,
}

impl CrashLog {
    /// Reports of all completed restarts, in restart order.
    pub fn reports(&self) -> Vec<CrashReport> {
        self.reports.lock().unwrap().clone()
    }

    /// Completed restarts.
    pub fn len(&self) -> usize {
        self.reports.lock().unwrap().len()
    }

    /// True when no restart completed.
    pub fn is_empty(&self) -> bool {
        self.reports.lock().unwrap().is_empty()
    }

    /// Total events destroyed across all kills.
    pub fn total_lost(&self) -> u64 {
        self.reports.lock().unwrap().iter().map(|r| r.lost).sum()
    }
}

/// Script device crashes (e.g. from
/// [`seeded_device_crashes`](crate::faults::seeded_device_crashes)) into
/// the simulator: at `at_ns` the device's switch CPU dies and its monitor
/// goes down in place (the data plane keeps forwarding unobserved); at
/// `restart_ns` it restarts in place from its checkpoint + WAL under a new
/// transport epoch, and its neighbours re-base their gap detectors. A
/// crash that lands on a device already down is a no-op, and so is its
/// restart.
///
/// Call after [`deploy`](crate::deploy::deploy) and before `run_until`.
pub fn schedule_device_crashes(sim: &mut Simulator, crashes: &[DeviceCrash]) -> CrashLog {
    let log = CrashLog::default();
    for c in crashes.iter().copied() {
        assert!(c.restart_ns > c.at_ns, "restart must follow the kill: {c:?}");
        sim.schedule_control(c.at_ns, move |s| {
            if let Some(ns) = netseer_mut(s, c.device) {
                ns.crash(c.kind, c.at_ns);
            }
        });
        let reports = Arc::clone(&log.reports);
        sim.schedule_control(c.restart_ns, move |s| {
            if let Some(report) = restart_in_place(s, c.device, c.at_ns, c.restart_ns) {
                reports.lock().unwrap().push(report);
            }
        });
    }
    log
}

/// The one restart path, shared by scripted crashes and the watchdog's
/// supervised restarts: if `device`'s monitor is down from the kill at
/// `killed_ns`, recover it in place at `now_ns` and re-base every
/// neighbour's gap detector (switches and NICs) on the restarted tagger,
/// so the sequence discontinuity is not charged as inter-switch loss. A
/// neighbour that is down itself is skipped: its own restart re-bases it.
/// `None` when the monitor is not NetSeer or not down from that kill.
pub(crate) fn restart_in_place(
    s: &mut Simulator,
    device: u32,
    killed_ns: u64,
    now_ns: u64,
) -> Option<CrashReport> {
    let ns = netseer_mut(s, device).filter(|ns| ns.recovery.killed_at() == Some(killed_ns))?;
    let report = ns.restart(now_ns);
    let ports: Vec<u8> =
        s.adjacency().get(&device).into_iter().flatten().map(|&(port, _)| port).collect();
    for port in ports {
        let Some((nb, nb_port)) = s.peer_of(device, port) else { continue };
        if let Some(ns) = netseer_mut(s, nb).filter(|ns| !ns.is_down()) {
            ns.rebase_ingress(nb_port);
        }
    }
    Some(report)
}

/// Drive a collector through a crash schedule against a time-ordered
/// delivery stream, then reconcile: events delivered before each crash are
/// ingested, the crash fires (with a checkpoint taken at the preceding
/// crash boundary for hard kills to revert to), and after the last crash
/// the full history is re-offered — the idempotent gates turn the repair
/// into exactly-once. Returns the total events reverted by hard kills
/// (all of which reconciliation restores).
pub fn run_collector_crash_drill(
    collector: &mut Collector,
    deliveries: &[StoredEvent],
    crashes: &[CollectorCrash],
) -> u64 {
    let mut sorted: Vec<StoredEvent> = deliveries.to_vec();
    sorted.sort_by_key(|e| (e.time_ns, e.device, e.epoch, e.seq));
    let mut schedule: Vec<CollectorCrash> = crashes.to_vec();
    schedule.sort_by_key(|c| c.at_ns);
    let mut reverted = 0;
    let mut cursor = 0;
    for crash in schedule {
        let upto = sorted[cursor..].partition_point(|e| e.time_ns < crash.at_ns) + cursor;
        collector.ingest(&sorted[cursor..upto]);
        cursor = upto;
        reverted += collector.crash_restart(crash.kind);
        // Reconnect handshake: each sender learns the collector's
        // watermark and retransmits its uncovered suffix BEFORE new
        // deliveries resume — the per-epoch watermark must not jump over
        // the reverted range, or it would be rejected as duplicate
        // forever. The gates accept exactly what the kill reverted.
        collector.ingest(&sorted[..cursor]);
    }
    collector.ingest(&sorted[cursor..]);
    // A final full re-offer demonstrates idempotence: everything dedups.
    collector.ingest(&sorted);
    reverted
}

#[cfg(test)]
mod wal_model;

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{EventDetail, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn rec(n: u16) -> EventRecord {
        EventRecord {
            ty: EventType::Congestion,
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                n,
                Ipv4Addr::from_octets([10, 0, 0, 2]),
                80,
            ),
            detail: EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: n },
            counter: 1,
            hash: u32::from(n),
        }
    }

    fn stored(device: u32, epoch: u32, seq: u64) -> StoredEvent {
        StoredEvent { time_ns: seq * 10, device, epoch, seq, record: rec(seq as u16) }
    }

    /// A log that saw `n` enqueues since its last fsync.
    fn log_with_unsynced(n: usize) -> RecoveryLog {
        let mut log = RecoveryLog::new(1_000_000);
        for _ in 0..n {
            log.log_enq();
        }
        log
    }

    fn recs(range: std::ops::Range<u16>) -> Vec<EventRecord> {
        range.map(rec).collect()
    }

    #[test]
    fn clean_stop_loses_nothing() {
        let mut log = log_with_unsynced(5);
        log.record_kill(CrashKind::Clean, 500, recs(0..5));
        let kill = log.complete_restart();
        assert_eq!(kill.durable, recs(0..5), "clean stop fsyncs the tail");
        assert_eq!((kill.kind, kill.at_ns, kill.lost), (CrashKind::Clean, 500, 0));
        assert_eq!(log.lost_to_crash, 0);
        assert_eq!(log.restarts, 1);
    }

    #[test]
    fn hard_kill_loses_only_the_unsynced_enqueue_tail() {
        let mut log = log_with_unsynced(2);
        log.checkpoint(100, Vec::new());
        // A batch departs (fsynced eagerly), then three arrive un-fsynced
        // behind the two still pending.
        log.log_removal();
        for _ in 2..5 {
            log.log_enq();
        }
        log.record_kill(CrashKind::Hard, 900, recs(0..5));
        assert!(log.killed_at() == Some(900));
        let kill = log.complete_restart();
        assert_eq!(kill.durable, recs(0..2));
        assert_eq!((kill.kind, kill.lost), (CrashKind::Hard, 3), "exactly the un-fsynced tail");
        assert_eq!(log.lost_to_crash, 3);
        assert_eq!(log.killed_at(), None);
    }

    #[test]
    fn hard_kill_never_resurrects_removed_events() {
        // The dangerous interleaving: deliver a batch, then die hard
        // before any further fsync. If the departure did not fsync, the
        // enqueues of the delivered events would still count as unsynced.
        let mut log = log_with_unsynced(3);
        log.log_removal(); // all three delivered downstream
        log.record_kill(CrashKind::Hard, 50, Vec::new());
        assert_eq!(log.complete_restart().lost, 0);
    }

    #[test]
    fn eviction_is_durable_before_the_shed_is_counted() {
        let mut log = RecoveryLog::new(1_000_000);
        log.checkpoint(0, Vec::new());
        // rec(0) of [rec(0), rec(1)] is evicted (counted shed), and a
        // replacement arrives un-fsynced at the back.
        log.log_removal();
        log.log_enq();
        log.record_kill(CrashKind::Hard, 10, vec![rec(1), rec(9)]);
        let kill = log.complete_restart();
        assert_eq!(kill.durable, vec![rec(1)], "the evicted event must not come back");
        assert_eq!(kill.lost, 1, "only the un-fsynced arrival died");
    }

    #[test]
    fn checkpoint_cadence_gates_due() {
        let mut log = RecoveryLog::new(1_000);
        assert!(log.due(1_000));
        log.checkpoint(1_000, vec![(2, 7)]);
        assert!(!log.due(1_500));
        assert!(log.due(2_000));
        assert_eq!(log.tagger_heads(), [(2, 7)]);
    }

    #[test]
    fn collector_ingest_is_exactly_once() {
        let mut c = Collector::new();
        let history: Vec<StoredEvent> = (0..10).map(|s| stored(3, 0, s)).collect();
        assert_eq!(c.ingest(&history), 10);
        // At-least-once: the full history re-offered dedups entirely.
        assert_eq!(c.ingest(&history), 0);
        assert_eq!(c.len(), 10);
        assert_eq!(c.duplicates_rejected(), 10);
    }

    #[test]
    fn collector_hard_kill_reverts_then_reconciliation_repairs() {
        let mut c = Collector::new();
        let history: Vec<StoredEvent> = (0..20).map(|s| stored(1, 0, s)).collect();
        c.ingest(&history[..8]);
        c.checkpoint();
        c.ingest(&history[8..15]);
        let reverted = c.crash_restart(CrashKind::Hard);
        assert_eq!(reverted, 7, "events since the checkpoint roll back");
        assert_eq!(c.len(), 8);
        // Reconciliation: the sender re-offers its whole delivered
        // history; the gates accept exactly the missing suffix.
        assert_eq!(c.ingest(&history), 12);
        assert_eq!(c.len(), 20);
        assert_eq!(c.restarts, 1);
    }

    #[test]
    fn collector_clean_stop_loses_nothing() {
        let mut c = Collector::new();
        c.ingest(&(0..5).map(|s| stored(2, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.crash_restart(CrashKind::Clean), 0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn collector_rejects_pre_restart_epoch_after_bump() {
        let mut c = Collector::new();
        c.ingest(&[stored(5, 0, 0), stored(5, 0, 1)]);
        // The device restarted: epoch 1 deliveries arrive.
        c.ingest(&[stored(5, 1, 2)]);
        // A straggling epoch-0 retransmit must not enter the store.
        assert_eq!(c.ingest(&[stored(5, 0, 1)]), 0);
        assert_eq!(c.stale_epoch_rejected(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn collector_drill_is_exactly_once_across_crashes() {
        let history: Vec<StoredEvent> = (0..50).map(|s| stored(9, 0, s)).collect();
        let crashes = [
            CollectorCrash { at_ns: 120, kind: CrashKind::Clean },
            CollectorCrash { at_ns: 333, kind: CrashKind::Hard },
        ];
        let mut c = Collector::new();
        let reverted = run_collector_crash_drill(&mut c, &history, &crashes);
        assert_eq!(c.len(), 50, "every delivery stored exactly once");
        assert!(reverted > 0, "the hard kill must actually revert work");
        assert!(c.duplicates_rejected() >= 50, "reconciliation re-offers dedup");
    }

    #[test]
    fn subscriber_drains_each_event_exactly_once() {
        let mut c = Collector::new();
        let id = c.subscribe();
        c.ingest(&(0..4).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 4);
        assert!(c.drain_ordered(id).is_empty(), "second drain sees nothing new");
        c.ingest(&(4..7).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        let tail = c.drain_ordered(id);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        // Duplicate re-offers never reach subscribers: the gates eat them.
        c.ingest(&(0..7).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert!(c.drain_ordered(id).is_empty());
    }

    #[test]
    fn late_subscriber_sees_the_full_history() {
        let mut c = Collector::new();
        c.ingest(&(0..5).map(|s| stored(2, 0, s)).collect::<Vec<_>>());
        let id = c.subscribe();
        assert_eq!(c.drain_ordered(id).len(), 5, "subscription starts at the beginning");
    }

    #[test]
    fn hard_kill_rewinds_cursors_with_the_store() {
        let mut c = Collector::new();
        let id = c.subscribe();
        c.ingest(&(0..8).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 8);
        c.checkpoint();
        c.ingest(&(8..12).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 4);
        assert_eq!(c.crash_restart(CrashKind::Hard), 4);
        assert_eq!(c.subscribers.get(&id), Some(&8), "cursor reverts with the store");
        // Reconciliation restores the suffix; the subscriber re-drains
        // exactly the reverted events, nothing twice.
        c.ingest(&(0..12).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        let redrained = c.drain_ordered(id);
        assert_eq!(redrained.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9, 10, 11]);
    }

    #[test]
    fn wal_records_roundtrip_through_bytes() {
        let bytes = encode_enqueues(&recs(7..10));
        assert_eq!(bytes.len(), 3 * (1 + EVENT_RECORD_LEN + WAL_RECORD_CRC_LEN));
        assert_eq!(decode_enqueues(&bytes), recs(7..10));
        // A truncated tail is tolerated: full records decode, the stub is
        // dropped without error.
        assert_eq!(decode_enqueues(&bytes[..bytes.len() - 1]), recs(7..9));
    }

    #[test]
    fn wal_decode_stops_at_first_bad_record() {
        let mut bytes = encode_enqueues(&recs(0..4));
        let rec_len = bytes.len() / 4;
        // Damage the second record: everything at and after it is lost,
        // even though records three and four are intact on disk.
        bytes[rec_len + 5] ^= 0x40;
        assert_eq!(decode_enqueues(&bytes), recs(0..1));
        // Garbage decodes to nothing rather than panicking.
        assert!(decode_enqueues(&[0xff; 200]).is_empty());
        assert!(decode_enqueues(&[]).is_empty());
    }

    #[test]
    fn torn_hard_kill_keeps_the_surviving_record_prefix() {
        use crate::faults::{streams, CorruptionGen, CorruptionSpec};
        let mut log = RecoveryLog::new(1_000_000);
        log.checkpoint(0, Vec::new());
        // Flip enough bits that some of the 32-record tail is damaged, but
        // at ~1e-3/byte almost never all of it.
        log.set_torn_wal(CorruptionGen::new(
            CorruptionSpec::bit_flips(1e-3),
            42,
            streams::WAL_CORRUPT,
        ));
        for _ in 0..32 {
            log.log_enq();
        }
        log.record_kill(CrashKind::Hard, 900, recs(0..32));
        let kill = log.complete_restart();
        let replayed = kill.durable.len();
        assert!(replayed > 0, "torn write should save a prefix");
        assert!(replayed < 32, "seed 42 at 1e-3 damages the tail");
        assert_eq!(kill.durable, recs(0..replayed as u16));
        assert_eq!(kill.lost as usize + replayed, 32);
        assert_eq!(log.wal_records_rejected, kill.lost);
    }

    #[test]
    fn inactive_torn_spec_behaves_like_clean_truncation() {
        let run = |armed: bool| {
            use crate::faults::{streams, CorruptionGen, CorruptionSpec};
            let mut log = RecoveryLog::new(1_000_000);
            if armed {
                log.set_torn_wal(CorruptionGen::new(
                    CorruptionSpec::none(),
                    7,
                    streams::WAL_CORRUPT,
                ));
            }
            log.checkpoint(0, Vec::new());
            log.log_removal();
            log.log_enq();
            log.record_kill(CrashKind::Hard, 10, vec![rec(1)]);
            log.complete_restart().durable
        };
        assert_eq!(run(false), run(true));
        assert!(run(false).is_empty());
    }

    #[test]
    fn collector_quarantines_poison_frames_bounded() {
        let mut c = Collector::new();
        for n in 0..(Collector::MAX_QUARANTINE as u64 + 10) {
            let kept = c.quarantine_poison(PoisonFrame {
                device: n as u32,
                frame: vec![0xde, 0xad],
                reason: "cebp.crc32c".into(),
            });
            assert_eq!(kept, (n as usize) < Collector::MAX_QUARANTINE);
        }
        assert_eq!(c.quarantine().len(), Collector::MAX_QUARANTINE);
        assert_eq!(c.poison_seen, Collector::MAX_QUARANTINE as u64 + 10);
        assert_eq!(c.quarantine()[0].device, 0, "oldest kept");
        assert!(c.is_empty(), "poison never reaches the store");
    }
}
