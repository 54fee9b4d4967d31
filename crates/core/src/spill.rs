//! Durable spill buffer behind the collector: bounded disk before shed.
//!
//! The collector's admission order under burst overload is **memory →
//! spill → shed**: deliveries past the memory watermark are written to a
//! disk-backed segment store instead of being dropped, and shedding
//! happens only once the byte budget (`max_spill_bytes`) is exhausted.
//! The design follows the disk_v2 buffer shape (segment files, per-record
//! checksums, a durable reader cursor, delete-after-ack) on top of the
//! record framing the recovery WAL already uses:
//!
//! * **Segments**: records append to an open segment; when it reaches the
//!   rotation threshold it is closed — closing fsyncs it — and a fresh
//!   segment opens. Only the open segment can carry un-fsynced records,
//!   so a hard kill can tear at most one segment tail.
//! * **Records**: `[tag][payload][crc32c over tag+payload]`, the recovery
//!   WAL's framing (one shared encoder/decoder) with a dedicated tag. The
//!   payload is the full [`StoredEvent`] — delivery stamp, `(device,
//!   epoch, seq)` identity, and the 24-byte event record — so replay
//!   re-enters the collector's exactly-once gates with the original
//!   identity intact.
//! * **Durable read cursor**: draining advances a *volatile* read
//!   position; [`SpillStore::commit`] (called from the collector's
//!   checkpoint) first fsyncs the data through the read position, then
//!   fsyncs the cursor itself. The cursor is therefore never ahead of the
//!   data it covers, and a crash rewinds the read position to the cursor:
//!   records applied after the last checkpoint are replayed, records
//!   applied before it never are — no delivered event reaches analytics
//!   twice, because replay re-offers through the epoch/seq gates that are
//!   reverted *together with* the store they guard.
//! * **Delete-after-ack**: commit drops segments wholly behind the
//!   durable cursor, bounding disk to the un-acked window.
//! * **Torn tails**: a hard kill mid-spill damages only the bytes past
//!   the open segment's sync watermark
//!   ([`CorruptionGen::corrupt_tail`] on the
//!   [`streams::SPILL_CORRUPT`](crate::faults::streams) stream); recovery
//!   keeps the longest record prefix whose CRCs verify. Losses are
//!   bounded by the un-fsynced tail and repaired by sender re-offer (the
//!   torn records never passed the gates, so retransmission re-admits
//!   them).
//!
//! [`CorruptionGen::corrupt_tail`]: CorruptionGen::corrupt_tail

use std::collections::VecDeque;

use crate::config::CollectorConfig;
use crate::faults::CorruptionGen;
use crate::recovery::{decode_prefix, decode_record, encode_record, WAL_RECORD_CRC_LEN};
use crate::storage::StoredEvent;
use fet_packet::event::{EventRecord, EVENT_RECORD_LEN};

/// Record tag for a spilled [`StoredEvent`] (the recovery WAL's enqueue
/// records use 1).
pub(crate) const SPILL_RECORD_TAG: u8 = 4;

/// Serialized payload: delivery stamp (8) + device (4) + epoch (4) +
/// seq (8) + the event record.
pub(crate) const SPILL_PAYLOAD_LEN: usize = 24 + EVENT_RECORD_LEN;

/// Full on-disk record length: tag + payload + CRC-32C trailer. Fixed
/// size, so byte budgets and record counts convert exactly.
pub const SPILL_RECORD_LEN: usize = 1 + SPILL_PAYLOAD_LEN + WAL_RECORD_CRC_LEN;

/// Serialize one spilled event as `[tag][payload][crc32c]`.
pub fn encode_spill_record(ev: &StoredEvent, out: &mut Vec<u8>) {
    let mut p = [0u8; SPILL_PAYLOAD_LEN];
    p[..8].copy_from_slice(&ev.time_ns.to_be_bytes());
    p[8..12].copy_from_slice(&ev.device.to_be_bytes());
    p[12..16].copy_from_slice(&ev.epoch.to_be_bytes());
    p[16..24].copy_from_slice(&ev.seq.to_be_bytes());
    let mut rec = [0u8; EVENT_RECORD_LEN];
    ev.record.write_to(&mut rec);
    p[24..].copy_from_slice(&rec);
    encode_record(out, SPILL_RECORD_TAG, &p);
}

/// Decode one spill record from the head of `buf`. Returns the event and
/// the bytes consumed, or `None` on a truncated tail, a wrong tag, a CRC
/// mismatch, or an unparseable event record — every way a torn write
/// manifests. Never panics on arbitrary bytes.
pub fn decode_spill_record(buf: &[u8]) -> Option<(StoredEvent, usize)> {
    let len = |tag| (tag == SPILL_RECORD_TAG).then_some(SPILL_PAYLOAD_LEN);
    decode_record(buf, len, |_, p| {
        Some(StoredEvent {
            time_ns: u64::from_be_bytes(p[..8].try_into().ok()?),
            device: u32::from_be_bytes(p[8..12].try_into().ok()?),
            epoch: u32::from_be_bytes(p[12..16].try_into().ok()?),
            seq: u64::from_be_bytes(p[16..24].try_into().ok()?),
            record: EventRecord::parse(&p[24..]).ok()?,
        })
    })
}

/// Decode the longest valid record prefix of a (possibly torn) segment
/// byte stream. Replay stops cleanly at the first bad record.
pub fn decode_spill_prefix(bytes: &[u8]) -> Vec<StoredEvent> {
    decode_prefix(bytes, decode_spill_record)
}

/// One segment file: its decoded records plus the fsync watermark
/// (records at and past `synced` die in a hard kill).
#[derive(Debug, Clone, Default)]
struct Segment {
    records: Vec<StoredEvent>,
    synced: usize,
}

/// The bounded disk-backed event buffer (in-memory disk model, like the
/// recovery WAL): segment rotation, fsync watermarks, a durable read
/// cursor, and delete-after-ack. Record positions are logical indices in
/// the append order; `base ≤ durable ≤ read ≤ end` always holds.
#[derive(Debug, Clone, Default)]
pub struct SpillStore {
    segments: VecDeque<Segment>,
    /// Rotation threshold, records (derived from `spill_segment_bytes`).
    segment_records: usize,
    /// Byte budget, in whole records (derived from `max_spill_bytes`).
    max_records: usize,
    /// Logical index of the first retained record (segment deletion
    /// advances it).
    base: u64,
    /// Logical index of the next record to drain. Volatile: a crash
    /// rewinds it to `durable`.
    read: u64,
    /// The durable read cursor, fsynced on advance by [`commit`]. Never
    /// ahead of the fsynced data it covers.
    ///
    /// [`commit`]: Self::commit
    durable: u64,
    /// Logical index one past the last retained record.
    end: u64,
    /// Highest read position ever reached — drains below it count as
    /// replays.
    high_water_read: u64,
    torn: Option<CorruptionGen>,
    /// Records appended (admitted to the spill).
    pub appended: u64,
    /// Records handed out by [`drain_next`](Self::drain_next), replays
    /// included.
    pub drained: u64,
    /// Records re-drained after a crash rewound the read position.
    pub replayed: u64,
    /// Appends refused because the byte budget was exhausted (the
    /// collector's shed-of-last-resort signal).
    pub refused: u64,
    /// Records destroyed by torn tails across all crashes (bounded by the
    /// un-fsynced tail at each kill).
    pub torn_records: u64,
    /// fsync calls (segment data + the durable cursor).
    pub fsyncs: u64,
    /// [`commit`](Self::commit) calls.
    pub commits: u64,
    /// Segment rotations (each closes and fsyncs the filled segment).
    pub rotations: u64,
    /// Segments deleted after their records were acked by the cursor.
    pub acked_segments: u64,
    /// Hard kills survived.
    pub crashes: u64,
}

impl SpillStore {
    /// Create from a collector configuration.
    pub fn new(cfg: &CollectorConfig) -> Self {
        let rec = SPILL_RECORD_LEN as u64;
        SpillStore {
            segment_records: (cfg.spill_segment_bytes / rec).max(1) as usize,
            max_records: (cfg.max_spill_bytes / rec) as usize,
            ..SpillStore::default()
        }
    }

    /// Arm the torn-tail failure model for hard kills. Without it (or
    /// with an inactive spec) a crash cleanly truncates the un-fsynced
    /// tail.
    pub fn set_torn(&mut self, gen: CorruptionGen) {
        self.torn = Some(gen);
    }

    /// Append one event. `false` means the byte budget is exhausted and
    /// the caller must shed-and-count — the spill refuses, it never
    /// silently overwrites.
    pub fn append(&mut self, ev: StoredEvent) -> bool {
        if self.resident() >= self.max_records as u64 {
            self.refused += 1;
            return false;
        }
        let rotate = match self.segments.back() {
            None => true,
            Some(open) => open.records.len() >= self.segment_records,
        };
        if rotate {
            if let Some(open) = self.segments.back_mut() {
                // Closing a segment fsyncs it: only the open segment can
                // ever carry an un-fsynced tail.
                if open.synced < open.records.len() {
                    open.synced = open.records.len();
                    self.fsyncs += 1;
                }
                self.rotations += 1;
            }
            self.segments.push_back(Segment::default());
        }
        self.segments.back_mut().expect("open segment").records.push(ev);
        self.end += 1;
        self.appended += 1;
        true
    }

    /// Explicitly fsync the open segment (all retained records become
    /// durable). Rotation and commit call this as needed; exposed for the
    /// model test's crash/fsync interleavings.
    pub fn fsync(&mut self) {
        if let Some(open) = self.segments.back_mut() {
            if open.synced < open.records.len() {
                open.synced = open.records.len();
                self.fsyncs += 1;
            }
        }
    }

    /// Hand out the next undrained record and advance the volatile read
    /// position. The durable cursor does not move until
    /// [`commit`](Self::commit).
    pub fn drain_next(&mut self) -> Option<StoredEvent> {
        if self.read >= self.end {
            return None;
        }
        let ev = self.get(self.read)?;
        if self.read < self.high_water_read {
            self.replayed += 1;
        } else {
            self.high_water_read = self.read + 1;
        }
        self.read += 1;
        self.drained += 1;
        Some(ev)
    }

    /// Advance the durable cursor to the read position: fsync the data
    /// through it first (the cursor must never cover un-fsynced records),
    /// then fsync the cursor, then delete segments wholly behind it
    /// (delete-after-ack). Called from the collector's checkpoint, so the
    /// cursor moves exactly when the applied events become durable in the
    /// store it feeds.
    pub fn commit(&mut self) {
        let mut start = self.base;
        for seg in self.segments.iter_mut() {
            let len = seg.records.len() as u64;
            if self.read > start {
                let need = (self.read - start).min(len) as usize;
                if need > seg.synced {
                    seg.synced = need;
                    self.fsyncs += 1;
                }
            }
            start += len;
        }
        self.durable = self.read;
        self.fsyncs += 1; // the cursor record itself
        self.commits += 1;
        while let Some(front) = self.segments.front() {
            let len = front.records.len() as u64;
            if len == 0 || self.base + len > self.durable {
                break;
            }
            self.segments.pop_front();
            self.base += len;
            self.acked_segments += 1;
        }
    }

    /// A hard kill: the un-fsynced tail of the open segment is serialized,
    /// damaged past the sync watermark (when the torn model is armed;
    /// cleanly truncated otherwise), and recovered as the longest valid
    /// record prefix. The read position rewinds to the durable cursor, so
    /// the un-acked suffix replays. Returns how many records the kill
    /// destroyed.
    pub fn crash(&mut self) -> u64 {
        self.crashes += 1;
        let mut lost = 0u64;
        for seg in self.segments.iter_mut() {
            if seg.synced >= seg.records.len() {
                continue;
            }
            let total = seg.records.len();
            let keep_bytes = seg.synced * SPILL_RECORD_LEN;
            let mut bytes = Vec::with_capacity(total * SPILL_RECORD_LEN);
            for ev in &seg.records {
                encode_spill_record(ev, &mut bytes);
            }
            match &mut self.torn {
                Some(gen) if gen.spec.is_active() => {
                    gen.corrupt_tail(&mut bytes, keep_bytes);
                }
                _ => bytes.truncate(keep_bytes),
            }
            let survivors = decode_spill_prefix(&bytes);
            // Byte duplication can re-align into spurious extra records;
            // never recover more than were written.
            let survived = survivors.len().min(total);
            debug_assert!(survived >= seg.synced, "fsynced records must survive a kill");
            lost += (total - survived) as u64;
            seg.records = survivors;
            seg.records.truncate(survived);
            // What decoded off disk is durable by definition.
            seg.synced = survived;
        }
        self.end = self.base + self.segments.iter().map(|s| s.records.len() as u64).sum::<u64>();
        self.torn_records += lost;
        self.read = self.durable;
        self.high_water_read = self.high_water_read.min(self.end);
        debug_assert!(self.durable <= self.end, "the durable cursor only covers fsynced data");
        lost
    }

    fn get(&self, idx: u64) -> Option<StoredEvent> {
        let mut start = self.base;
        for seg in &self.segments {
            let len = seg.records.len() as u64;
            if idx < start + len {
                return Some(seg.records[(idx - start) as usize]);
            }
            start += len;
        }
        None
    }

    /// Records appended but not yet drained (the ledger's `buffered`
    /// term).
    pub fn pending(&self) -> u64 {
        self.end - self.read
    }

    /// Records retained on disk (drained-but-unacked records included).
    pub fn resident(&self) -> u64 {
        self.end - self.base
    }

    /// True when every appended record has been drained.
    pub fn is_drained(&self) -> bool {
        self.read >= self.end
    }

    /// The durable read cursor (logical record index).
    pub fn durable_cursor(&self) -> u64 {
        self.durable
    }

    /// The volatile read position (logical record index).
    pub fn read_cursor(&self) -> u64 {
        self.read
    }

    /// Live segment count.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::CorruptionSpec;
    use fet_packet::event::{EventDetail, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn ev(n: u64) -> StoredEvent {
        StoredEvent {
            time_ns: 1_000 * n,
            device: 7,
            epoch: 1,
            seq: n,
            record: EventRecord {
                ty: EventType::Congestion,
                flow: FlowKey::tcp(
                    Ipv4Addr::from_octets([10, 0, 0, 1]),
                    n as u16,
                    Ipv4Addr::from_octets([10, 0, 0, 2]),
                    80,
                ),
                detail: EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: n as u16 },
                counter: 1,
                hash: (n as u32).wrapping_mul(0x9e37_79b9),
            },
        }
    }

    fn small(cfg_records: usize, budget_records: usize) -> SpillStore {
        SpillStore::new(&CollectorConfig {
            spill_segment_bytes: (cfg_records * SPILL_RECORD_LEN) as u64,
            max_spill_bytes: (budget_records * SPILL_RECORD_LEN) as u64,
            ..CollectorConfig::default()
        })
    }

    #[test]
    fn record_round_trips() {
        let mut buf = Vec::new();
        encode_spill_record(&ev(42), &mut buf);
        assert_eq!(buf.len(), SPILL_RECORD_LEN);
        let (back, used) = decode_spill_record(&buf).expect("decodes");
        assert_eq!(back, ev(42));
        assert_eq!(used, SPILL_RECORD_LEN);
        // Every strict prefix is rejected, never a panic.
        for cut in 0..buf.len() {
            assert!(decode_spill_record(&buf[..cut]).is_none(), "prefix {cut} must reject");
        }
        // A flipped byte anywhere trips the CRC (or the tag check).
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(decode_spill_record(&bad).is_none(), "flip at {i} must reject");
        }
    }

    #[test]
    fn prefix_decode_stops_at_first_bad_record() {
        let mut buf = Vec::new();
        for n in 0..5 {
            encode_spill_record(&ev(n), &mut buf);
        }
        buf[2 * SPILL_RECORD_LEN + 3] ^= 0xff;
        let got = decode_spill_prefix(&buf);
        assert_eq!(got, vec![ev(0), ev(1)]);
    }

    #[test]
    fn rotation_fsyncs_closed_segments_and_commit_deletes_acked() {
        let mut s = small(4, 1000);
        for n in 0..10 {
            assert!(s.append(ev(n)));
        }
        // 4+4+2: two rotations, the closed segments are synced.
        assert_eq!(s.segment_count(), 3);
        assert_eq!(s.rotations, 2);
        assert_eq!(s.resident(), 10);
        // Drain 6, commit: the first segment (records 0..4) is wholly
        // behind the cursor and gets deleted; the second is not.
        for n in 0..6 {
            assert_eq!(s.drain_next(), Some(ev(n)));
        }
        s.commit();
        assert_eq!(s.durable_cursor(), 6);
        assert_eq!(s.segment_count(), 2);
        assert_eq!(s.acked_segments, 1);
        assert_eq!(s.resident(), 6);
        assert_eq!(s.pending(), 4);
        // Drain the rest; both remaining segments ack away.
        while s.drain_next().is_some() {}
        s.commit();
        assert_eq!(s.segment_count(), 0);
        assert_eq!(s.resident(), 0);
        assert!(s.is_drained());
        // The store stays usable: appends reopen a segment.
        assert!(s.append(ev(99)));
        assert_eq!(s.drain_next(), Some(ev(99)));
    }

    #[test]
    fn budget_refuses_instead_of_overwriting() {
        let mut s = small(4, 6);
        for n in 0..6 {
            assert!(s.append(ev(n)));
        }
        assert!(!s.append(ev(6)), "budget exhausted must refuse");
        assert_eq!(s.refused, 1);
        // Ack-and-delete frees budget.
        for _ in 0..4 {
            s.drain_next();
        }
        s.commit();
        assert!(s.append(ev(6)));
    }

    #[test]
    fn hard_kill_loses_only_the_unsynced_tail_and_rewinds_to_durable() {
        let mut s = small(100, 1000);
        for n in 0..8 {
            s.append(ev(n));
        }
        // Drain 5, commit (durable = 5, data synced through 5), then
        // drain 2 more and append 2 more without fsync.
        for _ in 0..5 {
            s.drain_next();
        }
        s.commit();
        for _ in 0..2 {
            s.drain_next();
        }
        s.append(ev(8));
        s.append(ev(9));
        let lost = s.crash();
        // Records 5..10 were un-fsynced (commit synced through 5): all
        // five die in the clean-truncate model.
        assert_eq!(lost, 5);
        assert_eq!(s.read_cursor(), 5);
        assert_eq!(s.pending(), 0);
        // Fsynced records survive; the drained-but-unacked window replays.
        let mut s2 = small(100, 1000);
        for n in 0..8 {
            s2.append(ev(n));
        }
        s2.fsync();
        for _ in 0..5 {
            s2.drain_next();
        }
        s2.commit();
        for _ in 0..2 {
            s2.drain_next();
        }
        assert_eq!(s2.crash(), 0, "everything was fsynced");
        assert_eq!(s2.read_cursor(), 5);
        assert_eq!(s2.drain_next(), Some(ev(5)), "unacked suffix replays");
        assert_eq!(s2.replayed, 1);
        assert_eq!(s2.drain_next(), Some(ev(6)));
        assert_eq!(s2.replayed, 2);
        assert_eq!(s2.drain_next(), Some(ev(7)), "never-drained records are not replays");
        assert_eq!(s2.replayed, 2);
    }

    #[test]
    fn torn_tail_keeps_longest_valid_prefix() {
        let spec = CorruptionSpec { flip_per_byte: 0.02, truncate_prob: 0.5, duplicate_prob: 0.1 };
        for seed in 0..50u64 {
            let mut s = small(100, 1000);
            s.set_torn(CorruptionGen::new(spec, seed, crate::faults::streams::SPILL_CORRUPT));
            for n in 0..20 {
                s.append(ev(n));
            }
            s.fsync();
            for n in 20..30 {
                s.append(ev(n));
            }
            let lost = s.crash();
            assert!(lost <= 10, "loss bounded by the un-fsynced tail, lost {lost}");
            let survived = s.resident();
            assert!(survived >= 20, "fsynced prefix survives, kept {survived}");
            // Survivors replay in order with their identity intact.
            for n in 0..survived {
                assert_eq!(s.drain_next(), Some(ev(n)));
            }
            assert_eq!(s.drain_next(), None);
        }
    }

    #[test]
    fn same_seed_same_torn_outcome() {
        let spec = CorruptionSpec { flip_per_byte: 0.05, truncate_prob: 0.5, duplicate_prob: 0.2 };
        let run = |seed: u64| {
            let mut s = small(64, 1000);
            s.set_torn(CorruptionGen::new(spec, seed, crate::faults::streams::SPILL_CORRUPT));
            for n in 0..100 {
                s.append(ev(n));
                if n % 7 == 0 {
                    s.drain_next();
                }
                if n % 13 == 0 {
                    s.commit();
                }
                if n % 29 == 0 {
                    s.crash();
                }
            }
            let mut out = Vec::new();
            while let Some(e) = s.drain_next() {
                out.push(e);
            }
            (out, s.torn_records, s.fsyncs, s.acked_segments)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1, "different seeds should tear differently");
    }
}
