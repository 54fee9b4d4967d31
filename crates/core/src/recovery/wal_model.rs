//! Model test for the monitor's recovery log, in the style of
//! `tests/spill_model.rs`. Random interleavings of pushes into a full
//! stack (priority evictions), `poll`/`flush` departures, checkpoints, and
//! clean, hard and torn kills followed by restarts drive a [`CebpBatcher`]
//! and a [`RecoveryLog`] the way the monitor does. Beside them runs the
//! op-log WAL the position log replaced: every enqueue, eviction and batch
//! departure mirrored as an op, each checkpoint snapshotting the pending
//! set, replay applying the surviving ops to the snapshot. Every kill must
//! rebuild exactly the reference's pending set, lose exactly what the
//! reference loses, and reject exactly as many torn records.
//!
//! `CHAOS_SEED` diversifies the interleavings per CI matrix leg.

use super::*;
use crate::batch::{Batch, CebpBatcher, PushOutcome};
use crate::config::NetSeerConfig;
use crate::faults::{streams, CorruptionSpec};
use fet_netsim::rng::Pcg32;
use fet_packet::event::{DropCode, EventDetail, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use std::collections::VecDeque;

/// Same CI-matrix seed mixing as `tests/spill_model.rs`.
fn seed(base: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => base ^ s.trim().parse::<u64>().unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        Err(_) => base,
    }
}

/// One mutation of the pending set, as the op-log WAL recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalOp {
    /// An event entered the pending set at the back.
    Enq(EventRecord),
    /// A priority eviction removed the pending event at this position.
    Evict(u32),
    /// A batch departed: the `count` oldest pending events left.
    Deq(u32),
}

const TAG_EVICT: u8 = 2;
const TAG_DEQ: u8 = 3;

impl WalOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            WalOp::Enq(rec) => out.extend(encode_enqueues(&[rec])),
            WalOp::Evict(pos) => encode_record(out, TAG_EVICT, &pos.to_be_bytes()),
            WalOp::Deq(count) => encode_record(out, TAG_DEQ, &count.to_be_bytes()),
        }
    }

    fn decode_from(buf: &[u8]) -> Option<(WalOp, usize)> {
        let len = |tag| match tag {
            WAL_TAG_ENQ => Some(EVENT_RECORD_LEN),
            TAG_EVICT | TAG_DEQ => Some(4),
            _ => None,
        };
        decode_record(buf, len, |tag, p| {
            Some(match tag {
                WAL_TAG_ENQ => WalOp::Enq(EventRecord::parse(p).ok()?),
                TAG_EVICT => WalOp::Evict(u32::from_be_bytes(p.try_into().ok()?)),
                _ => WalOp::Deq(u32::from_be_bytes(p.try_into().ok()?)),
            })
        })
    }
}

/// The reference: an append-only op log with an fsync watermark
/// (`ops[..synced]` survive a hard kill) over a snapshot of the pending
/// set taken at each checkpoint.
struct OpLog {
    ops: Vec<WalOp>,
    synced: usize,
    snapshot: Vec<EventRecord>,
    torn: Option<CorruptionGen>,
    rejected: u64,
}

impl OpLog {
    fn append(&mut self, op: WalOp, fsync: bool) {
        self.ops.push(op);
        if fsync {
            self.synced = self.ops.len();
        }
    }

    fn checkpoint(&mut self, pending: Vec<EventRecord>) {
        self.snapshot = pending;
        self.ops.clear();
        self.synced = 0;
    }

    fn kill(&mut self, kind: CrashKind) {
        if kind == CrashKind::Clean {
            self.synced = self.ops.len();
            return;
        }
        let unsynced = self.ops.split_off(self.synced);
        if let Some(gen) = self.torn.as_mut().filter(|g| g.spec.is_active()) {
            let mut bytes = Vec::new();
            for op in &unsynced {
                op.encode_into(&mut bytes);
            }
            gen.corrupt(&mut bytes);
            let survivors = decode_prefix(&bytes, WalOp::decode_from);
            let survived = survivors.len().min(unsynced.len());
            self.rejected += (unsynced.len() - survived) as u64;
            self.ops.extend(survivors.into_iter().take(survived));
        }
        self.synced = self.ops.len();
    }

    fn replay(&self) -> Vec<EventRecord> {
        let mut q: VecDeque<EventRecord> = self.snapshot.iter().copied().collect();
        for op in &self.ops {
            match *op {
                WalOp::Enq(rec) => q.push_back(rec),
                WalOp::Evict(pos) => {
                    q.remove(pos as usize);
                }
                WalOp::Deq(count) => {
                    q.drain(..(count as usize).min(q.len()));
                }
            }
        }
        q.into()
    }
}

/// A batcher plus both logs, mutated the way `NetSeerMonitor` does.
struct Node {
    batcher: CebpBatcher,
    log: RecoveryLog,
    reference: OpLog,
    evictions: u64,
}

impl Node {
    fn push(&mut self, now_ns: u64, rec: EventRecord) {
        let before = self.batcher.pending_events();
        match self.batcher.push(now_ns, rec) {
            PushOutcome::Stored => {
                self.log.log_enq();
                self.reference.append(WalOp::Enq(rec), false);
            }
            PushOutcome::ShedVictim { .. } => {
                // The victim's position: where the pending order first
                // differs (the arrival went to the back).
                let after = self.batcher.pending_events();
                let pos = (0..before.len()).find(|&i| before[i] != after[i]).expect("a victim");
                self.log.log_removal();
                self.log.log_enq();
                self.reference.append(WalOp::Evict(pos as u32), true);
                self.reference.append(WalOp::Enq(rec), false);
                self.evictions += 1;
            }
            PushOutcome::ShedIncoming => {}
        }
    }

    fn depart(&mut self, batches: Vec<Batch>) {
        for batch in batches {
            self.log.log_removal();
            self.reference.append(WalOp::Deq(batch.events.len() as u32), true);
        }
    }

    fn checkpoint(&mut self, now_ns: u64) {
        self.log.checkpoint(now_ns, Vec::new());
        self.reference.checkpoint(self.batcher.pending_events());
    }

    /// The live invariant the position log rests on: the reference's
    /// un-fsynced ops are all enqueues, as many as the log counts, and
    /// they are the live pending set's suffix.
    fn check_tail(&self) {
        let tail = &self.reference.ops[self.reference.synced..];
        assert_eq!(tail.len(), self.log.unsynced);
        let pending = self.batcher.pending_events();
        let suffix = &pending[pending.len() - tail.len()..];
        for (op, live) in tail.iter().zip(suffix) {
            assert_eq!(*op, WalOp::Enq(*live));
        }
    }

    /// Kill, check the rebuilt pending set against the reference, and
    /// restart like the monitor does. Returns `(replayed, lost)`.
    fn crash_restart(&mut self, kind: CrashKind, now_ns: u64) -> (usize, u64) {
        let pending = self.batcher.pending_events();
        self.log.record_kill(kind, now_ns, pending.clone());
        self.reference.kill(kind);
        let want = self.reference.replay();
        let kill = self.log.complete_restart();
        assert_eq!(kill.durable, want, "{kind:?} kill at {now_ns}");
        assert_eq!(kill.lost as usize, pending.len() - want.len());
        assert_eq!(self.log.wal_records_rejected, self.reference.rejected);
        self.batcher.reset();
        for &rec in &kill.durable {
            self.push(now_ns, rec);
        }
        self.checkpoint(now_ns);
        (kill.durable.len(), kill.lost)
    }
}

fn record(rng: &mut Pcg32, n: u16) -> EventRecord {
    let (ty, detail) = match rng.next_below(3) {
        0 => (EventType::PathChange, EventDetail::PathChange { ingress_port: 0, egress_port: 1 }),
        1 => (
            EventType::Congestion,
            EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: n },
        ),
        _ => (
            EventType::MmuDrop,
            EventDetail::Drop { ingress_port: 0, egress_port: 1, code: DropCode::BufferFull },
        ),
    };
    let flow = FlowKey::tcp(
        Ipv4Addr::from_octets([10, 0, 0, 1]),
        n,
        Ipv4Addr::from_octets([10, 0, 0, 2]),
        80,
    );
    EventRecord { ty, flow, detail, counter: 1, hash: u32::from(n) }
}

/// What one run exercised, summed across runs to prove coverage.
#[derive(Default)]
struct Coverage {
    evictions: u64,
    clean: u64,
    replayed_after_hard: u64,
    lost: u64,
    rejected: u64,
}

fn run(run_seed: u64, cov: &mut Coverage) {
    let mut rng = Pcg32::new(run_seed, 1);
    let cfg = NetSeerConfig {
        stack_capacity: 1 + rng.next_below(8) as usize,
        batch_size: 1 + rng.next_below(12) as u16,
        ..NetSeerConfig::default()
    };
    // Half the runs tear hard-killed tails, some with byte duplication.
    let torn = rng.chance(0.5).then(|| CorruptionSpec {
        flip_per_byte: [0.002, 0.01, 0.05][rng.next_below(3) as usize],
        truncate_prob: 0.5,
        duplicate_prob: if rng.chance(0.3) { 0.05 } else { 0.0 },
    });
    let gen = |spec| CorruptionGen::new(spec, run_seed, streams::WAL_CORRUPT);
    let mut log = RecoveryLog::new(u64::MAX);
    if let Some(spec) = torn {
        log.set_torn_wal(gen(spec));
    }
    let mut node = Node {
        batcher: CebpBatcher::new(&cfg),
        log,
        reference: OpLog {
            ops: Vec::new(),
            synced: 0,
            snapshot: Vec::new(),
            torn: torn.map(gen),
            rejected: 0,
        },
        evictions: 0,
    };
    let mut now = 0u64;
    let mut lost = 0;
    for n in 0..600u16 {
        now += u64::from(rng.next_below(400));
        match rng.next_below(100) {
            0..=59 => node.push(now, record(&mut rng, n)),
            60..=74 => {
                let batches = node.batcher.poll(now);
                node.depart(batches);
            }
            75..=82 => {
                let batches = node.batcher.flush(now);
                node.depart(batches);
            }
            83..=89 => node.checkpoint(now),
            90..=92 => {
                node.crash_restart(CrashKind::Clean, now);
                cov.clean += 1;
            }
            _ => {
                let (replayed, destroyed) = node.crash_restart(CrashKind::Hard, now);
                cov.replayed_after_hard += replayed as u64;
                cov.lost += destroyed;
                lost += destroyed;
            }
        }
        node.check_tail();
    }
    cov.evictions += node.evictions;
    cov.rejected += node.log.wal_records_rejected;
    assert_eq!(node.log.lost_to_crash, lost, "the counter sums every kill's loss");
}

#[test]
fn random_interleavings_match_the_op_log_reference() {
    let mut cov = Coverage::default();
    for r in 0..300u64 {
        run(seed(0x3A1_0000 + r), &mut cov);
    }
    assert!(cov.evictions > 3_000, "priority evictions: {}", cov.evictions);
    assert!(cov.clean > 1_000, "clean stops: {}", cov.clean);
    assert!(cov.replayed_after_hard > 5_000, "hard-kill replays: {}", cov.replayed_after_hard);
    assert!(cov.lost > 4_000, "hard-kill losses: {}", cov.lost);
    assert!(cov.rejected > 1_000, "torn records: {}", cov.rejected);
}
