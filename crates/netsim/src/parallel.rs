//! Deterministic parallel fleet execution.
//!
//! [`run`] executes a simulation segment with the device fleet sharded
//! across worker threads, producing results **bit-identical** to the
//! serial [`Simulator::run_until`] at any shard count. The scheme is
//! conservative parallel discrete-event simulation with epoch barriers:
//!
//! * **Canonical keys.** Every event carries the key `(time, lane, seq)`
//!   where `lane` identifies the scheduling origin (device id + 1, or 0
//!   for external pushes) and `seq` counts that lane's pushes. A device's
//!   pushes are totally ordered by its own execution, and a device's
//!   execution order is the key order of its events — so serial and
//!   sharded runs assign identical keys, and the key order *is* the one
//!   total order both modes realize (see DESIGN.md §11 for the induction).
//!
//! * **Sharding.** Devices are assigned round-robin (`id % shards`); each
//!   worker is a real [`Simulator`] owning its devices (other slots are
//!   [`Node::Vacant`]) plus clones of the link table. Only the directions
//!   leaving a worker's own ports are ever exercised there, so per-link
//!   fault/RNG state never races and is copied back at reassembly.
//!
//! * **Batched epochs.** The only cross-device event is a frame arrival,
//!   which is scheduled at least `Δ = 1 + min cross-shard prop_ns` after
//!   its sender's current clock (serialization takes ≥ 1 ns). Workers run
//!   a BSP loop with no master in the loop: each round, every worker
//!   publishes the key of its earliest pending event (its *floor*),
//!   crosses an [`EpochBarrier`], and processes every event with key
//!   below its own exclusion bound
//!
//!   ```text
//!   bound_i = min(segment bound,
//!                 (min_{j≠i} floor_j.time  +  Δ, 0, 0),
//!                 (floor_i.time            + 2·Δ, 0, 0))
//!   ```
//!
//!   The first Δ-term is the classic conservative bound: a peer cannot
//!   emit earlier than its own earliest event plus the lookahead. The
//!   2Δ *echo* term covers transitive chains through worker `i` itself:
//!   an idle peer can still be woken by a message from `i` (sent no
//!   earlier than `floor_i + Δ`) and reply no earlier than `floor_i +
//!   2Δ`. Any longer chain only adds more Δs, so these two terms bound
//!   every future inbound message — no worker ever receives an event in
//!   its past. When the floors are spread out (or a shard is idle), one
//!   round covers many Δ-windows — epoch advancement is batched into a
//!   single synchronization, counted in [`SyncStats::epochs_batched`].
//!   With no cross-shard link at all, `Δ = ∞` and the segment is one
//!   round. An idle port's recorded tx-done (see the engine's
//!   `kick_port`) is in no queue, so no floor includes it. It becomes
//!   an event only while its shard handles an event at or above the
//!   floor, and only if its key is later still, so what it sends lands
//!   at `floor + Δ` or later like any other event of that shard.
//!
//! * **Rings.** Cross-shard frames travel through a grid of lock-free
//!   bounded [`SpscRing`]s (`rings[src][dst]`, written only by `src`,
//!   drained only by `dst` — see `ring.rs` for the memory-ordering
//!   contract). Each round ends with a second barrier, after which every
//!   worker drains its inbound rings (in source order) into its timer
//!   wheel and republishes its floor. Messages carry their canonical key
//!   from the sender, so arrival order is irrelevant to execution order.
//!
//! * **Segments.** Scripted controls mutate global state, so they
//!   delimit segments: the fleet quiesces up to the control's key, the
//!   master reassembles and runs the control serially, then the next
//!   segment begins.
//!
//! Ground truth is the one side effect whose *order* matters to callers;
//! workers tag each recorded event with `(key of the causing event,
//! index within its handling)` and the master merges all shards' traces
//! by that tag — exactly the serial recording order.

use crate::engine::{EventKey, MgmtAccounting, Node, QEntry, ShardCtx, Simulator, SyncStats};
use crate::ring::{EpochBarrier, SpscRing};
use crate::tracer::{GroundTruth, GtEvent};
use crate::wheel::EventWheel;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Floor value published by a worker with an empty queue.
const FLOOR_IDLE: EventKey = (u64::MAX, u32::MAX, u64::MAX);

/// Default SPSC ring capacity (slots per shard pair); override with the
/// `FET_RING_CAP` environment variable. Overflow never loses events —
/// a tiny capacity merely counts stalls (the determinism CI leg runs
/// with `FET_RING_CAP=2` to exercise exactly that path).
const DEFAULT_RING_CAP: usize = 1024;

fn ring_cap() -> usize {
    std::env::var("FET_RING_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_RING_CAP)
}

/// One worker's published floor. Cache-line aligned so per-worker
/// republication never false-shares.
#[repr(align(128))]
struct FloorSlot(UnsafeCell<EventKey>);

// SAFETY: slot `i` is written only by worker `i` between barriers and
// read by other workers only after the next barrier; the barrier's
// happens-before edge (see `ring.rs`) makes the plain accesses
// data-race-free.
unsafe impl Sync for FloorSlot {}

struct Floors(Vec<FloorSlot>);

impl Floors {
    fn new(n: usize) -> Self {
        Floors((0..n).map(|_| FloorSlot(UnsafeCell::new(FLOOR_IDLE))).collect())
    }

    /// Publish worker `i`'s floor.
    ///
    /// # Safety
    /// Only worker `i` may call this, and only in the loop phase where
    /// no other worker reads floors (between the drain barrier and the
    /// republish barrier).
    unsafe fn set(&self, i: usize, k: EventKey) {
        unsafe { *self.0[i].0.get() = k }
    }

    /// Read worker `i`'s floor.
    ///
    /// # Safety
    /// Callers must be separated from the writer by a barrier (floors
    /// are stable between the republish barrier and the next drain
    /// barrier).
    unsafe fn get(&self, i: usize) -> EventKey {
        unsafe { *self.0[i].0.get() }
    }
}

/// Per-worker synchronization tally for one segment.
#[derive(Default)]
struct WorkerSync {
    rounds: u64,
    batched: u64,
    received: u64,
}

/// Run `sim` until `until_ns` with the fleet sharded over `shards`
/// worker threads. Bit-identical to `sim.run_until(until_ns)`.
pub(crate) fn run(sim: &mut Simulator, until_ns: u64, shards: usize) {
    if shards <= 1 {
        sim.run_until(until_ns);
        return;
    }
    sim.arm_monitor_timers();
    // Serial processes events with time <= until_ns, i.e. key < overall.
    let overall: EventKey = (until_ns.saturating_add(1), 0, 0);
    loop {
        // Partition the pending queue: device events ship to their target's
        // shard; controls stay with the master and delimit the segment.
        let shards_u = shards as u32;
        let mut init: Vec<Vec<QEntry>> = (0..shards).map(|_| Vec::new()).collect();
        let mut controls: BinaryHeap<Reverse<QEntry>> = BinaryHeap::new();
        for e in sim.queue.drain_unordered() {
            match e.ev.target() {
                Some(t) => init[(t % shards_u) as usize].push(e),
                None => controls.push(Reverse(e)),
            }
        }
        let seg_bound = match controls.peek() {
            Some(Reverse(c)) => c.key().min(overall),
            None => overall,
        };
        run_segment(sim, seg_bound, shards, init);
        let due = matches!(controls.peek(), Some(Reverse(c)) if c.key() < overall);
        if !due {
            // Put unexpired controls back for a later run_until* call.
            for Reverse(c) in controls {
                sim.queue.push(c);
            }
            break;
        }
        let Reverse(entry) = controls.pop().expect("checked above");
        for Reverse(c) in controls {
            sim.queue.push(c);
        }
        sim.step(entry);
    }
    sim.finish_run(until_ns);
}

/// Run one control-free segment up to `seg_bound` across `shards` workers,
/// starting from the pre-partitioned event lists `init`.
fn run_segment(
    sim: &mut Simulator,
    seg_bound: EventKey,
    shards: usize,
    mut init: Vec<Vec<QEntry>>,
) {
    let shards_u = shards as u32;
    let n = sim.nodes.len();

    // Lookahead: cross-shard frames arrive >= 1 (serialization) + prop_ns
    // after their sender's clock. None when no link crosses shards — then
    // the whole segment is one round.
    let mut min_prop: Option<u64> = None;
    for (node, _, peer) in sim.wired() {
        if node % shards_u != peer.node % shards_u {
            let p = sim.links[peer.link].prop_ns;
            min_prop = Some(min_prop.map_or(p, |d| d.min(p)));
        }
    }
    let delta = min_prop.map(|p| p + 1);

    // The cross-shard hand-off grid: rings[src][dst] has exactly one
    // producer (worker src, via its ShardCtx) and one consumer (worker
    // dst, at the round's drain phase).
    let cap = ring_cap();
    let rings: Arc<Vec<Vec<SpscRing<QEntry>>>> =
        Arc::new((0..shards).map(|_| (0..shards).map(|_| SpscRing::new(cap)).collect()).collect());

    // Build the worker simulators: move owned devices out (leaving Vacant
    // slots), clone shared read-mostly tables.
    let mut workers: Vec<Simulator> = Vec::with_capacity(shards);
    for (s, q) in init.iter_mut().enumerate() {
        let nodes: Vec<Node> = (0..n)
            .map(|id| {
                if id as u32 % shards_u == s as u32 {
                    std::mem::replace(&mut sim.nodes[id], Node::Vacant)
                } else {
                    Node::Vacant
                }
            })
            .collect();
        let mut queue = EventWheel::new();
        for e in q.drain(..) {
            queue.push(e);
        }
        workers.push(Simulator {
            now: sim.now,
            cur: sim.cur,
            queue,
            lane_seqs: sim.lane_seqs.clone(),
            nodes,
            links: sim.links.clone(),
            ports: sim.ports.clone(),
            gt: GroundTruth::new(),
            mgmt: MgmtAccounting::default(),
            controls: Vec::new(),
            events_processed: 0,
            timers_armed: true,
            host_ip_cache: sim.host_ip_cache.clone(),
            shard: Some(ShardCtx { shards: shards_u, shard: s as u32, rings: rings.clone() }),
            sync: SyncStats::default(),
        });
    }

    let floors = Floors::new(shards);
    let barrier = EpochBarrier::new(shards);
    let mut results: Vec<WorkerResult> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for (s, w) in workers.into_iter().enumerate() {
            let floors = &floors;
            let barrier = &barrier;
            handles.push(scope.spawn(move || worker_loop(w, s, seg_bound, delta, floors, barrier)));
        }
        for h in handles {
            results.push(h.join().expect("worker thread panicked"));
        }
    });

    // Reassemble the master from the workers.
    let mut seg_sync = SyncStats { segments: 1, ..SyncStats::default() };
    seg_sync.ring_stalls = rings.iter().flatten().map(|r| r.stalls()).sum();
    let mut gt_merge: Vec<(EventKey, u32, GtEvent)> = Vec::new();
    for (s, (mut w, tags, wsync)) in results.into_iter().enumerate() {
        for (id, slot) in w.nodes.iter_mut().enumerate() {
            if id as u32 % shards_u == s as u32 {
                sim.nodes[id] = std::mem::replace(slot, Node::Vacant);
                sim.lane_seqs[id + 1] = w.lane_seqs[id + 1];
            }
        }
        // Link directions leaving this shard's ports are authoritative here
        // (the worker's port table is a copy of the fleet's).
        for (node, _, peer) in w.wired() {
            if node % shards_u == s as u32 {
                let src = &w.links[peer.link];
                let dst = &mut sim.links[peer.link];
                if peer.a_to_b {
                    dst.ab = src.ab.clone();
                } else {
                    dst.ba = src.ba.clone();
                }
            }
        }
        sim.mgmt.merge(&w.mgmt);
        sim.events_processed += w.events_processed;
        sim.now = sim.now.max(w.now);
        seg_sync.epochs_executed += wsync.rounds;
        seg_sync.epochs_batched += wsync.batched;
        seg_sync.ring_messages += wsync.received;
        // Events routed to this worker but beyond the segment (key >=
        // seg_bound) stay queued there; hand them back to the master.
        for e in w.queue.drain_unordered() {
            sim.queue.push(e);
        }
        let events = w.gt.drain();
        debug_assert_eq!(events.len(), tags.len(), "every gt event must be tagged");
        for ((key, sub), ev) in tags.into_iter().zip(events) {
            gt_merge.push((key, sub, ev));
        }
    }
    sim.sync.merge(&seg_sync);
    gt_merge.sort_by_key(|e| (e.0, e.1));
    for (_, _, ev) in gt_merge {
        sim.gt.record(ev);
    }
}

/// What a worker hands back: its simulator, the `(causing key, index)`
/// tag of every ground-truth event recorded (in recording order), and
/// the synchronization tally.
type WorkerResult = (Simulator, Vec<(EventKey, u32)>, WorkerSync);

/// Worker thread body: run the BSP round loop until the whole fleet has
/// quiesced at `seg_bound`.
fn worker_loop(
    mut w: Simulator,
    shard: usize,
    seg_bound: EventKey,
    delta: Option<u64>,
    floors: &Floors,
    barrier: &EpochBarrier,
) -> WorkerResult {
    let rings = w.shard.as_ref().expect("worker has shard ctx").rings.clone();
    let shards = rings.len();
    let mut tags: Vec<(EventKey, u32)> = Vec::new();
    let mut sync = WorkerSync::default();
    let mut inbound: Vec<QEntry> = Vec::new();
    // Tripwire for the conservative-bound proof: no inbound message may
    // land below a bound this worker already processed past. Assigned
    // each round before the drain that reads it.
    let mut last_bound: EventKey;

    // Round -1: publish the initial floor, then make all floors visible.
    // SAFETY: we own slot `shard`; no reader before the barrier.
    unsafe { floors.set(shard, w.queue.peek_key().unwrap_or(FLOOR_IDLE)) };
    barrier.wait();

    loop {
        // Snapshot the floors (stable: every writer is separated from us
        // by the last barrier) and derive this round's exclusion bound.
        let mut tmin = FLOOR_IDLE;
        let mut others_min = u64::MAX;
        let mut own = FLOOR_IDLE;
        for j in 0..shards {
            // SAFETY: reads are barrier-ordered after all writes.
            let f = unsafe { floors.get(j) };
            tmin = tmin.min(f);
            if j == shard {
                own = f;
            } else {
                others_min = others_min.min(f.0);
            }
        }
        if tmin >= seg_bound {
            // Everyone sees the same floors, so every worker breaks on
            // the same round — the barrier counts stay aligned.
            break;
        }
        let bound = match delta {
            None => seg_bound,
            Some(d) => seg_bound.min((others_min.saturating_add(d), 0, 0)).min((
                own.0.saturating_add(d.saturating_mul(2)),
                0,
                0,
            )),
        };
        sync.rounds += 1;
        last_bound = bound;
        if let Some(d) = delta {
            if own < bound {
                // Δ-windows covered beyond the single window a non-batched
                // epoch scheme would have granted.
                sync.batched += (bound.0 - own.0).saturating_sub(1) / d;
            }
        }

        // Process phase: everything locally pending below the bound.
        while w.queue.peek_key().is_some_and(|k| k < bound) {
            let entry = w.queue.pop().expect("peeked");
            let key = entry.key();
            let before = w.gt.events().len();
            w.step(entry);
            for i in 0..(w.gt.events().len() - before) {
                tags.push((key, i as u32));
            }
        }

        // All sends of this round are published by the barrier's
        // happens-before edge...
        barrier.wait();
        // ...so draining the inbound rings (in source order) sees them.
        for (j, row) in rings.iter().enumerate() {
            if j != shard {
                sync.received += row[shard].drain_into(&mut inbound);
            }
        }
        for e in inbound.drain(..) {
            debug_assert!(
                e.key() >= last_bound,
                "shard {shard}: inbound event {:?} lands below processed bound {last_bound:?}",
                e.key()
            );
            w.queue.push(e);
        }
        // SAFETY: we own slot `shard`; readers wait for the next barrier.
        unsafe { floors.set(shard, w.queue.peek_key().unwrap_or(FLOOR_IDLE)) };
        barrier.wait();
    }
    (w, tags, sync)
}

#[cfg(test)]
mod tests {
    use crate::host::FlowSpec;
    use crate::routing::install_ecmp_routes;
    use crate::time::MILLIS;
    use crate::topology::{build_fat_tree, FatTree, FatTreeParams};
    use crate::Simulator;
    use fet_packet::FlowKey;

    fn setup() -> (Simulator, FatTree) {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        install_ecmp_routes(&mut sim);
        (sim, ft)
    }

    fn add_flow(sim: &mut Simulator, ft: &FatTree, src: usize, dst: usize, sport: u16) {
        let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
        let h = ft.hosts[src];
        let idx = sim.host_mut(h).add_flow(FlowSpec {
            key,
            total_bytes: 400_000,
            pkt_payload: 1000,
            rate_gbps: 20.0,
            start_ns: 0,
            dscp: 0,
        });
        sim.schedule_flow(h, idx);
    }

    /// A lossy multi-flow world with a scripted control mid-run.
    fn world() -> (Simulator, FatTree) {
        let (mut sim, ft) = setup();
        for src in 1..8 {
            add_flow(&mut sim, &ft, src, 0, 3000 + src as u16);
        }
        add_flow(&mut sim, &ft, 0, 7, 4000);
        let tor = ft.edges[0][0];
        sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.002;
        sim.schedule_control(3 * MILLIS, move |s| {
            s.link_direction_mut(tor, 1).unwrap().faults.drop_prob = 0.01;
        });
        (sim, ft)
    }

    fn fingerprint(
        sim: &Simulator,
        ft: &FatTree,
    ) -> (u64, usize, Vec<crate::GtEvent>, u64, u64, u64) {
        let rx: u64 = ft
            .hosts
            .iter()
            .map(|&h| sim.host(h).rx_flows.values().map(|f| f.pkts).sum::<u64>())
            .sum();
        (
            sim.events_processed(),
            sim.gt.events().len(),
            sim.gt.events().to_vec(),
            sim.host_tx_bytes(),
            sim.mgmt.total_bytes(),
            rx,
        )
    }

    #[test]
    fn parallel_matches_serial_at_every_shard_count() {
        let (mut serial, ft) = world();
        serial.run_until(8 * MILLIS);
        let want = fingerprint(&serial, &ft);
        assert_eq!(serial.sync_stats(), crate::SyncStats::default(), "serial runs no epochs");
        for shards in [2usize, 3, 4, 8] {
            let (mut par, ft2) = world();
            par.run_until_parallel(8 * MILLIS, shards);
            let got = fingerprint(&par, &ft2);
            assert_eq!(got, want, "shards={shards} diverged from serial");
            assert_eq!(par.now(), serial.now(), "clock diverged at shards={shards}");
            let sync = par.sync_stats();
            assert!(sync.segments >= 2, "control splits the run into segments");
            assert!(sync.epochs_executed > 0, "shards={shards} ran no epochs");
            assert!(sync.ring_messages > 0, "cross-pod traffic must cross shards");
        }
    }

    #[test]
    fn parallel_run_can_be_resumed_and_mixed_with_serial() {
        let (mut a, fta) = world();
        a.run_until(8 * MILLIS);

        let (mut b, ftb) = world();
        b.run_until_parallel(3 * MILLIS, 4);
        b.run_until(5 * MILLIS);
        b.run_until_parallel(8 * MILLIS, 2);

        assert_eq!(fingerprint(&a, &fta), fingerprint(&b, &ftb));
    }

    /// Serializes the tests that mutate or depend on `FET_RING_CAP`
    /// (cargo runs tests of one binary concurrently).
    static RING_CAP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sync_stats_are_deterministic_per_configuration() {
        let _guard = RING_CAP_LOCK.lock().unwrap();
        let run = |shards: usize| {
            let (mut sim, _ft) = world();
            sim.run_until_parallel(8 * MILLIS, shards);
            sim.sync_stats()
        };
        for shards in [2usize, 4] {
            assert_eq!(run(shards), run(shards), "sync stats diverged at shards={shards}");
        }
    }

    #[test]
    fn tiny_rings_overflow_but_stay_bit_identical() {
        // A 2-slot ring forces the overflow lane constantly; results must
        // not change, only the stall counter.
        let _guard = RING_CAP_LOCK.lock().unwrap();
        let (mut serial, ft) = world();
        serial.run_until(4 * MILLIS);
        let want = fingerprint(&serial, &ft);
        std::env::set_var("FET_RING_CAP", "2");
        let (mut par, ft2) = world();
        par.run_until_parallel(4 * MILLIS, 4);
        std::env::remove_var("FET_RING_CAP");
        assert_eq!(fingerprint(&par, &ft2), want);
        assert!(par.sync_stats().ring_stalls > 0, "a 2-slot ring must stall");
    }
}
