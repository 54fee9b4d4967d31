//! Circulating event batching (§3.5).
//!
//! A stack across pipeline stages caches extracted 24-byte events; CEBPs
//! (circulating event batching packets) recirculate through an internal
//! port, popping a few events per pass and appending them to their payload.
//! A CEBP that reaches `batch_size` events is forwarded to the switch CPU
//! over PCIe and replaced by an empty clone.
//!
//! The timing model is calibrated to the paper's Figure 12 (≈86 Meps /
//! 17.7 Gbps at batch 50): each circulation costs
//! `max(pass_latency, serialize(frame) @ internal port)` and collects up to
//! `EVENTS_PER_PASS` events (the stack spans several stages, and the CEBP
//! pops one event per stage it traverses); each delivery to the CPU costs
//! one extra pass plus the full-frame serialization.

use crate::config::NetSeerConfig;
use crate::faults::{event_priority, stall_release, Window};
use fet_packet::cebp::CEBP_HEADER_LEN;
use fet_packet::ethernet::ETHERNET_HEADER_LEN;
use fet_packet::event::{EventRecord, EventType, EVENT_RECORD_LEN};
use std::collections::HashMap;

/// Events collected per CEBP circulation: the stack spans several stages
/// and the CEBP pops one event per stage it traverses (§3.5).
pub(crate) const EVENTS_PER_PASS: usize = 6;

/// A completed batch ready for the PCIe channel.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Time the CEBP finished collecting and left for the CPU, ns.
    pub(crate) ready_ns: u64,
    /// The carried events.
    pub events: Vec<EventRecord>,
}

impl Batch {
    /// Wire size of this batch on PCIe (Ethernet + CEBP framing + events).
    pub(crate) fn wire_bytes(&self) -> usize {
        ETHERNET_HEADER_LEN + CEBP_HEADER_LEN + self.events.len() * EVENT_RECORD_LEN
    }
}

/// Outcome of offering one event to the stack under the bounded-backlog,
/// priority-aware shedding policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Event stored; nothing shed.
    Stored,
    /// Stack full and the incoming event did not outrank any resident:
    /// the incoming event was shed.
    ShedIncoming,
    /// Stack full but a lower-priority resident was evicted to make room.
    ShedVictim {
        /// The victim's event type.
        ty: EventType,
    },
}

/// The in-pipeline stack + circulating CEBP model.
#[derive(Debug)]
pub struct CebpBatcher {
    stack: Vec<EventRecord>,
    stack_cap: usize,
    batch_size: usize,
    pass_latency_ns: u64,
    internal_gbps: f64,
    /// Scheduled recirculation stalls (from the device fault plan).
    stalls: Vec<Window>,
    open: Vec<EventRecord>,
    /// When the circulating CEBP next visits the stack.
    next_visit_ns: u64,
    /// Backpressure: only every `flush_stride`-th [`flush`](Self::flush)
    /// call forces a partial batch out; the rest are skipped (counted).
    /// Stride 1 (the default) flushes every call — the pre-backpressure
    /// behavior, bit for bit.
    flush_stride: u32,
    /// Flush calls offered (skipped ones included).
    pub(crate) flush_calls: u64,
    /// Flush calls skipped by the widening stride.
    pub(crate) flushes_skipped: u64,
    /// Events pushed successfully.
    pub accepted: u64,
    /// Events shed because the stack was full (capacity limit). Shedding
    /// is priority-aware: drops outrank congestion/pause, which outrank
    /// path-change (see `crate::faults::event_priority`).
    pub(crate) dropped: u64,
    /// Shed counts broken down by the victim's event type.
    pub(crate) shed_by_type: HashMap<EventType, u64>,
    /// Batches delivered.
    pub delivered_batches: u64,
    /// Events delivered.
    pub(crate) delivered_events: u64,
}

impl CebpBatcher {
    /// Create from a NetSeer configuration.
    pub fn new(cfg: &NetSeerConfig) -> Self {
        CebpBatcher {
            stack: Vec::new(),
            stack_cap: cfg.stack_capacity.max(1),
            batch_size: usize::from(cfg.batch_size.max(1)),
            pass_latency_ns: cfg.pass_latency_ns.max(1),
            internal_gbps: cfg.capacity.internal_port_gbps,
            stalls: cfg.faults.cebp_stalls.clone(),
            open: Vec::new(),
            next_visit_ns: 0,
            flush_stride: 1,
            flush_calls: 0,
            flushes_skipped: 0,
            accepted: 0,
            dropped: 0,
            shed_by_type: HashMap::new(),
            delivered_batches: 0,
            delivered_events: 0,
        }
    }

    fn shed(&mut self, ty: EventType) {
        self.dropped += 1;
        *self.shed_by_type.entry(ty).or_insert(0) += 1;
    }

    fn frame_bytes(&self, events: usize) -> usize {
        ETHERNET_HEADER_LEN + CEBP_HEADER_LEN + events * EVENT_RECORD_LEN
    }

    fn pass_time(&self, events_in_cebp: usize) -> u64 {
        // Recirculation is cut-through: serialization overlaps pipeline
        // traversal, so a pass costs the pipeline latency unless the frame
        // has grown so large that the internal port itself throttles it.
        let ser = ((self.frame_bytes(events_in_cebp) as f64 * 8.0) / self.internal_gbps / 4.0) // four concurrent CEBPs share the port's serializer
            .ceil() as u64;
        ser.max(self.pass_latency_ns)
    }

    /// Push one event into the stack. When the stack is full the shedding
    /// policy is priority-aware: a lower-priority resident (path-change
    /// before congestion/pause before drops) is evicted in favor of a
    /// higher-priority arrival; otherwise the arrival itself is shed.
    /// Every shed is counted — never silent.
    pub fn push(&mut self, now_ns: u64, ev: EventRecord) -> PushOutcome {
        // The CEBP circulates continuously; while the stack was empty its
        // visits found nothing. The first visit that can pick this event
        // up is therefore no earlier than now.
        if self.next_visit_ns < now_ns {
            self.next_visit_ns = now_ns;
        }
        if self.stack.len() >= self.stack_cap {
            let incoming = event_priority(ev.ty);
            // Oldest lowest-priority resident is the victim candidate.
            let victim = self
                .stack
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (event_priority(e.ty), *i))
                .map(|(i, e)| (i, event_priority(e.ty), e.ty));
            match victim {
                Some((i, vp, vty)) if vp < incoming => {
                    self.stack.remove(i);
                    self.shed(vty);
                    self.stack.push(ev);
                    self.accepted += 1;
                    return PushOutcome::ShedVictim { ty: vty };
                }
                _ => {
                    self.shed(ev.ty);
                    return PushOutcome::ShedIncoming;
                }
            }
        }
        self.stack.push(ev);
        self.accepted += 1;
        PushOutcome::Stored
    }

    /// True when the CEBP's next visit is due by `now_ns` with events
    /// waiting: exactly when [`poll`](Self::poll) would do anything.
    #[inline]
    pub(crate) fn due(&self, now_ns: u64) -> bool {
        self.next_visit_ns <= now_ns && !self.stack.is_empty()
    }

    /// Advance the circulation model to `now_ns`, returning batches that
    /// completed by then.
    pub fn poll(&mut self, now_ns: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        while self.due(now_ns) {
            // A scheduled recirculation stall parks the CEBP until the
            // window lifts; events wait in the (bounded) stack meanwhile.
            if let Some(release) = stall_release(&self.stalls, self.next_visit_ns) {
                self.next_visit_ns = release;
                continue;
            }
            // One circulation: pop up to EVENTS_PER_PASS from the stack.
            let take = EVENTS_PER_PASS.min(self.stack.len()).min(self.batch_size - self.open.len());
            let drained: Vec<EventRecord> = self.stack.drain(..take).collect();
            self.open.extend(drained);
            self.next_visit_ns += self.pass_time(self.open.len());
            if self.open.len() >= self.batch_size {
                // Delivery pass: forward to CPU, clone an empty CEBP.
                self.next_visit_ns += self.pass_time(self.open.len());
                let events = std::mem::take(&mut self.open);
                self.delivered_batches += 1;
                self.delivered_events += events.len() as u64;
                out.push(Batch { ready_ns: self.next_visit_ns, events });
            }
        }
        out
    }

    /// Set the flush-widening stride (collector backpressure): only every
    /// `stride`-th flush call forces a partial batch out. Clamped to ≥ 1;
    /// natural full batches via [`poll`](Self::poll) are unaffected.
    pub(crate) fn set_flush_stride(&mut self, stride: u32) {
        self.flush_stride = stride.max(1);
    }

    #[cfg(test)]
    pub(crate) fn flush_stride(&self) -> u32 {
        self.flush_stride
    }

    /// Force a partial batch out (the control-plane timer prevents events
    /// from aging in a half-full CEBP when traffic is light), handing it
    /// out after the full batches circulation completed by `now_ns`. Under
    /// backpressure (`set_flush_stride` > 1)
    /// skipped calls return nothing without touching circulation: events
    /// keep accumulating toward fuller batches instead of being forced
    /// out every tick.
    pub(crate) fn flush(&mut self, now_ns: u64) -> Vec<Batch> {
        self.flush_calls += 1;
        if !self.flush_calls.is_multiple_of(u64::from(self.flush_stride)) {
            self.flushes_skipped += 1;
            return Vec::new();
        }
        let mut out = self.poll(now_ns);
        if self.open.is_empty() && self.stack.is_empty() {
            return out;
        }
        self.open.append(&mut self.stack);
        let mut start = self.next_visit_ns.max(now_ns);
        if let Some(release) = stall_release(&self.stalls, start) {
            start = release;
        }
        let deliver_at = start + self.pass_time(self.open.len());
        self.next_visit_ns = deliver_at;
        let events = std::mem::take(&mut self.open);
        self.delivered_batches += 1;
        self.delivered_events += events.len() as u64;
        out.push(Batch { ready_ns: deliver_at, events });
        out
    }

    /// Restart in place: drop the stack, the open CEBP and the circulation
    /// clock (volatile pipeline state); counters and the flush stride stay.
    pub(crate) fn reset(&mut self) {
        self.stack.clear();
        self.open.clear();
        self.next_visit_ns = 0;
    }

    /// Events currently waiting (stack + open CEBP).
    pub fn backlog(&self) -> usize {
        self.stack.len() + self.open.len()
    }

    /// The pending events in removal order: the open CEBP's cargo first
    /// (it drains on the next delivery), then the stack, oldest first.
    /// A hard kill keeps all but the un-fsynced tail of it (see
    /// [`crate::recovery::RecoveryLog`]).
    pub(crate) fn pending_events(&self) -> Vec<EventRecord> {
        self.open.iter().chain(self.stack.iter()).copied().collect()
    }
}

/// Analytic throughput of the batching stage for a batch size, per the
/// calibrated model (regenerates Figure 12 without running a simulation).
pub fn throughput_model(cfg: &NetSeerConfig, batch_size: usize) -> (f64, f64) {
    let b = batch_size.max(1);
    let frame = |events: usize| ETHERNET_HEADER_LEN + CEBP_HEADER_LEN + events * EVENT_RECORD_LEN;
    let pass = |events: usize| -> f64 {
        let ser = (frame(events) as f64 * 8.0) / cfg.capacity.internal_port_gbps / 4.0;
        ser.max(cfg.pass_latency_ns as f64)
    };
    // Fill passes.
    let mut t = 0.0;
    let mut filled = 0usize;
    while filled < b {
        filled = (filled + EVENTS_PER_PASS).min(b);
        t += pass(filled);
    }
    // Delivery pass.
    t += pass(b);
    let eps = b as f64 / (t * 1e-9);
    let gbps = eps * (EVENT_RECORD_LEN as f64) * 8.0 / 1e9;
    (eps / 1e6, gbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{EventDetail, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn ev(n: u16) -> EventRecord {
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

    fn cfg(batch: u16) -> NetSeerConfig {
        NetSeerConfig { batch_size: batch, ..NetSeerConfig::default() }
    }

    #[test]
    fn batches_form_at_batch_size() {
        let mut b = CebpBatcher::new(&cfg(10));
        for n in 0..25 {
            assert_eq!(b.push(0, ev(n)), PushOutcome::Stored);
        }
        let batches = b.poll(1_000_000);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].events.len(), 10);
        assert_eq!(batches[1].events.len(), 10);
        assert_eq!(b.backlog(), 5);
        // Order is preserved through the stack/CEBP path.
        assert_eq!(batches[0].events[0], ev(0));
        assert_eq!(batches[1].events[9], ev(19));
    }

    #[test]
    fn flush_emits_partial_batch() {
        let mut b = CebpBatcher::new(&cfg(50));
        for n in 0..7 {
            b.push(0, ev(n));
        }
        let batches = b.flush(10_000);
        assert_eq!(batches.len(), 1, "one partial batch");
        assert_eq!(batches[0].events.len(), 7);
        assert!(batches[0].ready_ns >= 10_000);
        assert_eq!(b.backlog(), 0);
        assert!(b.flush(20_000).is_empty());
    }

    #[test]
    fn flush_hands_out_the_batches_its_poll_completes() {
        let mut b = CebpBatcher::new(&cfg(10));
        for n in 0..25 {
            b.push(0, ev(n));
        }
        // No prior poll: circulation completes two full batches by now,
        // and the remaining five go out as the forced partial.
        let batches = b.flush(1_000_000);
        let sizes: Vec<usize> = batches.iter().map(|x| x.events.len()).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
        assert_eq!(b.backlog(), 0);
        let handed_out: Vec<EventRecord> = batches.into_iter().flat_map(|x| x.events).collect();
        assert_eq!(handed_out, (0..25).map(ev).collect::<Vec<_>>(), "in order, none lost");
        assert_eq!(b.delivered_events, 25, "booked exactly what was handed out");
    }

    #[test]
    fn flush_stride_widens_batch_intervals() {
        let mut b = CebpBatcher::new(&cfg(50));
        b.set_flush_stride(4);
        let mut flushed = 0;
        for tick in 1..=8u64 {
            b.push(tick * 1_000, ev(tick as u16));
            if !b.flush(tick * 1_000).is_empty() {
                flushed += 1;
            }
        }
        // Only ticks 4 and 8 flush; skipped ticks leave events batching.
        assert_eq!(flushed, 2);
        assert_eq!(b.flush_calls, 8);
        assert_eq!(b.flushes_skipped, 6);
        // Stride 1 restores flush-every-call.
        b.set_flush_stride(1);
        b.push(9_000, ev(9));
        assert!(!b.flush(9_000).is_empty());
        // Stride 0 is clamped, never a division by zero.
        b.set_flush_stride(0);
        assert_eq!(b.flush_stride(), 1);
    }

    #[test]
    fn stack_overflow_drops_events() {
        let mut c = cfg(50);
        c.stack_capacity = 4;
        let mut b = CebpBatcher::new(&c);
        for n in 0..10 {
            b.push(0, ev(n));
        }
        // No time has passed, so nothing drained: 4 accepted, 6 dropped.
        assert_eq!(b.accepted, 4);
        assert_eq!(b.dropped, 6);
        assert_eq!(b.shed_by_type[&EventType::Congestion], 6);
    }

    #[test]
    fn shedding_is_priority_aware() {
        use fet_packet::event::DropCode;
        let mut c = cfg(50);
        c.stack_capacity = 3;
        let mut b = CebpBatcher::new(&c);
        // Fill with path-change (lowest priority).
        for n in 0..3 {
            let mut e = ev(n);
            e.ty = EventType::PathChange;
            e.detail = EventDetail::PathChange { ingress_port: 0, egress_port: 1 };
            assert_eq!(b.push(0, e), PushOutcome::Stored);
        }
        // A congestion event outranks path-change: the oldest path-change
        // (pending position 0, nothing in the open CEBP) is evicted.
        assert_eq!(b.push(0, ev(100)), PushOutcome::ShedVictim { ty: EventType::PathChange });
        // A drop event outranks congestion.
        let mut d = ev(101);
        d.ty = EventType::MmuDrop;
        d.detail =
            EventDetail::Drop { ingress_port: 0, egress_port: 1, code: DropCode::BufferFull };
        assert_eq!(b.push(0, d), PushOutcome::ShedVictim { ty: EventType::PathChange });
        // Another path-change cannot displace anyone: it is shed itself.
        let mut p = ev(102);
        p.ty = EventType::PathChange;
        p.detail = EventDetail::PathChange { ingress_port: 0, egress_port: 1 };
        assert_eq!(b.push(0, p), PushOutcome::ShedIncoming);
        assert_eq!(b.dropped, 3);
        assert_eq!(b.shed_by_type[&EventType::PathChange], 3);
        // The high-priority drop event is still resident.
        assert!(b.backlog() == 3);
    }

    #[test]
    fn pending_order_is_open_cebp_then_stack() {
        let mut c = cfg(10);
        c.stack_capacity = 4;
        let mut b = CebpBatcher::new(&c);
        for n in 0..4 {
            b.push(0, ev(n));
        }
        // One circulation moves the 4 events into the open CEBP (below
        // batch size, so no delivery).
        assert!(b.poll(0).is_empty());
        assert_eq!(b.pending_events()[..4], [ev(0), ev(1), ev(2), ev(3)]);
        // Refill the stack behind the open CEBP.
        for n in 0..4 {
            let mut e = ev(100 + n);
            e.ty = EventType::PathChange;
            e.detail = EventDetail::PathChange { ingress_port: 0, egress_port: 1 };
            assert_eq!(b.push(0, e), PushOutcome::Stored);
        }
        assert_eq!(b.pending_events().len(), 8);
        // The victim is the oldest path-change, behind the 4 open events;
        // the arrival is appended at the back.
        let parked = b.pending_events();
        assert_eq!(b.push(0, ev(200)), PushOutcome::ShedVictim { ty: EventType::PathChange });
        let pending = b.pending_events();
        assert_eq!(pending[..4], parked[..4]);
        assert_eq!(pending[4..7], parked[5..8]);
        assert_eq!(pending[7], ev(200));
    }

    #[test]
    fn cebp_stall_parks_circulation_then_resumes() {
        use crate::faults::Window;
        let mut c = cfg(10);
        c.faults.cebp_stalls = vec![Window { start_ns: 0, end_ns: 1_000_000 }];
        let mut b = CebpBatcher::new(&c);
        for n in 0..10 {
            b.push(0, ev(n));
        }
        // During the stall nothing circulates.
        assert!(b.poll(999_999).is_empty());
        assert_eq!(b.backlog(), 10);
        // After release the batch forms normally.
        let batches = b.poll(10_000_000);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].ready_ns >= 1_000_000);
        // No events lost across the stall.
        assert_eq!(b.dropped, 0);
        assert_eq!(b.delivered_events, 10);
    }

    #[test]
    fn batch_completion_takes_time() {
        let mut b = CebpBatcher::new(&cfg(10));
        for n in 0..10 {
            b.push(1_000, ev(n));
        }
        // Immediately after push nothing is ready.
        assert!(b.poll(1_000).is_empty());
        let batches = b.poll(10_000_000);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].ready_ns > 1_000);
    }

    #[test]
    fn wire_bytes_counts_framing() {
        let batch = Batch { ready_ns: 0, events: vec![ev(0); 50] };
        assert_eq!(batch.wire_bytes(), 14 + 4 + 50 * 24);
    }

    #[test]
    fn throughput_model_matches_paper_shape() {
        let c = NetSeerConfig::default();
        let (m10, g10) = throughput_model(&c, 10);
        let (m50, g50) = throughput_model(&c, 50);
        let (m70, _g70) = throughput_model(&c, 70);
        // Rising with batch size, saturating near the paper's 86 Meps /
        // 17.7 Gbps at batch 50.
        assert!(m10 < m50, "m10={m10} m50={m50}");
        assert!(m50 <= m70 * 1.2, "should saturate, not collapse");
        assert!((60.0..=120.0).contains(&m50), "Meps at 50: {m50}");
        assert!((12.0..=24.0).contains(&g50), "Gbps at 50: {g50}");
        assert!(g10 < g50);
    }

    #[test]
    fn sustained_throughput_matches_model() {
        // Feed events faster than the drain rate for 1 ms and check the
        // simulated drain tracks the analytic model.
        let c = cfg(50);
        let mut b = CebpBatcher::new(&c);
        let horizon = 1_000_000; // 1 ms
        let mut delivered = 0u64;
        let mut t = 0;
        let mut n = 0u16;
        while t < horizon {
            // Keep the stack topped up faster than the drain rate.
            while b.backlog() < 450 {
                b.push(t, ev(n));
                n = n.wrapping_add(1);
            }
            t += 1_000;
            delivered += b.poll(t).iter().map(|x| x.events.len() as u64).sum::<u64>();
        }
        let meps = delivered as f64 / (horizon as f64 * 1e-9) / 1e6;
        let (model_meps, _) = throughput_model(&c, 50);
        assert!((meps - model_meps).abs() / model_meps < 0.25, "sim {meps} vs model {model_meps}");
    }
}
