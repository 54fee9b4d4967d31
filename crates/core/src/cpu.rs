//! The switch-CPU stage (§3.6): PCIe admission, false-positive
//! elimination, and the cycle-cost model behind the hash-offload speedup.
//!
//! Calibration (paper Figure 14): with 2 × 2.5 GHz cores and hash offload,
//! the CPU sustains ≈82 Meps at 1 K concurrent flows and ≈4.5 Meps at 1 M
//! flows — i.e. per-event cost grows with the working set as the flow map
//! stops fitting in cache. We model cycles/event as
//! `base + growth × log2(flows / 1024)` (flows > 1024), fit to those two
//! end points, and add a hash cost when the data plane did **not**
//! pre-compute the flow hash, sized so offloading improves capacity 2.5×
//! (the paper's §5.2 number).

use crate::config::{CapacityModel, NetSeerConfig};
use crate::faults::{stall_release, OverloadWindow, Window};
use fet_packet::event::EventRecord;
use fet_pdp::RateLimitedChannel;
use std::collections::HashMap;

/// Switch CPU clock, GHz (§4).
pub(crate) const CPU_GHZ: f64 = 2.5;

/// Cycles per event at ≤1K concurrent flows (fit to 82 Meps @ 5 Gcycles/s).
pub(crate) const BASE_CYCLES: f64 = 61.0;

/// Extra cycles per event per doubling of the flow working set
/// (fit to 4.5 Meps @ 1M flows).
pub(crate) const GROWTH_CYCLES_PER_DOUBLING: f64 = 105.0;

/// Hash-computation multiplier when offload is disabled: capacity drops
/// 2.5× (hash cost = 1.5 × the lookup cost).
pub(crate) const HASH_COST_FACTOR: f64 = 1.5;

/// Per-event CPU cycles for a flow working set of `flows`.
pub(crate) fn cycles_per_event(flows: usize, hash_offload: bool) -> f64 {
    let lookup = if flows <= 1024 {
        BASE_CYCLES
    } else {
        BASE_CYCLES + GROWTH_CYCLES_PER_DOUBLING * ((flows as f64) / 1024.0).log2()
    };
    if hash_offload {
        lookup
    } else {
        lookup * (1.0 + HASH_COST_FACTOR)
    }
}

/// Analytic CPU capacity in events/second (regenerates Figure 14(b)).
pub fn cpu_capacity_eps(cap: &CapacityModel, flows: usize, hash_offload: bool) -> f64 {
    let cycles_per_sec = CPU_GHZ * 1e9 * f64::from(cap.cpu_cores);
    cycles_per_sec / cycles_per_event(flows, hash_offload)
}

/// Analytic PCIe throughput for a batch size (regenerates Figure 14(a)):
/// the channel moves `wire_bytes(batch)` per batch; small batches waste the
/// per-message DMA overhead.
pub fn pcie_throughput(cap: &CapacityModel, batch_size: usize) -> (f64, f64) {
    // Per-message DMA/doorbell overhead, bytes-equivalent.
    const MSG_OVERHEAD_BYTES: f64 = 16.0;
    let payload = (batch_size * fet_packet::EVENT_RECORD_LEN) as f64;
    let eff = payload / (payload + MSG_OVERHEAD_BYTES);
    let gbps = cap.pcie_gbps() * eff;
    let eps = gbps * 1e9 / 8.0 / fet_packet::EVENT_RECORD_LEN as f64;
    (eps / 1e6, gbps)
}

/// One event after CPU processing, stamped with its completion time.
#[derive(Debug, Clone, Copy)]
pub struct CpuOutput {
    /// CPU completion time, ns.
    pub(crate) done_ns: u64,
    /// The surviving event.
    pub(crate) record: EventRecord,
}

/// The switch CPU: PCIe channel in front, FP-elimination hash map inside.
/// The data plane always pre-computes the flow hash (§3.6 offload).
#[derive(Debug)]
pub struct SwitchCpu {
    pcie: RateLimitedChannel,
    /// Cycles per second across the configured cores.
    cycles_per_sec: f64,
    fp_window_ns: u64,
    /// Last initial-report time per (type code, flow hash).
    seen: HashMap<(u8, u32), u64>,
    cpu_free_ns: u64,
    /// Overload controller: maximum CPU backlog (how far `cpu_free_ns` may
    /// run ahead of a batch's arrival) before the batch is shed-and-counted
    /// instead of queueing unboundedly.
    max_backlog_ns: u64,
    /// Scheduled PCIe stall windows (from the device fault plan).
    pcie_stalls: Vec<Window>,
    /// Scheduled CPU overload windows: per-event cost multipliers.
    overload: Vec<OverloadWindow>,
    /// Events received from PCIe.
    pub received: u64,
    /// Initial reports eliminated as false positives.
    pub fp_eliminated: u64,
    /// Events inside PCIe-rejected batches (for delivery accounting).
    pub(crate) pcie_rejected_events: u64,
    /// Events shed by the overload controller.
    pub(crate) shed_overload: u64,
    /// Total busy CPU time, ns.
    pub(crate) busy_ns: u64,
}

impl SwitchCpu {
    /// Create from a NetSeer configuration.
    pub fn new(cfg: &NetSeerConfig) -> Self {
        SwitchCpu {
            pcie: RateLimitedChannel::new(
                cfg.capacity.pcie_gbps(),
                // A few MB of DMA ring is plenty.
                4 * 1024 * 1024,
            ),
            cycles_per_sec: CPU_GHZ * 1e9 * f64::from(cfg.capacity.cpu_cores),
            fp_window_ns: cfg.fp_window_ns,
            seen: HashMap::new(),
            cpu_free_ns: 0,
            max_backlog_ns: cfg.cpu_max_backlog_ns.max(1),
            pcie_stalls: cfg.faults.pcie_stalls.clone(),
            overload: cfg.faults.cpu_overload.clone(),
            received: 0,
            fp_eliminated: 0,
            pcie_rejected_events: 0,
            shed_overload: 0,
            busy_ns: 0,
        }
    }

    /// Restart in place: the FP-elimination window (`seen`), the DMA ring
    /// and the CPU-backlog clock start empty, as on real hardware; the
    /// cumulative counters (which the ledger reads) stay.
    pub(crate) fn reset(&mut self) {
        self.seen.clear();
        self.cpu_free_ns = 0;
        self.pcie.reset();
    }

    /// Per-event cost multiplier at `t` from the overload schedule.
    fn overload_factor(&self, t: u64) -> f64 {
        self.overload
            .iter()
            .filter(|o| o.window.contains(t))
            .map(|o| o.factor.max(1.0))
            .fold(1.0, f64::max)
    }

    /// Process one batch arriving from the pipeline at `ready_ns`.
    /// Returns the surviving events with completion timestamps. An empty
    /// vec means the batch was shed — by PCIe rejection or by the overload
    /// controller — and the shed is counted in `pcie_rejected_events` /
    /// `shed_overload` respectively (never silent).
    pub fn process_batch(
        &mut self,
        ready_ns: u64,
        events: &[EventRecord],
        wire_bytes: usize,
    ) -> Vec<CpuOutput> {
        // A scheduled PCIe stall delays DMA admission to the window's end.
        let arrive_ns = stall_release(&self.pcie_stalls, ready_ns).unwrap_or(ready_ns);
        let Some(pcie_done) = self.pcie.offer(arrive_ns, wire_bytes) else {
            self.pcie_rejected_events += events.len() as u64;
            return Vec::new();
        };
        // Overload controller: if the CPU is already this far behind, shed
        // the whole batch and count it rather than queueing unboundedly —
        // bounded-memory degradation instead of an ever-growing backlog.
        if self.cpu_free_ns.saturating_sub(pcie_done) > self.max_backlog_ns {
            self.shed_overload += events.len() as u64;
            return Vec::new();
        }
        let mut out = Vec::with_capacity(events.len());
        let mut t = self.cpu_free_ns.max(pcie_done);
        for ev in events {
            self.received += 1;
            let per_event_ns = (cycles_per_event(self.seen.len().max(1), true)
                / self.cycles_per_sec
                * 1e9
                * self.overload_factor(t))
            .max(1.0) as u64;
            t += per_event_ns;
            self.busy_ns += per_event_ns;
            if ev.counter <= 1 {
                // Initial report: a repeat within the window is the
                // collision-induced false positive of §3.6.
                let key = (ev.ty.code(), ev.hash);
                match self.seen.get(&key) {
                    Some(&last) if t.saturating_sub(last) < self.fp_window_ns => {
                        self.fp_eliminated += 1;
                        continue;
                    }
                    _ => {
                        self.seen.insert(key, t);
                    }
                }
            }
            out.push(CpuOutput { done_ns: t, record: *ev });
        }
        self.cpu_free_ns = t;
        out
    }

    #[cfg(test)]
    pub(crate) fn working_set(&self) -> usize {
        self.seen.len()
    }

    /// Drop FP-window entries older than the window (periodic sweep).
    pub(crate) fn expire(&mut self, now_ns: u64) {
        let w = self.fp_window_ns;
        self.seen.retain(|_, &mut t| now_ns.saturating_sub(t) < w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{EventDetail, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn ev(n: u16, counter: u16) -> EventRecord {
        EventRecord {
            ty: EventType::Congestion,
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                n,
                Ipv4Addr::from_octets([10, 0, 0, 2]),
                80,
            ),
            detail: EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: 0 },
            counter,
            hash: u32::from(n).wrapping_mul(2_654_435_761),
        }
    }

    #[test]
    fn capacity_matches_paper_endpoints() {
        let cap = CapacityModel::default();
        let at_1k = cpu_capacity_eps(&cap, 1_000, true) / 1e6;
        let at_1m = cpu_capacity_eps(&cap, 1_000_000, true) / 1e6;
        assert!((75.0..=90.0).contains(&at_1k), "1K flows: {at_1k} Meps");
        assert!((3.5..=5.5).contains(&at_1m), "1M flows: {at_1m} Meps");
    }

    #[test]
    fn hash_offload_is_2_5x() {
        let cap = CapacityModel::default();
        let with = cpu_capacity_eps(&cap, 10_000, true);
        let without = cpu_capacity_eps(&cap, 10_000, false);
        assert!((with / without - 2.5).abs() < 1e-9);
    }

    #[test]
    fn pcie_throughput_saturates_with_batch() {
        let cap = CapacityModel::default();
        let (eps1, g1) = pcie_throughput(&cap, 1);
        let (eps20, g20) = pcie_throughput(&cap, 20);
        let (eps50, g50) = pcie_throughput(&cap, 50);
        assert!(eps1 < eps20 && eps20 < eps50);
        assert!(g1 < g20 && g20 < g50);
        // At batch ≥20 the paper reports ~18 Gbps with 2 cores.
        assert!(g20 > 17.0, "g20 = {g20}");
        assert!(g50 <= 18.0 + 1e-9);
        // 1-core configuration: ~9.5 Gbps.
        let one = CapacityModel { cpu_cores: 1, ..CapacityModel::default() };
        let (_, g20_1) = pcie_throughput(&one, 20);
        assert!((8.5..=9.5).contains(&g20_1), "1-core: {g20_1}");
    }

    #[test]
    fn fp_elimination_removes_repeated_initial_reports() {
        let mut cpu = SwitchCpu::new(&NetSeerConfig::default());
        let batch = vec![ev(1, 1), ev(1, 1), ev(2, 1)];
        let out = cpu.process_batch(0, &batch, 100);
        // The second initial report of flow 1 is the FP.
        assert_eq!(out.len(), 2);
        assert_eq!(cpu.fp_eliminated, 1);
        // Another batch soon after: flow 1's initial again eliminated.
        let out = cpu.process_batch(1_000, &[ev(1, 1)], 60);
        assert!(out.is_empty());
    }

    #[test]
    fn counter_reports_pass_through() {
        let mut cpu = SwitchCpu::new(&NetSeerConfig::default());
        let out = cpu.process_batch(0, &[ev(1, 1), ev(1, 128), ev(1, 256)], 100);
        assert_eq!(out.len(), 3);
        assert_eq!(cpu.fp_eliminated, 0);
    }

    #[test]
    fn initial_report_passes_again_after_window() {
        let cfg = NetSeerConfig { fp_window_ns: 1_000, ..NetSeerConfig::default() };
        let mut cpu = SwitchCpu::new(&cfg);
        assert_eq!(cpu.process_batch(0, &[ev(1, 1)], 60).len(), 1);
        assert_eq!(cpu.process_batch(10_000, &[ev(1, 1)], 60).len(), 1);
        assert_eq!(cpu.fp_eliminated, 0);
    }

    #[test]
    fn completion_times_are_monotonic() {
        let mut cpu = SwitchCpu::new(&NetSeerConfig::default());
        let batch: Vec<EventRecord> = (0..100).map(|n| ev(n, 1)).collect();
        let out = cpu.process_batch(0, &batch, 2_414);
        for w in out.windows(2) {
            assert!(w[0].done_ns <= w[1].done_ns);
        }
        assert!(cpu.busy_ns > 0);
    }

    #[test]
    fn expire_shrinks_working_set() {
        let cfg = NetSeerConfig { fp_window_ns: 1_000, ..NetSeerConfig::default() };
        let mut cpu = SwitchCpu::new(&cfg);
        cpu.process_batch(0, &(0..50).map(|n| ev(n, 1)).collect::<Vec<_>>(), 1_264);
        assert_eq!(cpu.working_set(), 50);
        cpu.expire(u64::MAX);
        assert_eq!(cpu.working_set(), 0);
    }

    #[test]
    fn overload_controller_sheds_and_counts() {
        let cfg = NetSeerConfig { cpu_max_backlog_ns: 1_000, ..NetSeerConfig::default() };
        let mut cpu = SwitchCpu::new(&cfg);
        let batch: Vec<EventRecord> = (0..50).map(|n| ev(n, 1)).collect();
        let mut processed = 0u64;
        // Hammer batches at t=0: the CPU backlog grows ~610ns per batch,
        // so the controller must start shedding after a couple of batches
        // instead of queueing unboundedly.
        for _ in 0..100 {
            processed += cpu.process_batch(0, &batch, 1_264).len() as u64;
        }
        assert!(cpu.shed_overload > 0, "controller never engaged");
        // Everything is accounted: processed + FP + shed == offered.
        assert_eq!(
            processed + cpu.fp_eliminated + cpu.shed_overload + cpu.pcie_rejected_events,
            100 * 50
        );
        // The backlog oscillates around the bound (shed batches don't
        // advance cpu_free_ns; PCIe keeps draining), never runs away.
        let backlog = cpu.cpu_free_ns;
        assert!(backlog < 100 * 700, "unbounded backlog {}", backlog);
    }

    #[test]
    fn overload_factor_takes_worst_overlap() {
        use crate::faults::{OverloadWindow, Window};
        let mut cfg = NetSeerConfig::default();
        cfg.faults.cpu_overload = vec![
            OverloadWindow { window: Window { start_ns: 0, end_ns: 100 }, factor: 4.0 },
            OverloadWindow { window: Window { start_ns: 50, end_ns: 80 }, factor: 10.0 },
        ];
        let cpu = SwitchCpu::new(&cfg);
        assert_eq!(cpu.overload_factor(60), 10.0);
        assert_eq!(cpu.overload_factor(90), 4.0);
        assert_eq!(cpu.overload_factor(200), 1.0);
        assert_eq!(SwitchCpu::new(&NetSeerConfig::default()).overload_factor(12345), 1.0);
    }

    #[test]
    fn overload_window_slows_processing() {
        use crate::faults::{OverloadWindow, Window};
        let mut cfg = NetSeerConfig::default();
        cfg.faults.cpu_overload =
            vec![OverloadWindow { window: Window { start_ns: 0, end_ns: u64::MAX }, factor: 10.0 }];
        let mut slow = SwitchCpu::new(&cfg);
        let mut fast = SwitchCpu::new(&NetSeerConfig::default());
        let batch: Vec<EventRecord> = (0..50).map(|n| ev(n, 1)).collect();
        let s = slow.process_batch(0, &batch, 1_264);
        let f = fast.process_batch(0, &batch, 1_264);
        assert!(
            s.last().unwrap().done_ns > 5 * f.last().unwrap().done_ns,
            "overload {} vs healthy {}",
            s.last().unwrap().done_ns,
            f.last().unwrap().done_ns
        );
    }

    #[test]
    fn pcie_stall_delays_admission() {
        use crate::faults::Window;
        let mut cfg = NetSeerConfig::default();
        cfg.faults.pcie_stalls = vec![Window { start_ns: 0, end_ns: 1_000_000 }];
        let mut cpu = SwitchCpu::new(&cfg);
        let out = cpu.process_batch(0, &[ev(1, 1)], 100);
        assert_eq!(out.len(), 1);
        assert!(out[0].done_ns >= 1_000_000, "done at {}", out[0].done_ns);
    }
}
