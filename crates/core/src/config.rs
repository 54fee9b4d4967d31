//! NetSeer configuration and the hardware capacity model of §4.

use crate::faults::FaultPlan;
use fet_netsim::time::MILLIS;
use fet_packet::ipv4::Ipv4Addr;

/// Partial-deployment flow filter (paper §2.3: "a partial deployment of
/// NetSeer to monitor flows of specific applications"). A flow is
/// monitored when its source OR destination falls in the prefix.
#[derive(Debug, Clone, Copy)]
pub struct FlowFilter {
    /// Prefix address.
    pub prefix: Ipv4Addr,
    /// Prefix length.
    pub len: u8,
}

impl FlowFilter {
    /// Does this filter select the flow?
    pub(crate) fn matches(&self, flow: &fet_packet::FlowKey) -> bool {
        let mask = if self.len == 0 { 0 } else { u32::MAX << (32 - u32::from(self.len)) };
        let p = self.prefix.as_u32() & mask;
        flow.src.as_u32() & mask == p || flow.dst.as_u32() & mask == p
    }
}

/// PCIe bandwidth pipeline→CPU with 1 core driving it, Gbps (§4).
pub(crate) const PCIE_1CORE_GBPS: f64 = 9.5;

/// PCIe bandwidth pipeline→CPU with 2 cores driving it, Gbps (§4).
pub(crate) const PCIE_2CORE_GBPS: f64 = 18.0;

/// Capacity ceilings from the paper's §4 ("Capacity") — all the hardware
/// bottlenecks NetSeer's event path crosses. The fixed ceilings are
/// constants: `PCIE_1CORE_GBPS`, `PCIE_2CORE_GBPS` and
/// `crate::cpu::CPU_GHZ`.
#[derive(Debug, Clone, Copy)]
pub struct CapacityModel {
    /// Internal port bandwidth shared by redirected events and CEBPs, Gbps.
    pub internal_port_gbps: f64,
    /// MMU drop-redirect bandwidth, Gbps.
    pub mmu_redirect_gbps: f64,
    /// CPU cores dedicated to event processing.
    pub cpu_cores: u32,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel { internal_port_gbps: 100.0, mmu_redirect_gbps: 40.0, cpu_cores: 2 }
    }
}

impl CapacityModel {
    /// PCIe bandwidth for the configured core count.
    pub(crate) fn pcie_gbps(&self) -> f64 {
        if self.cpu_cores >= 2 {
            PCIE_2CORE_GBPS
        } else {
            PCIE_1CORE_GBPS
        }
    }
}

/// Full NetSeer configuration. Congestion is not configured here: the
/// switch's [`SwitchConfig::congestion_threshold_ns`] decides it and
/// hands the verdict to the monitor in [`EgressCtx::congested`], so
/// detection and ground truth share one comparison.
///
/// [`SwitchConfig::congestion_threshold_ns`]: fet_netsim::switchdev::SwitchConfig::congestion_threshold_ns
/// [`EgressCtx::congested`]: fet_netsim::EgressCtx::congested
#[derive(Debug, Clone)]
pub struct NetSeerConfig {
    /// Group-caching table entries per event type (§3.4).
    pub dedup_entries: usize,
    /// Ring buffer slots per port for inter-switch drop detection.
    pub ring_slots: usize,
    /// Events per CEBP (paper recommends 50).
    pub batch_size: u16,
    /// In-pipeline event stack capacity (events awaiting a CEBP).
    pub stack_capacity: usize,
    /// Fixed pipeline transit latency per circulation, ns.
    pub pass_latency_ns: u64,
    /// CPU false-positive window: repeats of an initial report within this
    /// window are eliminated, ns.
    pub fp_window_ns: u64,
    /// Redundant copies per loss notification (paper: three).
    pub notification_copies: u8,
    /// Hardware capacity model.
    pub capacity: CapacityModel,
    /// Per-module enables (for ablations).
    pub enable_dedup: bool,
    /// Partial deployment: only monitor flows matching this filter
    /// (None = monitor everything, the paper's always-on mode).
    pub flow_filter: Option<FlowFilter>,
    /// Deterministic fault schedule for this device's reporting pipeline
    /// (default: inject nothing).
    pub faults: FaultPlan,
    /// Switch-CPU overload controller: maximum backlog before batches are
    /// shed-and-counted instead of queueing unboundedly, ns.
    pub cpu_max_backlog_ns: u64,
    /// Crash-recovery checkpoint cadence: how often the monitor snapshots
    /// its pending set + detector heads and truncates/fsyncs the WAL, ns.
    /// Bounds `lost_to_crash` after a hard kill (see `netseer::recovery`).
    pub checkpoint_interval_ns: u64,
}

/// Configuration of the backend [`Collector`](crate::Collector): memory
/// watermark and spill budget (quarantine retention is the fixed
/// `Collector::MAX_QUARANTINE`). The defaults
/// reproduce the pre-spill collector exactly (unbounded memory admission,
/// spill never engaged).
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Byte budget of the disk spill buffer. Events are shed (counted,
    /// refused) only once the spill is full — shedding is the last resort
    /// behind bounded disk.
    pub max_spill_bytes: u64,
    /// Spill segment rotation threshold, bytes. Closing a segment fsyncs
    /// it; smaller segments mean earlier durability and finer-grained
    /// deletion-after-ack at the cost of more rotations.
    pub spill_segment_bytes: u64,
    /// Undrained in-memory backlog (stored events not yet drained by the
    /// slowest subscriber) beyond which new deliveries go to the spill
    /// instead of the store. `usize::MAX` disables spilling entirely.
    pub memory_watermark: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            max_spill_bytes: 64 << 20,
            spill_segment_bytes: 1 << 20,
            memory_watermark: usize::MAX,
        }
    }
}

impl Default for NetSeerConfig {
    fn default() -> Self {
        NetSeerConfig {
            dedup_entries: 4096,
            ring_slots: 1024,
            batch_size: 50,
            stack_capacity: 512,
            pass_latency_ns: 60,
            fp_window_ns: 100 * fet_netsim::time::MILLIS,
            notification_copies: 3,
            capacity: CapacityModel::default(),
            enable_dedup: true,
            flow_filter: None,
            faults: FaultPlan::default(),
            cpu_max_backlog_ns: 10 * MILLIS,
            checkpoint_interval_ns: MILLIS,
        }
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use fet_packet::FlowKey;

    #[test]
    fn filter_matches_either_endpoint() {
        let f = FlowFilter { prefix: Ipv4Addr::from_octets([10, 1, 0, 0]), len: 16 };
        let in_src = FlowKey::tcp(
            Ipv4Addr::from_octets([10, 1, 2, 3]),
            1,
            Ipv4Addr::from_octets([10, 9, 9, 9]),
            2,
        );
        let in_dst = in_src.reversed();
        let out = FlowKey::tcp(
            Ipv4Addr::from_octets([10, 2, 2, 3]),
            1,
            Ipv4Addr::from_octets([10, 9, 9, 9]),
            2,
        );
        assert!(f.matches(&in_src));
        assert!(f.matches(&in_dst));
        assert!(!f.matches(&out));
    }

    #[test]
    fn zero_length_matches_everything() {
        let f = FlowFilter { prefix: Ipv4Addr::from_u32(0), len: 0 };
        let any = FlowKey::tcp(
            Ipv4Addr::from_octets([1, 2, 3, 4]),
            1,
            Ipv4Addr::from_octets([5, 6, 7, 8]),
            2,
        );
        assert!(f.matches(&any));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = NetSeerConfig::default();
        assert_eq!(c.batch_size, 50);
        assert_eq!(c.capacity.internal_port_gbps, 100.0);
        assert_eq!(c.capacity.mmu_redirect_gbps, 40.0);
        assert_eq!(PCIE_2CORE_GBPS, 18.0);
        assert_eq!(crate::cpu::CPU_GHZ, 2.5);
        assert_eq!(crate::monitor::DEDUP_C, 128);
        assert_eq!(crate::batch::EVENTS_PER_PASS, 6);
    }

    #[test]
    fn collector_defaults_reproduce_pre_spill_behavior() {
        let c = CollectorConfig::default();
        assert_eq!(crate::Collector::MAX_QUARANTINE, 64);
        // Spilling is off by default: the watermark is never reached.
        assert_eq!(c.memory_watermark, usize::MAX);
        assert!(c.max_spill_bytes > 0 && c.spill_segment_bytes > 0);
    }

    #[test]
    fn pcie_scales_with_cores() {
        let mut m = CapacityModel { cpu_cores: 1, ..CapacityModel::default() };
        assert_eq!(m.pcie_gbps(), 9.5);
        m.cpu_cores = 2;
        assert_eq!(m.pcie_gbps(), 18.0);
    }
}
