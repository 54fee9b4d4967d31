//! SNMP-style counter polling: per-interface counters collected on a
//! period. Knows *that* a device dropped packets, never *whose* — the
//! coarse granularity that sent the paper's Case-2 operators on an
//! hour-long reproduction hunt.

use fet_netsim::counters::PortCounters;
use fet_netsim::monitor::{Actions, SwitchMonitor};
use std::any::Any;

/// Bytes per counter poll response (a handful of OIDs per port).
pub(crate) const POLL_BYTES_PER_PORT: usize = 48;

/// One counter snapshot.
#[derive(Debug, Clone)]
pub(crate) struct CounterPoll {
    /// Poll time, ns.
    pub(crate) time_ns: u64,
    /// Counters per port at that time.
    pub(crate) counters: Vec<PortCounters>,
}

/// The per-switch SNMP agent.
#[derive(Debug)]
pub struct SnmpMonitor {
    /// Poll interval, ns.
    pub(crate) interval_ns: u64,
    /// Collected polls.
    pub(crate) polls: Vec<CounterPoll>,
}

impl SnmpMonitor {
    /// Create with a poll interval (production: 30–60 s; scale down for
    /// short simulations).
    pub fn new(interval_ns: u64) -> Self {
        SnmpMonitor { interval_ns: interval_ns.max(1), polls: Vec::new() }
    }

    /// Device-level drop deltas between consecutive polls:
    /// (poll time, total drops since previous poll).
    pub(crate) fn drop_deltas(&self) -> Vec<(u64, u64)> {
        let totals: Vec<(u64, u64)> = self
            .polls
            .iter()
            .map(|p| (p.time_ns, p.counters.iter().map(|c| c.total_drops()).sum::<u64>()))
            .collect();
        totals.windows(2).map(|w| (w[1].0, w[1].1 - w[0].1)).collect()
    }

    /// True if any poll interval showed drops — "the ToR indeed dropped
    /// packets during that period" is all SNMP can ever say.
    pub fn saw_drops(&self) -> bool {
        self.drop_deltas().iter().any(|&(_, d)| d > 0)
    }
}

impl SwitchMonitor for SnmpMonitor {
    fn on_timer(&mut self, now_ns: u64, counters: &[PortCounters], out: &mut Actions) {
        self.polls.push(CounterPoll { time_ns: now_ns, counters: counters.to_vec() });
        out.report(POLL_BYTES_PER_PORT * counters.len());
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        Some(self.interval_ns)
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

    #[test]
    fn polls_capture_counters_and_meter_bytes() {
        let mut m = SnmpMonitor::new(1_000_000);
        let counters = vec![PortCounters::default(); 4];
        let mut out = Actions::new();
        m.on_timer(0, &counters, &mut out);
        assert_eq!(m.polls.len(), 1);
        assert_eq!(out.report_bytes, 4 * POLL_BYTES_PER_PORT as u64);
    }

    #[test]
    fn drop_deltas_between_polls() {
        let mut m = SnmpMonitor::new(1);
        let mut out = Actions::new();
        let zero = vec![PortCounters::default(); 2];
        m.on_timer(0, &zero, &mut out);
        let mut later = zero.clone();
        later[1].mmu_drops = 7;
        m.on_timer(100, &later, &mut out);
        assert_eq!(m.drop_deltas(), vec![(100, 7)]);
        assert!(m.saw_drops());
    }

    #[test]
    fn quiet_network_no_drops() {
        let mut m = SnmpMonitor::new(1);
        let mut out = Actions::new();
        let zero = vec![PortCounters::default(); 2];
        m.on_timer(0, &zero, &mut out);
        m.on_timer(100, &zero, &mut out);
        assert!(!m.saw_drops());
    }
}
