//! Per-port counters — the substrate SNMP-style baselines poll.

/// Counters maintained by every port of every device, mirroring the MIB
/// variables (ifInOctets, ifOutOctets, discard counters…) that Case-2 of
//  the paper shows operators combing through.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortCounters {
    /// Frames received.
    pub(crate) rx_pkts: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames transmitted.
    pub(crate) tx_pkts: u64,
    /// Bytes transmitted.
    pub(crate) tx_bytes: u64,
    /// Frames dropped by the ingress/egress pipeline (all reasons).
    pub(crate) pipeline_drops: u64,
    /// Frames dropped by the MMU (congestion).
    pub mmu_drops: u64,
    /// Frames discarded at the MAC for FCS errors (corruption).
    pub(crate) fcs_errors: u64,
    /// PFC pause frames sent.
    pub pfc_tx: u64,
}

impl PortCounters {
    /// All drops visible at this port, as an interface-level discard
    /// counter would aggregate them.
    pub fn total_drops(&self) -> u64 {
        self.pipeline_drops + self.mmu_drops + self.fcs_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate() {
        let c =
            PortCounters { pipeline_drops: 3, mmu_drops: 2, fcs_errors: 1, ..Default::default() };
        assert_eq!(c.total_drops(), 6);
    }

    #[test]
    fn default_is_zero() {
        let c = PortCounters::default();
        assert_eq!(c.rx_pkts, 0);
        assert_eq!(c.total_drops(), 0);
    }
}
