//! Path-change detection (§3.3): learn each flow's (ingress, egress) port
//! pair in a hash-indexed flow table; report the first packet of a new
//! flow, or of an old flow whose ports changed.
//!
//! The table has finite entries and replaces on collision — the paper's
//! "quickly expire old flows ... with slightly more flows reported as new
//! ones". An evicted-then-returning flow is re-reported as new: that is a
//! deliberate over-report, never a miss.

use fet_packet::flow::FLOW_KEY_LEN;
use fet_packet::FlowKey;
use fet_pdp::hash::slot;
use fet_pdp::{HashUnit, RegisterArray, ResourceLedger};

/// One learned path entry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathEntry {
    valid: bool,
    flow: [u8; FLOW_KEY_LEN],
    in_port: u8,
    out_port: u8,
}

/// Why a packet was selected as a path-change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathChangeKind {
    /// First packet of a flow this table has no memory of.
    NewFlow,
    /// Known flow, but its port pair changed (a real path change).
    PortsChanged {
        /// Previous ingress port.
        old_in: u8,
        /// Previous egress port.
        old_out: u8,
    },
}

/// The learned flow-path table.
#[derive(Debug)]
pub struct PathTable {
    table: RegisterArray<PathEntry>,
    hash: HashUnit,
    /// Packets offered.
    pub(crate) offered: u64,
    /// Path-change events reported.
    pub(crate) reported: u64,
}

impl PathTable {
    /// Create with `entries` slots.
    pub fn new(entries: usize, hash_seed: u32) -> Self {
        PathTable {
            // valid + 104b flow + 2x8b ports ≈ 121 bits.
            table: RegisterArray::new("path-table", entries, 121),
            hash: HashUnit::new(hash_seed, 32),
            offered: 0,
            reported: 0,
        }
    }

    /// Observe a routed packet. Returns `Some` when this packet should be
    /// reported as a path-change event.
    pub fn offer(&mut self, flow: FlowKey, in_port: u8, out_port: u8) -> Option<PathChangeKind> {
        self.offered += 1;
        let mut fk = [0u8; FLOW_KEY_LEN];
        flow.write_to(&mut fk);
        // The stored key is the hash input: serialize the flow once.
        let idx = slot(self.hash.hash_bytes(&fk) as usize, self.table.len());
        let old = self.table.read_modify_write(idx, |_| PathEntry {
            valid: true,
            flow: fk,
            in_port,
            out_port,
        });
        let kind = if !old.valid || old.flow != fk {
            // Empty slot or a different flow evicted: report as new.
            Some(PathChangeKind::NewFlow)
        } else if old.in_port != in_port || old.out_port != out_port {
            Some(PathChangeKind::PortsChanged { old_in: old.in_port, old_out: old.out_port })
        } else {
            None
        };
        if kind.is_some() {
            self.reported += 1;
        }
        kind
    }

    /// Restart in place: forget every learned path; counters stay.
    pub(crate) fn reset(&mut self) {
        self.table.clear();
    }

    /// Charge to a resource ledger.
    pub(crate) fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        self.table.account(ledger, module);
        self.hash.account(ledger, module);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_u32(0x0a00_0100 + n),
            5555,
            Ipv4Addr::from_octets([10, 9, 9, 9]),
            80,
        )
    }

    #[test]
    fn first_packet_reports_new_flow() {
        let mut t = PathTable::new(64, 1);
        assert_eq!(t.offer(flow(1), 1, 2), Some(PathChangeKind::NewFlow));
        assert_eq!(t.offer(flow(1), 1, 2), None);
        assert_eq!(t.offer(flow(1), 1, 2), None);
    }

    #[test]
    fn port_change_reports_with_old_ports() {
        let mut t = PathTable::new(64, 1);
        t.offer(flow(1), 1, 2);
        assert_eq!(
            t.offer(flow(1), 1, 3),
            Some(PathChangeKind::PortsChanged { old_in: 1, old_out: 2 })
        );
        assert_eq!(t.offer(flow(1), 1, 3), None);
    }

    #[test]
    fn eviction_rereports_as_new_never_misses() {
        // 1-entry table: two flows ping-pong; every transition re-reports.
        let mut t = PathTable::new(1, 1);
        assert!(t.offer(flow(1), 1, 2).is_some());
        assert!(t.offer(flow(2), 1, 2).is_some());
        assert!(t.offer(flow(1), 1, 2).is_some());
        // An actual path change of flow(1) after re-learn is still caught.
        assert_eq!(
            t.offer(flow(1), 1, 9),
            Some(PathChangeKind::PortsChanged { old_in: 1, old_out: 2 })
        );
    }

    #[test]
    fn ingress_port_change_also_reports() {
        let mut t = PathTable::new(64, 1);
        t.offer(flow(1), 1, 2);
        assert!(matches!(
            t.offer(flow(1), 7, 2),
            Some(PathChangeKind::PortsChanged { old_in: 1, .. })
        ));
    }

    #[test]
    fn counters_track() {
        let mut t = PathTable::new(64, 1);
        for n in 0..10 {
            t.offer(flow(n), 0, 1);
        }
        for n in 0..10 {
            t.offer(flow(n), 0, 1);
        }
        assert_eq!(t.offered, 20);
        // With 64 entries and 10 flows collisions are unlikely but possible;
        // at least the 10 initial reports must exist.
        assert!(t.reported >= 10);
    }
}
