//! Pause detection (§3.3): a queue status detector in the ingress pipeline
//! parses PFC frames to learn which (egress port, priority) queues are
//! paused; every packet routed toward a paused queue is a pause event
//! packet.

use fet_pdp::ResourceLedger;

/// Tracks PFC pause state per (port, priority).
#[derive(Debug)]
pub(crate) struct PauseTracker {
    /// Bit per (port, prio).
    bits: Vec<u64>,
    ports: usize,
    /// Pause transitions observed.
    pub(crate) pauses_seen: u64,
    /// Resume transitions observed.
    pub(crate) resumes_seen: u64,
}

const PRIOS: usize = 8;

impl PauseTracker {
    /// Create for `ports` ports.
    pub(crate) fn new(ports: usize) -> Self {
        PauseTracker {
            bits: vec![0; (ports * PRIOS).div_ceil(64)],
            ports,
            pauses_seen: 0,
            resumes_seen: 0,
        }
    }

    fn pos(&self, port: u8, prio: u8) -> (usize, u64) {
        let i = usize::from(port) * PRIOS + usize::from(prio);
        (i / 64, 1u64 << (i % 64))
    }

    /// Record a pause-state transition.
    pub(crate) fn set(&mut self, port: u8, prio: u8, paused: bool) {
        if usize::from(port) >= self.ports || usize::from(prio) >= PRIOS {
            return;
        }
        let (w, m) = self.pos(port, prio);
        let was = self.bits[w] & m != 0;
        if paused && !was {
            self.bits[w] |= m;
            self.pauses_seen += 1;
        } else if !paused && was {
            self.bits[w] &= !m;
            self.resumes_seen += 1;
        }
    }

    /// Is (port, prio) currently paused?
    pub(crate) fn is_paused(&self, port: u8, prio: u8) -> bool {
        if usize::from(port) >= self.ports || usize::from(prio) >= PRIOS {
            return false;
        }
        let (w, m) = self.pos(port, prio);
        self.bits[w] & m != 0
    }

    /// Restart in place: every queue reads as unpaused; counters stay.
    pub(crate) fn reset(&mut self) {
        self.bits.fill(0);
    }

    /// Declare the status bits to the ledger: one bit per (port, prio),
    /// one stateful ALU.
    pub(crate) fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.declare(module, "pause-status", (self.ports * PRIOS) as u64, 1, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_resume_cycle() {
        let mut t = PauseTracker::new(32);
        assert!(!t.is_paused(3, 5));
        t.set(3, 5, true);
        assert!(t.is_paused(3, 5));
        assert!(!t.is_paused(3, 4));
        assert!(!t.is_paused(4, 5));
        t.set(3, 5, false);
        assert!(!t.is_paused(3, 5));
        assert_eq!(t.pauses_seen, 1);
        assert_eq!(t.resumes_seen, 1);
    }

    #[test]
    fn idempotent_transitions_counted_once() {
        let mut t = PauseTracker::new(4);
        t.set(0, 0, true);
        t.set(0, 0, true);
        assert_eq!(t.pauses_seen, 1);
        t.set(0, 0, false);
        t.set(0, 0, false);
        assert_eq!(t.resumes_seen, 1);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut t = PauseTracker::new(4);
        t.set(200, 0, true);
        assert!(!t.is_paused(200, 0));
        assert_eq!(t.pauses_seen, 0);
    }

    #[test]
    fn all_slots_independent() {
        let mut t = PauseTracker::new(16);
        for port in 0..16u8 {
            for prio in 0..8u8 {
                if (port + prio) % 2 == 0 {
                    t.set(port, prio, true);
                }
            }
        }
        for port in 0..16u8 {
            for prio in 0..8u8 {
                assert_eq!(t.is_paused(port, prio), (port + prio) % 2 == 0);
            }
        }
    }
}
