//! Memory management unit: shared-buffer accounting with dynamic
//! thresholds, per-queue depths, and PFC watermark decisions.
//!
//! Models the traffic manager of a shared-buffer switching ASIC: a pool of
//! `total_bytes` cells shared by all (port, queue) pairs. Admission uses
//! the classic dynamic-threshold rule — a queue may grow to
//! `alpha × free_shared` — which is what produces the incast congestion
//! drops in the paper's experiments.

/// MMU configuration.
#[derive(Debug, Clone, Copy)]
pub struct MmuConfig {
    /// Shared buffer pool size, bytes (Tofino-class: ~22 MB; scaled to the
    /// testbed in experiments).
    pub total_bytes: u64,
    /// Dynamic threshold alpha: queue limit = alpha × free shared bytes.
    pub alpha: f64,
    /// PFC XOFF watermark per queue, bytes (pause upstream above this).
    pub pfc_xoff_bytes: u64,
    /// PFC XON watermark per queue, bytes (resume below this).
    pub pfc_xon_bytes: u64,
    /// Number of priority queues per port.
    pub queues_per_port: u8,
}

impl Default for MmuConfig {
    fn default() -> Self {
        MmuConfig {
            total_bytes: 22 * 1024 * 1024,
            alpha: 2.0,
            pfc_xoff_bytes: 512 * 1024,
            pfc_xon_bytes: 256 * 1024,
            queues_per_port: 8,
        }
    }
}

/// Why the MMU rejected a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MmuVerdict {
    /// Admitted to the queue.
    Admit,
    /// Rejected: queue exceeded its dynamic threshold or the pool is full.
    Drop,
}

/// Shared-buffer occupancy tracker.
#[derive(Debug, Clone)]
pub(crate) struct Mmu {
    config: MmuConfig,
    used_bytes: u64,
    /// Depth per (port, queue).
    depths: Vec<u64>,
    ports: u8,
}

impl Mmu {
    /// Create an MMU for `ports` ports.
    pub(crate) fn new(ports: u8, config: MmuConfig) -> Self {
        let n = usize::from(ports) * usize::from(config.queues_per_port);
        Mmu { config, used_bytes: 0, depths: vec![0; n], ports }
    }

    fn idx(&self, port: u8, queue: u8) -> usize {
        debug_assert!(port < self.ports && queue < self.config.queues_per_port);
        usize::from(port) * usize::from(self.config.queues_per_port) + usize::from(queue)
    }

    /// Free shared bytes.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.config.total_bytes.saturating_sub(self.used_bytes)
    }

    /// Current depth of one queue, bytes.
    pub(crate) fn depth(&self, port: u8, queue: u8) -> u64 {
        self.depths[self.idx(port, queue)]
    }

    /// Try to admit `bytes` into (port, queue).
    pub(crate) fn admit(&mut self, port: u8, queue: u8, bytes: u64) -> MmuVerdict {
        let depth = self.depths[self.idx(port, queue)];
        let free = self.free_bytes();
        let limit = (self.config.alpha * free as f64) as u64;
        if bytes > free || depth + bytes > limit {
            return MmuVerdict::Drop;
        }
        let i = self.idx(port, queue);
        self.depths[i] += bytes;
        self.used_bytes += bytes;
        MmuVerdict::Admit
    }

    /// Release `bytes` from (port, queue) at dequeue.
    pub(crate) fn release(&mut self, port: u8, queue: u8, bytes: u64) {
        let i = self.idx(port, queue);
        debug_assert!(self.depths[i] >= bytes, "MMU release underflow");
        self.depths[i] = self.depths[i].saturating_sub(bytes);
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }

    /// True when the queue has crossed the XOFF watermark (send PAUSE).
    pub(crate) fn above_xoff(&self, port: u8, queue: u8) -> bool {
        self.depth(port, queue) >= self.config.pfc_xoff_bytes
    }

    /// True when the queue has drained below the XON watermark (send RESUME).
    pub(crate) fn below_xon(&self, port: u8, queue: u8) -> bool {
        self.depth(port, queue) <= self.config.pfc_xon_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mmu {
        Mmu::new(
            4,
            MmuConfig {
                total_bytes: 10_000,
                alpha: 1.0,
                pfc_xoff_bytes: 3_000,
                pfc_xon_bytes: 1_000,
                queues_per_port: 2,
            },
        )
    }

    #[test]
    fn admit_and_release_balance() {
        let mut m = small();
        assert_eq!(m.admit(0, 0, 1_000), MmuVerdict::Admit);
        assert_eq!(m.depth(0, 0), 1_000);
        assert_eq!(m.free_bytes(), 9_000);
        m.release(0, 0, 1_000);
        assert_eq!(m.depth(0, 0), 0);
        assert_eq!(m.free_bytes(), 10_000);
    }

    #[test]
    fn pool_exhaustion_drops() {
        let mut m = small();
        // Fill the pool from multiple queues (alpha=1 allows up to free).
        assert_eq!(m.admit(0, 0, 4_000), MmuVerdict::Admit);
        assert_eq!(m.admit(1, 0, 4_000), MmuVerdict::Admit);
        // 2000 free; queue limit = 1*2000 = 2000 -> 2500 rejected.
        assert_eq!(m.admit(2, 0, 2_500), MmuVerdict::Drop);
        // 2000 exactly fits.
        assert_eq!(m.admit(2, 0, 2_000), MmuVerdict::Admit);
        assert_eq!(m.free_bytes(), 0);
        assert_eq!(m.admit(3, 0, 1), MmuVerdict::Drop);
    }

    #[test]
    fn dynamic_threshold_squeezes_hog_queue() {
        let mut m = small();
        // One queue grows until its dynamic limit blocks it well before the
        // pool is empty: after using U bytes, limit = 10_000 - U, so the
        // queue converges toward half the pool (alpha=1).
        let mut admitted = 0u64;
        while m.admit(0, 0, 500) == MmuVerdict::Admit {
            admitted += 500;
            assert!(admitted < 10_000, "hog queue should be limited before pool");
        }
        assert!(admitted <= 5_500, "admitted {admitted}");
        // A second queue can still get buffer.
        assert_eq!(m.admit(1, 1, 500), MmuVerdict::Admit);
    }

    #[test]
    fn pfc_watermarks() {
        let mut m = small();
        assert!(!m.above_xoff(0, 0));
        assert!(m.below_xon(0, 0));
        m.admit(0, 0, 3_500).unwrap_admit();
        assert!(m.above_xoff(0, 0));
        assert!(!m.below_xon(0, 0));
        m.release(0, 0, 3_000);
        assert!(!m.above_xoff(0, 0));
        assert!(m.below_xon(0, 0));
    }

    trait UnwrapAdmit {
        fn unwrap_admit(self);
    }
    impl UnwrapAdmit for MmuVerdict {
        fn unwrap_admit(self) {
            assert_eq!(self, MmuVerdict::Admit);
        }
    }
}
