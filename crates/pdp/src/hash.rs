//! Hash units — CRC-based hash engines as found in switch ASICs.
//!
//! Programmable ASICs compute hashes with CRC polynomials, not software
//! hashers; NetSeer exploits this by pre-computing the flow hash in the
//! data plane and shipping it to the CPU inside the event record (the 2.5×
//! CPU speedup of §3.6). We use CRC-32 with per-unit seeds so different
//! tables (dedup table per event type, path-change table, …) index
//! independently.

use crate::resources::{ResourceKind, ResourceLedger};
use fet_packet::checksum::crc32_update;
use fet_packet::flow::{FlowKey, FLOW_KEY_LEN};

/// A single hash engine with a fixed seed and output width.
#[derive(Debug, Clone)]
pub struct HashUnit {
    name: &'static str,
    seed: u32,
    output_bits: u32,
}

impl HashUnit {
    /// Create a hash unit. `output_bits` ≤ 32; outputs are masked to it.
    pub fn new(name: &'static str, seed: u32, output_bits: u32) -> Self {
        assert!((1..=32).contains(&output_bits), "hash output must be 1..=32 bits");
        HashUnit { name, seed, output_bits }
    }

    /// Hash arbitrary bytes: CRC-32 over the big-endian seed followed by
    /// `data`, streamed through one register (no concatenated copy).
    pub fn hash_bytes(&self, data: &[u8]) -> u32 {
        let seeded = crc32_update(0xffff_ffff, &self.seed.to_be_bytes());
        let h = !crc32_update(seeded, data);
        if self.output_bits == 32 {
            h
        } else {
            h & ((1u32 << self.output_bits) - 1)
        }
    }

    /// Hash a flow key (the dominant NetSeer use).
    pub fn hash_flow(&self, flow: &FlowKey) -> u32 {
        let mut buf = [0u8; FLOW_KEY_LEN];
        flow.write_to(&mut buf);
        self.hash_bytes(&buf)
    }

    /// Index into a table of `size` slots.
    pub fn index(&self, flow: &FlowKey, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        self.hash_flow(flow) as usize % size
    }

    /// Output width in bits.
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Charge hash-bit usage to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::HashBits, u64::from(self.output_bits));
    }

    /// Unit name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            sport,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    #[test]
    fn deterministic() {
        let h = HashUnit::new("h", 0xabc, 32);
        assert_eq!(h.hash_flow(&flow(1)), h.hash_flow(&flow(1)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashUnit::new("a", 1, 32);
        let b = HashUnit::new("b", 2, 32);
        assert_ne!(a.hash_flow(&flow(1)), b.hash_flow(&flow(1)));
    }

    #[test]
    fn output_masking() {
        let h = HashUnit::new("h", 7, 10);
        for sport in 0..200 {
            assert!(h.hash_flow(&flow(sport)) < 1024);
        }
    }

    #[test]
    fn index_bounds() {
        let h = HashUnit::new("h", 7, 32);
        for sport in 0..100 {
            assert!(h.index(&flow(sport), 37) < 37);
        }
        assert_eq!(h.index(&flow(0), 0), 0);
    }

    #[test]
    fn spreads_across_slots() {
        // 1000 flows into 128 slots should touch most slots.
        let h = HashUnit::new("h", 9, 32);
        let mut hit = [false; 128];
        for sport in 0..1000 {
            hit[h.index(&flow(sport), 128)] = true;
        }
        let used = hit.iter().filter(|&&b| b).count();
        assert!(used > 100, "only {used}/128 slots used — bad dispersion");
    }

    /// ECMP choices, path-table slots and dedup indexes all derive from
    /// `hash_flow`; these values were computed with the original
    /// concatenate-then-bitwise-CRC implementation and must never move.
    #[test]
    fn hash_flow_golden_values() {
        let flows = [
            FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                1000,
                Ipv4Addr::from_octets([10, 1, 0, 1]),
                80,
            ),
            FlowKey::udp(
                Ipv4Addr::from_octets([10, 2, 1, 3]),
                53,
                Ipv4Addr::from_octets([10, 3, 0, 2]),
                4791,
            ),
            FlowKey::tcp(
                Ipv4Addr::from_octets([192, 168, 7, 9]),
                65535,
                Ipv4Addr::from_octets([172, 16, 0, 1]),
                443,
            ),
        ];
        let golden: [(u32, [u32; 3]); 3] = [
            (1, [0x1416_af10, 0xe737_c7c7, 0xac55_b2a2]),
            (0x9e37_79b9, [0x9fdc_c026, 0x6cfd_a8f1, 0x279f_dd94]),
            (0xffff_ffff, [0xbf09_4024, 0x4c28_28f3, 0x074a_5d96]),
        ];
        for (seed, want) in golden {
            let h = HashUnit::new("golden", seed, 32);
            for (f, w) in flows.iter().zip(want) {
                assert_eq!(h.hash_flow(f), w, "seed {seed:#x}, flow {f:?}");
            }
        }
    }

    /// The table CRC-32 (and its streaming form) against the bitwise
    /// reference, over seeded random buffers of every length 0..=64.
    #[test]
    fn table_crc32_matches_bitwise_reference() {
        use fet_packet::checksum::{crc32, crc32_reference};
        let mut rng = fet_netsim::rng::Pcg32::new(0xC3C3_2C32, 7);
        for len in 0..=64usize {
            for _ in 0..8 {
                let buf: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                let want = crc32_reference(&buf);
                assert_eq!(crc32(&buf), want, "len {len}");
                let seed = rng.next_u32();
                let mut seeded = seed.to_be_bytes().to_vec();
                seeded.extend_from_slice(&buf);
                let h = HashUnit::new("ref", seed, 32);
                assert_eq!(h.hash_bytes(&buf), crc32_reference(&seeded), "seeded, len {len}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = HashUnit::new("bad", 0, 0);
    }
}
