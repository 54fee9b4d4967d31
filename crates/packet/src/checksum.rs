//! Internet checksum (RFC 1071) and CRC-32 (Ethernet FCS) helpers.

/// Running one's-complement sum used by the Internet checksum family.
///
/// Fold with [`Checksum::finish`] to obtain the 16-bit complement value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Start a fresh accumulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate a byte slice. Odd trailing bytes are padded with zero,
    /// matching RFC 1071's treatment of the final octet.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Accumulate a big-endian 16-bit word.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += u32::from(v);
    }

    /// Accumulate a big-endian 32-bit word as two 16-bit halves.
    pub fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16((v & 0xffff) as u16);
    }

    /// Fold carries and return the one's complement of the sum.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// Compute the Internet checksum of one contiguous buffer.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already in place sums to zero.
pub fn verify_internet_checksum(data: &[u8]) -> bool {
    // A correct buffer folds to 0xffff before complement, i.e. finish() == 0.
    internet_checksum(data) == 0
}

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

/// Byte-at-a-time lookup table for CRC-32, built at compile time.
static CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
            bit += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3) over a buffer, as used by the Ethernet FCS.
///
/// The simulator uses this both for FCS validation of corrupted frames and
/// as the PDP hash units (ECMP, path table, dedup indexes), so it runs
/// several times per switch hop. Table-driven; bit-identical to the
/// one-bit-at-a-time [`crc32_reference`].
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xffff_ffff, data)
}

/// Advance a running CRC-32 register over `data`, one table lookup per
/// byte. Start from `0xffff_ffff` and complement the result to finish:
/// `!crc32_update(crc32_update(0xffff_ffff, a), b) == crc32(a ++ b)`.
/// Lets a caller hash a message in pieces without concatenating them.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// One-bit-at-a-time CRC-32 with the reflected polynomial 0xEDB88320 —
/// the original implementation, kept as the oracle the table kernel is
/// tested against (the PDP hash units' golden values depend on it).
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
        }
    }
    !crc
}

/// Reflected CRC-32C (Castagnoli) polynomial, as computed in hardware by
/// iSCSI offloads, NICs, and switch ASICs.
const CRC32C_POLY: u32 = 0x82f6_3b78;

/// Slice-by-8 lookup tables for CRC-32C, built at compile time.
///
/// `T[0]` is the classic byte-at-a-time table; `T[k][i]` extends it with
/// `k` extra zero bytes, so eight table lookups advance the CRC across
/// eight message bytes at once.
static CRC32C_TABLES: [[u32; 256]; 8] = build_crc32c_tables();

const fn build_crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32C_POLY & mask);
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32C (Castagnoli) over a buffer, as used by the NetSeer telemetry
/// framing trailers (CEBP reports, loss notifications, WAL records) and
/// the spill-store segment framing.
///
/// This is the integrity hot path — every telemetry message and every
/// spill record passes through it — so it dispatches to the SSE4.2
/// `crc32` instruction where the CPU has it (runtime-detected, result
/// cached by `std`), and otherwise to a portable slice-by-8 kernel.
/// Both produce bit-identical results to the one-bit-at-a-time
/// [`crc32c_reference`]; the property tests in this module and the CI
/// fuzz harness hold all three together.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the sse4.2 feature was just verified at runtime.
            return unsafe { crc32c_hw(data) };
        }
    }
    crc32c_sw(data)
}

/// Portable slice-by-8 CRC-32C kernel: eight message bytes per step,
/// eight independent table lookups the CPU can overlap.
fn crc32c_sw(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Hardware CRC-32C kernel: the SSE4.2 `crc32` instruction, 8 message
/// bytes per instruction (SIMD-register width), byte-at-a-time tail.
///
/// # Safety
/// The caller must have verified the CPU supports SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc: u64 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// One-bit-at-a-time CRC-32C with the reflected polynomial 0x82F63B78 —
/// the original implementation, kept as the oracle the slice-by-8 and
/// SSE4.2 kernels are property-tested against.
pub fn crc32c_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32C_POLY & mask);
        }
    }
    !crc
}

/// CRC-16/CCITT used as the second independent PDP hash unit.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xffff;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn checksum_roundtrip_verifies() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0, 0];
        data.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let cks = internet_checksum(&data);
        data[10] = (cks >> 8) as u8;
        data[11] = (cks & 0xff) as u8;
        assert!(verify_internet_checksum(&data));
    }

    #[test]
    fn odd_length_is_zero_padded() {
        let even = internet_checksum(&[0xab, 0x00]);
        let odd = internet_checksum(&[0xab]);
        assert_eq!(even, odd);
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" is the canonical CRC check string.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut buf = b"hello netseer packet".to_vec();
        let orig = crc32(&buf);
        buf[3] ^= 0x04;
        assert_ne!(orig, crc32(&buf));
    }

    #[test]
    fn crc32c_known_vector() {
        // CRC-32C (Castagnoli) of the canonical check string.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn crc32c_differs_from_ieee() {
        assert_ne!(crc32c(b"123456789"), crc32(b"123456789"));
    }

    #[test]
    fn crc32c_golden_vectors() {
        // RFC 3720 appendix B.4 test patterns plus the canonical check string,
        // pinned against all three kernels (dispatched, slice-by-8, bitwise).
        let cases: &[(&[u8], u32)] = &[
            (b"", 0x0000_0000),
            (b"123456789", 0xe306_9283),
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (b"a", 0xc1d0_4330),
            (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
        ];
        for &(input, expect) in cases {
            assert_eq!(crc32c(input), expect, "dispatch on {input:?}");
            assert_eq!(crc32c_sw(input), expect, "slice-by-8 on {input:?}");
            assert_eq!(crc32c_reference(input), expect, "bitwise on {input:?}");
        }
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
    }

    #[test]
    fn crc32c_kernels_agree_on_random_and_truncated_inputs() {
        // Tiny xorshift generator so the property test needs no dependencies.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..64 {
            // Lengths sweep 0..=256 so every chunks_exact(8) tail length
            // (0..=7) and the empty buffer are exercised repeatedly.
            let len = (round * 5) % 257;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let expect = crc32c_reference(&buf);
            assert_eq!(crc32c(&buf), expect, "dispatch, len {len}");
            assert_eq!(crc32c_sw(&buf), expect, "slice-by-8, len {len}");
            // Every truncation of the buffer must also agree: catches kernels
            // that only match on aligned lengths.
            for cut in 0..buf.len().min(24) {
                let t = &buf[..cut];
                assert_eq!(crc32c(t), crc32c_reference(t), "truncated to {cut}");
            }
        }
    }

    #[test]
    fn crc32c_detects_bit_flips_and_truncation() {
        let mut buf = b"cebp trailer coverage".to_vec();
        let orig = crc32c(&buf);
        buf[7] ^= 0x80;
        assert_ne!(orig, crc32c(&buf));
        buf[7] ^= 0x80;
        buf.pop();
        assert_ne!(orig, crc32c(&buf));
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789".
        assert_eq!(crc16(b"123456789"), 0x29b1);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut c = Checksum::new();
        c.add_bytes(&data[..100]);
        c.add_bytes(&data[100..]);
        assert_eq!(c.finish(), internet_checksum(&data));
    }

    #[test]
    fn add_u32_matches_bytes() {
        let mut a = Checksum::new();
        a.add_u32(0xdead_beef);
        let mut b = Checksum::new();
        b.add_bytes(&0xdead_beefu32.to_be_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
