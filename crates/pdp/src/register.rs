//! Stateful register arrays — the emulated stateful ALU memories.
//!
//! Tofino-class ASICs expose per-stage register arrays: each packet may
//! perform at most one read-modify-write on one index of one array per
//! stage, and a cell is at most two 32/64-bit words wide. Wider state (like
//! NetSeer's 17-byte ring-buffer slots of 13 B flow + 4 B packet ID) must be
//! **sliced across stages**. [`RegisterArray`] models a single array and
//! declares it to the resource ledger at its configured size and width, so
//! the ledger charges, and the stage placement lays out, the honest cost.
//!
//! What is accounted is not enforced: the emulator does not count accesses
//! per packet, so a caller may touch an array more than once in one pass
//! (see ROADMAP item 7's per-pass access guard).

use crate::hash::slot;
use crate::resources::ResourceLedger;

/// A stateful register array of `N`-byte cells.
///
/// The emulator stores cells as plain Rust values but *accounts* for them as
/// hardware would: SRAM bits, and one stateful ALU in each pipeline stage
/// the cell width spans. The ledger always charges the configured `size`;
/// the host commits the cells only on the first write, so an array nobody
/// writes costs no heap (an unwritten cell reads as `V::default()`, exactly
/// as a freshly cleared SRAM would).
#[derive(Debug, Clone)]
pub struct RegisterArray<V: Copy + Default> {
    name: &'static str,
    /// Configured cell count: what hashing indexes into and the ledger
    /// charges, whether or not `cells` is committed yet.
    size: usize,
    /// Empty until the first write, then exactly `size` cells.
    cells: Vec<V>,
    cell_bits: u32,
}

impl<V: Copy + Default> RegisterArray<V> {
    /// An array of `size` cells of `cell_bits` logical width. No cell
    /// storage is allocated until the first write.
    pub fn new(name: &'static str, size: usize, cell_bits: u32) -> Self {
        RegisterArray { name, size, cells: Vec::new(), cell_bits }
    }

    /// Array length (the configured size).
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the configured size is zero.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Commit the cell storage on the first write. Returns `false` for a
    /// zero-size array, which stays a no-op. Kept out of line so the
    /// per-packet write path carries only the emptiness test.
    #[cold]
    #[inline(never)]
    fn commit(&mut self) -> bool {
        self.cells = vec![V::default(); self.size];
        self.size != 0
    }

    /// Read a cell (no ALU charge; reads ride the RMW). Empty and
    /// never-written arrays return the default value.
    pub fn read(&self, index: usize) -> V {
        if self.cells.is_empty() {
            return V::default();
        }
        self.cells[slot(index, self.cells.len())]
    }

    /// A read-modify-write: applies `f` to the cell and returns the
    /// *previous* value, mirroring the ALU's "output old value" mode that
    /// NetSeer's eviction logic relies on. A no-op on empty arrays.
    pub fn read_modify_write(&mut self, index: usize, f: impl FnOnce(V) -> V) -> V {
        if self.cells.is_empty() && !self.commit() {
            return V::default();
        }
        let i = slot(index, self.cells.len());
        let cell = &mut self.cells[i];
        let old = *cell;
        *cell = f(old);
        old
    }

    /// Overwrite a cell unconditionally (control-plane style write).
    pub fn write(&mut self, index: usize, v: V) {
        if self.cells.is_empty() && !self.commit() {
            return;
        }
        let i = slot(index, self.cells.len());
        self.cells[i] = v;
    }

    /// Reset every cell to default (control-plane table clear). The cell
    /// storage is released; the next write commits it again.
    pub fn clear(&mut self) {
        self.cells = Vec::new();
    }

    /// Declare this array to a resource ledger under `module`: one
    /// stateful ALU per stage its cell width spans.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.declare(module, self.name, self.size as u64, self.cell_bits, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{ResourceKind, TOFINO_32D};

    /// `(SRAM bits, stateful ALUs)` the array charges.
    fn charged<V: Copy + Default>(r: &RegisterArray<V>) -> (u64, u64) {
        let mut ledger = ResourceLedger::new(TOFINO_32D);
        r.account(&mut ledger, "m");
        (ledger.used(ResourceKind::SramBits), ledger.used(ResourceKind::StatefulAlu))
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut r: RegisterArray<u64> = RegisterArray::new("ctr", 16, 64);
        assert_eq!(r.read_modify_write(3, |v| v + 1), 0);
        assert_eq!(r.read_modify_write(3, |v| v + 1), 1);
        assert_eq!(r.read(3), 2);
    }

    #[test]
    fn index_wraps_like_hash_indexing() {
        let mut r: RegisterArray<u32> = RegisterArray::new("ctr", 8, 32);
        r.write(8, 7); // wraps to 0
        assert_eq!(r.read(0), 7);
        assert_eq!(r.read(16), 7);
    }

    #[test]
    fn sram_accounting() {
        let r: RegisterArray<u64> = RegisterArray::new("ctr", 1024, 64);
        assert_eq!(charged(&r), (65_536, 1));
        let mut ledger = ResourceLedger::new(TOFINO_32D);
        r.account(&mut ledger, "dedup");
        let p = ledger.placements()[0];
        assert_eq!((p.module, p.name, p.cell_bits, p.alus_per_stage), ("dedup", "ctr", 64, 1));
    }

    #[test]
    fn untouched_array_reads_default_everywhere() {
        let r: RegisterArray<u64> = RegisterArray::new("cold", 64, 64);
        for i in 0..256 {
            assert_eq!(r.read(i), 0, "index {i}");
        }
    }

    #[test]
    fn configured_size_holds_before_and_after_first_write() {
        let mut r: RegisterArray<u32> = RegisterArray::new("lazy", 4096, 176);
        assert_eq!((r.len(), charged(&r)), (4096, (4096 * 176, 2)));
        assert!(!r.is_empty());
        r.write(4097, 5); // wraps to 1 against the configured size
        assert_eq!((r.len(), charged(&r)), (4096, (4096 * 176, 2)));
        assert_eq!(r.read(1), 5);
    }

    #[test]
    fn clear_resets_every_cell() {
        let mut r: RegisterArray<u32> = RegisterArray::new("x", 32, 32);
        for i in 0..32 {
            r.read_modify_write(i, |v| v + i as u32 + 1);
        }
        r.clear();
        assert_eq!(r.len(), 32);
        for i in 0..32 {
            assert_eq!(r.read(i), 0, "index {i}");
        }
        // The storage comes back on the next write.
        assert_eq!(r.read_modify_write(3, |v| v + 7), 0);
        assert_eq!(r.read(3), 7);
    }

    #[test]
    fn zero_size_array_stays_a_no_op() {
        let mut r: RegisterArray<u32> = RegisterArray::new("z", 0, 32);
        assert!(r.is_empty());
        // Must not panic even with no cells.
        r.write(5, 9);
        assert_eq!(r.read_modify_write(5, |_| 9), 0);
        assert_eq!(r.read(5), 0);
        assert_eq!((r.len(), charged(&r).0), (0, 0));
        r.clear();
        assert!(r.is_empty());
    }
}
