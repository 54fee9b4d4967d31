//! Flat, cache-friendly replacements for the per-packet `HashMap`s in the
//! monitor hot path.
//!
//! A hardware pipeline indexes register arrays by port number and by event
//! type — it never hashes. Mirroring that, `PortTable` is keyed directly
//! by the `u8` port through a 256-entry position index and
//! [`DedupTable`] is a 6-slot array keyed by the [`EventType`]
//! discriminant. Both turn the per-packet map lookups (hash + probe +
//! possible allocation) into a bounds-free index, which is what lets the
//! steady-state packet path run without touching the allocator.

use crate::dedup::GroupCache;
use fet_packet::event::{EventType, ALL_EVENT_TYPES};

/// Sparse per-port state addressed directly by the `u8` port number.
///
/// Drop-in replacement for `HashMap<u8, T>` on the hot path: `get` /
/// `get_mut` are one indexed load through a 256-entry port → position
/// index, and iteration is in ascending port order (so scrapes that used
/// to sort after collecting from a map are naturally sorted). State is
/// stored densely, so a table holds only the ports in use.
#[derive(Debug)]
pub(crate) struct PortTable<T> {
    /// One past each port's position in `entries`; 0 means absent. `u16`
    /// so all 256 ports can be present at once.
    index: [u16; 256],
    /// Occupied ports and their state, sorted by port.
    entries: Vec<(u8, T)>,
}

impl<T> Default for PortTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PortTable<T> {
    /// An empty table (no heap until the first port is inserted).
    pub(crate) fn new() -> Self {
        PortTable { index: [0; 256], entries: Vec::new() }
    }

    #[inline]
    fn position(&self, port: u8) -> Option<usize> {
        usize::from(self.index[usize::from(port)]).checked_sub(1)
    }

    /// State for `port`, if present.
    #[inline]
    pub(crate) fn get(&self, port: u8) -> Option<&T> {
        self.position(port).map(|i| &self.entries[i].1)
    }

    /// Mutable state for `port`, if present.
    #[inline]
    pub(crate) fn get_mut(&mut self, port: u8) -> Option<&mut T> {
        self.position(port).map(|i| &mut self.entries[i].1)
    }

    /// State for `port`, created with `make` on first touch.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, port: u8, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.position(port) {
            Some(i) => i,
            None => self.insert(port, make()),
        };
        &mut self.entries[i].1
    }

    /// Insert a new port in sorted position and re-point the index of
    /// every entry at or after it. Returns the new entry's position. Out
    /// of line: a port is inserted once, then looked up per packet.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, port: u8, value: T) -> usize {
        let pos = self.entries.partition_point(|&(p, _)| p < port);
        self.entries.insert(pos, (port, value));
        for (i, &(p, _)) in self.entries.iter().enumerate().skip(pos) {
            self.index[usize::from(p)] = i as u16 + 1;
        }
        pos
    }

    /// The `i`-th occupied port in ascending order (`i < len()`): lets a
    /// caller walk the occupied ports while mutably borrowing their owner.
    pub(crate) fn port_at(&self, i: usize) -> u8 {
        self.entries[i].0
    }

    /// Occupied ports, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u8, &T)> {
        self.entries.iter().map(|(p, t)| (*p, t))
    }

    /// Occupied ports with mutable state, ascending.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u8, &mut T)> {
        self.entries.iter_mut().map(|(p, t)| (*p, t))
    }

    /// Occupied slots, ascending port order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// Occupied slots, mutable, ascending port order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().map(|(_, t)| t)
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The six per-event-type group caches as a flat array indexed by the
/// [`EventType`] discriminant (replaces `HashMap<EventType, GroupCache>`).
#[derive(Debug)]
pub struct DedupTable {
    caches: [GroupCache; 6],
}

#[inline]
fn idx(ty: EventType) -> usize {
    ty as usize
}

impl DedupTable {
    /// Build the table, constructing each type's cache with `make`.
    pub(crate) fn build(mut make: impl FnMut(EventType) -> GroupCache) -> Self {
        DedupTable { caches: ALL_EVENT_TYPES.map(&mut make) }
    }

    /// The cache for an event type (always present).
    #[inline]
    pub(crate) fn get(&self, ty: EventType) -> &GroupCache {
        &self.caches[idx(ty)]
    }

    /// The mutable cache for an event type (always present).
    #[inline]
    pub(crate) fn get_mut(&mut self, ty: EventType) -> &mut GroupCache {
        &mut self.caches[idx(ty)]
    }

    /// All caches in discriminant order.
    pub fn values(&self) -> impl Iterator<Item = &GroupCache> {
        self.caches.iter()
    }

    /// All caches, mutable, in discriminant order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut GroupCache> {
        self.caches.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_table_basic() {
        let mut t: PortTable<u32> = PortTable::new();
        assert_eq!(t.len(), 0);
        assert!(t.get(7).is_none());
        *t.get_or_insert_with(7, || 1) += 10;
        *t.get_or_insert_with(3, || 2) += 20;
        // An existing entry is kept; `make` never runs.
        *t.get_or_insert_with(7, || panic!("existing entry must be kept")) += 100;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(7), Some(&111));
        assert_eq!(t.get_mut(3).copied(), Some(22));
        assert_eq!(t.get(0), None);
        let pairs: Vec<(u8, u32)> = t.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(pairs, vec![(3, 22), (7, 111)], "ascending port order");
        assert_eq!(t.values().count(), 2);
        for v in t.values_mut() {
            *v = 0;
        }
        assert_eq!(t.get(3), Some(&0));
    }

    #[test]
    fn port_table_out_of_order_inserts_iterate_ascending() {
        let mut t: PortTable<u32> = PortTable::new();
        for port in [255u8, 0, 7, 3] {
            t.get_or_insert_with(port, || u32::from(port) * 10);
        }
        let pairs: Vec<(u8, u32)> = t.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(pairs, vec![(0, 0), (3, 30), (7, 70), (255, 2550)]);
        let ports: Vec<u8> = (0..t.len()).map(|i| t.port_at(i)).collect();
        assert_eq!(ports, vec![0, 3, 7, 255]);
        for port in [255u8, 0, 7, 3] {
            assert_eq!(t.get(port), Some(&(u32::from(port) * 10)), "port {port}");
        }
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(254), None);
    }

    #[test]
    fn port_table_holds_all_256_ports() {
        let mut t: PortTable<u16> = PortTable::new();
        // Descending order: every insert shifts every later entry.
        for port in (0..=255u8).rev() {
            *t.get_or_insert_with(port, || 0) += u16::from(port) + 1;
        }
        assert_eq!(t.len(), 256);
        for port in 0..=255u8 {
            assert_eq!(t.get(port), Some(&(u16::from(port) + 1)), "port {port}");
            *t.get_mut(port).expect("present") += 1000;
        }
        assert!(t.iter().map(|(p, &v)| (p, v)).eq((0..=255u8).map(|p| (p, u16::from(p) + 1001))));
    }

    #[test]
    fn dedup_table_indexes_every_type() {
        let mut t = DedupTable::build(|ty| GroupCache::new("t", 8, 128, ty as u32));
        for ty in ALL_EVENT_TYPES {
            t.get_mut(ty).offered += 1;
        }
        for ty in ALL_EVENT_TYPES {
            assert_eq!(t.get(ty).offered, 1, "{ty:?}");
        }
        assert_eq!(t.values().count(), 6);
    }
}
