//! Match-action tables: exact match, longest-prefix match, and ternary
//! (ACL) tables with resource accounting.

use crate::resources::{ResourceKind, ResourceLedger};
use fet_packet::ipv4::Ipv4Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Error returned when an exact table is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("table at capacity")
    }
}

impl std::error::Error for TableFull {}

/// An exact-match table mapping fixed keys to actions.
///
/// Hardware realizes these in SRAM with a hash scheme; the emulator uses a
/// `HashMap` but charges SRAM for `capacity` entries of the declared key and
/// action width, and refuses inserts beyond capacity — the control plane
/// would get the same error from the driver.
#[derive(Debug, Clone)]
pub struct ExactTable<K: Eq + std::hash::Hash + Clone, A: Clone> {
    name: &'static str,
    map: HashMap<K, A>,
    capacity: usize,
    key_bits: u32,
    action_bits: u32,
}

impl<K: Eq + std::hash::Hash + Clone, A: Clone> ExactTable<K, A> {
    /// Create a table with an entry budget.
    pub fn new(name: &'static str, capacity: usize, key_bits: u32, action_bits: u32) -> Self {
        ExactTable { name, map: HashMap::new(), capacity, key_bits, action_bits }
    }

    /// Insert an entry; `Err(TableFull)` when the table is full.
    pub fn insert(&mut self, key: K, action: A) -> Result<(), TableFull> {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            return Err(TableFull);
        }
        self.map.insert(key, action);
        Ok(())
    }

    /// Look up an entry.
    pub fn lookup(&self, key: &K) -> Option<&A> {
        self.map.get(key)
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<A> {
        self.map.remove(key)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Charge SRAM + exact crossbar to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        let bits = u64::from(self.key_bits + self.action_bits) * self.capacity as u64;
        ledger.charge(module, ResourceKind::SramBits, bits);
        ledger.charge(module, ResourceKind::ExactXbar, u64::from(self.key_bits));
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Longest-prefix-match routing table over IPv4 destinations.
///
/// Routes live in one exact map per prefix length, longest length first,
/// so a lookup probes one map per length in use instead of masking every
/// route in turn. The fat-trees install only /32s: one probe.
#[derive(Debug, Clone, Default)]
pub struct LpmTable<A: Clone> {
    /// `(prefix_len, masked prefix → action)` by descending length; no
    /// map is empty.
    by_len: Vec<(u8, PrefixMap<A>)>,
}

/// The routes of one prefix length, by masked prefix.
type PrefixMap<A> = HashMap<u32, A, BuildHasherDefault<PrefixHasher>>;

impl<A: Clone> LpmTable<A> {
    /// Empty table.
    pub fn new() -> Self {
        LpmTable { by_len: Vec::new() }
    }

    /// Insert a route `addr/len -> action`. Replaces an identical prefix.
    pub fn insert(&mut self, addr: Ipv4Addr, len: u8, action: A) {
        assert!(len <= 32);
        let at = match self.by_len.binary_search_by(|(l, _)| len.cmp(l)) {
            Ok(at) => at,
            Err(at) => {
                self.by_len.insert(at, (len, HashMap::default()));
                at
            }
        };
        self.by_len[at].1.insert(mask(addr.as_u32(), len), action);
    }

    /// Remove a route, returning its action.
    pub fn remove(&mut self, addr: Ipv4Addr, len: u8) -> Option<A> {
        let at = self.by_len.binary_search_by(|(l, _)| len.cmp(l)).ok()?;
        let action = self.by_len[at].1.remove(&mask(addr.as_u32(), len))?;
        if self.by_len[at].1.is_empty() {
            self.by_len.remove(at);
        }
        Some(action)
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&A> {
        let a = addr.as_u32();
        self.by_len.iter().find_map(|(len, routes)| routes.get(&mask(a, *len)))
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.by_len.iter().map(|(_, routes)| routes.len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_len.is_empty()
    }

    /// Charge TCAM usage (32-bit key + action) to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::TcamBits, 64 * self.len() as u64);
        ledger.charge(module, ResourceKind::TernaryXbar, 32);
    }
}

/// Hashes a route prefix with one multiply. Prefixes come from the
/// control plane, not from traffic, so SipHash's flood resistance buys
/// nothing here and would cost more than the probe itself.
#[derive(Debug, Default, Clone, Copy)]
struct PrefixHasher(u64);

impl Hasher for PrefixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, i: u32) {
        let h = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn mask(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - u32::from(len)))
    }
}

/// ACL verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclAction {
    /// Pass the packet on.
    Permit,
    /// Drop it; the rule id feeds NetSeer's per-ACL-rule aggregation.
    Deny,
}

/// One ternary ACL rule over the 5-tuple. `None` fields are wildcards.
#[derive(Debug, Clone)]
pub struct AclRule {
    /// Rule identifier used for drop aggregation (paper §3.4).
    pub rule_id: u32,
    /// Priority: lower value = higher priority.
    pub priority: u32,
    /// Source prefix (addr, len).
    pub src: Option<(Ipv4Addr, u8)>,
    /// Destination prefix (addr, len).
    pub dst: Option<(Ipv4Addr, u8)>,
    /// Exact source port.
    pub sport: Option<u16>,
    /// Exact destination port.
    pub dport: Option<u16>,
    /// Exact protocol number.
    pub proto: Option<u8>,
    /// Verdict.
    pub action: AclAction,
}

impl AclRule {
    /// A permit-everything rule.
    pub fn permit_all(rule_id: u32, priority: u32) -> Self {
        AclRule {
            rule_id,
            priority,
            src: None,
            dst: None,
            sport: None,
            dport: None,
            proto: None,
            action: AclAction::Permit,
        }
    }

    fn matches(&self, flow: &fet_packet::FlowKey) -> bool {
        let pfx = |want: &Option<(Ipv4Addr, u8)>, have: Ipv4Addr| match want {
            None => true,
            Some((a, l)) => mask(have.as_u32(), *l) == mask(a.as_u32(), *l),
        };
        pfx(&self.src, flow.src)
            && pfx(&self.dst, flow.dst)
            && self.sport.is_none_or(|p| p == flow.sport)
            && self.dport.is_none_or(|p| p == flow.dport)
            && self.proto.is_none_or(|p| p == flow.proto.number())
    }
}

/// Priority-ordered ternary ACL table.
#[derive(Debug, Clone, Default)]
pub struct AclTable {
    rules: Vec<AclRule>,
}

impl AclTable {
    /// Empty table.
    pub fn new() -> Self {
        AclTable { rules: Vec::new() }
    }

    /// Install a rule (stable sort by priority).
    pub fn install(&mut self, rule: AclRule) {
        self.rules.push(rule);
        self.rules.sort_by_key(|r| r.priority);
    }

    /// Remove a rule by id.
    pub fn remove(&mut self, rule_id: u32) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.rule_id != rule_id);
        self.rules.len() != before
    }

    /// Evaluate a flow; returns the matching rule's (verdict, rule_id).
    /// No match ⇒ implicit permit with rule id 0.
    pub fn evaluate(&self, flow: &fet_packet::FlowKey) -> (AclAction, u32) {
        for r in &self.rules {
            if r.matches(flow) {
                return (r.action, r.rule_id);
            }
        }
        (AclAction::Permit, 0)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Charge TCAM usage (104-bit 5-tuple key) to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::TcamBits, 104 * self.rules.len() as u64);
        ledger.charge(module, ResourceKind::TernaryXbar, 104);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::FlowKey;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::from_octets([a, b, c, d])
    }

    #[test]
    fn exact_table_capacity_enforced() {
        let mut t: ExactTable<u32, u32> = ExactTable::new("t", 2, 32, 8);
        t.insert(1, 10).unwrap();
        t.insert(2, 20).unwrap();
        assert!(t.insert(3, 30).is_err());
        // Replacing an existing key is fine at capacity.
        t.insert(1, 11).unwrap();
        assert_eq!(t.lookup(&1), Some(&11));
        assert_eq!(t.remove(&2), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "coarse");
        t.insert(ip(10, 1, 0, 0), 16, "fine");
        t.insert(ip(0, 0, 0, 0), 0, "default");
        assert_eq!(t.lookup(ip(10, 1, 2, 3)), Some(&"fine"));
        assert_eq!(t.lookup(ip(10, 9, 2, 3)), Some(&"coarse"));
        assert_eq!(t.lookup(ip(192, 168, 0, 1)), Some(&"default"));
    }

    #[test]
    fn lpm_matches_naive_longest_prefix_scan() {
        // Random route sets (re-inserted prefixes overwrite, some routes
        // are removed again) probed with random addresses, route
        // addresses, and one-bit neighbours of route addresses. For one
        // address the longest matching length fixes the masked prefix, so
        // the winning action is unique.
        let naive_mask = |a: u32, l: u8| u32::MAX.checked_shl(32 - u32::from(l)).unwrap_or(0) & a;
        let mut rng = fet_netsim::rng::Pcg32::new(0x1F3_7AB1E, 1);
        for _ in 0..200 {
            let mut t: LpmTable<u32> = LpmTable::new();
            let mut routes: Vec<(u32, u8, u32)> = Vec::new();
            let mut addrs: Vec<u32> = Vec::new();
            for action in 0..rng.next_below(40) {
                if !routes.is_empty() && rng.next_below(4) == 0 {
                    let i = rng.next_below(routes.len() as u32) as usize;
                    let (prefix, len, action) = routes.swap_remove(i);
                    assert_eq!(t.remove(Ipv4Addr::from_u32(prefix), len), Some(action));
                    assert_eq!(t.remove(Ipv4Addr::from_u32(prefix), len), None);
                    continue;
                }
                let addr = 0x0a00_0000 | (rng.next_u32() >> 8);
                let len = rng.next_below(33) as u8;
                t.insert(Ipv4Addr::from_u32(addr), len, action);
                let prefix = naive_mask(addr, len);
                routes.retain(|&(p, l, _)| (p, l) != (prefix, len));
                routes.push((prefix, len, action));
                addrs.push(addr);
            }
            assert_eq!(t.len(), routes.len());
            for _ in 0..50 {
                let probe = match (rng.next_below(3), addrs.is_empty()) {
                    (0, _) | (_, true) => rng.next_u32(),
                    (1, false) => addrs[rng.next_below(addrs.len() as u32) as usize],
                    _ => {
                        addrs[rng.next_below(addrs.len() as u32) as usize]
                            ^ (1 << rng.next_below(32))
                    }
                };
                let want = routes
                    .iter()
                    .filter(|&&(p, l, _)| naive_mask(probe, l) == p)
                    .max_by_key(|&&(_, l, _)| l)
                    .map(|&(_, _, a)| a);
                assert_eq!(t.lookup(Ipv4Addr::from_u32(probe)).copied(), want, "probe {probe:#x}");
            }
        }
    }

    #[test]
    fn lpm_remove_creates_blackhole() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "r");
        assert_eq!(t.remove(ip(10, 0, 0, 0), 8), Some("r"));
        assert_eq!(t.lookup(ip(10, 1, 2, 3)), None);
    }

    #[test]
    fn lpm_replace_same_prefix() {
        let mut t: LpmTable<u8> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, 1);
        t.insert(ip(10, 0, 0, 0), 8, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip(10, 5, 5, 5)), Some(&2));
    }

    #[test]
    fn acl_priority_and_wildcards() {
        let mut acl = AclTable::new();
        acl.install(AclRule {
            rule_id: 7,
            priority: 10,
            src: Some((ip(10, 0, 0, 0), 24)),
            dst: None,
            sport: None,
            dport: Some(22),
            proto: None,
            action: AclAction::Deny,
        });
        acl.install(AclRule::permit_all(1, 100));

        let ssh = FlowKey::tcp(ip(10, 0, 0, 5), 999, ip(10, 9, 9, 9), 22);
        let web = FlowKey::tcp(ip(10, 0, 0, 5), 999, ip(10, 9, 9, 9), 80);
        let other = FlowKey::tcp(ip(10, 0, 1, 5), 999, ip(10, 9, 9, 9), 22);
        assert_eq!(acl.evaluate(&ssh), (AclAction::Deny, 7));
        assert_eq!(acl.evaluate(&web), (AclAction::Permit, 1));
        assert_eq!(acl.evaluate(&other), (AclAction::Permit, 1));
    }

    #[test]
    fn acl_empty_permits() {
        let acl = AclTable::new();
        let f = FlowKey::tcp(ip(1, 1, 1, 1), 1, ip(2, 2, 2, 2), 2);
        assert_eq!(acl.evaluate(&f), (AclAction::Permit, 0));
    }

    #[test]
    fn acl_remove() {
        let mut acl = AclTable::new();
        acl.install(AclRule::permit_all(5, 1));
        assert!(acl.remove(5));
        assert!(!acl.remove(5));
        assert!(acl.is_empty());
    }

    #[test]
    fn mask_zero_len() {
        assert_eq!(mask(0xdead_beef, 0), 0);
        assert_eq!(mask(0xdead_beef, 32), 0xdead_beef);
        assert_eq!(mask(0xdead_beef, 16), 0xdead_0000);
    }
}
