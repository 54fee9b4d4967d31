//! PDP resource accounting — regenerates the paper's Figure 7.
//!
//! Every emulated primitive (register array, hash unit, action) charges
//! its usage here under a module label, so the bench harness can print
//! both the overall resource picture (Fig. 7a) and the per-NetSeer-module
//! breakdown (Fig. 7b). A stateful structure is
//! [declared](ResourceLedger::declare): the one call charges its SRAM and
//! stateful ALUs and records it for the stage placement
//! ([`crate::layout::place`]), so the two cannot disagree.

use crate::layout::Placement;
use std::collections::BTreeMap;

/// Resource classes of a Tofino-like ASIC (the y-axis of Figure 7a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Exact-match crossbar input bits.
    ExactXbar,
    /// Ternary crossbar input bits.
    TernaryXbar,
    /// Hash generator output bits.
    HashBits,
    /// SRAM storage bits.
    SramBits,
    /// TCAM storage bits.
    TcamBits,
    /// Very-long-instruction-word action slots.
    VliwActions,
    /// Stateful ALU instances.
    StatefulAlu,
    /// Packet-header-vector bits.
    PhvBits,
}

/// All resource kinds, for iteration.
pub const ALL_RESOURCE_KINDS: [ResourceKind; 8] = [
    ResourceKind::ExactXbar,
    ResourceKind::TernaryXbar,
    ResourceKind::HashBits,
    ResourceKind::SramBits,
    ResourceKind::TcamBits,
    ResourceKind::VliwActions,
    ResourceKind::StatefulAlu,
    ResourceKind::PhvBits,
];

impl ResourceKind {
    /// Human-readable name matching the paper's axis labels.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::ExactXbar => "Exact xbar",
            ResourceKind::TernaryXbar => "Ternary xbar",
            ResourceKind::HashBits => "Hash bits",
            ResourceKind::SramBits => "SRAM",
            ResourceKind::TcamBits => "TCAM",
            ResourceKind::VliwActions => "VLIW actions",
            ResourceKind::StatefulAlu => "Stateful ALU",
            ResourceKind::PhvBits => "PHV",
        }
    }
}

/// Capacity profile of a device.
#[derive(Debug, Clone, Copy)]
pub struct CapacityProfile {
    /// Capacity per resource kind, indexed in `ALL_RESOURCE_KINDS` order.
    pub capacity: [u64; 8],
}

/// A Tofino-32D-like budget. Absolute numbers are approximations from
/// public Tofino literature (12 stages × per-stage resources); what matters
/// for Figure 7 is the *fraction* each module consumes, which our charges
/// are calibrated against.
pub const TOFINO_32D: CapacityProfile = CapacityProfile {
    capacity: [
        12 * 128 * 8,             // ExactXbar: 128 bytes/stage
        12 * 66 * 8,              // TernaryXbar: 66 bytes/stage
        12 * 5184,                // HashBits
        12 * 80 * 128 * 1024 * 8, // SramBits: 80 blocks x 128KB... (see note)
        12 * 24 * 44 * 512,       // TcamBits: 24 TCAM blocks of 44b x 512
        12 * 32,                  // VliwActions: 32 slots/stage
        12 * 4,                   // StatefulAlu: 4 meter/stateful ALUs per stage
        4096 * 8,                 // PhvBits: 4KB PHV
    ],
};

fn kind_index(kind: ResourceKind) -> usize {
    ALL_RESOURCE_KINDS.iter().position(|&k| k == kind).expect("kind in table")
}

/// Aggregates charges per (module, resource kind).
#[derive(Debug, Clone)]
pub struct ResourceLedger {
    profile: CapacityProfile,
    used: BTreeMap<(&'static str, ResourceKind), u64>,
    /// Declared stateful structures, in declaration (pipeline) order.
    placements: Vec<Placement>,
}

impl ResourceLedger {
    /// Create a ledger against a device profile.
    pub fn new(profile: CapacityProfile) -> Self {
        ResourceLedger { profile, used: BTreeMap::new(), placements: Vec::new() }
    }

    /// Declare a stateful structure of `module`: `cells` cells of
    /// `cell_bits`, read and written by `alus_per_stage` stateful ALUs in
    /// every stage its cell width spans. Charges `cells × cell_bits` of
    /// SRAM and `stages × alus_per_stage` stateful ALUs, and records the
    /// structure for the stage placement.
    pub fn declare(
        &mut self,
        module: &'static str,
        name: &'static str,
        cells: u64,
        cell_bits: u32,
        alus_per_stage: u32,
    ) {
        let p = Placement { module, name, cell_bits, alus_per_stage };
        self.charge(module, ResourceKind::SramBits, cells * u64::from(cell_bits));
        self.charge(module, ResourceKind::StatefulAlu, u64::from(p.alus()));
        self.placements.push(p);
    }

    /// Every declared stateful structure, in declaration order: the input
    /// of [`crate::layout::place`].
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Charge `amount` units of `kind` to `module`.
    pub fn charge(&mut self, module: &'static str, kind: ResourceKind, amount: u64) {
        *self.used.entry((module, kind)).or_insert(0) += amount;
    }

    /// Total usage of one resource kind across modules.
    pub(crate) fn used(&self, kind: ResourceKind) -> u64 {
        self.used.iter().filter(|((_, k), _)| *k == kind).map(|(_, v)| *v).sum()
    }

    /// Usage of one resource kind by one module.
    pub fn used_by(&self, module: &str, kind: ResourceKind) -> u64 {
        self.used.iter().filter(|((m, k), _)| *m == module && *k == kind).map(|(_, v)| *v).sum()
    }

    /// Fraction (0..=1+) of the device capacity consumed for `kind`.
    pub fn usage_fraction(&self, kind: ResourceKind) -> f64 {
        let cap = self.profile.capacity[kind_index(kind)];
        if cap == 0 {
            return 0.0;
        }
        self.used(kind) as f64 / cap as f64
    }

    /// Fraction of device capacity consumed by one module for `kind`.
    pub fn usage_fraction_by(&self, module: &str, kind: ResourceKind) -> f64 {
        let cap = self.profile.capacity[kind_index(kind)];
        if cap == 0 {
            return 0.0;
        }
        self.used_by(module, kind) as f64 / cap as f64
    }

    /// All module labels that charged anything.
    pub fn modules(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.used.keys().map(|(m, _)| *m).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True if any resource kind is over 100% of capacity — the emulator's
    /// equivalent of "does not fit on the chip".
    pub fn over_budget(&self) -> bool {
        ALL_RESOURCE_KINDS.iter().any(|&k| self.usage_fraction(k) > 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_module() {
        let mut l = ResourceLedger::new(TOFINO_32D);
        l.charge("dedup", ResourceKind::SramBits, 100);
        l.charge("dedup", ResourceKind::SramBits, 50);
        l.charge("batch", ResourceKind::SramBits, 25);
        assert_eq!(l.used(ResourceKind::SramBits), 175);
        assert_eq!(l.used_by("dedup", ResourceKind::SramBits), 150);
        assert_eq!(l.used_by("batch", ResourceKind::SramBits), 25);
        assert_eq!(l.used_by("nothing", ResourceKind::SramBits), 0);
    }

    #[test]
    fn fractions_respect_capacity() {
        let mut l = ResourceLedger::new(TOFINO_32D);
        let cap = TOFINO_32D.capacity[kind_index(ResourceKind::StatefulAlu)];
        l.charge("x", ResourceKind::StatefulAlu, cap / 2);
        assert!((l.usage_fraction(ResourceKind::StatefulAlu) - 0.5).abs() < 1e-9);
        assert!(!l.over_budget());
        l.charge("x", ResourceKind::StatefulAlu, cap);
        assert!(l.over_budget());
    }

    #[test]
    fn declare_charges_and_records_in_order() {
        let mut l = ResourceLedger::new(TOFINO_32D);
        l.declare("isw", "ring", 4096, 137, 2);
        l.declare("isw", "seq", 0, 32, 1);
        assert_eq!(l.used_by("isw", ResourceKind::SramBits), 4096 * 137);
        // 137 bits span two stages at two ALUs each, plus one.
        assert_eq!(l.used_by("isw", ResourceKind::StatefulAlu), 5);
        let names: Vec<&str> = l.placements().iter().map(|p| p.name).collect();
        assert_eq!(names, ["ring", "seq"]);
    }

    #[test]
    fn modules_listing() {
        let mut l = ResourceLedger::new(TOFINO_32D);
        l.charge("b", ResourceKind::SramBits, 1);
        l.charge("a", ResourceKind::TcamBits, 1);
        l.charge("a", ResourceKind::SramBits, 1);
        assert_eq!(l.modules(), vec!["a", "b"]);
    }

    #[test]
    fn labels_cover_all_kinds() {
        for k in ALL_RESOURCE_KINDS {
            assert!(!k.label().is_empty());
        }
    }
}
