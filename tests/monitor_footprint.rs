//! Host memory a NetSeer monitor commits, and the Figure 7 ledger it
//! charges for the same state.
//!
//! The register arrays (six 4096-entry group caches, the 8192-entry path
//! table, the per-port rings) are charged to the resource ledger at their
//! configured size, but the host stores their cells only once something
//! writes them, and the per-port tables keep only the ports in use. Before
//! that rule a fresh monitor allocated 782,480 B, switch or NIC alike, and
//! `deploy` on the 84-device `fleet_parallel` tree allocated 65,989,148 B.
//! These tests bound both, and pin the ledger to the values it had when
//! every cell was stored up front, so storing cells on first write can
//! never move a Figure 7 number. The stage placement is computed from the
//! structures that same ledger declared.

use fet_bench::counting_alloc::{allocated_bytes, CountingAlloc};
use fet_bench::tag_ports;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::MICROS;
use fet_netsim::topology::{build_fat_tree, FatTreeParams};
use fet_netsim::Simulator;
use fet_pdp::resources::{ResourceKind, ALL_RESOURCE_KINDS};
use fet_pdp::{place, TOFINO_PIPELINE};
use netseer::deploy::{deploy, DeployOptions};
use netseer::{NetSeerConfig, NetSeerMonitor, Role};
use std::sync::Mutex;
use ResourceKind::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocator counts every thread; the tests in this file take turns
/// so one's allocations never land in another's measurement.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes allocated while running `f`, and its result.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocated_bytes();
    let out = f();
    (allocated_bytes() - before, out)
}

/// Every non-zero `(module, kind, amount)` charge, modules ascending.
fn ledger_rows(m: &NetSeerMonitor) -> Vec<(&'static str, ResourceKind, u64)> {
    let ledger = m.resource_usage();
    let mut rows = Vec::new();
    for module in ledger.modules() {
        for kind in ALL_RESOURCE_KINDS {
            let used = ledger.used_by(module, kind);
            if used > 0 {
                rows.push((module, kind, used));
            }
        }
    }
    rows
}

#[test]
fn fresh_monitor_and_deploy_commit_only_touched_state() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const MONITOR_BOUND: u64 = 16 << 10;
    const DEPLOY_BOUND: u64 = 2 << 20;
    for role in [Role::Switch, Role::Nic] {
        let (bytes, m) = measure(|| NetSeerMonitor::new(0, role, NetSeerConfig::default()));
        println!("fresh {role:?} monitor: {bytes} B");
        assert!(bytes <= MONITOR_BOUND, "fresh {role:?} monitor allocated {bytes} B");
        drop(m);
    }

    // The `fleet_parallel` tree: 4 pods, 20 switches and 64 hosts, with a
    // monitor on every switch and NIC.
    let mut sim = Simulator::new();
    let params = FatTreeParams {
        pods: 4,
        cores: 4,
        hosts_per_edge: 8,
        prop_ns: 5 * MICROS,
        ..FatTreeParams::default()
    };
    build_fat_tree(&mut sim, &params);
    install_ecmp_routes(&mut sim);
    let devices = sim.switch_ids().len() + sim.host_ids().len();
    let (bytes, ()) = measure(|| {
        deploy(&mut sim, &DeployOptions { cfg: NetSeerConfig::default(), on_nics: true })
    });
    println!("deploy on {devices} devices: {bytes} B");
    assert_eq!(devices, 84);
    assert!(bytes <= DEPLOY_BOUND, "deploy allocated {bytes} B on {devices} devices");
}

/// Figure 7 charges of a fresh default switch monitor, as computed when
/// every register cell was stored up front.
const FRESH: &[(&str, ResourceKind, u64)] = &[
    ("batching", SramBits, 98304),
    ("batching", VliwActions, 10),
    ("batching", StatefulAlu, 4),
    ("batching", PhvBits, 224),
    ("dedup", HashBits, 192),
    ("dedup", SramBits, 4325376),
    ("dedup", VliwActions, 12),
    ("dedup", StatefulAlu, 12),
    ("event-detection", ExactXbar, 104),
    ("event-detection", HashBits, 32),
    ("event-detection", SramBits, 991744),
    ("event-detection", VliwActions, 12),
    ("event-detection", StatefulAlu, 2),
    ("event-detection", PhvBits, 160),
    ("inter-switch", VliwActions, 8),
    ("inter-switch", StatefulAlu, 6),
    ("inter-switch", PhvBits, 48),
    ("switch.p4", ExactXbar, 3686),
    ("switch.p4", TernaryXbar, 1774),
    ("switch.p4", HashBits, 15552),
    ("switch.p4", SramBits, 352321536),
    ("switch.p4", TcamBits, 2076180),
    ("switch.p4", VliwActions, 115),
    ("switch.p4", StatefulAlu, 3),
    ("switch.p4", PhvBits, 13107),
];

#[test]
fn figure7_ledger_golden() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    assert_eq!(ledger_rows(&m), FRESH);
    // Four tagged egress ports add their rings' SRAM (4 x 1024 slots x
    // 137 bits) and nothing else.
    tag_ports(&mut m, 0..4);
    let mut tagged = FRESH.to_vec();
    tagged.insert(14, ("inter-switch", SramBits, 561_152));
    assert_eq!(ledger_rows(&m), tagged);
}

/// The stateful structures the ledger declared fit the pipeline, and each
/// NetSeer module's placed structures hold exactly the stateful ALUs the
/// ledger charged it, so the §3.5 stage claim rests on the charged state.
#[test]
fn netseer_program_fits_tofino() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default());
    tag_ports(&mut m, 0..32);
    let ledger = m.resource_usage();
    let layout = place(TOFINO_PIPELINE, ledger.placements()).expect("NetSeer fits 12 stages");
    // The depth README and EXPERIMENTS quote: 7 of 12 stages.
    assert_eq!(layout.depth(), 7);
    for module in ["event-detection", "inter-switch", "dedup", "batching"] {
        let charged = ledger.used_by(module, StatefulAlu);
        assert!(charged > 0, "{module} declares no stateful structure");
        assert_eq!(layout.alus_of(module), charged, "{module}: placed vs charged ALUs");
    }
    // One 24 B (192-bit) stack record already exceeds one stage's register
    // width: the constraint §3.5 cites for circulating batch packets.
    let stack = ledger.placements().iter().find(|p| p.name == "event-stack").expect("declared");
    assert_eq!(stack.stages(), 2);
}
