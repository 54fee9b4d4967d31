//! The benchmark's own tests: every workload passes a tiny run, a seed
//! reproduces its deterministic metrics bit for bit (run to run, traced
//! vs untraced, serial vs 2 shards), another seed changes the inputs, and
//! the metric catalogue matches `BENCHMARK.json`.

use fet_perfbench::fleet::{run_rep, shard_invariant, Fleet};
use fet_perfbench::ingest::{run_session, schedule, Load, Payload};
use fet_perfbench::layers::{per_layer, END_TO_END};
use fet_perfbench::trace::Tracer;
use std::time::Instant;

fn shard_invariant_det(det: &[(&'static str, f64, &'static str)]) -> Vec<(&'static str, u64)> {
    det.iter().filter(|(n, _, _)| shard_invariant(n)).map(|&(n, v, _)| (n, v.to_bits())).collect()
}

#[test]
fn fleet_workloads_pass_a_tiny_run_and_repeat_exactly() {
    for fleet in [Fleet::Faulted, Fleet::Sharded] {
        let size = fleet.tiny();
        let a = run_rep(fleet, 7, &size, fleet.shards(), &mut Tracer::off(), None);
        assert!(a.checks.ok(), "{fleet:?}: {:?}", a.checks.failures());
        assert!(a.pkts > 0);
        let b = run_rep(fleet, 7, &size, fleet.shards(), &mut Tracer::off(), None);
        assert_eq!(a.det, b.det, "{fleet:?}: same seed, different deterministic metrics");
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}

#[test]
fn traced_and_untraced_runs_deliver_the_same_stream() {
    let fleet = Fleet::Faulted;
    let size = fleet.tiny();
    let plain = run_rep(fleet, 11, &size, 1, &mut Tracer::off(), None);
    let base = Instant::now();
    let mut tr = Tracer::on(base);
    let traced = run_rep(fleet, 11, &size, 1, &mut tr, Some(base));
    assert!(traced.checks.ok(), "{:?}", traced.checks.failures());
    assert_eq!(plain.fingerprint, traced.fingerprint);
    assert_eq!(plain.det, traced.det);
    assert!(traced.hooks.calls.iter().sum::<u64>() > 0, "the wrapper saw no hook calls");
    assert!(!tr.spans().is_empty());
}

#[test]
fn two_shards_deliver_the_serial_stream_and_ledger() {
    let fleet = Fleet::Sharded;
    let size = fleet.tiny();
    let serial = run_rep(fleet, 5, &size, 1, &mut Tracer::off(), None);
    let sharded = run_rep(fleet, 5, &size, 2, &mut Tracer::off(), None);
    assert!(sharded.checks.ok(), "{:?}", sharded.checks.failures());
    assert_eq!(shard_invariant_det(&serial.det), shard_invariant_det(&sharded.det));
    assert_eq!(serial.fingerprint, sharded.fingerprint, "delivered stream differs");
    // The hook-timing wrapper is Send and works on the sharded executor.
    let base = Instant::now();
    let traced = run_rep(fleet, 5, &size, 2, &mut Tracer::on(base), Some(base));
    assert_eq!(serial.fingerprint, traced.fingerprint);
}

#[test]
fn another_seed_changes_the_inputs() {
    let fleet = Fleet::Faulted;
    let size = fleet.tiny();
    let a = run_rep(fleet, 1, &size, 1, &mut Tracer::off(), None);
    let b = run_rep(fleet, 2, &size, 1, &mut Tracer::off(), None);
    assert_ne!(a.fingerprint, b.fingerprint);
    let load = Load::tiny();
    let bytes = |seed| -> Vec<Vec<u8>> {
        schedule(seed, &load)
            .into_iter()
            .filter_map(|i| match i.payload {
                Payload::Datagram(d) => Some(d),
                _ => None,
            })
            .collect()
    };
    assert_eq!(bytes(1), bytes(1));
    assert_ne!(bytes(1), bytes(2));
}

#[test]
fn collector_workload_passes_a_tiny_session_and_repeats_exactly() {
    let load = Load::tiny();
    let inputs = schedule(3, &load);
    let a = run_session(&inputs, &load, &mut Tracer::off());
    assert!(a.checks.ok(), "{:?}", a.checks.failures());
    assert!(a.inputs > 0 && a.work.datagrams > 0);
    let b = run_session(&inputs, &load, &mut Tracer::on(Instant::now()));
    assert!(b.checks.ok(), "{:?}", b.checks.failures());
    assert_eq!(a.det, b.det);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    let count = |section: &str| {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end].matches("\"name\"").count()
    };
    assert_eq!(count("end_to_end"), END_TO_END.len());
    assert_eq!(count("per_layer"), per_layer().len());
    for (name, unit) in END_TO_END {
        assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
    for (name, unit) in per_layer() {
        assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
}
