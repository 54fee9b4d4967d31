//! Liveness supervision for switch-CPU monitor processes.
//!
//! The paper's switch-CPU component (§3.6) is a single point of silence: if
//! the process wedges — a stuck lock, a hung driver call — it stops
//! draining CEBPs, stops checkpointing, and stops reporting, while the data
//! plane keeps forwarding as if nothing were wrong. Crash faults
//! ([`schedule_device_crashes`](crate::recovery::schedule_device_crashes))
//! model a process that *dies*; this module models one that *hangs*.
//!
//! The watchdog samples every supervised monitor's heartbeat counter on a
//! fixed cadence. A monitor whose heartbeat freezes for
//! [`missed_beats`](WatchdogConfig::missed_beats) consecutive checks is
//! declared **suspect**: the watchdog hard-kills it (a wedged process
//! cannot flush its WAL tail, so the kill is `CrashKind::Hard`) and
//! schedules a restart through the normal recovery path — checkpoint + WAL
//! replay, transport reconnect under a new epoch, neighbor gap-detector
//! re-base. Every supervision action is recorded as an [`Incident`].
//!
//! The state machine per monitor:
//!
//! ```text
//! healthy --heartbeat frozen--> stalled(n) --n == missed_beats--> suspect
//!    ^                              |                                |
//!    |                          heartbeat                        hard kill
//!    |                           advanced                      + restart at
//!    |                              v                          +restart_delay
//!    +--------------------------- healthy <----- restarted ---------+
//! ```
//!
//! Checks are pre-scheduled simulator controls, so the whole protocol is
//! deterministic under a seed and bit-identical across
//! `run_until_parallel` shard counts (controls always run serially on the
//! master thread, and a control may schedule further controls).

use crate::deploy::{monitor_of, netseer_mut};
use crate::faults::CrashKind;
use crate::recovery::{restart_in_place, CrashReport};
use fet_netsim::engine::Simulator;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Supervision policy.
///
/// Liveness is **counter-primary**: the watchdog compares heartbeat
/// *counters*, never heartbeat *timestamps*, so a monitor whose local
/// clock drifts, steps, or freezes can never be declared suspect while
/// its control loop still ticks — zero false positives at any drift, by
/// construction. Local-clock stamps are sampled purely for observability
/// (see [`WatchdogLog::max_abs_skew_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Heartbeat sampling cadence, ns.
    pub check_interval_ns: u64,
    /// Consecutive frozen-heartbeat checks before a monitor is suspect.
    pub missed_beats: u32,
    /// Delay between the hard kill and the supervised restart, ns.
    pub restart_delay_ns: u64,
    /// Clock-skew observability threshold, ns: a healthy monitor whose
    /// local heartbeat stamp deviates from global time by more than this
    /// is *flagged* in the log ([`WatchdogLog::drift_flagged`]) — an
    /// operator signal, never a kill reason.
    pub drift_tolerance_ns: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            check_interval_ns: 500 * fet_netsim::MICROS,
            missed_beats: 2,
            restart_delay_ns: 100 * fet_netsim::MICROS,
            drift_tolerance_ns: fet_netsim::MILLIS,
        }
    }
}

/// One supervision incident: a monitor declared suspect and restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// The silent device.
    pub device: u32,
    /// When the watchdog declared it suspect (and hard-killed it), ns.
    pub(crate) declared_ns: u64,
    /// The heartbeat value it was frozen at.
    pub(crate) stuck_heartbeat: u64,
    /// When the supervised restart fired, ns.
    pub(crate) restart_ns: u64,
}

/// Shared handle to the watchdog's incident and restart records. The
/// supervision actions run inside the simulator, so results surface here
/// after `run_until`.
#[derive(Debug, Clone, Default)]
pub struct WatchdogLog {
    incidents: Arc<Mutex<Vec<Incident>>>,
    restarts: Arc<Mutex<Vec<CrashReport>>>,
    skew: Arc<Mutex<SkewStats>>,
}

/// Clock-skew observability accumulated across all checks.
#[derive(Debug, Clone, Copy, Default)]
struct SkewStats {
    max_abs_ns: u64,
    flagged: u64,
}

impl WatchdogLog {
    /// All incidents, in declaration order.
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents.lock().unwrap().clone()
    }

    /// Crash reports of the supervised restarts, in restart order.
    pub fn restarts(&self) -> Vec<CrashReport> {
        self.restarts.lock().unwrap().clone()
    }

    /// The largest `|local heartbeat stamp - global check time|` observed
    /// across every sampled monitor — how wrong the fleet's clocks got.
    pub fn max_abs_skew_ns(&self) -> u64 {
        self.skew.lock().unwrap().max_abs_ns
    }

    /// Checks where a healthy monitor's skew exceeded
    /// [`WatchdogConfig::drift_tolerance_ns`]. An operator signal only:
    /// flagged monitors are never killed for drift.
    pub fn drift_flagged(&self) -> u64 {
        self.skew.lock().unwrap().flagged
    }
}

/// Per-monitor supervision state.
#[derive(Debug, Clone, Copy, Default)]
struct Tracked {
    last_beat: u64,
    stalls: u32,
}

/// Script a wedge fault: at `at_ns` the device's control loop hangs — the
/// heartbeat freezes, batches pile up and shed, checkpoints stop — until a
/// (watchdog-driven) restart clears it.
pub fn schedule_wedge(sim: &mut Simulator, device: u32, at_ns: u64) {
    sim.schedule_control(at_ns, move |s| {
        if let Some(ns) = netseer_mut(s, device) {
            ns.wedge();
        }
    });
}

/// Supervise `devices` with heartbeat checks every
/// [`check_interval_ns`](WatchdogConfig::check_interval_ns) until
/// `until_ns`. Call after [`deploy`](crate::deploy::deploy) and before
/// `run_until`; size the horizon so a late incident's restart (declared +
/// [`restart_delay_ns`](WatchdogConfig::restart_delay_ns)) still fits.
pub fn schedule_watchdog(
    sim: &mut Simulator,
    devices: &[u32],
    cfg: WatchdogConfig,
    until_ns: u64,
) -> WatchdogLog {
    assert!(cfg.missed_beats > 0, "a zero-tolerance watchdog would kill healthy monitors");
    let log = WatchdogLog::default();
    let tracked: Arc<Mutex<HashMap<u32, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));

    let interval = cfg.check_interval_ns.max(1);
    let devices: Arc<Vec<u32>> = Arc::new(devices.to_vec());
    let mut check_at = interval;
    while check_at <= until_ns {
        let tracked = Arc::clone(&tracked);
        let devices = Arc::clone(&devices);
        let incidents = Arc::clone(&log.incidents);
        let restarts = Arc::clone(&log.restarts);
        let skew_stats = Arc::clone(&log.skew);
        sim.schedule_control(check_at, move |s| {
            for &device in devices.iter() {
                // A down monitor (crashed, or already suspect) has no
                // heartbeat to sample; its restart resets the tracker.
                let Some(ns) = netseer_mut(s, device).filter(|ns| !ns.is_down()) else {
                    continue;
                };
                let beat = ns.heartbeat;
                // Observability only: record how far the monitor's local
                // clock has wandered from the supervisor's. Liveness below
                // compares counters, so skew can never cause a kill.
                let skew_ns = ns.clock().skew_at(check_at).unsigned_abs();
                {
                    let mut st = skew_stats.lock().unwrap();
                    st.max_abs_ns = st.max_abs_ns.max(skew_ns);
                    if skew_ns > cfg.drift_tolerance_ns {
                        st.flagged += 1;
                    }
                }
                {
                    let mut map = tracked.lock().unwrap();
                    let t = map.entry(device).or_insert(Tracked { last_beat: beat, stalls: 0 });
                    if beat == t.last_beat {
                        t.stalls += 1;
                    } else {
                        *t = Tracked { last_beat: beat, stalls: 0 };
                    }
                    if t.stalls < cfg.missed_beats {
                        continue;
                    }
                }
                // Suspect: hard-kill now (a hung process flushes nothing)
                // and schedule the supervised restart.
                let restart_ns = check_at + cfg.restart_delay_ns.max(1);
                ns.crash(CrashKind::Hard, check_at);
                incidents.lock().unwrap().push(Incident {
                    device,
                    declared_ns: check_at,
                    stuck_heartbeat: beat,
                    restart_ns,
                });

                let tracked = Arc::clone(&tracked);
                let restarts = Arc::clone(&restarts);
                s.schedule_control(restart_ns, move |s| {
                    if let Some(report) = restart_in_place(s, device, check_at, restart_ns) {
                        restarts.lock().unwrap().push(report);
                        // Fresh baseline: supervision resumes from the
                        // restarted process's first heartbeat.
                        let beat = monitor_of(s, device).heartbeat;
                        tracked
                            .lock()
                            .unwrap()
                            .insert(device, Tracked { last_beat: beat, stalls: 0 });
                    }
                });
            }
        });
        check_at += interval;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = WatchdogConfig::default();
        assert!(cfg.check_interval_ns > 0);
        assert!(cfg.missed_beats > 0);
        assert!(cfg.restart_delay_ns > 0);
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = WatchdogLog::default();
        assert!(log.incidents().is_empty());
        assert!(log.restarts().is_empty());
    }
}
