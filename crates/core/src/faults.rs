//! Deterministic fault injection and end-to-end event accounting.
//!
//! NetSeer's core promise (§3.5–§3.6) is *lossless* event reporting: every
//! generated event either reaches the backend or is deliberately shed at a
//! bounded, counted choke point. The happy path exercises none of that.
//! This module provides two things:
//!
//! 1. [`FaultPlan`] — a seeded, schedulable description of every failure
//!    mode the reporting pipeline crosses: burst (Gilbert–Elliott) loss and
//!    partitions on the management network, loss of the redundant
//!    inter-switch loss notifications, CEBP recirculation and PCIe stalls,
//!    switch-CPU overload windows, and — the integrity fault domain —
//!    seeded byte corruption of CEBP reports, notification copies, and
//!    torn WAL tail-writes on hard crashes. The same plan + seed
//!    reproduces the same run bit-for-bit.
//!
//! 2. [`DeliveryLedger`] — the pipeline-wide accounting invariant:
//!    `generated == delivered + shed + pending + buffered +
//!    lost_to_crash + corrupted + malformed`, where every shed event is
//!    attributed to a named choke point. Any imbalance is a silent-loss
//!    bug. Ledgers add with `+=` and [`Sum`](std::iter::Sum), the one
//!    place the terms are summed.
//!
//! The plan is pure data ([`Clone`], [`Default`]); per-concern runtime
//! state (Gilbert–Elliott channel state, RNG streams) lives in
//! `LossGen` instances derived from the plan so that independent
//! subsystems draw from independent, reproducible streams.

use fet_netsim::rng::Pcg32;

pub use fet_netsim::clockfault::{ClockSpec, DeviceClock};
pub use fet_netsim::corrupt::{CorruptionGen, CorruptionSpec, CorruptionTally};

/// A half-open time window `[start_ns, end_ns)` during which a scheduled
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Fault activates at this time (inclusive), ns.
    pub start_ns: u64,
    /// Fault clears at this time (exclusive), ns.
    pub end_ns: u64,
}

impl Window {
    /// Is `t` inside the window?
    pub(crate) fn contains(&self, t: u64) -> bool {
        self.start_ns <= t && t < self.end_ns
    }
}

/// Returns the end of the first window containing `t`, if any — i.e. when
/// a stalled operation may resume.
pub(crate) fn stall_release(windows: &[Window], t: u64) -> Option<u64> {
    windows.iter().filter(|w| w.contains(t)).map(|w| w.end_ns).max()
}

/// True when `t` falls inside any of the windows.
pub(crate) fn in_any_window(windows: &[Window], t: u64) -> bool {
    windows.iter().any(|w| w.contains(t))
}

/// A stochastic loss process for one link or message class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossProcess {
    /// No loss.
    #[default]
    None,
    /// Independent per-attempt loss with probability `p`.
    Bernoulli {
        /// Loss probability per attempt, `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss: a good state with rare loss
    /// and a bad state with heavy loss, with geometric sojourn times.
    GilbertElliott {
        /// P(good → bad) per attempt.
        p_enter_bad: f64,
        /// P(bad → good) per attempt.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

/// Runtime state of one [`LossProcess`]: owns an independent RNG stream
/// so two subsystems never perturb each other's draws.
#[derive(Debug, Clone)]
pub(crate) struct LossGen {
    process: LossProcess,
    rng: Pcg32,
    in_bad: bool,
}

impl LossGen {
    /// Instantiate a process with an independent stream.
    pub(crate) fn new(process: LossProcess, seed: u64, stream: u64) -> Self {
        LossGen { process, rng: Pcg32::new(seed, stream), in_bad: false }
    }

    /// Decide one attempt: true = the attempt is lost.
    pub(crate) fn lose(&mut self) -> bool {
        match self.process {
            LossProcess::None => false,
            LossProcess::Bernoulli { p } => self.rng.chance(p.clamp(0.0, 1.0)),
            LossProcess::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                // State transition first, then the loss draw in the new state.
                if self.in_bad {
                    if self.rng.chance(p_exit_bad) {
                        self.in_bad = false;
                    }
                } else if self.rng.chance(p_enter_bad) {
                    self.in_bad = true;
                }
                let p = if self.in_bad { loss_bad } else { loss_good };
                self.rng.chance(p.clamp(0.0, 1.0))
            }
        }
    }
}

/// How a component dies.
///
/// The distinction is the fsync watermark: a clean stop flushes the
/// recovery WAL before exiting, a hard kill loses whatever was appended
/// after the last fsync (see [`crate::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Orderly shutdown: the WAL tail is fsynced before the process exits,
    /// so replay restores the pre-crash pending state exactly.
    Clean,
    /// Power-pull / SIGKILL: the un-fsynced WAL tail is lost and the
    /// events it covered become `lost_to_crash` — bounded by the
    /// checkpoint/fsync cadence, never silent.
    Hard,
}

/// One scheduled switch-CPU crash: the device's monitor dies at `at_ns`
/// and restarts (recovering from its checkpoint + WAL) at `restart_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCrash {
    /// The device (node id) whose switch CPU dies.
    pub device: u32,
    /// Kill time, ns.
    pub at_ns: u64,
    /// Restart time, ns (must be > `at_ns`).
    pub restart_ns: u64,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
}

/// One scheduled collector (backend) crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorCrash {
    /// Kill time, ns.
    pub at_ns: u64,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
}

/// Generate a seeded crash schedule that kills (and restarts) every listed
/// device exactly once, with kill times drawn uniformly from
/// `[window.start_ns, window.end_ns)` on the `streams::CRASH` RNG stream.
/// The same seed reproduces the same schedule bit-for-bit.
pub fn seeded_device_crashes(
    seed: u64,
    devices: &[u32],
    window: Window,
    down_ns: u64,
    kind: CrashKind,
) -> Vec<DeviceCrash> {
    let span = window.end_ns.saturating_sub(window.start_ns).max(1);
    devices
        .iter()
        .map(|&device| {
            let mut rng = Pcg32::new(seed ^ (u64::from(device) << 17), streams::CRASH);
            let at_ns = window.start_ns + rng.next_u64() % span;
            DeviceCrash { device, at_ns, restart_ns: at_ns + down_ns.max(1), kind }
        })
        .collect()
}

/// A CPU overload window: per-event processing cost is multiplied by
/// `factor` while active (models the event cores being stolen by other
/// control-plane work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadWindow {
    /// When the overload is active.
    pub window: Window,
    /// Per-event cost multiplier (≥ 1.0).
    pub factor: f64,
}

/// The complete, seeded fault schedule for one device's reporting pipeline.
///
/// `FaultPlan::default()` injects nothing; every field is independent so a
/// drill can compose exactly the failure modes it wants.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed; every subsystem derives an independent stream from it.
    pub seed: u64,
    /// Stochastic loss on the management network (switch CPU → backend).
    pub mgmt_loss: LossProcess,
    /// Hard partitions of the management network: every transmission
    /// attempted inside a window is lost, regardless of `mgmt_loss`.
    pub mgmt_partitions: Vec<Window>,
    /// Loss applied independently to each redundant inter-switch loss
    /// notification copy on its way back upstream.
    pub notification_loss: LossProcess,
    /// Windows during which CEBP recirculation stalls (internal-port
    /// arbitration loss, recirculation-queue backpressure).
    pub cebp_stalls: Vec<Window>,
    /// Windows during which the PCIe channel to the switch CPU stalls
    /// (DMA engine busy, doorbell backpressure).
    pub pcie_stalls: Vec<Window>,
    /// Switch-CPU overload windows.
    pub cpu_overload: Vec<OverloadWindow>,
    /// Byte damage applied to each CEBP report frame on its way to the
    /// collector (drawn on `streams::CEBP_CORRUPT`). The CRC-32C trailer
    /// detects it; the transport treats the failure as an implicit NACK and
    /// retransmits, so only a retry-budget exhaustion turns into the
    /// ledger's terminal `corrupted` count.
    pub cebp_corruption: CorruptionSpec,
    /// Byte damage applied to each emitted loss-notification copy (drawn
    /// on `streams::NOTIF_CORRUPT`). Damaged copies fail the notification
    /// CRC at the upstream monitor and are counted, not parsed.
    pub notification_corruption: CorruptionSpec,
    /// Torn tail-write damage applied to the un-fsynced WAL region on a
    /// hard crash (drawn on `streams::WAL_CORRUPT`). Replay stops at the
    /// first record whose per-record CRC fails instead of deserializing
    /// garbage. Inactive spec = the whole un-fsynced tail is lost (the
    /// pre-integrity model).
    pub torn_wal: CorruptionSpec,
    /// Per-device virtual clock faults (offset/drift/step/freeze, drawn
    /// on `fet_netsim::clockfault::CLOCK_STREAM`). Local clocks rewrite *recorded stamps*
    /// only — event stamps, WAL/snapshot stamps, heartbeat readings —
    /// while simulator global time stays the ordering authority, so the
    /// generated event set and serial/parallel determinism are untouched.
    /// Inactive spec = identity clocks, zero RNG draws.
    pub clock: ClockSpec,
}

/// RNG stream ids, one per concern, so streams never collide. Clock
/// faults draw on `fet_netsim::clockfault::CLOCK_STREAM`.
pub mod streams {
    /// Management-network loss draws (inside `ReliableChannel`).
    pub(crate) const MGMT: u64 = 0x4d47;
    /// Notification-copy loss draws (inside `NetSeerMonitor`).
    pub(crate) const NOTIFICATION: u64 = 0x4e4f;
    /// Crash-schedule draws ([`super::seeded_device_crashes`]).
    pub(crate) const CRASH: u64 = 0x4352;
    /// CEBP report-frame byte damage (inside `NetSeerMonitor`).
    pub(crate) const CEBP_CORRUPT: u64 = 0x4345;
    /// Notification-copy byte damage (inside `NetSeerMonitor`).
    pub(crate) const NOTIF_CORRUPT: u64 = 0x434e;
    /// Torn-WAL tail damage on hard crash (inside `RecoveryLog`).
    pub(crate) const WAL_CORRUPT: u64 = 0x4357;
    /// Torn spill-segment tail damage on a collector hard kill (inside
    /// `SpillStore`).
    pub const SPILL_CORRUPT: u64 = 0x4350;
}

/// Reporting priority of an event type under shedding pressure: higher is
/// kept longer. Per the paper's triage order, packet-loss events are the
/// most actionable (drops > congestion/pause > path-change).
pub(crate) fn event_priority(ty: fet_packet::event::EventType) -> u8 {
    use fet_packet::event::EventType;
    match ty {
        EventType::PipelineDrop | EventType::MmuDrop | EventType::InterSwitchDrop => 2,
        EventType::Congestion | EventType::Pause => 1,
        EventType::PathChange => 0,
    }
}

/// The end-to-end accounting snapshot for one monitor's reporting pipeline.
///
/// Invariant: `generated == delivered + shed_total() + pending + buffered +
/// lost_to_crash + corrupted + malformed`. The pipeline may legitimately
/// hold events in flight (`pending`), park them in the collector's durable
/// spill buffer (`buffered`), shed them at a counted choke point, lose a
/// bounded tail to a hard crash, lose a batch to unrecoverable wire
/// corruption, or refuse undecodable wire-ingest records (`malformed`) —
/// but it must never lose one silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryLedger {
    /// Event records handed to the reporting path (post-dedup).
    pub generated: u64,
    /// Events that reached the backend (or a NIC's local log).
    pub delivered: u64,
    /// Shed: in-pipeline stack overflow.
    pub shed_stack: u64,
    /// Shed: PCIe rejection.
    pub shed_pcie: u64,
    /// Shed: CPU overload controller.
    pub shed_cpu_overload: u64,
    /// Shed: CPU false-positive elimination (deliberate).
    pub shed_false_positive: u64,
    /// Shed: transport retry budget exhausted.
    pub shed_transport: u64,
    /// Events still in flight (batcher stack + open CEBP).
    pub pending: u64,
    /// Events parked in the collector's durable spill buffer: delivered to
    /// the backend host but not yet applied to the queryable store (the
    /// collector was past its memory watermark and wrote them to disk
    /// instead of shedding). They drain to `delivered` as the backlog
    /// clears; see `netseer::spill`.
    pub buffered: u64,
    /// Events lost to a hard kill: they were pending when the un-fsynced
    /// WAL tail vanished, so replay could not resurrect them. Bounded by
    /// the checkpoint/fsync window; 0 for clean stops.
    pub lost_to_crash: u64,
    /// Events whose report batch failed its CRC-32C trailer on every
    /// transmission attempt (implicit-NACK retransmits included) — the
    /// poison copies are quarantined at the collector, never silently
    /// dropped, and the terminal count lands here.
    pub corrupted: u64,
    /// Wire-ingest records an exporter claimed but the collector could not
    /// decode: truncated record tails, count lies, data sets referencing
    /// unknown templates. The offending datagrams are quarantined with a
    /// per-reason breakdown (`netseer::wire`); the terminal record count
    /// lands here. Always 0 for simulator-born events.
    pub malformed: u64,
}

impl DeliveryLedger {
    /// Total events shed across all categories.
    pub fn shed_total(&self) -> u64 {
        self.shed_stack
            + self.shed_pcie
            + self.shed_cpu_overload
            + self.shed_false_positive
            + self.shed_transport
    }

    /// Everything a generated event is allowed to have become.
    fn accounted(&self) -> u64 {
        self.delivered
            + self.shed_total()
            + self.pending
            + self.buffered
            + self.lost_to_crash
            + self.corrupted
            + self.malformed
    }

    /// Does the exactly-once-or-counted invariant hold?
    /// `generated == delivered + shed + pending + buffered + lost_to_crash
    /// + corrupted + malformed`, across any number of crash/restart cycles.
    pub fn balanced(&self) -> bool {
        self.generated == self.accounted()
    }

    /// Events unaccounted for (0 on a healthy pipeline). A positive value
    /// means silent loss; negative (reported as 0 here, see `surplus`)
    /// would mean double delivery.
    pub fn missing(&self) -> u64 {
        self.generated.saturating_sub(self.accounted())
    }

    /// Events delivered or shed beyond what was generated (double counting).
    pub(crate) fn surplus(&self) -> u64 {
        self.accounted().saturating_sub(self.generated)
    }

    /// Panic with a full breakdown unless the invariant holds.
    pub fn assert_balanced(&self) {
        assert!(
            self.balanced(),
            "delivery ledger imbalance (silent loss or double count): {self:?} \
             missing={} surplus={}",
            self.missing(),
            self.surplus()
        );
    }
}

/// Term-by-term sum. The destructure is exhaustive on purpose: a new
/// ledger term fails to compile here until it is summed, so no fleet or
/// merged ledger can silently drop it.
impl std::ops::AddAssign for DeliveryLedger {
    fn add_assign(&mut self, rhs: Self) {
        let DeliveryLedger {
            generated,
            delivered,
            shed_stack,
            shed_pcie,
            shed_cpu_overload,
            shed_false_positive,
            shed_transport,
            pending,
            buffered,
            lost_to_crash,
            corrupted,
            malformed,
        } = rhs;
        self.generated += generated;
        self.delivered += delivered;
        self.shed_stack += shed_stack;
        self.shed_pcie += shed_pcie;
        self.shed_cpu_overload += shed_cpu_overload;
        self.shed_false_positive += shed_false_positive;
        self.shed_transport += shed_transport;
        self.pending += pending;
        self.buffered += buffered;
        self.lost_to_crash += lost_to_crash;
        self.corrupted += corrupted;
        self.malformed += malformed;
    }
}

impl std::iter::Sum for DeliveryLedger {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut acc, l| {
            acc += l;
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::EventType;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::default();
        let mut g = LossGen::new(p.mgmt_loss, 1, streams::MGMT);
        assert!((0..1000).all(|_| !g.lose()));
        assert!(!in_any_window(&p.mgmt_partitions, 0));
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window { start_ns: 10, end_ns: 20 };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }

    #[test]
    fn stall_release_picks_latest_cover() {
        let ws = [Window { start_ns: 0, end_ns: 100 }, Window { start_ns: 50, end_ns: 300 }];
        assert_eq!(stall_release(&ws, 60), Some(300));
        assert_eq!(stall_release(&ws, 10), Some(100));
        assert_eq!(stall_release(&ws, 400), None);
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let mut g = LossGen::new(LossProcess::Bernoulli { p: 0.3 }, 7, 1);
        let losses = (0..100_000).filter(|_| g.lose()).count();
        assert!((28_000..32_000).contains(&losses), "losses {losses}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Equal overall loss mass, but GE concentrates losses into runs.
        let ge = LossProcess::GilbertElliott {
            p_enter_bad: 0.01,
            p_exit_bad: 0.1,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mut g = LossGen::new(ge, 11, 2);
        let outcomes: Vec<bool> = (0..200_000).map(|_| g.lose()).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 5_000, "GE should lose packets: {losses}");
        // Burstiness: P(loss | previous loss) far above the marginal rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        let marginal = losses as f64 / outcomes.len() as f64;
        assert!(cond > marginal * 3.0, "conditional loss {cond:.3} vs marginal {marginal:.3}");
    }

    #[test]
    fn same_seed_same_stream() {
        let ge = LossProcess::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.2,
            loss_good: 0.01,
            loss_bad: 0.8,
        };
        let a: Vec<bool> = {
            let mut g = LossGen::new(ge, 99, 3);
            (0..1000).map(|_| g.lose()).collect()
        };
        let b: Vec<bool> = {
            let mut g = LossGen::new(ge, 99, 3);
            (0..1000).map(|_| g.lose()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn priorities_follow_paper_triage() {
        assert!(event_priority(EventType::PipelineDrop) > event_priority(EventType::Congestion));
        assert!(event_priority(EventType::MmuDrop) > event_priority(EventType::PathChange));
        assert!(event_priority(EventType::InterSwitchDrop) > event_priority(EventType::Pause));
        assert!(event_priority(EventType::Congestion) > event_priority(EventType::PathChange));
    }

    #[test]
    fn ledger_balance_and_breakdown() {
        let mut l = DeliveryLedger { generated: 100, delivered: 80, ..Default::default() };
        assert!(!l.balanced());
        assert_eq!(l.missing(), 20);
        l.shed_stack = 5;
        l.shed_transport = 10;
        l.pending = 5;
        l.assert_balanced();
        assert_eq!(l.shed_total(), 15);
        l.delivered += 1; // double delivery must also trip the invariant
        assert!(!l.balanced());
        assert_eq!(l.surplus(), 1);
    }

    /// `k` times a ledger whose 12 terms are distinct and non-zero, so a
    /// dropped or crossed term in the algebra shows up as a wrong value.
    fn every_term_ledger(k: u64) -> DeliveryLedger {
        DeliveryLedger {
            generated: k,
            delivered: 2 * k,
            shed_stack: 3 * k,
            shed_pcie: 4 * k,
            shed_cpu_overload: 5 * k,
            shed_false_positive: 6 * k,
            shed_transport: 7 * k,
            pending: 8 * k,
            buffered: 9 * k,
            lost_to_crash: 10 * k,
            corrupted: 11 * k,
            malformed: 12 * k,
        }
    }

    #[test]
    fn ledger_add_assign_and_sum_cover_every_term() {
        let one = every_term_ledger(1);
        let mut doubled = one;
        doubled += one;
        assert_eq!(doubled, every_term_ledger(2));
        assert_eq!([one; 3].into_iter().sum::<DeliveryLedger>(), every_term_ledger(3));
        assert_eq!(std::iter::empty().sum::<DeliveryLedger>(), DeliveryLedger::default());
    }

    #[test]
    fn ledger_counts_corruption_separately() {
        let l = DeliveryLedger {
            generated: 100,
            delivered: 90,
            pending: 3,
            lost_to_crash: 4,
            corrupted: 3,
            ..Default::default()
        };
        l.assert_balanced();
        assert_eq!(l.missing(), 0);
        let silent = DeliveryLedger {
            generated: 100,
            delivered: 90,
            pending: 3,
            lost_to_crash: 4,
            ..Default::default()
        };
        assert_eq!(silent.missing(), 3, "uncounted corruption must show as silent loss");
    }

    #[test]
    fn corruption_plan_defaults_inactive() {
        let p = FaultPlan::default();
        assert!(!p.cebp_corruption.is_active());
        assert!(!p.notification_corruption.is_active());
        assert!(!p.torn_wal.is_active());
        assert!(!p.clock.is_active());
        assert!(DeviceClock::new(&p.clock, p.seed, 9).is_identity());
    }

    #[test]
    fn ledger_counts_crash_losses_separately() {
        let l = DeliveryLedger {
            generated: 100,
            delivered: 90,
            pending: 4,
            lost_to_crash: 6,
            ..Default::default()
        };
        l.assert_balanced();
        assert_eq!(l.missing(), 0);
        let silent = DeliveryLedger { generated: 100, delivered: 94, ..Default::default() };
        assert_eq!(silent.missing(), 6, "without lost_to_crash the same run shows silent loss");
    }

    #[test]
    fn ledger_counts_malformed_separately() {
        let l = DeliveryLedger {
            generated: 100,
            delivered: 88,
            pending: 2,
            malformed: 10,
            ..Default::default()
        };
        l.assert_balanced();
        assert_eq!(l.missing(), 0);
        let silent =
            DeliveryLedger { generated: 100, delivered: 88, pending: 2, ..Default::default() };
        assert_eq!(silent.missing(), 10, "uncounted malformed records must show as silent loss");
    }

    #[test]
    fn ledger_counts_buffered_separately() {
        let l = DeliveryLedger {
            generated: 100,
            delivered: 80,
            pending: 5,
            buffered: 15,
            ..Default::default()
        };
        l.assert_balanced();
        assert_eq!(l.missing(), 0);
        let silent =
            DeliveryLedger { generated: 100, delivered: 80, pending: 5, ..Default::default() };
        assert_eq!(silent.missing(), 15, "spill-resident events must be accounted as buffered");
    }

    #[test]
    fn seeded_crash_schedule_is_deterministic_and_in_window() {
        let w = Window { start_ns: 1_000, end_ns: 9_000 };
        let devices = [3u32, 7, 11];
        let a = seeded_device_crashes(0xABCD, &devices, w, 500, CrashKind::Hard);
        let b = seeded_device_crashes(0xABCD, &devices, w, 500, CrashKind::Hard);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), devices.len());
        for c in &a {
            assert!(w.contains(c.at_ns), "kill inside the window: {c:?}");
            assert_eq!(c.restart_ns, c.at_ns + 500);
            assert_eq!(c.kind, CrashKind::Hard);
        }
        // Devices get independent draws, not the same offset.
        assert!(a.windows(2).any(|p| p[0].at_ns != p[1].at_ns));
        let c = seeded_device_crashes(0xABCE, &devices, w, 500, CrashKind::Hard);
        assert_ne!(a, c, "different seeds should perturb the schedule");
    }
}
