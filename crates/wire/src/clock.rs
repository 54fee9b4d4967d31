//! Exporter clock vetting: the collector never trusts a wire timestamp.
//!
//! NetFlow/IPFIX headers carry three clock claims — a sysuptime (u32
//! milliseconds since exporter boot, wrapping every ~49.7 days), an export
//! wall-clock time, and per-record first/last-switched uptimes. All three
//! are attacker-controlled bytes, and even honest exporters drift, step,
//! and wrap. The rules here are:
//!
//! * the **collector's receive time is authoritative** — a header export
//!   time is accepted as the datagram's event time only when it is
//!   plausible (not in the future beyond [`FUTURE_SLACK_SECS`], not
//!   running backwards against the same stream's previous claim), and
//!   even a plausible claim never stamps later than the receive time;
//! * an implausible claim is a **soft** defect, never fatal: the datagram
//!   still decodes, its event time is clamped to the receive time, and the
//!   lie is counted under exactly one [`ClockLie`] bucket;
//! * a **zero** time field is the long-standing "not set" convention and
//!   is treated as absent — no lie, event time falls back to receive time;
//! * per-record durations use [`uptime_delta_ms`], which is wrap-aware: a
//!   flow straddling the 2^32 ms sysuptime wrap has a small, correct
//!   delta, while a genuinely backwards pair shows up as an implausibly
//!   huge one and is booked [`ClockLie::ImplausibleDuration`].

/// Ways an exporter's clock claims can lie. Disjoint from
/// [`RejectReason`](crate::RejectReason): clock lies are always soft (the
/// datagram decodes; only its timestamps are distrusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClockLie {
    /// Export time ahead of the collector's clock beyond the slack.
    FutureExport,
    /// Export time behind the same stream's previous claim.
    BackwardsExport,
    /// Sysuptime frozen across [`FROZEN_RUN`]+ datagrams while export
    /// continues — the exporter's tick source is dead.
    FrozenSysuptime,
    /// A record's wrap-aware first→last switched delta exceeds
    /// [`MAX_FLOW_DURATION_MS`] (usually last < first without a wrap).
    ImplausibleDuration,
}

/// Number of distinct clock-lie kinds; sizes per-kind counter arrays.
pub const CLOCK_LIE_COUNT: usize = 4;

/// Every clock-lie kind, in `index()` order.
pub const ALL_CLOCK_LIES: [ClockLie; CLOCK_LIE_COUNT] = [
    ClockLie::FutureExport,
    ClockLie::BackwardsExport,
    ClockLie::FrozenSysuptime,
    ClockLie::ImplausibleDuration,
];

impl ClockLie {
    /// Stable dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            ClockLie::FutureExport => 0,
            ClockLie::BackwardsExport => 1,
            ClockLie::FrozenSysuptime => 2,
            ClockLie::ImplausibleDuration => 3,
        }
    }

    /// Human-readable label for printed counters and scrape lines.
    pub fn as_str(self) -> &'static str {
        match self {
            ClockLie::FutureExport => "future-export",
            ClockLie::BackwardsExport => "backwards-export",
            ClockLie::FrozenSysuptime => "frozen-sysuptime",
            ClockLie::ImplausibleDuration => "implausible-duration",
        }
    }
}

impl core::fmt::Display for ClockLie {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Export times this far ahead of the collector clock are still plausible
/// (clock granularity is whole seconds, so one second of skew is noise):
/// not booked as a lie, but stamped at the receive time.
pub const FUTURE_SLACK_SECS: u64 = 1;

/// Consecutive identical nonzero sysuptimes before the stream's tick
/// source is declared frozen.
pub const FROZEN_RUN: u32 = 3;

/// Longest believable single-flow duration. Routers expire flows after
/// minutes; an hour-plus delta means the first/last pair is garbage, not
/// a long flow.
pub const MAX_FLOW_DURATION_MS: u32 = 3_600_000;

/// Wrap-aware sysuptime delta: milliseconds from `first` to `last` on the
/// u32 millisecond clock. A flow straddling the ~49.7-day wrap (`first`
/// near `u32::MAX`, `last` small) yields the small true delta; a
/// genuinely backwards pair yields a huge one the caller rejects via
/// [`MAX_FLOW_DURATION_MS`].
pub fn uptime_delta_ms(first: u32, last: u32) -> u32 {
    last.wrapping_sub(first)
}

/// Per-stream clock-vetting state. Bounded exactly like sequence
/// tracking: it lives in the session's LRU-evicted stream map.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockState {
    /// Last accepted nonzero export time (seconds).
    pub last_export_secs: u32,
    /// Last seen nonzero sysuptime (ms).
    pub last_sysuptime_ms: u32,
    /// Consecutive datagrams with an identical nonzero sysuptime.
    pub frozen_run: u32,
}

/// The verdict on one datagram's clock claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockVerdict {
    /// The authoritative event time for the datagram's records, ns: the
    /// exporter's export time when plausible (capped at the receive time),
    /// else the receive time.
    pub event_time_ns: u64,
    /// Lies found, by [`ClockLie::index`].
    pub lies: [u64; CLOCK_LIE_COUNT],
    /// 1 if the export time was present but distrusted (clamped to the
    /// receive time).
    pub clamped: u64,
}

impl ClockState {
    /// Vet one datagram's header clock claims against this stream's
    /// history and the collector's receive time. `export_secs` and
    /// `sysuptime_ms` are 0 when the wire did not carry them.
    pub fn vet(&mut self, export_secs: u32, sysuptime_ms: u32, now_ns: u64) -> ClockVerdict {
        let mut v = ClockVerdict { event_time_ns: now_ns, ..Default::default() };
        if export_secs != 0 {
            let export_ns = u64::from(export_secs).saturating_mul(1_000_000_000);
            let now_secs = now_ns / 1_000_000_000;
            if u64::from(export_secs) > now_secs + FUTURE_SLACK_SECS {
                v.lies[ClockLie::FutureExport.index()] += 1;
                v.clamped = 1;
            } else if self.last_export_secs != 0 && export_secs < self.last_export_secs {
                v.lies[ClockLie::BackwardsExport.index()] += 1;
                v.clamped = 1;
            } else {
                // An in-slack claim is honest-enough granularity, not a
                // lie, but it must never stamp events ahead of the receive
                // clock: a future stamp would jump the event-time
                // watermark and late-shed everything after it.
                v.event_time_ns = export_ns.min(now_ns);
            }
            // The stream's history advances even past a lie: a backwards
            // step is booked once, not once per subsequent datagram.
            self.last_export_secs = self.last_export_secs.max(export_secs);
        }
        if sysuptime_ms != 0 {
            if sysuptime_ms == self.last_sysuptime_ms {
                self.frozen_run = self.frozen_run.saturating_add(1);
                if self.frozen_run >= FROZEN_RUN {
                    v.lies[ClockLie::FrozenSysuptime.index()] += 1;
                }
            } else {
                self.frozen_run = 0;
            }
            self.last_sysuptime_ms = sysuptime_ms;
        }
        v
    }

    /// Vet one record's first/last-switched pair; returns the wrap-aware
    /// duration if believable, `None` (and books the lie in `lies`) if
    /// not. Zero pairs are absent: no duration, no lie.
    pub fn vet_record(
        first_ms: u32,
        last_ms: u32,
        lies: &mut [u64; CLOCK_LIE_COUNT],
    ) -> Option<u32> {
        if first_ms == 0 && last_ms == 0 {
            return None;
        }
        let delta = uptime_delta_ms(first_ms, last_ms);
        if delta > MAX_FLOW_DURATION_MS {
            lies[ClockLie::ImplausibleDuration.index()] += 1;
            return None;
        }
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lie_indices_are_dense_and_labels_unique() {
        for (i, l) in ALL_CLOCK_LIES.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        for a in ALL_CLOCK_LIES {
            for b in ALL_CLOCK_LIES {
                if a != b {
                    assert_ne!(a.as_str(), b.as_str());
                }
            }
        }
    }

    #[test]
    fn wrap_straddling_delta_is_small_and_correct() {
        // Flow started 100ms before the 2^32 ms wrap, ended 250ms after.
        let first = u32::MAX - 99;
        let last = 250;
        assert_eq!(uptime_delta_ms(first, last), 350);
        // A plain forward pair is the plain difference.
        assert_eq!(uptime_delta_ms(1_000, 4_500), 3_500);
    }

    #[test]
    fn backwards_pair_reads_as_implausible() {
        let mut lies = [0u64; CLOCK_LIE_COUNT];
        // last < first with no wrap in range: delta ≈ u32::MAX.
        assert_eq!(ClockState::vet_record(5_000, 4_000, &mut lies), None);
        assert_eq!(lies[ClockLie::ImplausibleDuration.index()], 1);
        // Zero pair is absent, not a lie.
        assert_eq!(ClockState::vet_record(0, 0, &mut lies), None);
        assert_eq!(lies[ClockLie::ImplausibleDuration.index()], 1);
    }

    #[test]
    fn absent_export_time_falls_back_to_receive_time() {
        let mut st = ClockState::default();
        let v = st.vet(0, 0, 7_000_000_000);
        assert_eq!(v.event_time_ns, 7_000_000_000);
        assert_eq!(v.lies, [0; CLOCK_LIE_COUNT]);
        assert_eq!(v.clamped, 0);
    }

    #[test]
    fn plausible_export_time_is_trusted() {
        let mut st = ClockState::default();
        // now = 100s; exporter claims 99s — fine.
        let v = st.vet(99, 0, 100_000_000_000);
        assert_eq!(v.event_time_ns, 99_000_000_000);
        assert_eq!(v.clamped, 0);
    }

    #[test]
    fn in_slack_future_export_is_capped_at_receive_time() {
        let mut st = ClockState::default();
        // now = 5 ms; the exporter claims 1 s — inside the slack, so no
        // lie, but the stamp may not run ahead of the receive clock.
        let v = st.vet(1, 0, 5_000_000);
        assert_eq!(v.event_time_ns, 5_000_000);
        assert_eq!(v.lies, [0; CLOCK_LIE_COUNT]);
        assert_eq!(v.clamped, 0);
    }

    #[test]
    fn future_export_clamps_to_receive_time() {
        let mut st = ClockState::default();
        let v = st.vet(1_000, 0, 100_000_000_000);
        assert_eq!(v.event_time_ns, 100_000_000_000, "clamped");
        assert_eq!(v.lies[ClockLie::FutureExport.index()], 1);
        assert_eq!(v.clamped, 1);
    }

    #[test]
    fn backwards_export_clamps_and_books_once() {
        let mut st = ClockState::default();
        st.vet(90, 0, 100_000_000_000);
        let v = st.vet(50, 0, 101_000_000_000);
        assert_eq!(v.lies[ClockLie::BackwardsExport.index()], 1);
        assert_eq!(v.event_time_ns, 101_000_000_000);
        // History held at the high-water mark: the next honest claim at
        // 91s is forward again, not a second backwards lie.
        let v = st.vet(91, 0, 102_000_000_000);
        assert_eq!(v.lies, [0; CLOCK_LIE_COUNT]);
        assert_eq!(v.event_time_ns, 91_000_000_000);
    }

    #[test]
    fn frozen_sysuptime_needs_a_run() {
        let mut st = ClockState::default();
        let mut total = 0u64;
        for i in 0..6u64 {
            let v = st.vet(0, 555, (i + 1) * 1_000_000_000);
            total += v.lies[ClockLie::FrozenSysuptime.index()];
        }
        // Runs 3,4,5 flag (first sight + 2 repeats reach the threshold).
        assert_eq!(total, 3);
        // A moving sysuptime resets the run.
        let v = st.vet(0, 556, 7_000_000_000);
        assert_eq!(v.lies[ClockLie::FrozenSysuptime.index()], 0);
    }
}
