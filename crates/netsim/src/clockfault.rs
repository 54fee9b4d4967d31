//! Seeded per-device virtual clocks for time-fault experiments.
//!
//! Every fault class so far (loss, crashes, corruption, overload, hostile
//! bytes) stops exactly at time: device event stamps, watchdog heartbeats
//! and analytics windows all assume one perfect global clock. This module
//! makes wrong clocks a first-class, deterministic fault: a [`ClockSpec`]
//! describes a fleet-wide *envelope* of clock misbehaviour (offset, drift,
//! periodic steps, freeze), and each device draws its concrete parameters
//! from a dedicated [`Pcg32`] stream keyed by `(seed, device)`.
//!
//! Two invariants keep the rest of the system honest:
//!
//! * **Global time stays the ordering authority.** A [`DeviceClock`] only
//!   rewrites *recorded stamps*; scheduling, cadences and transport all
//!   keep running on simulator time, so serial/parallel determinism and
//!   the event *set* of a run are untouched by clock faults — only the
//!   timestamps written into events differ.
//! * **Inactive specs are draw-free.** `ClockSpec::default()` constructs
//!   an identity clock without consuming a single RNG draw, so every
//!   pre-existing seed reproduces bit-for-bit.

use crate::rng::Pcg32;

/// Dedicated RNG stream for per-device clock parameter draws ("CK").
pub(crate) const CLOCK_STREAM: u64 = 0x434b;

/// Fleet-wide clock-fault envelope. Each field bounds the *magnitude* of
/// one misbehaviour; per-device signs and exact values are drawn
/// deterministically in [`DeviceClock::new`]. All-zero (the default)
/// means a perfect clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockSpec {
    /// Maximum absolute initial offset from global time, ns. Each device
    /// draws a fixed offset uniformly from `[-offset_ns, +offset_ns]`.
    pub offset_ns: u64,
    /// Maximum absolute frequency error, parts-per-million. Each device
    /// draws a fixed drift uniformly from `[-drift_ppm, +drift_ppm]`;
    /// skew then grows linearly with global time.
    pub drift_ppm: u32,
    /// Period of discrete clock steps (NTP slews, leap smears), ns.
    /// 0 disables stepping.
    pub step_every_ns: u64,
    /// Maximum absolute step magnitude, ns. Every `step_every_ns` the
    /// local clock jumps by the device's drawn step (same signed value
    /// each period, so steps accumulate monotonically per device).
    pub step_ns: u64,
    /// Probability a device's clock freezes entirely (a wedged PTP
    /// daemon): local time stops advancing at `freeze_after_ns`.
    pub freeze_prob: f64,
    /// Global time at which frozen clocks stop, ns.
    pub freeze_after_ns: u64,
}

impl ClockSpec {
    /// A perfect clock: no offset, drift, steps or freezes.
    pub const fn none() -> Self {
        ClockSpec {
            offset_ns: 0,
            drift_ppm: 0,
            step_every_ns: 0,
            step_ns: 0,
            freeze_prob: 0.0,
            freeze_after_ns: 0,
        }
    }

    /// True when any clock fault can fire. Inactive specs build identity
    /// clocks without consuming RNG draws.
    pub fn is_active(&self) -> bool {
        self.offset_ns > 0
            || self.drift_ppm > 0
            || (self.step_every_ns > 0 && self.step_ns > 0)
            || self.freeze_prob > 0.0
    }

    /// Upper bound on `|local - global|` over `[0, horizon_ns]` for *any*
    /// device drawn from this spec, assuming no freeze fired. Useful for
    /// choosing analytics lateness bounds that must cover a whole fleet.
    pub fn max_abs_skew_ns(&self, horizon_ns: u64) -> u64 {
        let drift = (u128::from(horizon_ns) * u128::from(self.drift_ppm)) / 1_000_000;
        let steps = match horizon_ns.checked_div(self.step_every_ns) {
            Some(n) => u128::from(n) * u128::from(self.step_ns),
            None => 0,
        };
        (u128::from(self.offset_ns) + drift + steps).min(u128::from(u64::MAX)) as u64
    }
}

/// One device's concrete virtual clock: a pure function from global
/// simulator time to the device's local reading. Integer math throughout
/// so identical parameters give identical stamps on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceClock {
    /// Fixed initial offset, ns (signed).
    offset_ns: i64,
    /// Fixed frequency error, ppm (signed).
    drift_ppm: i64,
    /// Step period, ns (0 = no steps).
    step_every_ns: u64,
    /// Signed per-period step, ns.
    step_ns: i64,
    /// Global time past which the local clock stops ([`u64::MAX`] = never).
    freeze_at_ns: u64,
    /// False for the identity clock (no faults drawn).
    active: bool,
}

impl Default for DeviceClock {
    fn default() -> Self {
        DeviceClock::identity()
    }
}

impl DeviceClock {
    /// The perfect clock: `local_time(t) == t` for all `t`.
    pub(crate) const fn identity() -> Self {
        DeviceClock {
            offset_ns: 0,
            drift_ppm: 0,
            step_every_ns: 0,
            step_ns: 0,
            freeze_at_ns: u64::MAX,
            active: false,
        }
    }

    /// Draw this device's concrete clock parameters from the spec.
    ///
    /// Inactive specs return `DeviceClock::identity` **without creating
    /// an RNG** — the draw-free path that keeps pre-existing seeds
    /// reproducing bit-for-bit. Active specs draw on a per-device
    /// `CLOCK_STREAM` generator, so enabling clock faults never
    /// perturbs any other subsystem's stream.
    pub fn new(spec: &ClockSpec, seed: u64, device: u32) -> Self {
        if !spec.is_active() {
            return DeviceClock::identity();
        }
        let mut rng =
            Pcg32::new(seed ^ (u64::from(device).wrapping_mul(0x9e37_79b9) << 13), CLOCK_STREAM);
        let offset_ns = draw_signed(&mut rng, spec.offset_ns);
        let drift_ppm = draw_signed(&mut rng, u64::from(spec.drift_ppm));
        let step_ns = if spec.step_every_ns > 0 { draw_signed(&mut rng, spec.step_ns) } else { 0 };
        let freeze_at_ns =
            if rng.chance(spec.freeze_prob) { spec.freeze_after_ns } else { u64::MAX };
        DeviceClock {
            offset_ns,
            drift_ppm,
            step_every_ns: spec.step_every_ns,
            step_ns,
            freeze_at_ns,
            active: true,
        }
    }

    /// Is this the identity clock?
    pub fn is_identity(&self) -> bool {
        !self.active
    }

    /// The device's local reading of global time `global_ns`.
    ///
    /// Pure saturating integer math: `local = t + offset + t·drift/1e6 +
    /// ⌊t/period⌋·step`, with `t` capped at the freeze point. Negative
    /// excursions clamp at 0 (a clock cannot report before the epoch).
    pub fn local_time(&self, global_ns: u64) -> u64 {
        if !self.active {
            return global_ns;
        }
        let t = global_ns.min(self.freeze_at_ns);
        let mut local = t as i128 + i128::from(self.offset_ns);
        local += (t as i128 * i128::from(self.drift_ppm)) / 1_000_000;
        if let Some(n) = t.checked_div(self.step_every_ns) {
            local += n as i128 * i128::from(self.step_ns);
        }
        local.clamp(0, u64::MAX as i128) as u64
    }

    /// Signed skew `local - global` at `global_ns`, saturating at the
    /// `i64` range.
    pub fn skew_at(&self, global_ns: u64) -> i64 {
        let local = i128::from(self.local_time(global_ns));
        (local - global_ns as i128).clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
    }

    /// A stable 64-bit digest of the drawn parameters, for determinism
    /// fingerprints: identical clocks hash identically on every shard
    /// count, and the identity clock hashes to 0.
    pub fn fingerprint(&self) -> u64 {
        if !self.active {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.offset_ns as u64,
            self.drift_ppm as u64,
            self.step_every_ns,
            self.step_ns as u64,
            self.freeze_at_ns,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Uniform signed draw in `[-max, +max]`. Draws exactly twice (magnitude,
/// sign) so the per-device draw count is independent of the spec values.
fn draw_signed(rng: &mut Pcg32, max: u64) -> i64 {
    let max = max.min(i64::MAX as u64);
    let mag = rng.next_u64() % (max + 1);
    if rng.next_u32() & 1 == 1 {
        -(mag as i64)
    } else {
        mag as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_inactive_and_identity() {
        let spec = ClockSpec::default();
        assert!(!spec.is_active());
        assert_eq!(spec, ClockSpec::none());
        let clock = DeviceClock::new(&spec, 42, 7);
        assert!(clock.is_identity());
        for t in [0u64, 1, 1_000_000, u64::MAX] {
            assert_eq!(clock.local_time(t), t);
            assert_eq!(clock.skew_at(t.min(u64::MAX / 2)), 0);
        }
        assert_eq!(clock.fingerprint(), 0);
    }

    #[test]
    fn same_seed_same_clock_different_devices_differ() {
        let spec = ClockSpec { offset_ns: 1_000_000, drift_ppm: 200, ..ClockSpec::none() };
        let a = DeviceClock::new(&spec, 99, 3);
        let b = DeviceClock::new(&spec, 99, 3);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let clocks: Vec<DeviceClock> = (0..16).map(|d| DeviceClock::new(&spec, 99, d)).collect();
        assert!(clocks.windows(2).any(|w| w[0] != w[1]), "devices must draw independently");
    }

    #[test]
    fn offset_and_drift_shape_the_skew() {
        let spec = ClockSpec { offset_ns: 500, ..ClockSpec::none() };
        let c = DeviceClock::new(&spec, 5, 1);
        // Pure offset: skew constant over time.
        assert_eq!(c.skew_at(0), c.skew_at(1_000_000_000));
        assert!(c.skew_at(0).unsigned_abs() <= 500);

        let spec = ClockSpec { drift_ppm: 1000, ..ClockSpec::none() };
        let mut found_drift = false;
        for d in 0..8 {
            let c = DeviceClock::new(&spec, 5, d);
            let early = c.skew_at(1_000_000);
            let late = c.skew_at(1_000_000_000);
            if early != 0 {
                found_drift = true;
                // 1000 ppm over 1s = ±1ms; drift grows linearly.
                assert!(late.unsigned_abs() <= 1_000_000, "skew {late}");
                assert_eq!(late.signum(), early.signum());
                assert!(late.unsigned_abs() >= early.unsigned_abs());
            }
        }
        assert!(found_drift, "at least one device should draw non-zero drift");
    }

    #[test]
    fn steps_accumulate_per_period() {
        let spec = ClockSpec { step_every_ns: 1_000, step_ns: 100, ..ClockSpec::none() };
        for d in 0..8 {
            let c = DeviceClock::new(&spec, 11, d);
            let s1 = c.skew_at(1_500);
            let s5 = c.skew_at(5_500);
            // 1 period vs 5 periods elapsed: skew scales with the count.
            assert_eq!(s5, s1 * 5, "device {d}");
        }
    }

    #[test]
    fn frozen_clock_stops() {
        let spec = ClockSpec {
            offset_ns: 10,
            freeze_prob: 1.0,
            freeze_after_ns: 2_000,
            ..ClockSpec::none()
        };
        let c = DeviceClock::new(&spec, 7, 0);
        let frozen = c.local_time(2_000);
        assert_eq!(c.local_time(3_000), frozen);
        assert_eq!(c.local_time(u64::MAX), frozen);
        assert!(c.local_time(1_000) <= frozen);
    }

    #[test]
    fn local_time_is_monotone_without_negative_steps() {
        let spec = ClockSpec { offset_ns: 5_000, drift_ppm: 500, ..ClockSpec::none() };
        for d in 0..8 {
            let c = DeviceClock::new(&spec, 13, d);
            let mut prev = c.local_time(0);
            for t in (0..2_000_000u64).step_by(10_007) {
                let now = c.local_time(t);
                assert!(now >= prev, "device {d} went backwards at {t}");
                prev = now;
            }
        }
    }

    #[test]
    fn spec_bound_covers_every_drawn_device() {
        let spec = ClockSpec {
            offset_ns: 10_000,
            drift_ppm: 2_000,
            step_every_ns: 100_000,
            step_ns: 1_000,
            ..ClockSpec::none()
        };
        let horizon = 10_000_000u64;
        let bound = spec.max_abs_skew_ns(horizon);
        for d in 0..32 {
            let c = DeviceClock::new(&spec, 21, d);
            for t in (0..=horizon).step_by(997_001) {
                assert!(
                    c.skew_at(t).unsigned_abs() <= bound,
                    "device {d} t {t} skew {} bound {bound}",
                    c.skew_at(t)
                );
            }
        }
    }

    #[test]
    fn clamps_at_zero_never_panics() {
        let spec = ClockSpec { offset_ns: u64::from(u32::MAX) * 4, ..ClockSpec::none() };
        for d in 0..8 {
            let c = DeviceClock::new(&spec, 3, d);
            let _ = c.local_time(0);
            let _ = c.local_time(u64::MAX);
        }
    }
}
