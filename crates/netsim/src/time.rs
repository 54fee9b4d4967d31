//! Simulation time helpers. All times are `u64` nanoseconds.

/// One microsecond in nanoseconds.
pub const MICROS: u64 = 1_000;

/// One millisecond in nanoseconds.
pub const MILLIS: u64 = 1_000_000;

/// One second in nanoseconds.
pub const SECONDS: u64 = 1_000_000_000;

/// Serialization time of `bytes` at `gbps` gigabits/second, in ns,
/// rounded up (a partial nanosecond still occupies the wire).
pub(crate) fn tx_time_ns(bytes: usize, gbps: f64) -> u64 {
    ((bytes as f64 * 8.0) / gbps).ceil() as u64
}

/// Format a nanosecond timestamp human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= SECONDS {
        format!("{:.3}s", ns as f64 / SECONDS as f64)
    } else if ns >= MILLIS {
        format!("{:.3}ms", ns as f64 / MILLIS as f64)
    } else if ns >= MICROS {
        format!("{:.3}us", ns as f64 / MICROS as f64)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_at_common_speeds() {
        // 1500B at 100G = 120ns; at 25G = 480ns; at 10G = 1200ns.
        assert_eq!(tx_time_ns(1500, 100.0), 120);
        assert_eq!(tx_time_ns(1500, 25.0), 480);
        assert_eq!(tx_time_ns(1500, 10.0), 1200);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 100G = 0.08ns -> 1ns.
        assert_eq!(tx_time_ns(1, 100.0), 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_500_000), "2.500ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
