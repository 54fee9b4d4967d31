//! Result plumbing: order statistics, the correctness tally, and the one
//! JSON line the benchmark prints last.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`; NaN if empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// High-water resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Failed correctness checks, with the reason for each.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The failure reasons so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (fleet repetitions or scheduled inputs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Checks,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Set metric `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Metric names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|m| m.0.as_str())
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.ok() && self.failed == 0
    }

    /// The single-line JSON result. JSON cannot carry non-finite values;
    /// they print as 0 and the caller fails a check for them.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a 64 over a byte stream: the determinism fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mix bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix a u64 in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix a delivered event in.
    pub fn event(&mut self, e: &netseer::StoredEvent) {
        self.u64(e.time_ns);
        self.u64(u64::from(e.device));
        self.u64(u64::from(e.epoch));
        self.u64(e.seq);
        self.bytes(&e.record.to_bytes());
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.set("a", 1.5, "ms");
        r.set("b", f64::NAN, "s");
        r.set("a", 2.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 2.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
