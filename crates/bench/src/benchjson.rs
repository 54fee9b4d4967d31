//! Machine-readable benchmark reports.
//!
//! Each per-figure binary can emit a flat `BENCH_<name>.json` next to its
//! human-readable stdout so CI can diff throughput against a committed
//! baseline. The format is deliberately trivial — one object with a
//! `name` and a flat `metrics` map of floats — and is written/parsed by
//! hand because the workspace builds fully offline (no serde).
//!
//! ```json
//! {
//!   "name": "fig12_batching",
//!   "metrics": {
//!     "events_per_s": 86000000.0,
//!     "gbps": 17.7
//!   }
//! }
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};

/// One benchmark run's metrics, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// Flat metric map in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Empty report for `name`.
    pub fn new(name: &str) -> Self {
        BenchReport { name: name.to_string(), metrics: Vec::new() }
    }

    /// Add (or overwrite) one metric.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key.to_string(), value));
        }
        self
    }

    /// Value of a metric, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Serialize to the flat JSON format above.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", self.name));
        s.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            // Plain decimal (never exponent) so the parser stays trivial.
            s.push_str(&format!("    \"{k}\": {v:.6}{comma}\n"));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Write `BENCH_<name>.json` into `dir` and return the path.
    pub(crate) fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Write into `$BENCH_OUT_DIR` (default: current directory), print
    /// where it went.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
        let path = self.write_to(Path::new(&dir))?;
        println!("\n  wrote {}", path.display());
        Ok(path)
    }

    /// Parse a report previously produced by [`Self::to_json`]. Returns
    /// `None` on anything that doesn't look like our own output.
    pub(crate) fn parse(json: &str) -> Option<Self> {
        let name = extract_string(json, "name")?;
        let metrics_start = json.find("\"metrics\"")?;
        let body = &json[metrics_start..];
        let open = body.find('{')?;
        let close = body.find('}')?;
        let inner = &body[open + 1..close];
        let mut metrics = Vec::new();
        for entry in inner.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry.split_once(':')?;
            let key = key.trim().trim_matches('"').to_string();
            let value: f64 = value.trim().parse().ok()?;
            metrics.push((key, value));
        }
        Some(BenchReport { name, metrics })
    }

    /// Read and parse `path`.
    pub fn read(path: &Path) -> Option<Self> {
        Self::parse(&std::fs::read_to_string(path).ok()?)
    }
}

/// Core count of the host the benchmark ran on. Emitted as the `cores`
/// metric by every report so baselines are comparable across machines
/// (bench_check gates only `*_per_s` / `sim_meps*` keys, never this one).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn extract_string(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut r = BenchReport::new("fig_test");
        r.metric("pkts_per_s", 1_234_567.5).metric("allocs_per_pkt", 0.0);
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed.name, "fig_test");
        assert_eq!(parsed.get("pkts_per_s"), Some(1_234_567.5));
        assert_eq!(parsed.get("allocs_per_pkt"), Some(0.0));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn metric_overwrites() {
        let mut r = BenchReport::new("x");
        r.metric("a", 1.0).metric("a", 2.0);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.get("a"), Some(2.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::parse("not json").is_none());
        assert!(BenchReport::parse("{\"name\": \"x\"}").is_none());
    }
}
