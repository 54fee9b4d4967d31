//! Prometheus text exposition format (v0.0.4), written by hand — the
//! workspace builds fully offline, so no client library.
//!
//! Shape per family:
//!
//! ```text
//! # HELP fet_events_delivered_total Events that reached the backend.
//! # TYPE fet_events_delivered_total counter
//! fet_events_delivered_total{scope="fleet"} 1234
//! ```
//!
//! Histograms render the cumulative `_bucket{le="..."}` ladder (the
//! `+Inf` bucket always equals `_count`), then `_sum` and `_count`.
//! Escaping follows the spec exactly: `\\`, `\n` in HELP; `\\`, `\"`,
//! `\n` in label values. Families come out of the registry in name
//! order, so the byte stream is deterministic. The whole document is
//! written into one `String` sized up front; nothing else is allocated.
//!
//! [`parse_exposition`] is the inverse used by the tests and the mixed
//! sim/real replay oracle: the conservation identity is asserted over the
//! *scraped* values, so the exporter itself is under test.

use crate::registry::{MetricKind, MetricRegistry, Series, SeriesValue};
use std::collections::BTreeMap;
use std::fmt::Write;

/// A sorted, owned label set, as [`parse_exposition`] reads it back.
pub(crate) type LabelSet = Vec<(String, String)>;

/// Render the whole registry (real families, then the registry's own
/// meta families) as one exposition document.
pub fn render_prometheus(reg: &MetricRegistry) -> String {
    let mut out = String::with_capacity(capacity(reg));
    for fam in reg.families() {
        render_family(&mut out, fam.name, fam.help, fam.kind, fam.bounds, fam.series());
    }
    for (name, help, kind, series) in &reg.meta_series() {
        render_family(&mut out, name, help, *kind, &[], std::slice::from_ref(series));
    }
    out
}

/// The rendered size, estimated closely enough that the output rarely
/// regrows and never holds much more than it needs.
fn capacity(reg: &MetricRegistry) -> usize {
    let meta = 4 * 180;
    reg.families().fold(meta, |acc, fam| {
        let (lines, per_line) = match fam.kind {
            MetricKind::Histogram => (fam.bounds.len() + 3, fam.name.len() + 32),
            _ => (1, fam.name.len() + 16),
        };
        let series: usize = fam.series().iter().map(|s| lines * (per_line + label_len(s))).sum();
        acc + 2 * fam.name.len() + fam.help.len() + 32 + series
    })
}

/// Bytes a series' labels take unescaped, plus quoting and separators.
pub(crate) fn label_len(s: &Series) -> usize {
    s.labels.iter().map(|(k, v)| k.len() + v.len() + 4).sum()
}

fn render_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: MetricKind,
    bounds: &[f64],
    series: &[Series],
) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    push_escaped(out, help, false);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind.as_str());
    out.push('\n');
    for s in series {
        match &s.value {
            SeriesValue::Counter(v) => {
                push_series(out, name, "", s, None);
                push_u64(out, *v);
            }
            SeriesValue::Gauge(v) => {
                push_series(out, name, "", s, None);
                push_f64(out, *v);
            }
            SeriesValue::Histogram { buckets, sum, count } => {
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cum += b;
                    let le = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                    push_series(out, name, "_bucket", s, Some(le));
                    push_u64(out, cum);
                    out.push('\n');
                }
                push_series(out, name, "_sum", s, None);
                push_f64(out, *sum);
                out.push('\n');
                push_series(out, name, "_count", s, None);
                push_u64(out, *count);
            }
        }
        out.push('\n');
    }
}

/// A sample line up to its value: `name` and `suffix`, the
/// `{k="v",...}` label block with spec escaping (none for an empty label
/// set), then the separating space. `le` (when given) is appended last,
/// matching common client output.
fn push_series(out: &mut String, name: &str, suffix: &str, s: &Series, le: Option<f64>) {
    out.push_str(name);
    out.push_str(suffix);
    if !s.labels.is_empty() || le.is_some() {
        let mut sep = '{';
        for (k, v) in &s.labels {
            out.push(sep);
            sep = ',';
            out.push_str(k);
            out.push_str("=\"");
            push_escaped(out, v, true);
            out.push('"');
        }
        if let Some(le) = le {
            out.push(sep);
            out.push_str("le=\"");
            push_f64(out, le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
}

/// Append `s` with Prometheus escaping: backslash and newline, plus the
/// double quote inside label values. A string (or run) without an escape
/// is copied whole.
fn push_escaped(out: &mut String, s: &str, label_value: bool) {
    // A branch-free scan (it vectorizes) clears the common case.
    let dirty =
        s.bytes().fold(false, |d, b| d | (b == b'\\') | (b == b'\n') | (label_value & (b == b'"')));
    if !dirty {
        out.push_str(s);
        return;
    }
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'"' if label_value => "\\\"",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(esc);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Append the decimal digits of `v`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Deterministic float formatting: integral finite values print without
/// a fraction (`42`), infinities as `+Inf`/`-Inf`, everything else with
/// Rust's shortest-roundtrip `Display` (deterministic across platforms).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        let i = v as i64;
        if i < 0 {
            out.push('-');
        }
        push_u64(out, i.unsigned_abs());
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        let _ = write!(out, "{v}");
    }
}

/// One parsed sample: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (histogram ladders appear as `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Sorted label set.
    pub labels: LabelSet,
    /// Sample value.
    pub value: f64,
}

/// A parsed exposition document: samples plus the `# TYPE` map.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Every sample line in document order.
    pub samples: Vec<Sample>,
    /// `name -> type` from the `# TYPE` comments.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// The value of the unique sample with this name and exact label
    /// subset match on `want` (other labels ignored). Panics on dup.
    pub fn value(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        let mut hit = None;
        for s in self.samples.iter().filter(|s| s.name == name) {
            let matches =
                want.iter().all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v));
            if matches {
                assert!(hit.is_none(), "ambiguous sample {name} {want:?}");
                hit = Some(s.value);
            }
        }
        hit
    }

    /// Sum of every sample with this name (all label sets).
    #[cfg(test)]
    pub(crate) fn sum(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }
}

/// Strict parser for the v0.0.4 text format (the subset this crate
/// emits — which is the subset real scrapers require). Returns `None`
/// on any malformed line, so tests that pass it prove the encoder emits
/// valid exposition text.
pub fn parse_exposition(text: &str) -> Option<Exposition> {
    let mut doc = Exposition::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ')?;
            if !crate::registry::valid_metric_name(name)
                || !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped")
            {
                return None;
            }
            doc.types.insert(name.to_string(), ty.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        doc.samples.push(parse_sample(line)?);
    }
    Some(doc)
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value = parse_value(value.trim())?;
    let (name, labels) = match series.find('{') {
        None => (series.to_string(), LabelSet::new()),
        Some(at) => {
            let name = &series[..at];
            let body = series[at + 1..].strip_suffix('}')?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if !crate::registry::valid_metric_name(&name) {
        return None;
    }
    let mut labels = labels;
    labels.sort();
    Some(Sample { name, labels, value })
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Parse `k="v",k2="v2"` with unescaping; rejects bad label names and
/// unterminated strings.
fn parse_labels(body: &str) -> Option<LabelSet> {
    let mut out = LabelSet::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = &rest[..eq];
        if !crate::registry::valid_label_name(key) {
            return None;
        }
        rest = rest[eq + 1..].strip_prefix('"')?;
        // Scan to the closing unescaped quote.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next()?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end?;
        out.push((key.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    fn fmt_f64(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    fn demo_registry() -> MetricRegistry {
        let mut r = MetricRegistry::new(RegistryConfig::default());
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 10);
        r.counter_add("fet_events_total", "Events.", &[("scope", "wire")], 3);
        r.gauge_set("fet_backlog", "Backlog now.", &[], 2.5);
        for v in [0.5, 3.0, 100.0] {
            r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[("dev", "3")], v);
        }
        r
    }

    #[test]
    fn roundtrips_through_own_parser() {
        let text = render_prometheus(&demo_registry());
        let doc = parse_exposition(&text).expect("own output must parse");
        assert_eq!(doc.value("fet_events_total", &[("scope", "fleet")]), Some(10.0));
        assert_eq!(doc.value("fet_events_total", &[("scope", "wire")]), Some(3.0));
        assert_eq!(doc.value("fet_backlog", &[]), Some(2.5));
        assert_eq!(doc.types.get("fet_lat").map(String::as_str), Some("histogram"));
        // Cumulative ladder: le=1 -> 1, le=10 -> 2, +Inf -> 3 == count.
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "1")]), Some(1.0));
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "10")]), Some(2.0));
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "+Inf")]), Some(3.0));
        assert_eq!(doc.value("fet_lat_count", &[("dev", "3")]), Some(3.0));
        assert_eq!(doc.value("fet_lat_sum", &[("dev", "3")]), Some(103.5));
        // Meta families ride along.
        assert_eq!(doc.value("fet_export_series_rejected_total", &[]), Some(0.0));
    }

    #[test]
    fn escaping_survives_roundtrip() {
        let mut r = MetricRegistry::default();
        let hostile = "a\\b\"c\nd";
        r.counter_add("fet_x_total", "help with \\ and\nnewline", &[("k", hostile)], 1);
        let text = render_prometheus(&r);
        assert!(text.contains("a\\\\b\\\"c\\nd"), "escaped value in {text}");
        let doc = parse_exposition(&text).unwrap();
        assert_eq!(doc.value("fet_x_total", &[("k", hostile)]), Some(1.0));
    }

    #[test]
    fn rendering_is_deterministic_and_insertion_order_free() {
        let a = render_prometheus(&demo_registry());
        let mut r = MetricRegistry::default();
        // Same content, different insertion order.
        for v in [0.5, 3.0, 100.0] {
            r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[("dev", "3")], v);
        }
        r.gauge_set("fet_backlog", "Backlog now.", &[], 2.5);
        r.counter_add("fet_events_total", "Events.", &[("scope", "wire")], 3);
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 10);
        assert_eq!(a, render_prometheus(&r), "snapshots must be bit-identical");
    }

    #[test]
    fn fmt_is_exact() {
        assert_eq!(fmt_f64(42.0), "42");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(-1.0), "-1");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("fet_x{k=\"unterminated} 1").is_none());
        assert!(parse_exposition("9bad_name 1").is_none());
        assert!(parse_exposition("fet_x{9k=\"v\"} 1").is_none());
        assert!(parse_exposition("fet_x notanumber").is_none());
        assert!(parse_exposition("# TYPE fet_x flavor").is_none());
    }
}
