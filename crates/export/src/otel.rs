//! OTel-shaped JSON: one OTLP-style `resourceMetrics` document, written
//! by hand (no serde — the workspace builds fully offline).
//!
//! The field names follow OTLP/JSON conventions so a real OpenTelemetry
//! collector's shape expectations hold: counters become monotonic
//! cumulative `sum`s, gauges become `gauge`s, histograms become
//! cumulative `histogram`s with `explicitBounds` + `bucketCounts`
//! (`aggregationTemporality: 2` throughout). All 64-bit integers render
//! as JSON strings, matching protojson. Like the Prometheus encoder, the
//! document is written into one `String` sized up front.
//!
//! Timestamps are **sim time**, never wall clock: callers pass the run's
//! start and snapshot nanos, so the document is bit-identical across
//! runs, shard counts, and machines — the same determinism contract the
//! rest of the repo holds (`startTimeUnixNano`/`timeUnixNano`).

use crate::prom::{label_len, push_f64, push_u64};
use crate::registry::{MetricRegistry, Series, SeriesValue};

/// Render the registry as one OTLP/JSON resource-metrics document with
/// the given sim-time span.
pub fn render_otel(reg: &MetricRegistry, start_ns: u64, now_ns: u64) -> String {
    // Every data point carries the same span: render it once.
    let mut stamps = String::from("],\"startTimeUnixNano\":\"");
    push_u64(&mut stamps, start_ns);
    stamps.push_str("\",\"timeUnixNano\":\"");
    push_u64(&mut stamps, now_ns);
    stamps.push_str("\",");
    let mut doc = Doc { out: String::with_capacity(capacity(reg, &stamps)), stamps };
    let out = &mut doc.out;
    out.push_str("{\"resourceMetrics\":[{\"resource\":{\"attributes\":[");
    out.push_str("{\"key\":\"service.name\",\"value\":{\"stringValue\":\"netseer\"}}");
    out.push_str("]},\"scopeMetrics\":[{\"scope\":{\"name\":\"fet-export\",");
    out.push_str("\"version\":\"0.1.0\"},\"metrics\":[");
    for fam in reg.families() {
        doc.metric(fam.name, fam.help, fam.bounds, fam.series());
    }
    for (name, help, _, series) in &reg.meta_series() {
        doc.metric(name, help, &[], std::slice::from_ref(series));
    }
    // Drop the comma after the last metric (there is always one: the
    // meta families).
    doc.out.pop();
    doc.out.push_str("]}]}]}");
    doc.out
}

/// The rendered size, estimated closely enough that the output rarely
/// regrows and never holds much more than it needs. `stamps` is the
/// per-point time span every data point repeats.
fn capacity(reg: &MetricRegistry, stamps: &str) -> usize {
    let meta = 4 * 300;
    reg.families().fold(400 + meta, |acc, fam| {
        let per_point = stamps.len() + 40 + 12 * fam.bounds.len();
        let points: usize =
            fam.series().iter().map(|s| per_point + 36 * s.labels.len() + label_len(s)).sum();
        acc + fam.name.len() + fam.help.len() + 96 + points
    })
}

/// The document being written and its data points' rendered sim-time
/// span (which also closes the attribute list).
struct Doc {
    out: String,
    stamps: String,
}

impl Doc {
    /// One metric object and a trailing comma. The data kind follows the
    /// first series' value; an empty family renders as an empty `sum`.
    fn metric(&mut self, name: &str, help: &str, bounds: &[f64], series: &[Series]) {
        self.out.push_str("{\"name\":\"");
        push_json_escaped(&mut self.out, name);
        self.out.push_str("\",\"description\":\"");
        push_json_escaped(&mut self.out, help);
        self.out.push_str("\",");
        let (open, close) = match series.first().map(|s| &s.value) {
            Some(SeriesValue::Counter(_)) | None => (
                "\"sum\":{\"dataPoints\":[",
                "],\"aggregationTemporality\":2,\"isMonotonic\":true}},",
            ),
            Some(SeriesValue::Gauge(_)) => ("\"gauge\":{\"dataPoints\":[", "]}},"),
            Some(SeriesValue::Histogram { .. }) => {
                ("\"histogram\":{\"dataPoints\":[", "],\"aggregationTemporality\":2}},")
            }
        };
        self.out.push_str(open);
        for (i, s) in series.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.point(bounds, s);
        }
        self.out.push_str(close);
    }

    fn point(&mut self, bounds: &[f64], s: &Series) {
        let out = &mut self.out;
        out.push_str("{\"attributes\":[");
        for (i, (k, v)) in s.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":\"");
            push_json_escaped(out, k);
            out.push_str("\",\"value\":{\"stringValue\":\"");
            push_json_escaped(out, v);
            out.push_str("\"}}");
        }
        out.push_str(&self.stamps);
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str("\"asInt\":\"");
                push_u64(out, *v);
                out.push('"');
            }
            SeriesValue::Gauge(v) => {
                out.push_str("\"asDouble\":");
                push_json_number(out, *v);
            }
            SeriesValue::Histogram { buckets, sum, count } => {
                out.push_str("\"count\":\"");
                push_u64(out, *count);
                out.push_str("\",\"sum\":");
                push_json_number(out, *sum);
                out.push_str(",\"bucketCounts\":[");
                for (i, b) in buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_u64(out, *b);
                    out.push('"');
                }
                out.push_str("],\"explicitBounds\":[");
                for (i, b) in bounds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_number(out, *b);
                }
                out.push(']');
            }
        }
        out.push('}');
    }
}

/// Append `s` with JSON string escaping (the mandatory quote and
/// backslash, and every control character). A string (or run) without an
/// escape is copied whole.
fn push_json_escaped(out: &mut String, s: &str) {
    // A branch-free scan (it vectorizes) clears the common case.
    let dirty = s.bytes().fold(false, |d, b| d | (b < 0x20) | (b == b'"') | (b == b'\\'));
    if !dirty {
        out.push_str(s);
        return;
    }
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let (esc, hex) = match b {
            b'"' => ("\\\"", false),
            b'\\' => ("\\\\", false),
            b'\n' => ("\\n", false),
            b'\r' => ("\\r", false),
            b'\t' => ("\\t", false),
            0..=0x1f => ("\\u00", true),
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(esc);
        if hex {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// JSON numbers must be finite; infinities clamp to protojson's string
/// forms are not valid for asDouble, so we saturate like collectors do.
fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        push_f64(out, v);
    } else if v > 0.0 {
        out.push_str("1.7976931348623157e308");
    } else {
        out.push_str("-1.7976931348623157e308");
    }
}

/// Minimal structural JSON validator (objects, arrays, strings, numbers,
/// literals). The golden tests run every rendered document through this,
/// so "OTel-shaped" at least always means "valid JSON".
pub fn validate_json(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    if !skip_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn skip_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => skip_composite(b, pos, b'}', true),
        Some(b'[') => skip_composite(b, pos, b']', false),
        Some(b'"') => skip_string(b, pos),
        Some(b't') => skip_lit(b, pos, b"true"),
        Some(b'f') => skip_lit(b, pos, b"false"),
        Some(b'n') => skip_lit(b, pos, b"null"),
        Some(_) => skip_number(b, pos),
        None => false,
    }
}

fn skip_composite(b: &[u8], pos: &mut usize, close: u8, keyed: bool) -> bool {
    *pos += 1; // opener
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return true;
    }
    loop {
        if keyed {
            skip_ws(b, pos);
            if !skip_string(b, pos) {
                return false;
            }
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return false;
            }
            *pos += 1;
        }
        if !skip_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn skip_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'\\' => *pos += 1,
            b'"' => return true,
            _ => {}
        }
    }
    false
}

fn skip_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn skip_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    *pos > start && std::str::from_utf8(&b[start..*pos]).is_ok_and(|s| s.parse::<f64>().is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    fn demo() -> MetricRegistry {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 7);
        r.gauge_set("fet_backlog", "Backlog.", &[("dev", "1")], 1.5);
        r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[], 4.0);
        r
    }

    #[test]
    fn renders_valid_json_with_otlp_fields() {
        let doc = render_otel(&demo(), 0, 12_000_000);
        assert!(validate_json(&doc), "must be structurally valid JSON: {doc}");
        for needle in [
            "\"resourceMetrics\"",
            "\"scopeMetrics\"",
            "\"isMonotonic\":true",
            "\"aggregationTemporality\":2",
            "\"asInt\":\"7\"",
            "\"asDouble\":1.5",
            "\"bucketCounts\":[\"0\",\"1\",\"0\"]",
            "\"explicitBounds\":[1,10]",
            "\"startTimeUnixNano\":\"0\"",
            "\"timeUnixNano\":\"12000000\"",
            "{\"key\":\"scope\",\"value\":{\"stringValue\":\"fleet\"}}",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn deterministic_across_insertion_orders() {
        let a = render_otel(&demo(), 0, 5);
        let mut r = MetricRegistry::default();
        r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[], 4.0);
        r.gauge_set("fet_backlog", "Backlog.", &[("dev", "1")], 1.5);
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 7);
        assert_eq!(a, render_otel(&r, 0, 5));
    }

    #[test]
    fn hostile_strings_stay_valid_json() {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_x_total", "he\"lp\\\n", &[("k", "v\"\\\n\t\u{1}")], 1);
        let doc = render_otel(&r, 3, 9);
        assert!(validate_json(&doc), "escaping must keep the document valid: {doc}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(!validate_json("{\"a\":}"));
        assert!(!validate_json("[1,2"));
        assert!(!validate_json("{\"a\":1}trailing"));
        assert!(validate_json("{\"a\":[1,2,{\"b\":\"c\"}]}"));
    }
}
