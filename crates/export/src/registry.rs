//! The deterministic, allocation-bounded metric registry.
//!
//! Three constraints shape this module, in priority order:
//!
//! 1. **Determinism.** Snapshots must be bit-identical across runs, shard
//!    counts, and platforms. Families and series live in vectors kept
//!    sorted by name and label set, so iteration order is the
//!    lexicographic order of names and label sets — never insertion or
//!    hash order. Values are `u64` counters, `f64` gauges, and
//!    fixed-bound histograms; nothing reads a clock.
//!
//! 2. **Hard cardinality caps.** A hostile workload (wire exporters
//!    minting observation domains, floods of distinct flows) must not be
//!    able to grow the registry without bound. Series beyond
//!    [`RegistryConfig::max_series_per_family`] and families beyond
//!    [`RegistryConfig::max_families`] are *refused and counted*, never
//!    admitted; the refusal counters are themselves exported (see
//!    `MetricRegistry::meta_series`), so silent truncation is
//!    impossible.
//!
//! 3. **Bounded allocation.** Memory is bounded by the caps times the
//!    label-set size; scrape adapters rebuild the registry per snapshot,
//!    so there is no unbounded retained state between scrapes. Family
//!    names, help texts, bucket bounds and label names are `'static`
//!    (every call site passes literals or constants), so a family costs
//!    no copy; a series owns its label values once, made when it is
//!    admitted. An update is one binary search for the family and one
//!    for the series, and does not touch the heap once its series
//!    exists.
//!
//! Metric naming follows the repo-wide `fet_*` scheme (DESIGN.md §15):
//! `fet_<subsystem>_<what>[_total]`, with `_total` reserved for
//! monotonic counters.

use std::cmp::Ordering;

/// Unsorted label sets up to this size are sorted on the stack; longer
/// ones (no adapter uses more than two labels) in a scratch `Vec`.
const INLINE_LABELS: usize = 4;

/// Families a registry makes room for up front (bounded by the family
/// cap): a full scrape publishes about 75, so the family table never
/// regrows mid-scrape.
const FAMILY_CAPACITY: usize = 128;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution over fixed explicit bounds.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SeriesValue {
    /// Cumulative count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Per-bucket (non-cumulative) counts aligned with the family's
    /// bounds, plus the implicit `+Inf` bucket at the end.
    Histogram {
        /// `bounds.len() + 1` non-cumulative bucket counts.
        buckets: Vec<u64>,
        /// Sum of observed values.
        sum: f64,
        /// Count of observations.
        count: u64,
    },
}

impl SeriesValue {
    /// The zero value a fresh series of `kind` starts from.
    fn zero(kind: MetricKind, bounds: &[f64]) -> Self {
        match kind {
            MetricKind::Counter => SeriesValue::Counter(0),
            MetricKind::Gauge => SeriesValue::Gauge(0.0),
            MetricKind::Histogram => {
                SeriesValue::Histogram { buckets: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
            }
        }
    }
}

/// One series: its label set and value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Series {
    /// Label pairs sorted by (name, value), so two call sites naming the
    /// same labels in different orders hit the same series.
    pub(crate) labels: Vec<(&'static str, String)>,
    /// The series' value.
    pub(crate) value: SeriesValue,
}

impl Series {
    /// An unlabelled series (no heap: an empty `Vec` does not allocate).
    fn single(value: SeriesValue) -> Self {
        Series { labels: Vec::new(), value }
    }
}

/// One metric family: a name, help text, kind, and its series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Family {
    /// Metric name (`fet_*`).
    pub(crate) name: &'static str,
    /// Help text (escaped by the encoders).
    pub(crate) help: &'static str,
    /// Family kind; every series in the family shares it.
    pub(crate) kind: MetricKind,
    /// Histogram bucket upper bounds (ascending, `+Inf` implicit).
    /// Empty for counters and gauges.
    pub(crate) bounds: &'static [f64],
    /// Sorted by label set, so iteration (and thus every rendered
    /// snapshot) is deterministic.
    series: Vec<Series>,
}

impl Family {
    /// Every series, in label-set order.
    pub(crate) fn series(&self) -> &[Series] {
        &self.series
    }
}

/// Order a stored label set against a sorted borrowed one, exactly as
/// the two would compare as `Vec<(String, String)>`.
fn cmp_labels(stored: &[(&'static str, String)], probe: &[(&str, &str)]) -> Ordering {
    stored.iter().map(|(k, v)| (*k, v.as_str())).cmp(probe.iter().copied())
}

/// Hard bounds a hostile workload cannot grow past.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Maximum metric families.
    pub max_families: usize,
    /// Maximum series per family (label-set cardinality cap).
    pub max_series_per_family: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig { max_families: 256, max_series_per_family: 512 }
    }
}

/// The registry. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct MetricRegistry {
    cfg: RegistryConfig,
    /// Sorted by name.
    families: Vec<Family>,
    /// Series refused by the per-family cardinality cap.
    pub series_rejected: u64,
    /// Families refused by the family cap.
    pub(crate) families_rejected: u64,
    /// Updates refused because the family already exists with a
    /// different kind or bounds (a programming error, but counted, not
    /// ignored).
    pub(crate) kind_conflicts: u64,
}

impl MetricRegistry {
    /// A registry with the given caps.
    pub fn new(cfg: RegistryConfig) -> Self {
        MetricRegistry {
            cfg,
            families: Vec::with_capacity(cfg.max_families.min(FAMILY_CAPACITY)),
            series_rejected: 0,
            families_rejected: 0,
            kind_conflicts: 0,
        }
    }

    /// All families in name order.
    pub(crate) fn families(&self) -> impl Iterator<Item = &Family> {
        self.families.iter()
    }

    /// A family by name.
    #[cfg(test)]
    pub(crate) fn family(&self, name: &str) -> Option<&Family> {
        self.families.binary_search_by(|f| f.name.cmp(name)).ok().map(|i| &self.families[i])
    }

    /// Total live series across all families (meta excluded).
    pub fn series_count(&self) -> usize {
        self.families.iter().map(|f| f.series.len()).sum()
    }

    /// The value slot for one update: look up or admit the family
    /// (family cap, kind and bounds consistency), then look up or admit
    /// the series (per-family cap). Returns `None` when refused, and
    /// counts why.
    fn slot(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        bounds: &'static [f64],
        lbls: &[(&'static str, &str)],
    ) -> Option<&mut SeriesValue> {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let fi = match self.families.binary_search_by(|f| f.name.cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                if self.families.len() >= self.cfg.max_families {
                    self.families_rejected += 1;
                    return None;
                }
                self.families.insert(i, Family { name, help, kind, bounds, series: Vec::new() });
                i
            }
        };
        let fam = &mut self.families[fi];
        if fam.kind != kind || fam.bounds != bounds {
            self.kind_conflicts += 1;
            return None;
        }
        let (mut inline, mut spilled) = ([("", ""); INLINE_LABELS], Vec::new());
        let sorted: &[(&'static str, &str)] = if lbls.is_sorted() {
            lbls
        } else if lbls.len() <= INLINE_LABELS {
            let buf = &mut inline[..lbls.len()];
            buf.copy_from_slice(lbls);
            buf.sort_unstable();
            buf
        } else {
            spilled.extend_from_slice(lbls);
            spilled.sort_unstable();
            &spilled
        };
        let si = match fam.series.binary_search_by(|s| cmp_labels(&s.labels, sorted)) {
            Ok(i) => i,
            Err(i) => {
                if fam.series.len() >= self.cfg.max_series_per_family {
                    self.series_rejected += 1;
                    return None;
                }
                let labels = sorted.iter().map(|&(k, v)| (k, v.to_owned())).collect();
                fam.series.insert(i, Series { labels, value: SeriesValue::zero(kind, bounds) });
                i
            }
        };
        Some(&mut fam.series[si].value)
    }

    /// Add to a counter series (creating family/series as needed).
    pub fn counter_add(
        &mut self,
        name: &'static str,
        help: &'static str,
        lbls: &[(&'static str, &str)],
        v: u64,
    ) {
        if let Some(SeriesValue::Counter(c)) = self.slot(name, help, MetricKind::Counter, &[], lbls)
        {
            *c += v;
        }
    }

    /// Set a gauge series (creating family/series as needed).
    pub fn gauge_set(
        &mut self,
        name: &'static str,
        help: &'static str,
        lbls: &[(&'static str, &str)],
        v: f64,
    ) {
        if let Some(SeriesValue::Gauge(g)) = self.slot(name, help, MetricKind::Gauge, &[], lbls) {
            *g = v;
        }
    }

    /// Observe a value into a histogram series. `bounds` fixes the
    /// family's explicit bucket upper bounds on first use; later calls
    /// must pass the same bounds (mismatches are a kind conflict).
    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        help: &'static str,
        bounds: &'static [f64],
        lbls: &[(&'static str, &str)],
        v: f64,
    ) {
        if let Some(SeriesValue::Histogram { buckets, sum, count }) =
            self.slot(name, help, MetricKind::Histogram, bounds, lbls)
        {
            let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            buckets[idx] += 1;
            *sum += v;
            *count += 1;
        }
    }

    /// Self-observability: the registry's own live cardinality and
    /// refusal counters as `(name, help, kind, series)`, rendered after
    /// the real families by both encoders so capped output is never
    /// silent. Built on the stack, without touching the heap.
    pub(crate) fn meta_series(&self) -> [(&'static str, &'static str, MetricKind, Series); 4] {
        use MetricKind::{Counter, Gauge};
        let counter = |v| Series::single(SeriesValue::Counter(v));
        [
            (
                "fet_export_series",
                "Live series in the registry (cardinality-capped).",
                Gauge,
                Series::single(SeriesValue::Gauge(self.series_count() as f64)),
            ),
            (
                "fet_export_series_rejected_total",
                "Series refused by the per-family cardinality cap.",
                Counter,
                counter(self.series_rejected),
            ),
            (
                "fet_export_families_rejected_total",
                "Families refused by the family cap.",
                Counter,
                counter(self.families_rejected),
            ),
            (
                "fet_export_kind_conflicts_total",
                "Updates refused because a family was re-declared with a different kind or bounds.",
                Counter,
                counter(self.kind_conflicts),
            ),
        ]
    }
}

impl Default for MetricRegistry {
    fn default() -> Self {
        MetricRegistry::new(RegistryConfig::default())
    }
}

/// Prometheus metric-name grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Prometheus label-name grammar: `[a-zA-Z_][a-zA-Z0-9_]*`.
pub(crate) fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_replace() {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_x_total", "x", &[("a", "1")], 2);
        r.counter_add("fet_x_total", "x", &[("a", "1")], 3);
        r.gauge_set("fet_g", "g", &[], 7.0);
        r.gauge_set("fet_g", "g", &[], 4.5);
        let fam = r.family("fet_x_total").unwrap();
        assert_eq!(fam.series()[0].value, SeriesValue::Counter(5));
        let fam = r.family("fet_g").unwrap();
        assert_eq!(fam.series()[0].value, SeriesValue::Gauge(4.5));
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_x_total", "x", &[("b", "2"), ("a", "1")], 1);
        r.counter_add("fet_x_total", "x", &[("a", "1"), ("b", "2")], 1);
        let fam = r.family("fet_x_total").unwrap();
        assert_eq!(fam.series().len(), 1, "same series either order");
        assert_eq!(fam.series()[0].labels, [("a", "1".to_string()), ("b", "2".to_string())]);
    }

    #[test]
    fn series_cap_refuses_and_counts() {
        let mut r = MetricRegistry::new(RegistryConfig {
            max_series_per_family: 3,
            ..RegistryConfig::default()
        });
        for i in 0..10 {
            r.counter_add("fet_x_total", "x", &[("i", &i.to_string())], 1);
        }
        assert_eq!(r.family("fet_x_total").unwrap().series().len(), 3);
        assert_eq!(r.series_rejected, 7);
        // Existing series keep updating after the cap binds.
        r.counter_add("fet_x_total", "x", &[("i", "0")], 1);
        assert_eq!(r.series_rejected, 7);
    }

    #[test]
    fn family_cap_refuses_and_counts() {
        let mut r =
            MetricRegistry::new(RegistryConfig { max_families: 2, ..RegistryConfig::default() });
        r.counter_add("fet_a_total", "a", &[], 1);
        r.counter_add("fet_b_total", "b", &[], 1);
        r.counter_add("fet_c_total", "c", &[], 1);
        assert_eq!(r.families.len(), 2);
        assert_eq!(r.families_rejected, 1);
    }

    #[test]
    fn random_streams_respect_caps_and_conserve_attempts() {
        // Random (family, series) insert streams with repeats under random
        // tiny caps. Families and series are never evicted, so a refused
        // attempt stays refused: every attempt either lands on a stored
        // series or is counted as exactly one refusal.
        const NAMES: [&str; 8] = [
            "fet_f0_total",
            "fet_f1_total",
            "fet_f2_total",
            "fet_f3_total",
            "fet_f4_total",
            "fet_f5_total",
            "fet_f6_total",
            "fet_f7_total",
        ];
        let mut rng = fet_netsim::rng::Pcg32::new(0xCA95_0001, 1);
        for _ in 0..300 {
            let cfg = RegistryConfig {
                max_families: 1 + rng.next_below(4) as usize,
                max_series_per_family: 1 + rng.next_below(4) as usize,
            };
            let mut r = MetricRegistry::new(cfg);
            let attempts: Vec<(u32, u32)> = (0..1 + rng.next_below(200))
                .map(|_| (rng.next_below(8), rng.next_below(32)))
                .collect();
            for &(f, sr) in &attempts {
                r.counter_add(NAMES[f as usize], "Prop.", &[("s", &sr.to_string())], 1);
            }
            assert!(r.families.len() <= cfg.max_families, "family cap violated");
            assert!(r.families().all(|fam| fam.series().len() <= cfg.max_series_per_family));
            let stored = attempts
                .iter()
                .filter(|&&(f, sr)| {
                    r.family(NAMES[f as usize]).is_some_and(|fam| {
                        fam.series().iter().any(|s| s.labels == [("s", sr.to_string())])
                    })
                })
                .count() as u64;
            assert_eq!(
                stored + r.series_rejected + r.families_rejected,
                attempts.len() as u64,
                "stored + rejected must equal attempted"
            );
            // The stored counters hold exactly the stored attempts.
            let total: u64 = r
                .families()
                .flat_map(|fam| fam.series())
                .map(|s| match s.value {
                    SeriesValue::Counter(c) => c,
                    _ => unreachable!("only counters were added"),
                })
                .sum();
            assert_eq!(total, stored);
        }
    }

    #[test]
    fn kind_conflicts_are_refused_not_merged() {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_x_total", "x", &[], 1);
        r.gauge_set("fet_x_total", "x", &[], 9.0);
        assert_eq!(r.kind_conflicts, 1);
        assert_eq!(r.family("fet_x_total").unwrap().kind, MetricKind::Counter);
    }

    #[test]
    fn histogram_buckets_fill_in_order() {
        let mut r = MetricRegistry::default();
        for v in [0.5, 5.0, 50.0, 0.2] {
            r.histogram_observe("fet_h", "h", &[1.0, 10.0], &[], v);
        }
        let fam = r.family("fet_h").unwrap();
        match &fam.series()[0].value {
            SeriesValue::Histogram { buckets, sum, count } => {
                assert_eq!(buckets, &vec![2, 1, 1]);
                assert_eq!(*count, 4);
                assert!((sum - 55.7).abs() < 1e-9);
            }
            other => panic!("not a histogram: {other:?}"),
        }
        // Bound mismatch is a conflict, not a silent re-bucket.
        r.histogram_observe("fet_h", "h", &[2.0], &[], 1.0);
        assert_eq!(r.kind_conflicts, 1);
    }

    #[test]
    fn name_grammars() {
        assert!(valid_metric_name("fet_events_total"));
        assert!(valid_metric_name(":ns:x"));
        assert!(!valid_metric_name("9fet"));
        assert!(!valid_metric_name("fet-x"));
        assert!(valid_label_name("le"));
        assert!(!valid_label_name("l-e"));
        assert!(!valid_label_name(":x"));
    }
}
