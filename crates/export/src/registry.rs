//! The deterministic, allocation-bounded metric registry.
//!
//! Three constraints shape this module, in priority order:
//!
//! 1. **Determinism.** Snapshots must be bit-identical across runs, shard
//!    counts, and platforms. Families and series live in `BTreeMap`s, so
//!    iteration order is the lexicographic order of names and label sets
//!    — never insertion or hash order. Values are `u64` counters, `f64`
//!    gauges, and fixed-bound histograms; nothing reads a clock.
//!
//! 2. **Hard cardinality caps.** A hostile workload (wire exporters
//!    minting observation domains, floods of distinct flows) must not be
//!    able to grow the registry without bound. Series beyond
//!    [`RegistryConfig::max_series_per_family`] and families beyond
//!    [`RegistryConfig::max_families`] are *refused and counted*, never
//!    admitted; the refusal counters are themselves exported (see
//!    [`MetricRegistry::meta_families`]), so silent truncation is
//!    impossible.
//!
//! 3. **Bounded allocation.** Memory is bounded by the caps times the
//!    label-set size; scrape adapters rebuild the registry per snapshot,
//!    so there is no unbounded retained state between scrapes.
//!
//! Metric naming follows the repo-wide `fet_*` scheme (DESIGN.md §15):
//! `fet_<subsystem>_<what>[_total]`, with `_total` reserved for
//! monotonic counters.

use std::collections::BTreeMap;

/// A sorted, owned label set. Keys are sorted at construction so two
/// call sites naming the same labels in different orders hit the same
/// series.
pub type LabelSet = Vec<(String, String)>;

/// Build a [`LabelSet`] from borrowed pairs (sorted by key).
pub fn labels(pairs: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution over fixed explicit bounds.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
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

/// One metric family: a name, help text, kind, and its series.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name (`fet_*`).
    pub name: String,
    /// Help text (escaped by the encoders).
    pub help: String,
    /// Family kind; every series in the family shares it.
    pub kind: MetricKind,
    /// Histogram bucket upper bounds (ascending, `+Inf` implicit).
    /// Empty for counters and gauges.
    pub bounds: Vec<f64>,
    /// Series by sorted label set — BTreeMap, so iteration (and thus
    /// every rendered snapshot) is deterministic.
    pub series: BTreeMap<LabelSet, SeriesValue>,
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
    families: BTreeMap<String, Family>,
    /// Series refused by the per-family cardinality cap.
    pub series_rejected: u64,
    /// Families refused by the family cap.
    pub families_rejected: u64,
    /// Updates refused because the family already exists with a
    /// different kind (a programming error, but counted, not ignored).
    pub kind_conflicts: u64,
}

impl MetricRegistry {
    /// A registry with the given caps.
    pub fn new(cfg: RegistryConfig) -> Self {
        MetricRegistry {
            cfg,
            families: BTreeMap::new(),
            series_rejected: 0,
            families_rejected: 0,
            kind_conflicts: 0,
        }
    }

    /// The configured caps.
    pub fn config(&self) -> RegistryConfig {
        self.cfg
    }

    /// All families in name order.
    pub fn families(&self) -> impl Iterator<Item = &Family> {
        self.families.values()
    }

    /// A family by name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.get(name)
    }

    /// Number of families (meta families excluded).
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Total live series across all families (meta excluded).
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Look up or admit the family, enforcing the family cap and kind
    /// consistency. Returns `None` when refused (and counts why).
    fn admit_family(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        bounds: &[f64],
    ) -> Option<&mut Family> {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if !self.families.contains_key(name) {
            if self.families.len() >= self.cfg.max_families {
                self.families_rejected += 1;
                return None;
            }
            self.families.insert(
                name.to_string(),
                Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    bounds: bounds.to_vec(),
                    series: BTreeMap::new(),
                },
            );
        }
        let fam = self.families.get_mut(name).expect("just admitted");
        if fam.kind != kind {
            self.kind_conflicts += 1;
            return None;
        }
        Some(fam)
    }

    /// Look up or admit a series slot, enforcing the per-family cap.
    fn admit_series<'a>(
        fam: &'a mut Family,
        ls: LabelSet,
        cap: usize,
        rejected: &mut u64,
        default: SeriesValue,
    ) -> Option<&'a mut SeriesValue> {
        if !fam.series.contains_key(&ls) {
            if fam.series.len() >= cap {
                *rejected += 1;
                return None;
            }
            fam.series.insert(ls.clone(), default);
        }
        fam.series.get_mut(&ls)
    }

    /// Add to a counter series (creating family/series as needed).
    pub fn counter_add(&mut self, name: &str, help: &str, lbls: &[(&str, &str)], v: u64) {
        let cap = self.cfg.max_series_per_family;
        let mut rejected = 0u64;
        if let Some(fam) = self.admit_family(name, help, MetricKind::Counter, &[]) {
            if let Some(SeriesValue::Counter(c)) =
                Self::admit_series(fam, labels(lbls), cap, &mut rejected, SeriesValue::Counter(0))
            {
                *c += v;
            }
        }
        self.series_rejected += rejected;
    }

    /// Set a gauge series (creating family/series as needed).
    pub fn gauge_set(&mut self, name: &str, help: &str, lbls: &[(&str, &str)], v: f64) {
        let cap = self.cfg.max_series_per_family;
        let mut rejected = 0u64;
        if let Some(fam) = self.admit_family(name, help, MetricKind::Gauge, &[]) {
            if let Some(SeriesValue::Gauge(g)) =
                Self::admit_series(fam, labels(lbls), cap, &mut rejected, SeriesValue::Gauge(0.0))
            {
                *g = v;
            }
        }
        self.series_rejected += rejected;
    }

    /// Observe a value into a histogram series. `bounds` fixes the
    /// family's explicit bucket upper bounds on first use; later calls
    /// must pass the same bounds (mismatches are a kind conflict).
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        lbls: &[(&str, &str)],
        v: f64,
    ) {
        let cap = self.cfg.max_series_per_family;
        let mut rejected = 0u64;
        let mut conflict = false;
        if let Some(fam) = self.admit_family(name, help, MetricKind::Histogram, bounds) {
            if fam.bounds != bounds {
                conflict = true;
            } else {
                let fresh = SeriesValue::Histogram {
                    buckets: vec![0; bounds.len() + 1],
                    sum: 0.0,
                    count: 0,
                };
                if let Some(SeriesValue::Histogram { buckets, sum, count }) =
                    Self::admit_series(fam, labels(lbls), cap, &mut rejected, fresh)
                {
                    // `bounds == fam.bounds` was checked above, so
                    // indexing off the argument avoids aliasing `fam`.
                    let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
                    buckets[idx] += 1;
                    *sum += v;
                    *count += 1;
                }
            }
        }
        self.series_rejected += rejected;
        if conflict {
            self.kind_conflicts += 1;
        }
    }

    /// Self-observability: synthetic families describing the registry's
    /// own refusal counters and live cardinality, appended after the real
    /// families by both encoders so capped output is never silent.
    pub fn meta_families(&self) -> Vec<Family> {
        let single = |name: &str, help: &str, kind: MetricKind, v: SeriesValue| Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            bounds: Vec::new(),
            series: BTreeMap::from([(LabelSet::new(), v)]),
        };
        vec![
            single(
                "fet_export_series",
                "Live series in the registry (cardinality-capped).",
                MetricKind::Gauge,
                SeriesValue::Gauge(self.series_count() as f64),
            ),
            single(
                "fet_export_series_rejected_total",
                "Series refused by the per-family cardinality cap.",
                MetricKind::Counter,
                SeriesValue::Counter(self.series_rejected),
            ),
            single(
                "fet_export_families_rejected_total",
                "Families refused by the family cap.",
                MetricKind::Counter,
                SeriesValue::Counter(self.families_rejected),
            ),
            single(
                "fet_export_kind_conflicts_total",
                "Updates refused because a family was re-declared with a different kind or bounds.",
                MetricKind::Counter,
                SeriesValue::Counter(self.kind_conflicts),
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
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Prometheus label-name grammar: `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn valid_label_name(name: &str) -> bool {
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
        assert_eq!(fam.series.values().next(), Some(&SeriesValue::Counter(5)));
        let fam = r.family("fet_g").unwrap();
        assert_eq!(fam.series.values().next(), Some(&SeriesValue::Gauge(4.5)));
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = MetricRegistry::default();
        r.counter_add("fet_x_total", "x", &[("b", "2"), ("a", "1")], 1);
        r.counter_add("fet_x_total", "x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.family("fet_x_total").unwrap().series.len(), 1, "same series either order");
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
        assert_eq!(r.family("fet_x_total").unwrap().series.len(), 3);
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
        assert_eq!(r.family_count(), 2);
        assert_eq!(r.families_rejected, 1);
    }

    #[test]
    fn random_streams_respect_caps_and_conserve_attempts() {
        // Random (family, series) insert streams with repeats under random
        // tiny caps. Families and series are never evicted, so a refused
        // attempt stays refused: every attempt either lands on a stored
        // series or is counted as exactly one refusal.
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
                r.counter_add(&format!("fet_f{f}_total"), "Prop.", &[("s", &sr.to_string())], 1);
            }
            assert!(r.family_count() <= cfg.max_families, "family cap violated");
            assert!(r.families().all(|fam| fam.series.len() <= cfg.max_series_per_family));
            let stored = attempts
                .iter()
                .filter(|&&(f, sr)| {
                    r.family(&format!("fet_f{f}_total")).is_some_and(|fam| {
                        fam.series.contains_key(&labels(&[("s", &sr.to_string())]))
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
                .flat_map(|fam| fam.series.values())
                .map(|v| match v {
                    SeriesValue::Counter(c) => *c,
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
        let bounds = [1.0, 10.0];
        for v in [0.5, 5.0, 50.0, 0.2] {
            r.histogram_observe("fet_h", "h", &bounds, &[], v);
        }
        let fam = r.family("fet_h").unwrap();
        match fam.series.values().next().unwrap() {
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
