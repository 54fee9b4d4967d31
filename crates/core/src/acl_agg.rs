//! ACL drop aggregation (§3.4): drops caused by ACL rules aggregate per
//! **rule id**, not per flow, because most ACL drops are intentional and
//! per-flow reporting would flood the event path. The switch CPU maps the
//! rule id back to the rule's match description when reporting.

use std::collections::HashMap;

/// CPU-side rule registry: maps the data plane's rule ids back to the
/// rule's match description, so reports carry "the original ACL rule"
/// (§3.4: "The switch CPU can find the ACL rule corresponding to the ID,
/// and report the original ACL rule and the counter").
#[derive(Debug, Default)]
pub struct RuleRegistry {
    rules: HashMap<u32, String>,
}

impl RuleRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule's human-readable description at install time.
    pub fn register(&mut self, rule_id: u32, description: impl Into<String>) {
        self.rules.insert(rule_id, description.into());
    }

    /// Resolve an id (drops silently report "unknown rule").
    pub fn describe(&self, rule_id: u32) -> &str {
        self.rules.get(&rule_id).map(String::as_str).unwrap_or("<unknown rule>")
    }
}

/// Per-ACL-rule drop counters with periodic report thresholds.
#[derive(Debug, Default)]
pub(crate) struct AclAggregator {
    counters: HashMap<u32, u64>,
    reported_at: HashMap<u32, u64>,
    /// Counter interval between refresher reports.
    report_interval: u64,
}

/// What an ACL drop produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AclOutcome {
    /// First drop on this rule: report (rule id, count = 1).
    FirstReport,
    /// Crossed a report threshold: report (rule id, count).
    ThresholdReport {
        /// Drop count at the report.
        count: u64,
    },
    /// Counted silently.
    Counted,
}

impl AclAggregator {
    /// Create with a refresher interval (drops between reports).
    pub(crate) fn new(report_interval: u64) -> Self {
        AclAggregator {
            counters: HashMap::new(),
            reported_at: HashMap::new(),
            report_interval: report_interval.max(1),
        }
    }

    /// Record one ACL drop on `rule_id`.
    pub(crate) fn record(&mut self, rule_id: u32) -> AclOutcome {
        let c = self.counters.entry(rule_id).or_insert(0);
        *c += 1;
        let count = *c;
        let last = self.reported_at.entry(rule_id).or_insert(0);
        if count == 1 {
            *last = 1;
            AclOutcome::FirstReport
        } else if count - *last >= self.report_interval {
            *last = count;
            AclOutcome::ThresholdReport { count }
        } else {
            AclOutcome::Counted
        }
    }

    /// Current drop count of one rule.
    pub(crate) fn count(&self, rule_id: u32) -> u64 {
        self.counters.get(&rule_id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_drop_reports() {
        let mut a = AclAggregator::new(100);
        assert_eq!(a.record(7), AclOutcome::FirstReport);
        assert_eq!(a.record(7), AclOutcome::Counted);
        assert_eq!(a.count(7), 2);
    }

    #[test]
    fn threshold_refreshers() {
        let mut a = AclAggregator::new(10);
        assert_eq!(a.record(1), AclOutcome::FirstReport);
        for _ in 0..9 {
            a.record(1);
        }
        // 11th drop: 11 - 1 >= 10.
        assert_eq!(a.record(1), AclOutcome::ThresholdReport { count: 11 });
        for _ in 0..9 {
            assert_eq!(a.record(1), AclOutcome::Counted);
        }
        assert_eq!(a.record(1), AclOutcome::ThresholdReport { count: 21 });
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = RuleRegistry::new();
        r.register(7, "deny tcp any any eq 22");
        assert_eq!(r.describe(7), "deny tcp any any eq 22");
        assert_eq!(r.describe(8), "<unknown rule>");
    }

    #[test]
    fn rules_independent() {
        let mut a = AclAggregator::new(5);
        a.record(1);
        assert_eq!(a.record(2), AclOutcome::FirstReport);
        assert_eq!((a.count(1), a.count(2)), (1, 1));
    }
}
