//! Bounded, deterministic template store for NetFlow v9 / IPFIX decoding.
//!
//! Template-based protocols hand the *exporter* control over decoder state:
//! every template record asks the collector to remember a layout. A hostile
//! exporter can therefore try to grow our memory without limit — distinct
//! template ids, distinct observation domains, giant field lists. This cache
//! caps every axis:
//!
//! * at most [`TemplateCacheConfig::max_templates`] templates per
//!   observation domain (LRU-evicted, like the vector/zensight collectors);
//! * at most [`TemplateCacheConfig::max_domains`] observation domains
//!   (whole-domain LRU eviction — the v9 `source_id` is a 32-bit
//!   attacker-controlled value, so domains must be bounded too);
//! * at most 128 fields and 2048 bytes per record per template (the
//!   `MAX_FIELDS` and `MAX_RECORD_LEN` safety bounds);
//! * templates not referenced for
//!   [`TemplateCacheConfig::template_timeout_ns`] expire.
//!
//! Recency is a logical tick, not wall time, so eviction order is a pure
//! function of the operation sequence — the determinism harness relies on
//! this. Storage is `BTreeMap` for the same reason: iteration order never
//! depends on hasher seeds.

use std::collections::BTreeMap;

/// IPFIX "variable length" marker in a template field spec (RFC 7011 §7).
pub(crate) const VARLEN: u16 = 65535;

/// Maximum fields per template; templates claiming more are rejected.
const MAX_FIELDS: usize = 128;

/// Maximum fixed record length in bytes; templates describing longer
/// records are rejected.
const MAX_RECORD_LEN: usize = 2048;

/// One field spec inside a template: what to decode and how wide it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateField {
    /// Information element id (v9 field type / IPFIX IE id, enterprise bit
    /// stripped).
    pub field_id: u16,
    /// Encoded length in bytes, or `VARLEN`.
    pub length: u16,
    /// IPFIX enterprise number, if the enterprise bit was set.
    pub enterprise: Option<u32>,
}

impl TemplateField {
    /// A standard (non-enterprise) field.
    pub fn std(field_id: u16, length: u16) -> Self {
        TemplateField { field_id, length, enterprise: None }
    }

    /// True for IPFIX variable-length fields.
    pub(crate) fn is_varlen(&self) -> bool {
        self.length == VARLEN
    }
}

/// A decoded template: the record layout a data set with this id follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template id (must be >= 256; lower ids name set types).
    pub(crate) id: u16,
    /// Field specs in wire order (scope fields first for options
    /// templates).
    pub(crate) fields: Vec<TemplateField>,
    /// Number of leading scope fields; > 0 marks an options template,
    /// whose data records are exporter metadata, not flow records.
    pub(crate) scope_fields: u16,
    /// When this template was installed or last refreshed (caller clock).
    installed_ns: u64,
    /// Logical recency tick for LRU eviction.
    touch: u64,
}

impl Template {
    /// Build a template (not yet installed anywhere).
    pub fn new(id: u16, fields: Vec<TemplateField>, scope_fields: u16) -> Self {
        Template { id, fields, scope_fields, installed_ns: 0, touch: 0 }
    }

    /// True if data records under this template are option records.
    pub(crate) fn is_options(&self) -> bool {
        self.scope_fields > 0
    }

    /// Total record length if every field is fixed-width, else `None`.
    pub(crate) fn fixed_record_len(&self) -> Option<usize> {
        let mut total = 0usize;
        for f in &self.fields {
            if f.is_varlen() {
                return None;
            }
            total += f.length as usize;
        }
        Some(total)
    }

    /// Smallest number of bytes any record under this template can occupy
    /// (varlen fields cost at least their 1-byte length prefix).
    pub(crate) fn min_record_len(&self) -> usize {
        self.fields.iter().map(|f| if f.is_varlen() { 1 } else { f.length as usize }).sum()
    }
}

/// Bounds on template-cache growth. Defaults follow the vector NetFlow
/// source exemplar (SNIPPETS.md): 1000 templates per observation domain,
/// 1-hour template timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateCacheConfig {
    /// Maximum templates kept per observation domain (LRU beyond this).
    pub max_templates: usize,
    /// Maximum observation domains tracked (whole-domain LRU beyond this).
    pub max_domains: usize,
    /// Nanoseconds since last reference after which a template expires;
    /// 0 disables expiry.
    pub template_timeout_ns: u64,
}

impl Default for TemplateCacheConfig {
    fn default() -> Self {
        TemplateCacheConfig {
            max_templates: 1000,
            max_domains: 64,
            template_timeout_ns: 3_600_000_000_000,
        }
    }
}

/// Cache activity counters; all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// New templates accepted.
    pub installed: u64,
    /// Re-announcements of an id already cached (refreshes its clock).
    pub refreshed: u64,
    /// Templates evicted to stay under `max_templates`.
    pub evicted_lru: u64,
    /// Whole domains evicted to stay under `max_domains`.
    pub evicted_domains: u64,
    /// Templates dropped because they outlived `template_timeout_ns`.
    pub expired: u64,
    /// Template announcements refused by the validity bounds.
    pub rejected: u64,
}

/// What [`TemplateCache::install`] did with an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcome {
    /// New template accepted.
    Installed,
    /// Existing id re-announced; definition and clock refreshed.
    Refreshed,
    /// Announcement violated the validity bounds and was refused.
    Rejected,
}

#[derive(Debug, Default)]
struct Domain {
    templates: BTreeMap<u16, Template>,
    touch: u64,
}

/// The bounded per-observation-domain template store.
#[derive(Debug)]
pub struct TemplateCache {
    cfg: TemplateCacheConfig,
    domains: BTreeMap<u32, Domain>,
    tick: u64,
    stats: TemplateCacheStats,
}

impl TemplateCache {
    /// Empty cache with the given bounds.
    pub fn new(cfg: TemplateCacheConfig) -> Self {
        TemplateCache {
            cfg,
            domains: BTreeMap::new(),
            tick: 0,
            stats: TemplateCacheStats::default(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &TemplateCacheConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> &TemplateCacheStats {
        &self.stats
    }

    /// Validity check for an announced template, against the configured
    /// bounds. Rejection reasons are structural — nothing here depends on
    /// cache occupancy.
    fn valid(&self, tpl: &Template) -> bool {
        if tpl.id < 256 {
            return false;
        }
        if tpl.fields.is_empty() || tpl.fields.len() > MAX_FIELDS {
            return false;
        }
        if (tpl.scope_fields as usize) > tpl.fields.len() {
            return false;
        }
        for f in &tpl.fields {
            if !f.is_varlen() && (f.length == 0 || f.length as usize > MAX_RECORD_LEN) {
                return false;
            }
        }
        if let Some(len) = tpl.fixed_record_len() {
            if len == 0 || len > MAX_RECORD_LEN {
                return false;
            }
        } else if tpl.min_record_len() > MAX_RECORD_LEN {
            return false;
        }
        true
    }

    /// Install or refresh a template announcement for `domain`.
    pub fn install(&mut self, domain: u32, mut tpl: Template, now_ns: u64) -> InstallOutcome {
        if !self.valid(&tpl) {
            self.stats.rejected += 1;
            return InstallOutcome::Rejected;
        }
        self.tick += 1;
        tpl.installed_ns = now_ns;
        tpl.touch = self.tick;

        if !self.domains.contains_key(&domain) && self.domains.len() >= self.cfg.max_domains {
            // Evict the least recently touched whole domain.
            if let Some((&victim, _)) = self.domains.iter().min_by_key(|(id, d)| (d.touch, **id)) {
                self.domains.remove(&victim);
                self.stats.evicted_domains += 1;
            }
        }
        let tick = self.tick;
        let max_templates = self.cfg.max_templates.max(1);
        let dom = self.domains.entry(domain).or_default();
        dom.touch = tick;

        let refreshed = dom.templates.contains_key(&tpl.id);
        if !refreshed && dom.templates.len() >= max_templates {
            // Evict the least recently touched template in this domain.
            if let Some((&victim, _)) = dom.templates.iter().min_by_key(|(id, t)| (t.touch, **id)) {
                dom.templates.remove(&victim);
                self.stats.evicted_lru += 1;
            }
        }
        dom.templates.insert(tpl.id, tpl);
        if refreshed {
            self.stats.refreshed += 1;
            InstallOutcome::Refreshed
        } else {
            self.stats.installed += 1;
            InstallOutcome::Installed
        }
    }

    /// Look up a template, touching its recency and enforcing expiry.
    pub fn get(&mut self, domain: u32, id: u16, now_ns: u64) -> Option<&Template> {
        self.tick += 1;
        let tick = self.tick;
        let timeout = self.cfg.template_timeout_ns;
        let dom = self.domains.get_mut(&domain)?;
        let stale = match dom.templates.get(&id) {
            None => return None,
            Some(t) => timeout > 0 && now_ns.saturating_sub(t.installed_ns) > timeout,
        };
        if stale {
            dom.templates.remove(&id);
            self.stats.expired += 1;
            return None;
        }
        dom.touch = tick;
        let t = dom.templates.get_mut(&id).expect("checked above");
        t.touch = tick;
        Some(&*t)
    }

    /// Drop every template that outlived the timeout; returns how many.
    pub fn sweep(&mut self, now_ns: u64) -> u64 {
        let timeout = self.cfg.template_timeout_ns;
        if timeout == 0 {
            return 0;
        }
        let mut dropped = 0;
        for dom in self.domains.values_mut() {
            let before = dom.templates.len();
            dom.templates.retain(|_, t| now_ns.saturating_sub(t.installed_ns) <= timeout);
            dropped += (before - dom.templates.len()) as u64;
        }
        self.domains.retain(|_, d| !d.templates.is_empty());
        self.stats.expired += dropped;
        dropped
    }

    /// Templates currently cached for one domain.
    pub fn domain_len(&self, domain: u32) -> usize {
        self.domains.get(&domain).map_or(0, |d| d.templates.len())
    }

    /// Largest per-domain occupancy — the value the `max_templates` bound
    /// caps.
    pub fn max_domain_len(&self) -> usize {
        self.domains.values().map(|d| d.templates.len()).max().unwrap_or(0)
    }

    /// Number of observation domains tracked.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Templates cached across all domains.
    pub fn total_len(&self) -> usize {
        self.domains.values().map(|d| d.templates.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpl(id: u16) -> Template {
        Template::new(id, vec![TemplateField::std(8, 4), TemplateField::std(12, 4)], 0)
    }

    fn cache(max_templates: usize) -> TemplateCache {
        TemplateCache::new(TemplateCacheConfig { max_templates, ..Default::default() })
    }

    #[test]
    fn install_get_roundtrip() {
        let mut c = cache(10);
        assert_eq!(c.install(1, tpl(256), 0), InstallOutcome::Installed);
        let t = c.get(1, 256, 0).expect("installed");
        assert_eq!(t.fixed_record_len(), Some(8));
        assert!(c.get(1, 257, 0).is_none());
        assert!(c.get(2, 256, 0).is_none());
    }

    #[test]
    fn refresh_is_not_a_new_install() {
        let mut c = cache(10);
        c.install(1, tpl(256), 0);
        assert_eq!(c.install(1, tpl(256), 5), InstallOutcome::Refreshed);
        assert_eq!(c.stats().installed, 1);
        assert_eq!(c.stats().refreshed, 1);
        assert_eq!(c.domain_len(1), 1);
    }

    #[test]
    fn lru_eviction_keeps_bound_and_drops_coldest() {
        let mut c = cache(3);
        for id in 256..259 {
            c.install(1, tpl(id), 0);
        }
        // Touch 256 so 257 becomes coldest.
        c.get(1, 256, 0);
        c.install(1, tpl(300), 0);
        assert_eq!(c.domain_len(1), 3);
        assert!(c.get(1, 257, 0).is_none(), "coldest evicted");
        assert!(c.get(1, 256, 0).is_some());
        assert!(c.get(1, 300, 0).is_some());
        assert_eq!(c.stats().evicted_lru, 1);
    }

    #[test]
    fn domain_flood_is_bounded() {
        let mut c =
            TemplateCache::new(TemplateCacheConfig { max_domains: 4, ..Default::default() });
        for domain in 0..100u32 {
            c.install(domain, tpl(256), 0);
        }
        assert_eq!(c.domain_count(), 4);
        assert_eq!(c.stats().evicted_domains, 96);
    }

    #[test]
    fn stale_templates_expire_on_get_and_sweep() {
        let mut c = TemplateCache::new(TemplateCacheConfig {
            template_timeout_ns: 100,
            ..Default::default()
        });
        c.install(1, tpl(256), 0);
        c.install(1, tpl(257), 0);
        assert!(c.get(1, 256, 101).is_none(), "expired on access");
        assert_eq!(c.stats().expired, 1);
        assert_eq!(c.sweep(500), 1, "sweep reaps the rest");
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn refresh_resets_the_expiry_clock() {
        let mut c = TemplateCache::new(TemplateCacheConfig {
            template_timeout_ns: 100,
            ..Default::default()
        });
        c.install(1, tpl(256), 0);
        c.install(1, tpl(256), 90);
        assert!(c.get(1, 256, 150).is_some(), "refresh moved the clock");
    }

    #[test]
    fn invalid_templates_rejected() {
        let mut c = cache(10);
        // id below 256
        assert_eq!(c.install(1, tpl(7), 0), InstallOutcome::Rejected);
        // zero fields
        assert_eq!(c.install(1, Template::new(256, vec![], 0), 0), InstallOutcome::Rejected);
        // zero-length field
        assert_eq!(
            c.install(1, Template::new(256, vec![TemplateField::std(8, 0)], 0), 0),
            InstallOutcome::Rejected
        );
        // record longer than MAX_RECORD_LEN
        assert_eq!(
            c.install(1, Template::new(256, vec![TemplateField::std(8, 4000)], 0), 0),
            InstallOutcome::Rejected
        );
        // more scope fields than fields
        assert_eq!(
            c.install(1, Template::new(256, vec![TemplateField::std(8, 4)], 2), 0),
            InstallOutcome::Rejected
        );
        // too many fields
        let many = (0..200).map(|i| TemplateField::std(i, 1)).collect();
        assert_eq!(c.install(1, Template::new(256, many, 0), 0), InstallOutcome::Rejected);
        assert_eq!(c.stats().rejected, 6);
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn varlen_template_has_no_fixed_len() {
        let t =
            Template::new(256, vec![TemplateField::std(8, 4), TemplateField::std(95, VARLEN)], 0);
        assert_eq!(t.fixed_record_len(), None);
        assert_eq!(t.min_record_len(), 5);
        let mut c = cache(10);
        assert_eq!(c.install(1, t, 0), InstallOutcome::Installed);
    }
}
