//! NetFlow v9 (RFC 3954): template-driven export.
//!
//! A v9 datagram is a 20-byte header followed by flowsets. Flowset id 0
//! carries template records, id 1 options-template records, ids ≥ 256 data
//! records decoded under a previously announced template. Ids 2–255 are
//! reserved. The header `count` claims how many records (of any kind) the
//! datagram carries — a favorite place for exporters to lie, so the parser
//! reconciles it against what it actually walked and books the difference
//! as `malformed`.

use crate::reason::{RejectReason, REASON_COUNT};
use crate::sets::{be16, be32, check_header, walk_sets, Datagram, MAX_PAD};
use crate::template::{InstallOutcome, Template, TemplateCache, TemplateField};

/// Fixed v9 header length.
pub(crate) const V9_HEADER_LEN: usize = 20;
/// Template flowset id; the options-template flowset id (1) follows it.
pub(crate) const V9_SET_TEMPLATE: u16 = 0;

/// Walk a v9 template flowset body — `(tid, field_count, field_count × 4B)`
/// records back to back — or, with `options`, an options-template body:
/// `(tid, scope_len_bytes, option_len_bytes, specs…)`.
fn parse_template_set(
    body: &[u8],
    options: bool,
    cache: &mut TemplateCache,
    domain: u32,
    now_ns: u64,
    soft: &mut [u64; REASON_COUNT],
) -> u64 {
    let header = if options { 6 } else { 4 };
    let mut records = 0;
    let mut off = 0usize;
    while body.len() - off > MAX_PAD {
        if body.len() - off < header {
            soft[RejectReason::BadTemplate.index()] += 1;
            return records;
        }
        let tid = be16(body, off);
        // Options: (scope bytes, scope + option bytes); templates: (0,
        // field_count × 4).
        let (scope_len, spec_len) = if options {
            let scope = be16(body, off + 2);
            (scope, usize::from(scope) + usize::from(be16(body, off + 4)))
        } else {
            (0, usize::from(be16(body, off + 2)) * 4)
        };
        off += header;
        if !spec_len.is_multiple_of(4)
            || !scope_len.is_multiple_of(4)
            || spec_len == 0
            || body.len() - off < spec_len
        {
            soft[RejectReason::BadTemplate.index()] += 1;
            return records;
        }
        let fields = (0..spec_len / 4)
            .map(|i| TemplateField::std(be16(body, off + i * 4), be16(body, off + i * 4 + 2)))
            .collect();
        off += spec_len;
        records += 1;
        let tpl = Template::new(tid, fields, scope_len / 4);
        if cache.install(domain, tpl, now_ns) == InstallOutcome::Rejected {
            soft[RejectReason::BadTemplate.index()] += 1;
        }
    }
    records
}

/// Parse a v9 datagram against (and updating) the session template cache.
pub(crate) fn parse(
    buf: &[u8],
    cache: &mut TemplateCache,
    now_ns: u64,
) -> Result<Datagram, RejectReason> {
    check_header(buf, 9, V9_HEADER_LEN)?;
    let count = be16(buf, 2);
    // A record needs at least 1 byte; a count beyond the datagram's byte
    // length is physically impossible and would let a hostile exporter
    // inflate the ledger for free.
    if count as usize > buf.len() {
        return Err(RejectReason::CountLie);
    }
    let mut dg = Datagram {
        domain: be32(buf, 16),
        sequence: be32(buf, 12),
        // v9 sequence counts datagrams, not records.
        seq_advance: 1,
        export_secs: be32(buf, 8),
        sysuptime_ms: be32(buf, 4),
        ..Datagram::default()
    };
    let sets = &buf[V9_HEADER_LEN..];
    let walk = walk_sets(sets, V9_SET_TEMPLATE, parse_template_set, cache, now_ns, &mut dg)?;
    // Reconcile the claimed count: records the exporter claimed but we
    // never walked (count lies, unknown-template sets, truncated sets)
    // are malformed. An *under*-claiming exporter is not penalized.
    let walked = walk.templates + walk.data + dg.malformed;
    dg.malformed += u64::from(count).saturating_sub(walked);
    Ok(dg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::V9Builder;
    use crate::fields::base_flow_fields;
    use crate::template::TemplateCacheConfig;
    use crate::test_support::sample;

    fn cache() -> TemplateCache {
        TemplateCache::new(TemplateCacheConfig::default())
    }

    #[test]
    fn template_then_data_decodes() {
        let mut c = cache();
        let dg = |count| {
            V9Builder::new(7, 1)
                .template(256, &base_flow_fields())
                .data_samples(256, &[sample(1), sample(2)])
                .build_with_count(count)
        };
        // 1 template + 2 data records walked: a count of 3 is honest.
        let got = parse(&dg(3), &mut c, 0).expect("parses");
        assert_eq!(got.samples, vec![sample(1), sample(2)]);
        assert_eq!(got.malformed, 0);
        assert_eq!((got.domain, got.sequence, got.seq_advance), (7, 1, 1));
        assert_eq!(c.stats().installed, 1);
        assert_eq!(c.domain_len(7), 1);
        // A count of 4 leaves one claimed record malformed.
        assert_eq!(parse(&dg(4), &mut c, 0).expect("parses").malformed, 1);
    }

    #[test]
    fn data_before_template_is_missing_template() {
        let mut c = cache();
        let dg = V9Builder::new(7, 1).data_samples(256, &[sample(1)]).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert!(got.samples.is_empty());
        assert_eq!(got.soft[RejectReason::MissingTemplate.index()], 1);
        // The claimed record surfaces as malformed via count reconciliation.
        assert_eq!(got.malformed, 1);
    }

    #[test]
    fn templates_survive_across_datagrams() {
        let mut c = cache();
        let t = V9Builder::new(7, 1).template(256, &base_flow_fields()).build();
        parse(&t, &mut c, 0).expect("template datagram");
        let d = V9Builder::new(7, 2).data_samples(256, &[sample(3)]).build();
        let got = parse(&d, &mut c, 0).expect("data datagram");
        assert_eq!(got.samples, vec![sample(3)]);
    }

    #[test]
    fn fatal_rejects() {
        let mut c = cache();
        assert_eq!(parse(&[], &mut c, 0), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0, 9, 0], &mut c, 0), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0, 8, 0, 0], &mut c, 0), Err(RejectReason::BadVersion));
        // Claimed count beyond the datagram's physical capacity.
        let dg = V9Builder::new(7, 1).build_with_count(9999);
        assert_eq!(parse(&dg, &mut c, 0), Err(RejectReason::CountLie));
        // Flowset length walking off the buffer.
        let dg = V9Builder::new(7, 1).raw_flowset(256, &[0u8; 8]).build();
        let mut lying = dg.clone();
        lying[V9_HEADER_LEN + 2] = 0xff; // set_len low byte → far past end
        lying[V9_HEADER_LEN + 3] = 0xff;
        assert_eq!(parse(&lying, &mut c, 0), Err(RejectReason::LengthLie));
        // Flowset length below its own header.
        let mut tiny = dg;
        tiny[V9_HEADER_LEN + 2] = 0;
        tiny[V9_HEADER_LEN + 3] = 3;
        assert_eq!(parse(&tiny, &mut c, 0), Err(RejectReason::LengthLie));
    }

    #[test]
    fn reserved_flowset_ids_are_skipped() {
        let mut c = cache();
        let dg = V9Builder::new(7, 1)
            .raw_flowset(100, &[1, 2, 3, 4])
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(1)])
            .build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.soft[RejectReason::ReservedSet.index()], 1);
        assert_eq!(got.samples.len(), 1);
    }

    #[test]
    fn bad_template_is_soft() {
        let mut c = cache();
        // field_count = 0
        let dg = V9Builder::new(7, 1).raw_flowset(V9_SET_TEMPLATE, &[1, 0, 0, 0]).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.soft[RejectReason::BadTemplate.index()], 1);
        assert_eq!(c.total_len(), 0);
        // Template id below 256 is refused by the cache.
        let dg = V9Builder::new(7, 2).template(42, &base_flow_fields()).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.soft[RejectReason::BadTemplate.index()], 1);
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn options_template_data_counts_but_yields_no_samples() {
        let mut c = cache();
        let scope = [TemplateField::std(1, 4)]; // "system" scope
        let opts = [TemplateField::std(41, 2)];
        let dg = V9Builder::new(7, 1)
            .options_template(300, &scope, &opts)
            .data(300, &[vec![0, 0, 0, 1, 0, 5]])
            .build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert!(got.samples.is_empty());
        assert_eq!(got.malformed, 0);
        assert_eq!(c.stats().installed, 1);
        // 1 options template + 1 option record walked.
        let over = V9Builder::new(7, 2)
            .options_template(300, &scope, &opts)
            .data(300, &[vec![0, 0, 0, 1, 0, 5]])
            .build_with_count(3);
        assert_eq!(parse(&over, &mut c, 0).expect("parses").malformed, 1);
    }

    #[test]
    fn truncated_data_tail_is_malformed() {
        let mut c = cache();
        let t = V9Builder::new(7, 1).template(256, &base_flow_fields()).build();
        parse(&t, &mut c, 0).expect("template");
        // One complete record plus 7 stray bytes (more than padding).
        let mut row = crate::fields::encode_record(&base_flow_fields(), &sample(1));
        row.extend_from_slice(&[9, 9, 9, 9, 9, 9, 9]);
        let dg = V9Builder::new(7, 2).data(256, &[row]).build_with_count(2);
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.samples.len(), 1);
        assert_eq!(got.malformed, 1);
        assert_eq!(got.soft[RejectReason::TruncatedRecord.index()], 1);
    }
}
