//! IPFIX (RFC 7011), aka "NetFlow v10": the IETF-standardized successor.
//!
//! Differences from v9 the parser must honor: the header carries the exact
//! message length (a second framing claim to verify), the sequence number
//! counts *data records* rather than datagrams, template set ids move to
//! 2/3, field specs may carry a 4-byte enterprise number (high bit of the
//! field id), and data records may contain variable-length fields.

use crate::reason::{RejectReason, REASON_COUNT};
use crate::sets::{be16, be32, check_header, walk_sets, Datagram, MAX_PAD};
use crate::template::{InstallOutcome, Template, TemplateCache, TemplateField};

/// Fixed IPFIX message header length.
pub(crate) const IPFIX_HEADER_LEN: usize = 16;
/// Template set id; the options-template set id (3) follows it.
pub(crate) const IPFIX_SET_TEMPLATE: u16 = 2;

/// Read one field spec (with optional enterprise number) at `off`; returns
/// the field and the new offset, or `None` if truncated.
fn field_spec(body: &[u8], off: usize) -> Option<(TemplateField, usize)> {
    if body.len().checked_sub(off)? < 4 {
        return None;
    }
    let raw_id = be16(body, off);
    let length = be16(body, off + 2);
    if raw_id & 0x8000 != 0 {
        if body.len() - off < 8 {
            return None;
        }
        let enterprise = be32(body, off + 4);
        Some((
            TemplateField { field_id: raw_id & 0x7fff, length, enterprise: Some(enterprise) },
            off + 8,
        ))
    } else {
        Some((TemplateField { field_id: raw_id, length, enterprise: None }, off + 4))
    }
}

/// Walk an IPFIX template or options-template set body.
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
        let field_count = be16(body, off + 2) as usize;
        let scope_count = if options { be16(body, off + 4) as usize } else { 0 };
        off += header;
        if field_count == 0 || scope_count > field_count {
            soft[RejectReason::BadTemplate.index()] += 1;
            return records;
        }
        let mut fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            match field_spec(body, off) {
                Some((f, next)) => {
                    fields.push(f);
                    off = next;
                }
                None => {
                    soft[RejectReason::BadTemplate.index()] += 1;
                    return records;
                }
            }
        }
        records += 1;
        let tpl = Template::new(tid, fields, scope_count as u16);
        if cache.install(domain, tpl, now_ns) == InstallOutcome::Rejected {
            soft[RejectReason::BadTemplate.index()] += 1;
        }
    }
    records
}

/// Parse an IPFIX message against (and updating) the session template
/// cache.
pub(crate) fn parse(
    buf: &[u8],
    cache: &mut TemplateCache,
    now_ns: u64,
) -> Result<Datagram, RejectReason> {
    check_header(buf, 10, IPFIX_HEADER_LEN)?;
    let msg_len = be16(buf, 2) as usize;
    // The header claims its own length; a claim shorter than the header or
    // longer than the buffer is a framing lie.
    if msg_len < IPFIX_HEADER_LEN || msg_len > buf.len() {
        return Err(RejectReason::LengthLie);
    }
    let buf = &buf[..msg_len];
    let mut dg = Datagram {
        domain: be32(buf, 12),
        sequence: be32(buf, 8),
        export_secs: be32(buf, 4),
        ..Datagram::default()
    };
    let sets = &buf[IPFIX_HEADER_LEN..];
    let walk = walk_sets(sets, IPFIX_SET_TEMPLATE, parse_template_set, cache, now_ns, &mut dg)?;
    // IPFIX has no per-message record count to reconcile against, so an
    // unknown-template set is booked as (at least) one malformed record —
    // a conservative floor.
    dg.malformed += walk.unknown_template_sets;
    // The sequence counts data records; advance by our best estimate of
    // this message's record count.
    dg.seq_advance = (walk.data + dg.malformed).min(u32::MAX as u64) as u32;
    Ok(dg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IpfixBuilder;
    use crate::fields::{base_flow_fields, encode_record, IN_PKTS};
    use crate::template::{TemplateCacheConfig, VARLEN};
    use crate::test_support::sample;

    fn cache() -> TemplateCache {
        TemplateCache::new(TemplateCacheConfig::default())
    }

    #[test]
    fn template_then_data_decodes() {
        let mut c = cache();
        let dg = IpfixBuilder::new(9, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(1), sample(2)])
            .build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.samples, vec![sample(1), sample(2)]);
        assert_eq!(got.seq_advance, 2, "IPFIX sequences count data records");
        assert_eq!(got.malformed, 0);
        assert_eq!(got.domain, 9);
        assert_eq!(c.stats().installed, 1);
    }

    #[test]
    fn length_lies_are_fatal() {
        let mut c = cache();
        let dg = IpfixBuilder::new(9, 0).template(256, &base_flow_fields()).build();
        // Claimed length beyond the buffer.
        let lying = IpfixBuilder::new(9, 0)
            .template(256, &base_flow_fields())
            .build_with_length(dg.len() as u16 + 40);
        assert_eq!(parse(&lying, &mut c, 0), Err(RejectReason::LengthLie));
        // Claimed length below the header.
        let tiny = IpfixBuilder::new(9, 0).build_with_length(8);
        assert_eq!(parse(&tiny, &mut c, 0), Err(RejectReason::LengthLie));
    }

    #[test]
    fn message_length_truncates_trailing_bytes() {
        let mut c = cache();
        let mut dg = IpfixBuilder::new(9, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(1)])
            .build();
        dg.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0xde, 0xad]);
        let got = parse(&dg, &mut c, 0).expect("parses to the claimed length");
        assert_eq!(got.samples.len(), 1);
        assert_eq!(got.malformed, 0);
    }

    #[test]
    fn enterprise_fields_roundtrip_through_templates() {
        let mut c = cache();
        let fields = vec![
            TemplateField::std(IN_PKTS, 4),
            TemplateField { field_id: 77, length: 2, enterprise: Some(0x1234) },
        ];
        let dg = IpfixBuilder::new(9, 0)
            .template(256, &fields)
            .data(256, &[vec![0, 0, 0, 5, 0xaa, 0xbb]])
            .build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.samples.len(), 1);
        assert_eq!(got.samples[0].packets, 5);
        let tpl = c.get(9, 256, 0).expect("installed");
        assert_eq!(tpl.fields[1].enterprise, Some(0x1234));
    }

    #[test]
    fn varlen_data_records_decode() {
        let mut c = cache();
        let fields = vec![TemplateField::std(IN_PKTS, 4), TemplateField::std(0x5001, VARLEN)];
        let rows = vec![
            vec![0, 0, 0, 1, 2, 0x61, 0x62], // pkts=1, varlen "ab"
            vec![0, 0, 0, 2, 0],             // pkts=2, varlen empty
        ];
        let dg = IpfixBuilder::new(9, 0).template(256, &fields).data(256, &rows).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.seq_advance, 2);
        assert_eq!(got.samples[0].packets, 1);
        assert_eq!(got.samples[1].packets, 2);
    }

    #[test]
    fn unknown_template_set_is_floor_counted() {
        let mut c = cache();
        let dg = IpfixBuilder::new(9, 0).data_samples(300, &[sample(1)]).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert!(got.samples.is_empty());
        assert_eq!(got.soft[RejectReason::MissingTemplate.index()], 1);
        assert_eq!(got.malformed, 1);
        assert_eq!(got.seq_advance, 1, "the floor advances the sequence too");
    }

    #[test]
    fn options_template_scope_beyond_fields_is_bad() {
        let mut c = cache();
        // options template: tid=300, field_count=1, scope_count=2 (> count)
        let body = [1, 44, 0, 1, 0, 2, 0, 1, 0, 4];
        let dg = IpfixBuilder::new(9, 0).raw_set(IPFIX_SET_TEMPLATE + 1, &body).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.soft[RejectReason::BadTemplate.index()], 1);
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn options_data_yields_no_samples() {
        let mut c = cache();
        let scope = [TemplateField::std(1, 4)];
        let opts = [TemplateField::std(41, 2)];
        let dg = IpfixBuilder::new(9, 0)
            .options_template(300, &scope, &opts)
            .data(300, &[vec![0, 0, 0, 1, 0, 9]])
            .build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert!(got.samples.is_empty());
        assert_eq!(got.seq_advance, 1, "option records are data records");
    }

    #[test]
    fn truncated_record_tail_is_malformed() {
        let mut c = cache();
        let t = IpfixBuilder::new(9, 0).template(256, &base_flow_fields()).build();
        parse(&t, &mut c, 0).expect("template");
        let mut row = encode_record(&base_flow_fields(), &sample(1));
        row.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7]);
        let dg = IpfixBuilder::new(9, 1).data(256, &[row]).build();
        let got = parse(&dg, &mut c, 0).expect("parses");
        assert_eq!(got.samples.len(), 1);
        assert_eq!(got.malformed, 1);
        assert_eq!(got.soft[RejectReason::TruncatedRecord.index()], 1);
    }

    #[test]
    fn fatal_header_rejects() {
        let mut c = cache();
        assert_eq!(parse(&[], &mut c, 0), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0, 10, 0], &mut c, 0), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0, 11, 0, 0], &mut c, 0), Err(RejectReason::BadVersion));
    }
}
