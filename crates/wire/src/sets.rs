//! What the three dialect parsers share: the decoded-datagram shape, the
//! big-endian readers, the fixed-header checks, and the set walker v9 and
//! IPFIX both frame their template and data sets with.

use crate::fields::decode_record;
use crate::reason::{RejectReason, REASON_COUNT};
use crate::template::{Template, TemplateCache};
use crate::translate::FlowSample;

/// Both specs allow zero-padding a set to a 4-byte boundary; a tail longer
/// than this cannot be padding and is a truncated record.
pub(crate) const MAX_PAD: usize = 3;

/// Smallest data-set id in both v9 and IPFIX; the ids below it that are not
/// the dialect's template sets are reserved.
const DATA_SET_MIN: u16 = 256;

/// One decoded datagram, whatever dialect spoke it. Each parser resolves
/// its dialect into these protocol-neutral fields, so the session runs one
/// sequence, clock and report path for all three.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Datagram {
    /// Sequence stream: v9 source id, IPFIX observation domain, v5
    /// `engine_type << 8 | engine_id`.
    pub(crate) domain: u32,
    /// Header sequence number.
    pub(crate) sequence: u32,
    /// How far this datagram moves its stream's sequence: the header count
    /// for v5 (records), 1 for v9 (datagrams), data + malformed records for
    /// IPFIX.
    pub(crate) seq_advance: u32,
    /// Exporter wall-clock at export, unix seconds; 0 = not set.
    pub(crate) export_secs: u32,
    /// Exporter uptime at export, ms (u32: wraps every ~49.7 days); 0 =
    /// not set, as always for IPFIX, which carries none.
    pub(crate) sysuptime_ms: u32,
    /// Decoded flow records, in wire order.
    pub(crate) samples: Vec<FlowSample>,
    /// Records claimed or started but not decodable.
    pub(crate) malformed: u64,
    /// Soft reject counters by [`RejectReason::index`].
    pub(crate) soft: [u64; REASON_COUNT],
}

pub(crate) fn be16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

pub(crate) fn be32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// The checks every dialect's header starts with: a readable version
/// field, the right version, then the whole fixed header.
pub(crate) fn check_header(
    buf: &[u8],
    version: u16,
    header_len: usize,
) -> Result<(), RejectReason> {
    if buf.len() < 2 {
        return Err(RejectReason::TruncatedHeader);
    }
    if be16(buf, 0) != version {
        return Err(RejectReason::BadVersion);
    }
    if buf.len() < header_len {
        return Err(RejectReason::TruncatedHeader);
    }
    Ok(())
}

/// A dialect's template-set parser: walks one template (`options` false)
/// or options-template set body, installs into the cache under `domain`,
/// books refusals as soft `bad-template`, and returns the template records
/// walked.
pub(crate) type TemplateSetParser =
    fn(&[u8], bool, &mut TemplateCache, u32, u64, &mut [u64; REASON_COUNT]) -> u64;

/// The record counts a set walk leaves for the dialect to book.
#[derive(Debug, Default)]
pub(crate) struct SetWalk {
    /// Template and options-template records walked.
    pub(crate) templates: u64,
    /// Data records walked (flow + option records).
    pub(crate) data: u64,
    /// Data sets under a template the cache does not hold. Their records
    /// cannot be counted, so each dialect books them by its own rule.
    pub(crate) unknown_template_sets: u64,
}

/// Walk the sets that follow a v9 or IPFIX header into `dg`.
///
/// Set ids `template_set` and `template_set + 1` (options) go to the
/// dialect's `parse_templates`; other ids below 256 are reserved; the rest
/// decode under the template cached for `dg.domain`. A set length shorter
/// than its own header or running past the end is a framing lie and
/// rejects the datagram.
pub(crate) fn walk_sets(
    sets: &[u8],
    template_set: u16,
    parse_templates: TemplateSetParser,
    cache: &mut TemplateCache,
    now_ns: u64,
    dg: &mut Datagram,
) -> Result<SetWalk, RejectReason> {
    let mut walk = SetWalk::default();
    let mut off = 0usize;
    // A tail of at most MAX_PAD bytes is alignment padding.
    while sets.len() - off > MAX_PAD {
        if sets.len() - off < 4 {
            dg.soft[RejectReason::TruncatedRecord.index()] += 1;
            break;
        }
        let set_id = be16(sets, off);
        let set_len = be16(sets, off + 2) as usize;
        if set_len < 4 || off + set_len > sets.len() {
            // The framing itself lies; nothing past this point is
            // trustworthy.
            return Err(RejectReason::LengthLie);
        }
        let body = &sets[off + 4..off + set_len];
        match set_id {
            id if id == template_set || id == template_set + 1 => {
                let options = id != template_set;
                walk.templates +=
                    parse_templates(body, options, cache, dg.domain, now_ns, &mut dg.soft);
            }
            id if id < DATA_SET_MIN => dg.soft[RejectReason::ReservedSet.index()] += 1,
            tid => match cache.get(dg.domain, tid, now_ns) {
                Some(tpl) => walk.data += decode_data_set(tpl, body, dg),
                None => {
                    dg.soft[RejectReason::MissingTemplate.index()] += 1;
                    walk.unknown_template_sets += 1;
                }
            },
        }
        off += set_len;
    }
    Ok(walk)
}

/// Decode every record in a data-set body under `tpl`; returns the
/// complete records walked (flow or option records).
///
/// Flow records are appended to `dg.samples`; option records (scope > 0)
/// are walked for accounting but produce no samples. A tail shorter than
/// one record is padding if ≤ [`MAX_PAD`] bytes, otherwise one malformed
/// (truncated) record.
fn decode_data_set(tpl: &Template, body: &[u8], dg: &mut Datagram) -> u64 {
    let mut records = 0;
    let mut off = 0usize;
    while off < body.len() {
        match decode_record(tpl, &body[off..]) {
            Some((s, used)) if used > 0 => {
                if !tpl.is_options() {
                    dg.samples.push(s);
                }
                records += 1;
                off += used;
            }
            _ => {
                if body.len() - off > MAX_PAD {
                    dg.soft[RejectReason::TruncatedRecord.index()] += 1;
                    dg.malformed += 1;
                }
                break;
            }
        }
    }
    records
}
