//! Well-formed datagram encoders — the reference exporters the golden
//! corpus, the fuzz harness (as mutation seeds), the hostile-exporter
//! model, and the ingest bench all build on.
//!
//! Every builder also exposes an escape hatch (`raw_*`, `*_with_count`,
//! `*_with_length`) so tests can construct *almost*-valid datagrams: the
//! hostile exporter lies precisely where real exporters lie.

use crate::fields::encode_record;
use crate::template::TemplateField;
use crate::translate::FlowSample;
use crate::v5::{V5_HEADER_LEN, V5_MAX_RECORDS, V5_RECORD_LEN};
use crate::v9::V9_HEADER_LEN;

fn push16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Encode a NetFlow v5 datagram; at most 30 samples (the protocol
/// maximum) are taken.
pub fn v5_datagram(
    flow_sequence: u32,
    engine_type: u8,
    engine_id: u8,
    samples: &[FlowSample],
) -> Vec<u8> {
    let n = samples.len().min(V5_MAX_RECORDS) as u16;
    v5_datagram_with_count(flow_sequence, engine_type, engine_id, samples, n)
}

/// Encode a v5 datagram with an arbitrary (possibly lying) header count.
pub fn v5_datagram_with_count(
    flow_sequence: u32,
    engine_type: u8,
    engine_id: u8,
    samples: &[FlowSample],
    count: u16,
) -> Vec<u8> {
    v5_datagram_with_times(flow_sequence, engine_type, engine_id, samples, count, 0, 0)
}

/// Encode a v5 datagram with explicit header clock claims (and an
/// arbitrary count). The zero-time builders above delegate here, so a
/// zero-clock datagram is byte-identical to the historical encoding.
#[allow(clippy::too_many_arguments)]
pub fn v5_datagram_with_times(
    flow_sequence: u32,
    engine_type: u8,
    engine_id: u8,
    samples: &[FlowSample],
    count: u16,
    sys_uptime: u32,
    unix_secs: u32,
) -> Vec<u8> {
    let taken = samples.len().min(V5_MAX_RECORDS);
    let mut out = Vec::with_capacity(V5_HEADER_LEN + taken * V5_RECORD_LEN);
    push16(&mut out, 5);
    push16(&mut out, count);
    push32(&mut out, sys_uptime);
    push32(&mut out, unix_secs);
    push32(&mut out, 0); // unix_nsecs
    push32(&mut out, flow_sequence);
    out.push(engine_type);
    out.push(engine_id);
    push16(&mut out, 0); // sampling interval
    for s in &samples[..taken] {
        let mut rec = [0u8; V5_RECORD_LEN];
        rec[0..4].copy_from_slice(&s.flow.src.octets());
        rec[4..8].copy_from_slice(&s.flow.dst.octets());
        // 8..12 nexthop = 0
        rec[12..14].copy_from_slice(&s.in_port.to_be_bytes());
        rec[14..16].copy_from_slice(&s.out_port.to_be_bytes());
        rec[16..20].copy_from_slice(&(s.packets.min(u32::MAX as u64) as u32).to_be_bytes());
        rec[20..24].copy_from_slice(&(s.bytes.min(u32::MAX as u64) as u32).to_be_bytes());
        rec[24..28].copy_from_slice(&s.first_ms.to_be_bytes());
        rec[28..32].copy_from_slice(&s.last_ms.to_be_bytes());
        rec[32..34].copy_from_slice(&s.flow.sport.to_be_bytes());
        rec[34..36].copy_from_slice(&s.flow.dport.to_be_bytes());
        rec[37] = s.tcp_flags;
        rec[38] = s.flow.proto.number();
        out.extend_from_slice(&rec);
    }
    out
}

/// Pad a set body to the 4-byte boundary both specs prescribe.
fn pad4(body: &mut Vec<u8>) {
    while !body.len().is_multiple_of(4) {
        body.push(0);
    }
}

/// Incremental NetFlow v9 datagram builder.
#[derive(Debug, Clone)]
pub struct V9Builder {
    source_id: u32,
    sequence: u32,
    sys_uptime: u32,
    unix_secs: u32,
    flowsets: Vec<Vec<u8>>,
    records: u16,
}

impl V9Builder {
    /// Start a datagram for one exporter source (header clocks zero —
    /// the historical "not set" encoding).
    pub fn new(source_id: u32, sequence: u32) -> Self {
        V9Builder {
            source_id,
            sequence,
            sys_uptime: 0,
            unix_secs: 0,
            flowsets: Vec::new(),
            records: 0,
        }
    }

    /// Set the header clock claims (sysuptime ms, export unix seconds).
    pub fn times(mut self, sys_uptime: u32, unix_secs: u32) -> Self {
        self.sys_uptime = sys_uptime;
        self.unix_secs = unix_secs;
        self
    }

    fn flowset(mut self, id: u16, mut body: Vec<u8>, records: u16) -> Self {
        pad4(&mut body);
        let mut fs = Vec::with_capacity(4 + body.len());
        push16(&mut fs, id);
        push16(&mut fs, (4 + body.len()) as u16);
        fs.extend_from_slice(&body);
        self.flowsets.push(fs);
        self.records = self.records.saturating_add(records);
        self
    }

    /// Append a flowset with an arbitrary id and raw body (counts as zero
    /// records — callers lying about counts use `build_with_count`).
    pub fn raw_flowset(self, id: u16, body: &[u8]) -> Self {
        self.flowset(id, body.to_vec(), 0)
    }

    /// Announce a template (flowset id 0).
    pub fn template(self, tid: u16, fields: &[TemplateField]) -> Self {
        let mut body = Vec::new();
        push16(&mut body, tid);
        push16(&mut body, fields.len() as u16);
        for f in fields {
            push16(&mut body, f.field_id);
            push16(&mut body, f.length);
        }
        self.flowset(0, body, 1)
    }

    /// Announce an options template (flowset id 1).
    pub fn options_template(
        self,
        tid: u16,
        scope: &[TemplateField],
        options: &[TemplateField],
    ) -> Self {
        let mut body = Vec::new();
        push16(&mut body, tid);
        push16(&mut body, (scope.len() * 4) as u16);
        push16(&mut body, (options.len() * 4) as u16);
        for f in scope.iter().chain(options) {
            push16(&mut body, f.field_id);
            push16(&mut body, f.length);
        }
        self.flowset(1, body, 1)
    }

    /// Append a data flowset from pre-encoded record bytes.
    pub fn data(self, tid: u16, rows: &[Vec<u8>]) -> Self {
        let n = rows.len() as u16;
        let mut body = Vec::new();
        for r in rows {
            body.extend_from_slice(r);
        }
        self.flowset(tid, body, n)
    }

    /// Append a data flowset of flow samples encoded under the base
    /// flow template ([`crate::fields::base_flow_fields`]).
    pub fn data_samples(self, tid: u16, samples: &[FlowSample]) -> Self {
        let fields = crate::fields::base_flow_fields();
        let rows: Vec<Vec<u8>> = samples.iter().map(|s| encode_record(&fields, s)).collect();
        self.data(tid, &rows)
    }

    /// Finish with the honest record count.
    pub fn build(self) -> Vec<u8> {
        let records = self.records;
        self.build_with_count(records)
    }

    /// Finish with an arbitrary (possibly lying) header count.
    pub(crate) fn build_with_count(self, count: u16) -> Vec<u8> {
        let body_len: usize = self.flowsets.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(V9_HEADER_LEN + body_len);
        push16(&mut out, 9);
        push16(&mut out, count);
        push32(&mut out, self.sys_uptime);
        push32(&mut out, self.unix_secs);
        push32(&mut out, self.sequence);
        push32(&mut out, self.source_id);
        for fs in &self.flowsets {
            out.extend_from_slice(fs);
        }
        out
    }
}

/// Incremental IPFIX message builder.
#[derive(Debug, Clone)]
pub struct IpfixBuilder {
    domain: u32,
    sequence: u32,
    export_time: u32,
    sets: Vec<Vec<u8>>,
}

impl IpfixBuilder {
    /// Start a message for one observation domain (export time zero —
    /// the historical "not set" encoding).
    pub fn new(domain: u32, sequence: u32) -> Self {
        IpfixBuilder { domain, sequence, export_time: 0, sets: Vec::new() }
    }

    /// Set the header export time (unix seconds).
    pub fn export_time(mut self, secs: u32) -> Self {
        self.export_time = secs;
        self
    }

    fn set(mut self, id: u16, mut body: Vec<u8>) -> Self {
        pad4(&mut body);
        let mut s = Vec::with_capacity(4 + body.len());
        push16(&mut s, id);
        push16(&mut s, (4 + body.len()) as u16);
        s.extend_from_slice(&body);
        self.sets.push(s);
        self
    }

    /// Append a set with an arbitrary id and raw body.
    pub fn raw_set(self, id: u16, body: &[u8]) -> Self {
        self.set(id, body.to_vec())
    }

    fn push_field_specs(body: &mut Vec<u8>, fields: &[TemplateField]) {
        for f in fields {
            match f.enterprise {
                Some(ent) => {
                    push16(body, f.field_id | 0x8000);
                    push16(body, f.length);
                    push32(body, ent);
                }
                None => {
                    push16(body, f.field_id);
                    push16(body, f.length);
                }
            }
        }
    }

    /// Announce a template (set id 2).
    pub fn template(self, tid: u16, fields: &[TemplateField]) -> Self {
        let mut body = Vec::new();
        push16(&mut body, tid);
        push16(&mut body, fields.len() as u16);
        Self::push_field_specs(&mut body, fields);
        self.set(2, body)
    }

    /// Announce an options template (set id 3): scope fields first.
    pub fn options_template(
        self,
        tid: u16,
        scope: &[TemplateField],
        options: &[TemplateField],
    ) -> Self {
        let mut body = Vec::new();
        push16(&mut body, tid);
        push16(&mut body, (scope.len() + options.len()) as u16);
        push16(&mut body, scope.len() as u16);
        let all: Vec<TemplateField> = scope.iter().chain(options).copied().collect();
        Self::push_field_specs(&mut body, &all);
        self.set(3, body)
    }

    /// Append a data set from pre-encoded record bytes.
    pub fn data(self, tid: u16, rows: &[Vec<u8>]) -> Self {
        let mut body = Vec::new();
        for r in rows {
            body.extend_from_slice(r);
        }
        self.set(tid, body)
    }

    /// Append a data set of flow samples encoded under the base flow
    /// template.
    pub fn data_samples(self, tid: u16, samples: &[FlowSample]) -> Self {
        let fields = crate::fields::base_flow_fields();
        let rows: Vec<Vec<u8>> = samples.iter().map(|s| encode_record(&fields, s)).collect();
        self.data(tid, &rows)
    }

    /// Finish with the honest message length.
    pub fn build(self) -> Vec<u8> {
        let len = 16 + self.sets.iter().map(Vec::len).sum::<usize>();
        self.build_with_length(len as u16)
    }

    /// Finish with an arbitrary (possibly lying) message length.
    pub fn build_with_length(self, length: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.sets.iter().map(Vec::len).sum::<usize>());
        push16(&mut out, 10);
        push16(&mut out, length);
        push32(&mut out, self.export_time);
        push32(&mut out, self.sequence);
        push32(&mut out, self.domain);
        for s in &self.sets {
            out.extend_from_slice(s);
        }
        out
    }
}
