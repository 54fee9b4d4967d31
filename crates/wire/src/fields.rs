//! The v9 / IPFIX information elements the translator understands, plus the
//! panic-free record codec used by both parsers and the datagram builders.
//!
//! Unknown and enterprise-scoped fields are *skipped, not refused*: a record
//! decodes as long as its field lengths fit the buffer, and only the
//! elements below contribute to the resulting [`FlowSample`].

use crate::template::{Template, TemplateField};
use crate::translate::FlowSample;
use fet_packet::flow::IpProtocol;
use fet_packet::Ipv4Addr;

/// IN_BYTES — octet count.
pub(crate) const IN_BYTES: u16 = 1;
/// IN_PKTS — packet count.
pub(crate) const IN_PKTS: u16 = 2;
/// PROTOCOL — IP protocol number.
pub(crate) const PROTOCOL: u16 = 4;
/// TCP_FLAGS — cumulative TCP flags.
pub(crate) const TCP_FLAGS: u16 = 6;
/// L4_SRC_PORT — transport source port.
pub(crate) const L4_SRC_PORT: u16 = 7;
/// IPV4_SRC_ADDR — source address.
pub(crate) const IPV4_SRC_ADDR: u16 = 8;
/// INPUT_SNMP — ingress interface index.
pub(crate) const INPUT_SNMP: u16 = 10;
/// L4_DST_PORT — transport destination port.
pub(crate) const L4_DST_PORT: u16 = 11;
/// IPV4_DST_ADDR — destination address.
pub(crate) const IPV4_DST_ADDR: u16 = 12;
/// OUTPUT_SNMP — egress interface index (0 = unresolved / blackholed).
pub(crate) const OUTPUT_SNMP: u16 = 14;
/// LAST_SWITCHED — sysuptime (ms) at the flow's last packet.
pub const LAST_SWITCHED: u16 = 21;
/// FIRST_SWITCHED — sysuptime (ms) at the flow's first packet.
pub const FIRST_SWITCHED: u16 = 22;
/// FORWARDING_STATUS — RFC 7270 forwarding status + reason code.
pub(crate) const FORWARDING_STATUS: u16 = 89;

/// Big-endian unsigned read of 1–8 bytes; longer fields keep the low 8.
fn be_uint(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    for &b in bytes.iter().rev().take(8).rev() {
        v = (v << 8) | b as u64;
    }
    v
}

/// Decode one record laid out by `tpl` from the front of `buf`.
///
/// Returns the sample and the bytes consumed, or `None` if the buffer is
/// too short (a truncated record). Never panics on any input.
pub(crate) fn decode_record(tpl: &Template, buf: &[u8]) -> Option<(FlowSample, usize)> {
    let mut off = 0usize;
    let mut s = FlowSample::default();
    for f in &tpl.fields {
        let flen = if f.is_varlen() {
            let l = *buf.get(off)? as usize;
            off += 1;
            if l == 255 {
                let hi = *buf.get(off)?;
                let lo = *buf.get(off + 1)?;
                off += 2;
                ((hi as usize) << 8) | lo as usize
            } else {
                l
            }
        } else {
            f.length as usize
        };
        let end = off.checked_add(flen)?;
        if end > buf.len() {
            return None;
        }
        let val = &buf[off..end];
        if f.enterprise.is_none() {
            apply_field(&mut s, f.field_id, val);
        }
        off = end;
    }
    Some((s, off))
}

fn apply_field(s: &mut FlowSample, id: u16, val: &[u8]) {
    match id {
        IPV4_SRC_ADDR if val.len() == 4 => {
            s.flow.src = Ipv4Addr::from_octets([val[0], val[1], val[2], val[3]]);
        }
        IPV4_DST_ADDR if val.len() == 4 => {
            s.flow.dst = Ipv4Addr::from_octets([val[0], val[1], val[2], val[3]]);
        }
        L4_SRC_PORT if !val.is_empty() => s.flow.sport = be_uint(val) as u16,
        L4_DST_PORT if !val.is_empty() => s.flow.dport = be_uint(val) as u16,
        PROTOCOL if !val.is_empty() => {
            s.flow.proto = IpProtocol::from_number(be_uint(val) as u8);
        }
        TCP_FLAGS if !val.is_empty() => s.tcp_flags = be_uint(val) as u8,
        INPUT_SNMP if !val.is_empty() => s.in_port = be_uint(val) as u16,
        OUTPUT_SNMP if !val.is_empty() => s.out_port = be_uint(val) as u16,
        IN_PKTS if !val.is_empty() => s.packets = be_uint(val),
        IN_BYTES if !val.is_empty() => s.bytes = be_uint(val),
        FIRST_SWITCHED if !val.is_empty() => s.first_ms = be_uint(val) as u32,
        LAST_SWITCHED if !val.is_empty() => s.last_ms = be_uint(val) as u32,
        FORWARDING_STATUS if !val.is_empty() => {
            s.forwarding_status = Some(be_uint(val) as u8);
        }
        _ => {}
    }
}

/// Encode `sample` under a field layout (the builder-side inverse of
/// `decode_record`). Unknown fields are zero-filled; varlen fields are
/// emitted empty (a single 0-length prefix byte).
pub fn encode_record(fields: &[TemplateField], sample: &FlowSample) -> Vec<u8> {
    let mut out = Vec::new();
    for f in fields {
        if f.is_varlen() {
            out.push(0);
            continue;
        }
        let len = f.length as usize;
        let val: u64 = if f.enterprise.is_some() {
            0
        } else {
            match f.field_id {
                IPV4_SRC_ADDR => u32::from_be_bytes(sample.flow.src.octets()) as u64,
                IPV4_DST_ADDR => u32::from_be_bytes(sample.flow.dst.octets()) as u64,
                L4_SRC_PORT => sample.flow.sport as u64,
                L4_DST_PORT => sample.flow.dport as u64,
                PROTOCOL => sample.flow.proto.number() as u64,
                TCP_FLAGS => sample.tcp_flags as u64,
                INPUT_SNMP => sample.in_port as u64,
                OUTPUT_SNMP => sample.out_port as u64,
                IN_PKTS => sample.packets,
                IN_BYTES => sample.bytes,
                FIRST_SWITCHED => sample.first_ms as u64,
                LAST_SWITCHED => sample.last_ms as u64,
                FORWARDING_STATUS => sample.forwarding_status.unwrap_or(0x40) as u64,
                _ => 0,
            }
        };
        let be = val.to_be_bytes();
        if len <= 8 {
            out.extend_from_slice(&be[8 - len..]);
        } else {
            out.extend(std::iter::repeat_n(0u8, len - 8));
            out.extend_from_slice(&be);
        }
    }
    out
}

/// The canonical flow template the builders and the hostile-exporter model
/// announce: every element the translator reads, in a fixed order.
pub fn base_flow_fields() -> Vec<TemplateField> {
    vec![
        TemplateField::std(IPV4_SRC_ADDR, 4),
        TemplateField::std(IPV4_DST_ADDR, 4),
        TemplateField::std(L4_SRC_PORT, 2),
        TemplateField::std(L4_DST_PORT, 2),
        TemplateField::std(PROTOCOL, 1),
        TemplateField::std(TCP_FLAGS, 1),
        TemplateField::std(INPUT_SNMP, 2),
        TemplateField::std(OUTPUT_SNMP, 2),
        TemplateField::std(IN_PKTS, 4),
        TemplateField::std(IN_BYTES, 4),
        TemplateField::std(FORWARDING_STATUS, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::VARLEN;
    use fet_packet::flow::FlowKey;

    /// `base_flow_fields` record length in bytes.
    fn base_flow_record_len() -> usize {
        base_flow_fields().iter().map(|f| f.length as usize).sum()
    }

    fn sample() -> FlowSample {
        FlowSample {
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                4321,
                Ipv4Addr::from_octets([10, 0, 0, 2]),
                443,
            ),
            in_port: 3,
            out_port: 7,
            packets: 1200,
            bytes: 90_000,
            tcp_flags: 0x18,
            forwarding_status: Some(0x40),
            first_ms: 0,
            last_ms: 0,
        }
    }

    #[test]
    fn switched_times_roundtrip_when_templated() {
        let fields = vec![
            TemplateField::std(IPV4_SRC_ADDR, 4),
            TemplateField::std(FIRST_SWITCHED, 4),
            TemplateField::std(LAST_SWITCHED, 4),
        ];
        let tpl = Template::new(256, fields.clone(), 0);
        let mut s = sample();
        s.first_ms = u32::MAX - 10; // straddles the sysuptime wrap
        s.last_ms = 500;
        let bytes = encode_record(&fields, &s);
        let (out, _) = decode_record(&tpl, &bytes).expect("decodes");
        assert_eq!(out.first_ms, u32::MAX - 10);
        assert_eq!(out.last_ms, 500);
    }

    #[test]
    fn encode_decode_roundtrip_base_fields() {
        let fields = base_flow_fields();
        let tpl = Template::new(256, fields.clone(), 0);
        let bytes = encode_record(&fields, &sample());
        assert_eq!(bytes.len(), base_flow_record_len());
        let (out, used) = decode_record(&tpl, &bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(out, sample());
    }

    #[test]
    fn truncated_record_is_none_not_panic() {
        let fields = base_flow_fields();
        let tpl = Template::new(256, fields.clone(), 0);
        let bytes = encode_record(&fields, &sample());
        for cut in 0..bytes.len() {
            assert!(decode_record(&tpl, &bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn varlen_fields_skip_cleanly() {
        let tpl = Template::new(
            256,
            vec![
                TemplateField::std(IPV4_SRC_ADDR, 4),
                TemplateField::std(0x5000, VARLEN),
                TemplateField::std(L4_DST_PORT, 2),
            ],
            0,
        );
        // 4-byte addr, varlen len=3 + 3 payload bytes, 2-byte port.
        let buf = [10, 1, 1, 1, 3, 0xaa, 0xbb, 0xcc, 0x01, 0xbb];
        let (s, used) = decode_record(&tpl, &buf).expect("decodes");
        assert_eq!(used, buf.len());
        assert_eq!(s.flow.src.octets(), [10, 1, 1, 1]);
        assert_eq!(s.flow.dport, 443);
    }

    #[test]
    fn varlen_two_byte_length_form() {
        let tpl = Template::new(256, vec![TemplateField::std(0x5000, VARLEN)], 0);
        let mut buf = vec![255, 0x01, 0x00];
        buf.extend(std::iter::repeat_n(0u8, 256));
        let (_, used) = decode_record(&tpl, &buf).expect("decodes");
        assert_eq!(used, 3 + 256);
        // Truncated long form: length says 256 but payload is short.
        assert!(decode_record(&tpl, &buf[..100]).is_none());
    }

    #[test]
    fn oversized_numeric_fields_keep_low_bytes() {
        let tpl = Template::new(256, vec![TemplateField::std(IN_PKTS, 10)], 0);
        let mut buf = vec![0u8; 10];
        buf[9] = 42;
        let (s, _) = decode_record(&tpl, &buf).expect("decodes");
        assert_eq!(s.packets, 42);
    }

    #[test]
    fn enterprise_fields_are_skipped() {
        let tpl = Template::new(
            256,
            vec![TemplateField { field_id: IN_PKTS, length: 4, enterprise: Some(9) }],
            0,
        );
        let (s, _) = decode_record(&tpl, &[0, 0, 0, 9]).expect("decodes");
        assert_eq!(s.packets, 0, "enterprise-scoped IN_PKTS must not apply");
    }
}
