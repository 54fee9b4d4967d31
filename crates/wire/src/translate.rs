//! Translate decoded flow records into the 24-byte FET event model.
//!
//! A NetFlow/IPFIX flow record is a *flow summary*, not a flow event; the
//! mapping into [`EventRecord`] follows what the record can actually attest:
//!
//! * RFC 7270 `forwardingStatus` (field 89) with status `dropped` →
//!   [`EventType::PipelineDrop`] with the reason code mapped onto the
//!   nearest [`DropCode`];
//! * egress ifIndex 0 (the long-standing v5/v9 "no output interface"
//!   convention) → `PipelineDrop` / [`DropCode::TableMiss`] — the flow was
//!   blackholed;
//! * everything else → [`EventType::PathChange`] carrying the
//!   (ingress, egress) interface pair, which is exactly the signal the
//!   paper's path-change event class encodes.
//!
//! The 4-byte event hash is computed here (FNV-1a over the 13-byte flow key
//! plus a murmur-style avalanche) because wire records arrive without the
//! data-plane pre-computed hash the in-simulator pipeline provides.

use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use fet_packet::flow::{FlowKey, IpProtocol, FLOW_KEY_LEN};
use fet_packet::Ipv4Addr;

/// A protocol-neutral decoded flow record: the common denominator of a
/// NetFlow v5 record and a v9/IPFIX data record under the base template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSample {
    /// The 5-tuple.
    pub flow: FlowKey,
    /// Ingress interface index (`INPUT_SNMP`).
    pub in_port: u16,
    /// Egress interface index (`OUTPUT_SNMP`); 0 means unresolved.
    pub out_port: u16,
    /// Packet count for the flow.
    pub packets: u64,
    /// Byte count for the flow.
    pub bytes: u64,
    /// Cumulative TCP flags.
    pub tcp_flags: u8,
    /// RFC 7270 forwarding status byte, if the record carried field 89.
    pub forwarding_status: Option<u8>,
    /// Sysuptime (ms) at the flow's first packet; 0 = not carried. A u32
    /// millisecond clock wraps every ~49.7 days, so consumers must use
    /// `uptime_delta_ms`, never `last -
    /// first`.
    pub first_ms: u32,
    /// Sysuptime (ms) at the flow's last packet; 0 = not carried.
    pub last_ms: u32,
}

impl Default for FlowSample {
    fn default() -> Self {
        FlowSample {
            flow: FlowKey {
                src: Ipv4Addr::from_octets([0, 0, 0, 0]),
                dst: Ipv4Addr::from_octets([0, 0, 0, 0]),
                sport: 0,
                dport: 0,
                proto: IpProtocol::from_number(0),
            },
            in_port: 0,
            out_port: 0,
            packets: 0,
            bytes: 0,
            tcp_flags: 0,
            forwarding_status: None,
            first_ms: 0,
            last_ms: 0,
        }
    }
}

/// RFC 7270 forwarding-status byte: upper 2 bits are the status.
const FWD_STATUS_DROPPED: u8 = 0b10;

impl FlowSample {
    /// True if this record attests the flow was dropped.
    pub(crate) fn is_dropped(&self) -> bool {
        match self.forwarding_status {
            Some(fs) => (fs >> 6) == FWD_STATUS_DROPPED,
            None => self.out_port == 0,
        }
    }
}

/// FNV-1a over the 13-byte flow key, finished with a murmur-style
/// avalanche — the same construction the analytics engine uses for shard
/// hashing, so wire-sourced hashes have the same mixing quality the
/// data-plane hash would.
pub fn flow_hash(flow: &FlowKey) -> u32 {
    let mut buf = [0u8; FLOW_KEY_LEN];
    flow.write_to(&mut buf);
    let mut h: u32 = 0x811c_9dc5;
    for &b in &buf {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// Map an RFC 7270 drop reason code (low 6 bits of forwardingStatus) onto
/// the nearest FET [`DropCode`].
fn drop_code(reason: u8) -> DropCode {
    match reason {
        1 | 2 => DropCode::AclDeny,    // ACL deny / drop
        3 | 4 => DropCode::TableMiss,  // unroutable / adjacency
        5 => DropCode::MtuExceeded,    // fragmentation needed & DF set
        6..=8 => DropCode::ParseError, // bad checksum / lengths
        9 => DropCode::TtlExpired,
        10 | 11 => DropCode::BufferFull, // policer / WRED
        14 => DropCode::PortDown,        // bad output interface
        15 => DropCode::Overload,        // hardware
        _ => DropCode::TableMiss,
    }
}

/// Interface indexes are 16-bit (and wider in IPFIX); the 1-byte detail
/// ports saturate at 0xff, the "unresolved" sentinel the event format
/// already uses.
fn port8(p: u16) -> u8 {
    u8::try_from(p).unwrap_or(0xff)
}

/// Translate one decoded flow record into a FET event.
pub fn translate(s: &FlowSample) -> EventRecord {
    let detail = if s.is_dropped() {
        let code = match s.forwarding_status {
            Some(fs) if (fs >> 6) == FWD_STATUS_DROPPED => drop_code(fs & 0x3f),
            _ => DropCode::TableMiss,
        };
        EventDetail::Drop { ingress_port: port8(s.in_port), egress_port: port8(s.out_port), code }
    } else {
        EventDetail::PathChange { ingress_port: port8(s.in_port), egress_port: port8(s.out_port) }
    };
    let ty = match detail {
        EventDetail::Drop { .. } => EventType::PipelineDrop,
        _ => EventType::PathChange,
    };
    EventRecord {
        ty,
        flow: s.flow,
        detail,
        counter: u16::try_from(s.packets).unwrap_or(u16::MAX),
        hash: flow_hash(&s.flow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlowSample {
        FlowSample {
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([192, 168, 0, 1]),
                1000,
                Ipv4Addr::from_octets([192, 168, 0, 2]),
                2000,
            ),
            in_port: 3,
            out_port: 7,
            packets: 12,
            bytes: 1200,
            tcp_flags: 0x10,
            forwarding_status: None,
            first_ms: 0,
            last_ms: 0,
        }
    }

    #[test]
    fn forwarded_flow_is_path_change() {
        let ev = translate(&sample());
        assert_eq!(ev.ty, EventType::PathChange);
        assert_eq!(ev.detail, EventDetail::PathChange { ingress_port: 3, egress_port: 7 });
        assert_eq!(ev.counter, 12);
        assert_eq!(ev.hash, flow_hash(&sample().flow));
    }

    #[test]
    fn zero_output_interface_is_a_blackhole_drop() {
        let mut s = sample();
        s.out_port = 0;
        let ev = translate(&s);
        assert_eq!(ev.ty, EventType::PipelineDrop);
        assert_eq!(
            ev.detail,
            EventDetail::Drop { ingress_port: 3, egress_port: 0, code: DropCode::TableMiss }
        );
    }

    #[test]
    fn forwarding_status_dropped_maps_reason_codes() {
        let cases = [
            (0x81, DropCode::AclDeny),
            (0x83, DropCode::TableMiss),
            (0x85, DropCode::MtuExceeded),
            (0x86, DropCode::ParseError),
            (0x89, DropCode::TtlExpired),
            (0x8a, DropCode::BufferFull),
            (0x8e, DropCode::PortDown),
            (0x8f, DropCode::Overload),
            (0x80, DropCode::TableMiss),
        ];
        for (fs, want) in cases {
            let mut s = sample();
            s.forwarding_status = Some(fs);
            let ev = translate(&s);
            assert_eq!(ev.ty, EventType::PipelineDrop, "fs={fs:#x}");
            assert!(
                matches!(ev.detail, EventDetail::Drop { code, .. } if code == want),
                "fs={fs:#x}"
            );
        }
    }

    #[test]
    fn forwarded_status_overrides_zero_out_port_heuristic() {
        // An explicit "forwarded" status wins even when OUTPUT_SNMP is 0.
        let mut s = sample();
        s.out_port = 0;
        s.forwarding_status = Some(0x40);
        assert_eq!(translate(&s).ty, EventType::PathChange);
    }

    #[test]
    fn wide_values_saturate() {
        let mut s = sample();
        s.in_port = 700;
        s.packets = 1 << 30;
        let ev = translate(&s);
        assert_eq!(ev.counter, u16::MAX);
        assert!(matches!(ev.detail, EventDetail::PathChange { ingress_port: 0xff, .. }));
    }

    #[test]
    fn events_roundtrip_the_24_byte_format() {
        for fs in [None, Some(0x40), Some(0x82)] {
            let mut s = sample();
            s.forwarding_status = fs;
            let ev = translate(&s);
            let back = EventRecord::read_from(&ev.to_bytes()).expect("roundtrip");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn hash_differs_across_flows() {
        let a = flow_hash(&sample().flow);
        let b = flow_hash(&sample().flow.reversed());
        assert_ne!(a, b);
    }
}
