//! The fixed 24-byte flow-event wire format (paper §4, "Event formats").
//!
//! Layout:
//!
//! ```text
//! 0        1              14           18          20         24
//! +--------+--------------+------------+-----------+----------+
//! | type   | flow (13B)   | detail(4B) | counter   | hash     |
//! +--------+--------------+------------+-----------+----------+
//! ```
//!
//! The paper allocates 13 B to the 5-tuple, 2–5 B of per-type detail, a
//! 2-byte counter, and a 4-byte data-plane pre-computed hash, totalling
//! "<24 bytes" per event. We pack the detail into 4 bytes so records are
//! exactly 24 bytes and arrays of them tile a CEBP payload cleanly.

use crate::error::{ParseError, Result};
use crate::flow::{FlowKey, FLOW_KEY_LEN};
use core::fmt;

/// Serialized event size.
pub const EVENT_RECORD_LEN: usize = 24;

/// The flow-event classes NetSeer detects (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventType {
    /// Drop inside the ingress/egress pipeline (table miss, ACL, TTL, MTU…).
    PipelineDrop,
    /// Drop inside the MMU due to buffer exhaustion (congestion drop).
    MmuDrop,
    /// Drop or corruption on the link between two switches.
    InterSwitchDrop,
    /// Queuing delay over threshold.
    Congestion,
    /// Flow seen on a new (ingress, egress) port pair.
    PathChange,
    /// Packet arrived to a PFC-paused queue.
    Pause,
}

/// All event types, in wire-code order.
pub const ALL_EVENT_TYPES: [EventType; 6] = [
    EventType::PipelineDrop,
    EventType::MmuDrop,
    EventType::InterSwitchDrop,
    EventType::Congestion,
    EventType::PathChange,
    EventType::Pause,
];

impl EventType {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            EventType::PipelineDrop => 1,
            EventType::MmuDrop => 2,
            EventType::InterSwitchDrop => 3,
            EventType::Congestion => 4,
            EventType::PathChange => 5,
            EventType::Pause => 6,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u8) -> Result<Self> {
        Ok(match c {
            1 => EventType::PipelineDrop,
            2 => EventType::MmuDrop,
            3 => EventType::InterSwitchDrop,
            4 => EventType::Congestion,
            5 => EventType::PathChange,
            6 => EventType::Pause,
            _ => return Err(ParseError::Malformed { what: "event.type" }),
        })
    }

    /// True for the three drop classes.
    pub fn is_drop(self) -> bool {
        matches!(self, EventType::PipelineDrop | EventType::MmuDrop | EventType::InterSwitchDrop)
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventType::PipelineDrop => "pipeline-drop",
            EventType::MmuDrop => "mmu-drop",
            EventType::InterSwitchDrop => "inter-switch-drop",
            EventType::Congestion => "congestion",
            EventType::PathChange => "path-change",
            EventType::Pause => "pause",
        };
        f.write_str(s)
    }
}

/// Reason codes for pipeline drops (paper Figure 4's "drop reason" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCode {
    /// Routing table lookup miss (blackhole / parity error).
    TableMiss,
    /// Target port or link is down.
    PortDown,
    /// Dropped by an ACL rule (detail carries the rule id).
    AclDeny,
    /// TTL reached zero (forwarding loop).
    TtlExpired,
    /// Packet larger than egress MTU.
    MtuExceeded,
    /// Malformed packet (bad IP checksum / parse error).
    ParseError,
    /// Dropped by the MMU (buffer full).
    BufferFull,
    /// Lost or corrupted on the wire.
    LinkLoss,
    /// Device processing capacity exceeded (middlebox overload, §3.7).
    Overload,
}

impl DropCode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            DropCode::TableMiss => 1,
            DropCode::PortDown => 2,
            DropCode::AclDeny => 3,
            DropCode::TtlExpired => 4,
            DropCode::MtuExceeded => 5,
            DropCode::ParseError => 6,
            DropCode::BufferFull => 7,
            DropCode::LinkLoss => 8,
            DropCode::Overload => 9,
        }
    }

    /// Decode a wire code.
    pub(crate) fn from_code(c: u8) -> Result<Self> {
        Ok(match c {
            1 => DropCode::TableMiss,
            2 => DropCode::PortDown,
            3 => DropCode::AclDeny,
            4 => DropCode::TtlExpired,
            5 => DropCode::MtuExceeded,
            6 => DropCode::ParseError,
            7 => DropCode::BufferFull,
            8 => DropCode::LinkLoss,
            9 => DropCode::Overload,
            _ => return Err(ParseError::Malformed { what: "event.drop_code" }),
        })
    }
}

impl fmt::Display for DropCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropCode::TableMiss => "table-miss",
            DropCode::PortDown => "port-down",
            DropCode::AclDeny => "acl-deny",
            DropCode::TtlExpired => "ttl-expired",
            DropCode::MtuExceeded => "mtu-exceeded",
            DropCode::ParseError => "parse-error",
            DropCode::BufferFull => "buffer-full",
            DropCode::LinkLoss => "link-loss",
            DropCode::Overload => "overload",
        };
        f.write_str(s)
    }
}

/// Per-type event detail, 4 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventDetail {
    /// `<ingress port, egress port, drop code>` for drops.
    Drop {
        /// Port the packet entered on.
        ingress_port: u8,
        /// Intended egress port (0xff if unresolved).
        egress_port: u8,
        /// Why it was dropped.
        code: DropCode,
    },
    /// `<egress port, egress queue, queue latency>` for congestion.
    Congestion {
        /// Congested egress port.
        egress_port: u8,
        /// Congested queue.
        queue: u8,
        /// Observed queuing delay, microseconds, saturating.
        latency_us: u16,
    },
    /// `<ingress port, egress port>` for path change.
    PathChange {
        /// New ingress port.
        ingress_port: u8,
        /// New egress port.
        egress_port: u8,
    },
    /// `<egress port, egress queue>` for pause.
    Pause {
        /// Paused egress port.
        egress_port: u8,
        /// Paused queue.
        queue: u8,
    },
}

impl EventDetail {
    fn write_to(&self, buf: &mut [u8; 4]) {
        *buf = [0; 4];
        match *self {
            EventDetail::Drop { ingress_port, egress_port, code } => {
                buf[0] = ingress_port;
                buf[1] = egress_port;
                buf[2] = code.code();
            }
            EventDetail::Congestion { egress_port, queue, latency_us } => {
                buf[0] = egress_port;
                buf[1] = queue;
                buf[2..4].copy_from_slice(&latency_us.to_be_bytes());
            }
            EventDetail::PathChange { ingress_port, egress_port } => {
                buf[0] = ingress_port;
                buf[1] = egress_port;
            }
            EventDetail::Pause { egress_port, queue } => {
                buf[0] = egress_port;
                buf[1] = queue;
            }
        }
    }

    fn read_from(ty: EventType, buf: &[u8; 4]) -> Result<Self> {
        Ok(match ty {
            EventType::PipelineDrop | EventType::MmuDrop | EventType::InterSwitchDrop => {
                EventDetail::Drop {
                    ingress_port: buf[0],
                    egress_port: buf[1],
                    code: DropCode::from_code(buf[2])?,
                }
            }
            EventType::Congestion => EventDetail::Congestion {
                egress_port: buf[0],
                queue: buf[1],
                latency_us: u16::from_be_bytes([buf[2], buf[3]]),
            },
            EventType::PathChange => {
                EventDetail::PathChange { ingress_port: buf[0], egress_port: buf[1] }
            }
            EventType::Pause => EventDetail::Pause { egress_port: buf[0], queue: buf[1] },
        })
    }
}

/// A complete flow-event record: what gets packed 50-at-a-time into CEBPs
/// and ultimately stored in the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventRecord {
    /// Event class.
    pub ty: EventType,
    /// Victim flow.
    pub flow: FlowKey,
    /// Per-type detail.
    pub detail: EventDetail,
    /// Aggregated packet counter (group caching threshold reports).
    pub counter: u16,
    /// Data-plane pre-computed hash of the flow key (CPU uses it directly).
    pub hash: u32,
}

impl EventRecord {
    /// Serialize to the 24-byte wire layout.
    pub fn write_to(&self, buf: &mut [u8; EVENT_RECORD_LEN]) {
        buf[0] = self.ty.code();
        let mut fk = [0u8; FLOW_KEY_LEN];
        self.flow.write_to(&mut fk);
        buf[1..14].copy_from_slice(&fk);
        let mut d = [0u8; 4];
        self.detail.write_to(&mut d);
        buf[14..18].copy_from_slice(&d);
        buf[18..20].copy_from_slice(&self.counter.to_be_bytes());
        buf[20..24].copy_from_slice(&self.hash.to_be_bytes());
    }

    /// Serialize to an owned array.
    pub fn to_bytes(&self) -> [u8; EVENT_RECORD_LEN] {
        let mut buf = [0u8; EVENT_RECORD_LEN];
        self.write_to(&mut buf);
        buf
    }

    /// Deserialize from the 24-byte wire layout.
    pub fn read_from(buf: &[u8; EVENT_RECORD_LEN]) -> Result<Self> {
        let ty = EventType::from_code(buf[0])?;
        let mut fk = [0u8; FLOW_KEY_LEN];
        fk.copy_from_slice(&buf[1..14]);
        let flow = FlowKey::read_from(&fk);
        let mut d = [0u8; 4];
        d.copy_from_slice(&buf[14..18]);
        let detail = EventDetail::read_from(ty, &d)?;
        let counter = u16::from_be_bytes([buf[18], buf[19]]);
        let hash = u32::from_be_bytes([buf[20], buf[21], buf[22], buf[23]]);
        Ok(EventRecord { ty, flow, detail, counter, hash })
    }

    /// Parse from an arbitrary slice, checking length.
    pub fn parse(slice: &[u8]) -> Result<Self> {
        if slice.len() < EVENT_RECORD_LEN {
            return Err(ParseError::Truncated {
                what: "event",
                need: EVENT_RECORD_LEN,
                have: slice.len(),
            });
        }
        let mut buf = [0u8; EVENT_RECORD_LEN];
        buf.copy_from_slice(&slice[..EVENT_RECORD_LEN]);
        Self::read_from(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 1, 2, 3]),
            1234,
            Ipv4Addr::from_octets([10, 4, 5, 6]),
            443,
        )
    }

    fn samples() -> Vec<EventRecord> {
        vec![
            EventRecord {
                ty: EventType::PipelineDrop,
                flow: flow(),
                detail: EventDetail::Drop {
                    ingress_port: 3,
                    egress_port: 7,
                    code: DropCode::TableMiss,
                },
                counter: 1,
                hash: 0xabcd_ef01,
            },
            EventRecord {
                ty: EventType::Congestion,
                flow: flow(),
                detail: EventDetail::Congestion { egress_port: 2, queue: 1, latency_us: 500 },
                counter: 128,
                hash: 7,
            },
            EventRecord {
                ty: EventType::PathChange,
                flow: flow(),
                detail: EventDetail::PathChange { ingress_port: 1, egress_port: 9 },
                counter: 1,
                hash: 0,
            },
            EventRecord {
                ty: EventType::Pause,
                flow: flow(),
                detail: EventDetail::Pause { egress_port: 4, queue: 3 },
                counter: 17,
                hash: u32::MAX,
            },
            EventRecord {
                ty: EventType::InterSwitchDrop,
                flow: flow(),
                detail: EventDetail::Drop {
                    ingress_port: 0,
                    egress_port: 5,
                    code: DropCode::LinkLoss,
                },
                counter: 3,
                hash: 99,
            },
        ]
    }

    #[test]
    fn all_types_roundtrip() {
        for ev in samples() {
            let bytes = ev.to_bytes();
            assert_eq!(EventRecord::read_from(&bytes).unwrap(), ev);
        }
    }

    #[test]
    fn record_is_exactly_24_bytes() {
        assert_eq!(EVENT_RECORD_LEN, 24);
        let ev = &samples()[0];
        assert_eq!(ev.to_bytes().len(), 24);
    }

    #[test]
    fn parse_rejects_short_slice() {
        assert!(matches!(EventRecord::parse(&[0u8; 23]), Err(ParseError::Truncated { .. })));
    }

    #[test]
    fn rejects_unknown_type_code() {
        let mut bytes = samples()[0].to_bytes();
        bytes[0] = 0;
        assert!(EventRecord::read_from(&bytes).is_err());
        bytes[0] = 200;
        assert!(EventRecord::read_from(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_drop_code() {
        let mut bytes = samples()[0].to_bytes();
        bytes[16] = 99;
        assert!(EventRecord::read_from(&bytes).is_err());
    }

    #[test]
    fn event_type_codes_roundtrip() {
        for ty in ALL_EVENT_TYPES {
            assert_eq!(EventType::from_code(ty.code()).unwrap(), ty);
        }
    }

    #[test]
    fn drop_classification() {
        assert!(EventType::PipelineDrop.is_drop());
        assert!(EventType::MmuDrop.is_drop());
        assert!(EventType::InterSwitchDrop.is_drop());
        assert!(!EventType::Congestion.is_drop());
        assert!(!EventType::PathChange.is_drop());
        assert!(!EventType::Pause.is_drop());
    }
}
