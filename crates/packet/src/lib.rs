//! Typed, zero-copy packet views and NetSeer wire formats.
//!
//! This crate follows the smoltcp idiom: every protocol is a thin typed view
//! (`XxxFrame<T: AsRef<[u8]>>`) over a byte buffer, with checked constructors
//! and field accessors that never panic on well-formed views. Mutation is
//! available when the underlying buffer is `AsMut<[u8]>`.
//!
//! Beyond the classic headers (Ethernet / IPv4 / TCP / UDP / PFC), the crate
//! defines the NetSeer-specific wire formats from the paper:
//!
//! * [`seqtag::SeqTag`] — the 4-byte consecutive packet ID inserted by the
//!   upstream switch for inter-switch drop detection (paper §3.3, Figure 5);
//! * [`event::EventRecord`] — the fixed 24-byte flow-event report
//!   (paper §4, "Event formats");
//! * [`notification::LossNotification`] — the downstream→upstream missing
//!   sequence range report (sent in 3 redundant copies);
//! * [`cebp::CebpPacket`] — the Circulating Event Batching Packet that
//!   collects events from the in-pipeline stack (paper §3.5).

#![warn(missing_docs)]

mod arena;
pub mod builder;
pub mod cebp;
pub mod checksum;
mod error;
pub mod ethernet;
pub mod event;
pub mod flow;
pub mod ipv4;
pub mod notification;
pub mod pfc;
#[doc(hidden)]
pub mod reference;
pub mod seqtag;
pub mod tcp;
mod udp;

pub use arena::FrameArena;
pub use error::{ParseError, Result};
pub use ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
pub use event::{DropCode, EventDetail, EventRecord, EventType, EVENT_RECORD_LEN};
pub use flow::{FlowKey, IpProtocol};
pub use ipv4::{Ipv4Addr, Ipv4Packet, IPV4_HEADER_LEN};
pub use seqtag::{SeqTag, SEQTAG_LEN};

/// Minimum Ethernet frame length (without FCS), as on a real wire.
pub(crate) const MIN_FRAME_LEN: usize = 64;

/// Length of the CRC-32C integrity trailer appended to NetSeer telemetry
/// framing (CEBP reports and loss notifications). The FCS protects the hop;
/// this trailer protects the telemetry payload end-to-end, surviving
/// store-and-forward rewrites that recompute the FCS over corrupted bytes.
pub(crate) const CRC_TRAILER_LEN: usize = 4;
