//! Programmable data plane (PDP) emulator.
//!
//! There is no P4/Tofino ecosystem in Rust, so this crate emulates the
//! *constraints* that shaped NetSeer's design rather than the silicon
//! itself (see DESIGN.md, substitution table). Some constraints the
//! emulator enforces; others it only accounts:
//!
//! * **match-action tables** — longest-prefix and ternary (ACL) tables
//!   ([`table`]);
//! * **stateful register arrays** — memories with bounded cell width per
//!   stage, the model of Tofino's stateful ALUs (`register`). The width
//!   is accounted (a wide cell spans stages); the one read-modify-write
//!   per array per packet is not enforced;
//! * **hash units** — CRC-based hash engines with hash-bit accounting
//!   ([`hash`]);
//! * **packet header vector** — the metadata bundle that accompanies a
//!   packet through the pipeline (`phv`);
//! * **rate-limited internal channels** — the internal ports / recirculation
//!   paths / PCIe link whose finite bandwidth caps NetSeer's event capacity,
//!   enforced by refusing what overflows the buffer (`channel`);
//! * **resource ledger and stage placement** — aggregates SRAM/TCAM/
//!   stateful-ALU/hash-bit/PHV usage per module to regenerate the paper's
//!   Figure 7 ([`resources`]), and places the stateful structures declared
//!   to it into the fixed stages (`layout`).

#![warn(missing_docs)]

mod channel;
pub mod hash;
mod layout;
mod phv;
mod register;
pub mod resources;
pub mod table;

pub use channel::RateLimitedChannel;
pub use hash::HashUnit;
pub use layout::{place, Placement, TOFINO_PIPELINE};
pub use phv::PacketMeta;
pub use register::RegisterArray;
pub use resources::{ResourceKind, ResourceLedger, TOFINO_32D};
