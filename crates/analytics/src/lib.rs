//! Streaming flow-event analytics for the NetSeer reproduction.
//!
//! The collector's event store answers *retrospective* queries; this
//! crate answers the paper's *operational* questions (§6) online, in
//! bounded memory, under the repo's ledger-invariant discipline:
//!
//! * **Where is the network hurting?** Cumulative event and packet
//!   counts per (device, event type, drop reason), in a capped table per
//!   shard — `shard`.
//! * **Which flows are the victims?** A Space-Saving top-k sketch with
//!   provable error bounds — `topk`.
//! * **Which link is eating packets?** A cross-device correlator joining
//!   upstream ring-buffer loss reports with downstream gap notifications
//!   — `correlate`.
//! * **Did we break the SLA, and when?** Per-device breach windows —
//!   `sla`.
//!
//! [`AnalyticsEngine`] composes these into a flow-hash-sharded pipeline
//! subscribed to the [`Collector`](netseer::recovery::Collector)'s
//! exactly-once delivery stream, with coordinated checkpoints so the
//! analytics state survives collector crashes. Every ingested event gets
//! exactly one disposition, extending the transport's delivery ledger to
//! the end of the pipeline:
//! `ingested == aggregated + sketch_absorbed + shed_analytics`.

#![warn(missing_docs)]

mod correlate;
mod engine;
mod shard;
mod sla;
mod topk;
mod wire;

pub use correlate::{GapReport, LinkId, LinkMap, LinkVerdict};
pub use engine::{AnalyticsConfig, AnalyticsEngine};
pub use shard::{AggKey, AnalyticsLedger, WindowStats};
pub use sla::{BreachWindow, SlaPolicy};
pub use topk::TopKEntry;
pub use wire::{harvest_gap_reports, link_map_from_sim};
