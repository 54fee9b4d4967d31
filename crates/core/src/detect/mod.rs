//! Event packet detection (§3.3): the in-pipeline logic that decides, per
//! packet, whether a flow event is happening.
//!
//! * [`interswitch`] — sequence tagging, per-port ring buffers, gap
//!   detection, and loss-notification processing for drops/corruptions on
//!   the wire between devices;
//! * [`path_change`] — the learned flow→(ingress, egress) port table;
//! * `pause` — the PFC queue-status tracker.
//!
//! Congestion detection is a stateless threshold on the queuing delay the
//! egress pipeline already has; pipeline- and MMU-drop detection are hook
//! points the emulated ASIC raises directly. All three live in
//! [`crate::monitor`].

pub mod interswitch;
pub mod path_change;
pub(crate) mod pause;

pub use interswitch::{GapDetector, PortTagger};
pub use path_change::PathTable;
