//! Baseline monitors the paper compares NetSeer against (§5):
//!
//! * `snmp` — periodic interface counters (no flow information);
//! * `sampling` — 1:k packet sampling (sFlow/ERSPAN-style);
//! * `pingmesh` — full-mesh probing, scored from host probe RTTs;
//! * `everflow` — SYN/FIN mirroring + on-demand telemetry of a rotating
//!   set of traced flows;
//! * `netsight` — per-packet postcards, truncated to 64 B: full
//!   coverage at massive overhead.
//!
//! All monitors share the "did you capture the event packet?" coverage
//! semantics of `observe`: an observation covers a ground-truth flow
//! event only when the monitor actually recorded the packet that
//! experienced the event, matched by (device, flow, timestamp).

#![warn(missing_docs)]

mod everflow;
mod netsight;
mod observe;
mod pingmesh;
mod sampling;
mod snmp;

pub use everflow::EverFlowMonitor;
pub use netsight::NetSightMonitor;
pub use observe::{coverage, Observation, ObservationLog};
pub use pingmesh::{pingmesh_congestion_coverage, pingmesh_saw_loss, pingmesh_saw_slowness};
pub use sampling::SamplingMonitor;
pub use snmp::SnmpMonitor;
