//! Discrete-event data center network simulator.
//!
//! Replaces the paper's 10-switch Tofino testbed (see DESIGN.md). The
//! simulator is nanosecond-resolution and fully deterministic: a seeded PCG
//! RNG drives every stochastic choice, so experiments are bit-reproducible.
//!
//! * [`engine`] — the event loop ([`Simulator`]);
//! * [`switchdev`] — store-and-forward switch with ingress/egress pipeline,
//!   ACL, ECMP routing, a shared-buffer MMU, and PFC;
//! * [`host`] — traffic-generating hosts with rate-paced flows, ICMP echo
//!   responders, and optional NIC telemetry;
//! * [`link`] — bandwidth + propagation links with fault injection
//!   (silent drop, corruption, scripted bursts);
//! * [`monitor`] — the [`monitor::SwitchMonitor`] trait that
//!   NetSeer and all baseline monitors implement;
//! * [`tracer`] — the ground-truth oracle used to score event coverage;
//! * [`clockfault`] — seeded per-device virtual clocks (offset/drift/step/
//!   freeze) for the time-fault domain;
//! * [`topology`] / [`routing`] — fat-tree construction and ECMP routes;
//! * `fxhash` — the non-SipHash hasher for simulator-internal per-flow
//!   maps.

#![warn(missing_docs)]

pub mod clockfault;
pub mod corrupt;
pub mod counters;
pub mod engine;
pub mod exporter;
mod fxhash;
pub mod host;
pub mod link;
pub mod mmu;
pub mod monitor;
mod parallel;
mod ring;
pub mod rng;
pub mod routing;
pub mod switchdev;
pub mod time;
pub mod topology;
pub mod tracer;
mod wheel;

pub use clockfault::{ClockSpec, DeviceClock};
pub use corrupt::{CorruptionGen, CorruptionSpec, CorruptionTally};
pub use engine::{NodeId, Simulator, SyncStats};
pub use exporter::{HostileExporter, HostileExporterConfig};
pub use host::{FlowSpec, Host, HostConfig};
pub use link::Link;
pub use monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
pub use rng::Pcg32;
pub use switchdev::{SwitchConfig, SwitchDevice};
pub use time::{MICROS, MILLIS, SECONDS};
pub use topology::TopologyBuilder;
pub use tracer::{GroundTruth, GtEvent};
