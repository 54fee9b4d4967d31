//! Workloads: the five real-world traffic distributions of the paper's
//! §5.2 (DCTCP, VL2, CACHE, HADOOP, WEB), a Poisson flow generator that
//! targets a link utilization with a fan-in pattern, the five real-case
//! fault scenarios of §5.1, and the synthetic NPA ticket generator that
//! regenerates the motivation statistics (Figures 1 and 3).

#![warn(missing_docs)]

pub mod distributions;
pub mod generator;
pub mod scenarios;
pub mod tickets;

pub use distributions::{FlowSizeDist, ALL_WORKLOADS};
pub use generator::{generate_traffic, TrafficParams};
pub use tickets::synthesize_tickets;
