//! Glue between the simulator fleet and the analytics engine: build the
//! link map from the simulator's wiring truth and harvest downstream
//! gap-detector scrapes from the deployed monitors.

use crate::correlate::{GapReport, LinkMap};
use fet_netsim::engine::Simulator;
use netseer::deploy::monitors;

/// The fleet's link map, from the simulator's port wiring.
pub fn link_map_from_sim(sim: &Simulator) -> LinkMap {
    LinkMap::from_endpoints(sim.link_endpoints())
}

/// Scrape every deployed monitor's per-port gap counts as correlator
/// input, in `(device, port)` order (monitors walk in node-id order, ports
/// ascend), skipping ports with no gaps. Counts are cumulative; feed each
/// scrape to a fresh engine (or diff externally) rather than re-ingesting
/// the same scrape twice.
pub fn harvest_gap_reports(sim: &Simulator) -> Vec<GapReport> {
    monitors(sim)
        .flat_map(|m| {
            m.gap_counts()
                .into_iter()
                .filter(|&(_, gaps)| gaps > 0)
                .map(move |(port, gaps)| GapReport { device: m.device(), port, gaps })
        })
        .collect()
}
