//! Panic-free NetFlow v5 / v9 / IPFIX ingestion for the NetSeer collector.
//!
//! The simulator exercises the collector with events born in-process;
//! this crate is the hostile-input edge (ROADMAP open item 1): untrusted
//! UDP payloads from real exporters, decoded into the same 24-byte FET
//! event model and handed to the collector's normal admission path.
//!
//! Design rules, in order:
//!
//! 1. **Never panic.** Every parser is total over arbitrary bytes; the
//!    fuzz harness (`tests/fuzz_parsers.rs`) enforces it.
//! 2. **Nothing is dropped silently.** Every refusal lands under one
//!    [`reason::RejectReason`]; every record an exporter claimed but we
//!    could not decode is booked as *malformed*, feeding the collector
//!    ledger identity
//!    `generated == delivered + shed + pending + buffered + lost_to_crash
//!    + corrupted + malformed`.
//! 3. **The exporter cannot grow our state.** Template caches are bounded
//!    per observation domain *and* across domains
//!    ([`template::TemplateCacheConfig`]), with deterministic LRU eviction
//!    and stale-template expiry.
//! 4. **Loss before our doorstep is visible.** Export sequence numbers are
//!    reconciled per stream; gaps surface as an upstream-loss signal
//!    ([`session::UpstreamLossReport`]) for the analytics layer.
//! 5. **Exporter clocks are never trusted.** Header export times are
//!    plausibility-clamped against the collector's receive time, frozen
//!    sysuptimes and implausible flow durations are booked under a
//!    [`clock::ClockLie`], and sysuptime arithmetic is wrap-aware
//!    (`clock::uptime_delta_ms`) across the ~49.7-day u32 wrap.
//!
//! Layering: this crate depends only on `fet-packet`. The simulator's
//! hostile-exporter model (`fet_netsim::exporter`) and the collector
//! adapter (`netseer::wire`) build on top.

#![warn(missing_docs)]

pub mod builder;
mod clock;
pub mod fields;
mod reason;
mod template;
mod translate;

// The three dialects each decode into one `sets::Datagram`; the session is
// their only caller.
mod ipfix;
mod session;
mod sets;
mod v5;
mod v9;

pub use clock::{ClockLie, ALL_CLOCK_LIES};
pub use reason::{RejectReason, ALL_REASONS};
pub use session::{
    IngestReport, UpstreamLossReport, WireProtocol, WireSession, WireSessionConfig,
    WireSessionStats,
};
pub use template::{Template, TemplateCache, TemplateCacheConfig, TemplateField};
pub use translate::{flow_hash, translate, FlowSample};

#[cfg(test)]
mod test_support {
    use crate::translate::FlowSample;
    use fet_packet::flow::FlowKey;
    use fet_packet::Ipv4Addr;

    /// A distinct, deterministic flow sample per index.
    pub fn sample(n: u8) -> FlowSample {
        FlowSample {
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, n]),
                1000 + n as u16,
                Ipv4Addr::from_octets([10, 1, 0, n]),
                443,
            ),
            in_port: 2,
            out_port: 4,
            packets: 10 + n as u64,
            bytes: 1000 + n as u64 * 10,
            tcp_flags: 0x10,
            forwarding_status: Some(0x40),
            first_ms: 0,
            last_ms: 0,
        }
    }
}
