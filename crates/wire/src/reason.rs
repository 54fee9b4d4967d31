//! The closed taxonomy of reasons a wire datagram (or part of one) is
//! refused. Every rejection on the ingest path is counted under exactly one
//! of these, so "how hostile is this exporter?" is always answerable from
//! counters — nothing is dropped silently.

use core::fmt;

/// Why a datagram, set, or record was refused.
///
/// Reasons split into two severities, decided by the parser:
///
/// * **datagram-fatal** — the framing itself cannot be trusted past this
///   point (bad version, truncated header, a set length that walks off the
///   buffer). The whole datagram is quarantined and contributes nothing to
///   `generated`.
/// * **soft** — a localized defect inside an otherwise well-framed datagram
///   (one bad template record, one unknown template id, a truncated record
///   tail). The surrounding datagram still decodes; the defect is counted
///   and the affected records land in the `malformed` ledger term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RejectReason {
    /// Buffer shorter than the fixed protocol header.
    TruncatedHeader,
    /// Version field is not 5, 9, or 10.
    BadVersion,
    /// Datagram longer than the configured maximum.
    Oversize,
    /// The header's record count is impossible (0, above the protocol
    /// maximum, or above what the buffer could physically hold).
    CountLie,
    /// A set/flowset length field is shorter than its own header or walks
    /// past the end of the datagram.
    LengthLie,
    /// A record tail shorter than one full record (beyond the 4-byte
    /// alignment padding the specs allow).
    TruncatedRecord,
    /// A template record with an invalid id, zero/absurd field count, or a
    /// record length beyond the configured bound.
    BadTemplate,
    /// A data set referencing a template id this session has never seen
    /// (or that was evicted / expired).
    MissingTemplate,
    /// A set id in the reserved range (v9: 2–255 excluding 0/1;
    /// IPFIX: 4–255).
    ReservedSet,
}

/// Number of distinct reasons; sizes per-reason counter arrays.
pub(crate) const REASON_COUNT: usize = 9;

/// Every reason, in `index()` order.
pub const ALL_REASONS: [RejectReason; REASON_COUNT] = [
    RejectReason::TruncatedHeader,
    RejectReason::BadVersion,
    RejectReason::Oversize,
    RejectReason::CountLie,
    RejectReason::LengthLie,
    RejectReason::TruncatedRecord,
    RejectReason::BadTemplate,
    RejectReason::MissingTemplate,
    RejectReason::ReservedSet,
];

impl RejectReason {
    /// Stable dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            RejectReason::TruncatedHeader => 0,
            RejectReason::BadVersion => 1,
            RejectReason::Oversize => 2,
            RejectReason::CountLie => 3,
            RejectReason::LengthLie => 4,
            RejectReason::TruncatedRecord => 5,
            RejectReason::BadTemplate => 6,
            RejectReason::MissingTemplate => 7,
            RejectReason::ReservedSet => 8,
        }
    }

    /// Human-readable label, used in quarantine records and printed
    /// counters.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::TruncatedHeader => "truncated-header",
            RejectReason::BadVersion => "bad-version",
            RejectReason::Oversize => "oversize",
            RejectReason::CountLie => "count-lie",
            RejectReason::LengthLie => "length-lie",
            RejectReason::TruncatedRecord => "truncated-record",
            RejectReason::BadTemplate => "bad-template",
            RejectReason::MissingTemplate => "missing-template",
            RejectReason::ReservedSet => "reserved-set",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, r) in ALL_REASONS.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        for a in ALL_REASONS {
            for b in ALL_REASONS {
                if a != b {
                    assert_ne!(a.as_str(), b.as_str());
                }
            }
        }
    }
}
