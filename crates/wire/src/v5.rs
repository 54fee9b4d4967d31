//! NetFlow v5: the fixed-layout legacy export format.
//!
//! A v5 datagram is a 24-byte header followed by `count` 48-byte records,
//! `count` ≤ 30. There are no templates, so the only hostile levers are the
//! count field and truncation — both are accounted for here: an impossible
//! count rejects the datagram, a truncated tail turns the missing records
//! into `malformed`.

use crate::reason::{RejectReason, REASON_COUNT};
use crate::sets::{be16, be32, check_header, Datagram};
use crate::translate::FlowSample;
use fet_packet::flow::{FlowKey, IpProtocol};
use fet_packet::Ipv4Addr;

/// Fixed v5 header length.
pub(crate) const V5_HEADER_LEN: usize = 24;
/// Fixed v5 record length.
pub(crate) const V5_RECORD_LEN: usize = 48;
/// Protocol maximum records per datagram.
pub(crate) const V5_MAX_RECORDS: usize = 30;

fn record(buf: &[u8]) -> FlowSample {
    FlowSample {
        flow: FlowKey {
            src: Ipv4Addr::from_octets([buf[0], buf[1], buf[2], buf[3]]),
            dst: Ipv4Addr::from_octets([buf[4], buf[5], buf[6], buf[7]]),
            sport: be16(buf, 32),
            dport: be16(buf, 34),
            proto: IpProtocol::from_number(buf[38]),
        },
        in_port: be16(buf, 12),
        out_port: be16(buf, 14),
        packets: be32(buf, 16) as u64,
        bytes: be32(buf, 20) as u64,
        tcp_flags: buf[37],
        forwarding_status: None,
        first_ms: be32(buf, 24),
        last_ms: be32(buf, 28),
    }
}

/// Parse a v5 datagram. Never panics; a datagram-fatal defect returns the
/// reason, local defects are counted inside the returned datagram.
pub(crate) fn parse(buf: &[u8]) -> Result<Datagram, RejectReason> {
    check_header(buf, 5, V5_HEADER_LEN)?;
    let count = be16(buf, 2);
    if count == 0 || count as usize > V5_MAX_RECORDS {
        return Err(RejectReason::CountLie);
    }
    let available = (buf.len() - V5_HEADER_LEN) / V5_RECORD_LEN;
    let decoded = (count as usize).min(available);
    let samples = (0..decoded)
        .map(|i| record(&buf[V5_HEADER_LEN + i * V5_RECORD_LEN..][..V5_RECORD_LEN]))
        .collect();
    // Records the header claimed but the buffer did not contain.
    let malformed = (count as usize - decoded) as u64;
    let mut soft = [0u64; REASON_COUNT];
    soft[RejectReason::TruncatedRecord.index()] = malformed;
    Ok(Datagram {
        // engine_type << 8 | engine_id.
        domain: (u32::from(buf[20]) << 8) | u32::from(buf[21]),
        sequence: be32(buf, 16),
        // flow_sequence counts records exported so far.
        seq_advance: u32::from(count),
        export_secs: be32(buf, 8),
        sysuptime_ms: be32(buf, 4),
        samples,
        malformed,
        soft,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;

    fn samples(n: usize) -> Vec<FlowSample> {
        (0..n)
            .map(|i| FlowSample {
                flow: FlowKey::udp(
                    Ipv4Addr::from_octets([10, 0, 0, i as u8]),
                    5000 + i as u16,
                    Ipv4Addr::from_octets([10, 0, 1, i as u8]),
                    53,
                ),
                in_port: 1,
                out_port: 2,
                packets: 10 + i as u64,
                bytes: 1000,
                tcp_flags: 0,
                forwarding_status: None,
                first_ms: 0,
                last_ms: 0,
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_builder() {
        let want = samples(5);
        let dg = builder::v5_datagram(100, 1, 7, &want);
        let got = parse(&dg).expect("parses");
        assert_eq!(got.samples, want);
        assert_eq!(got.sequence, 100);
        assert_eq!(got.seq_advance, 5, "v5 sequences count records");
        assert_eq!(got.domain, 1 << 8 | 7, "engine_type << 8 | engine_id");
        assert_eq!(got.malformed, 0);
    }

    #[test]
    fn fatal_rejects() {
        assert_eq!(parse(&[]), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0]), Err(RejectReason::TruncatedHeader));
        assert_eq!(parse(&[0, 9, 0, 0]), Err(RejectReason::BadVersion));
        let short_header = builder::v5_datagram(0, 0, 0, &samples(1));
        assert_eq!(parse(&short_header[..20]), Err(RejectReason::TruncatedHeader));
        // count = 0 and count > 30 are both lies.
        let dg = builder::v5_datagram_with_count(0, 0, 0, &samples(1), 0);
        assert_eq!(parse(&dg), Err(RejectReason::CountLie));
        let dg = builder::v5_datagram_with_count(0, 0, 0, &samples(1), 31);
        assert_eq!(parse(&dg), Err(RejectReason::CountLie));
    }

    #[test]
    fn truncated_tail_becomes_malformed() {
        let dg = builder::v5_datagram(0, 0, 0, &samples(4));
        // Cut mid-way through the third record.
        let cut = V5_HEADER_LEN + 2 * V5_RECORD_LEN + 10;
        let got = parse(&dg[..cut]).expect("header is intact");
        assert_eq!(got.samples.len(), 2);
        assert_eq!(got.malformed, 2);
        assert_eq!(got.soft[RejectReason::TruncatedRecord.index()], 2);
    }

    #[test]
    fn count_lie_within_bounds_becomes_malformed() {
        // Claims 8 records, carries 3: the missing 5 are malformed.
        let dg = builder::v5_datagram_with_count(0, 0, 0, &samples(3), 8);
        let got = parse(&dg).expect("parses");
        assert_eq!(got.samples.len(), 3);
        assert_eq!(got.malformed, 5);
    }

    #[test]
    fn trailing_garbage_is_ignored() {
        let mut dg = builder::v5_datagram(0, 0, 0, &samples(2));
        dg.extend_from_slice(&[0xde, 0xad]);
        let got = parse(&dg).expect("parses");
        assert_eq!(got.samples.len(), 2);
        assert_eq!(got.malformed, 0);
    }
}
