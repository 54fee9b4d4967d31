//! Allocating and bit-at-a-time reference forms that tests compare the
//! zero-copy and table-driven kernels against. No program path calls
//! them.

use crate::error::{ParseError, Result};
use crate::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use crate::seqtag::{SeqTag, SEQTAG_LEN};

/// Insert a NetSeer sequence tag into a frame (paper Figure 5 step 1),
/// returning the re-framed packet. The original EtherType moves into the
/// tag's inner-EtherType field.
pub fn insert_seqtag(frame: &[u8], seq: u32) -> Result<Vec<u8>> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() == EtherType::NetSeerSeq {
        return Err(ParseError::Malformed { what: "seqtag.double-insert" });
    }
    let inner = eth.ethertype();
    let mut out = Vec::with_capacity(frame.len() + SEQTAG_LEN);
    out.extend_from_slice(&frame[..ETHERNET_HEADER_LEN]);
    out.extend_from_slice(&[0u8; SEQTAG_LEN]);
    out.extend_from_slice(&frame[ETHERNET_HEADER_LEN..]);
    let mut eth = EthernetFrame::new_unchecked(&mut out[..]);
    eth.set_ethertype(EtherType::NetSeerSeq);
    let mut tag = SeqTag::new_checked(&mut out[ETHERNET_HEADER_LEN..]).expect("sized");
    tag.set_seq(seq);
    tag.set_inner_ethertype(inner);
    Ok(out)
}

/// Strip a NetSeer sequence tag (paper Figure 5 step 2), returning the
/// sequence number and the restored frame.
pub fn strip_seqtag(frame: &[u8]) -> Result<(u32, Vec<u8>)> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != EtherType::NetSeerSeq {
        return Err(ParseError::Malformed { what: "seqtag.missing" });
    }
    let tag = SeqTag::new_checked(eth.payload())?;
    let seq = tag.seq();
    let inner = tag.inner_ethertype();
    let mut out = Vec::with_capacity(frame.len() - SEQTAG_LEN);
    out.extend_from_slice(&frame[..ETHERNET_HEADER_LEN]);
    out.extend_from_slice(&frame[ETHERNET_HEADER_LEN + SEQTAG_LEN..]);
    let mut eth = EthernetFrame::new_unchecked(&mut out[..]);
    eth.set_ethertype(inner);
    Ok((seq, out))
}

/// One-bit-at-a-time CRC-32 with the reflected polynomial 0xEDB88320 —
/// the original implementation, kept as the oracle the table kernel is
/// tested against (the PDP hash units' golden values depend on it).
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (crate::checksum::CRC32_POLY & mask);
        }
    }
    !crc
}
