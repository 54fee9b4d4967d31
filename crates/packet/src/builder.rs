//! High-level packet construction and inspection helpers.
//!
//! The simulator represents every packet as an owned `Vec<u8>` containing a
//! complete Ethernet frame; these helpers build well-formed frames and
//! extract flow information without callers touching raw offsets.

use crate::arena::tag_ready;
use crate::cebp;
use crate::checksum::crc32c;
use crate::error::{ParseError, Result};
use crate::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use crate::event::EventRecord;
use crate::flow::{FlowKey, IpProtocol};
use crate::ipv4::{Ipv4Addr, Ipv4Packet, IPV4_HEADER_LEN};
use crate::notification::{build_notification, LossNotification, NOTIFICATION_LEN};
use crate::pfc::{PfcFrame, PFC_PAYLOAD_LEN};
use crate::seqtag::{SeqTag, SEQTAG_LEN};
use crate::tcp::{TcpSegment, TCP_HEADER_LEN};
use crate::udp::{UdpDatagram, UDP_HEADER_LEN};
use crate::{CRC_TRAILER_LEN, MIN_FRAME_LEN};

/// Build a complete Ethernet+IPv4+TCP/UDP frame for `flow` with `payload_len`
/// bytes of application payload (zero-filled). `tcp_flags` applies to TCP
/// flows only. Frames are padded to the 64-byte Ethernet minimum and have
/// capacity for a sequence tag.
pub fn build_data_packet(
    flow: &FlowKey,
    payload_len: usize,
    tcp_flags: u8,
    dscp: u8,
    ttl: u8,
) -> Vec<u8> {
    let mut buf = tag_ready(data_packet_len(flow, payload_len));
    fill_data_packet(&mut buf, flow, payload_len, tcp_flags, dscp, ttl);
    buf
}

/// Like [`build_data_packet`] but drawing the (zeroed) buffer from a
/// [`crate::FrameArena`] — the zero-allocation form for steady-state
/// traffic sources.
pub fn build_data_packet_in(
    arena: &mut crate::FrameArena,
    flow: &FlowKey,
    payload_len: usize,
    tcp_flags: u8,
    dscp: u8,
    ttl: u8,
) -> Vec<u8> {
    let mut buf = arena.get(data_packet_len(flow, payload_len));
    fill_data_packet(&mut buf, flow, payload_len, tcp_flags, dscp, ttl);
    buf
}

/// Like [`build_data_packet_in`] but with an open hop tag (sequence
/// number 0) already in front: the frame [`insert_seqtag_in_place`]
/// would make of it, built in one pass so no payload moves. The arena's
/// tag room holds the tag, so the buffer is the one an untagged build
/// would use.
pub fn build_tagged_data_packet_in(
    arena: &mut crate::FrameArena,
    flow: &FlowKey,
    payload_len: usize,
    tcp_flags: u8,
    dscp: u8,
    ttl: u8,
) -> Vec<u8> {
    let len = data_packet_len(flow, payload_len);
    let mut buf = arena.get(len);
    buf.resize(len + SEQTAG_LEN, 0);
    fill_data_packet(&mut buf[SEQTAG_LEN..], flow, payload_len, tcp_flags, dscp, ttl);
    slide_in_seqtag(&mut buf, 0);
    buf
}

/// On-wire length of the frame [`build_data_packet`] would produce.
pub fn data_packet_len(flow: &FlowKey, payload_len: usize) -> usize {
    let l4_len = match flow.proto {
        IpProtocol::Tcp => TCP_HEADER_LEN,
        IpProtocol::Udp => UDP_HEADER_LEN,
        _ => 0,
    };
    (ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + l4_len + payload_len).max(MIN_FRAME_LEN)
}

fn fill_data_packet(
    buf: &mut [u8],
    flow: &FlowKey,
    payload_len: usize,
    tcp_flags: u8,
    dscp: u8,
    ttl: u8,
) {
    let l4_len = match flow.proto {
        IpProtocol::Tcp => TCP_HEADER_LEN,
        IpProtocol::Udp => UDP_HEADER_LEN,
        _ => 0,
    };
    let ip_total = IPV4_HEADER_LEN + l4_len + payload_len;

    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_dst(MacAddr::BROADCAST);
    eth.set_src(MacAddr::BROADCAST);
    eth.set_ethertype(EtherType::Ipv4);

    let mut ip = Ipv4Packet::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
    ip.init();
    ip.set_total_length(ip_total as u16);
    ip.set_ttl(ttl);
    ip.set_dscp(dscp);
    ip.set_protocol(flow.proto);
    ip.set_src(flow.src);
    ip.set_dst(flow.dst);
    ip.fill_checksum();

    let l4_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    match flow.proto {
        IpProtocol::Tcp => {
            let mut t = TcpSegment::new_unchecked(&mut buf[l4_off..]);
            t.init();
            t.set_sport(flow.sport);
            t.set_dport(flow.dport);
            t.set_flags(tcp_flags);
        }
        IpProtocol::Udp => {
            let mut u = UdpDatagram::new_unchecked(&mut buf[l4_off..]);
            u.set_sport(flow.sport);
            u.set_dport(flow.dport);
            u.set_length((UDP_HEADER_LEN + payload_len) as u16);
        }
        _ => {}
    }
}

/// Build a PFC frame pausing (`quanta > 0`) or resuming (`quanta == 0`) the
/// given priority class.
pub fn build_pfc_frame(class: usize, quanta: u16) -> Vec<u8> {
    let mut buf = vec![0u8; (ETHERNET_HEADER_LEN + PFC_PAYLOAD_LEN).max(MIN_FRAME_LEN)];
    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_dst(MacAddr([0x01, 0x80, 0xc2, 0x00, 0x00, 0x01]));
    eth.set_src(MacAddr::BROADCAST);
    eth.set_ethertype(EtherType::MacControl);
    let mut pfc = PfcFrame::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
    pfc.init();
    pfc.set_pause(class, quanta);
    buf
}

/// Build `copies` redundant loss-notification frames (ablation knob).
pub fn build_notification_frames_with(
    lo: u32,
    hi: u32,
    observer_port: u8,
    copies: u8,
) -> Vec<Vec<u8>> {
    (0..copies.max(1))
        .map(|copy| {
            let payload = build_notification(lo, hi, copy, observer_port);
            let wire = ETHERNET_HEADER_LEN + NOTIFICATION_LEN + CRC_TRAILER_LEN;
            // Switches tag notifications on egress: leave room for it.
            let mut buf = tag_ready(wire.max(MIN_FRAME_LEN));
            let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
            eth.set_dst(MacAddr::BROADCAST);
            eth.set_src(MacAddr::BROADCAST);
            eth.set_ethertype(EtherType::NetSeerNotify);
            buf[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + NOTIFICATION_LEN]
                .copy_from_slice(&payload);
            let crc = crc32c(&payload);
            buf[ETHERNET_HEADER_LEN + NOTIFICATION_LEN..wire].copy_from_slice(&crc.to_be_bytes());
            buf
        })
        .collect()
}

/// Build a CEBP frame carrying the given events, closed by a CRC-32C
/// trailer over the CEBP header + records.
pub fn build_cebp_frame(capacity: u16, events: &[EventRecord]) -> Result<Vec<u8>> {
    let payload = cebp::buffer_len_for(capacity);
    let mut buf = vec![0u8; ETHERNET_HEADER_LEN + payload + CRC_TRAILER_LEN];
    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_dst(MacAddr::BROADCAST);
    eth.set_src(MacAddr::BROADCAST);
    eth.set_ethertype(EtherType::NetSeerCebp);
    let mut p = cebp::CebpPacket::new_checked(&mut buf[ETHERNET_HEADER_LEN..][..payload])
        .expect("sized buffer");
    p.init(capacity);
    for ev in events {
        p.push_event(ev)?;
    }
    let crc = crc32c(&buf[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + payload]);
    buf[ETHERNET_HEADER_LEN + payload..].copy_from_slice(&crc.to_be_bytes());
    Ok(buf)
}

/// Parse and integrity-check a CEBP report frame: EtherType, CRC-32C
/// trailer, then the batched event records. Returns `BadChecksum` on any
/// trailer mismatch — callers treat that as a poison report to quarantine.
pub fn parse_cebp_frame(frame: &[u8]) -> Result<Vec<EventRecord>> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != EtherType::NetSeerCebp {
        return Err(ParseError::Malformed { what: "cebp.ethertype" });
    }
    let payload = eth.payload();
    if payload.len() < cebp::CEBP_HEADER_LEN + CRC_TRAILER_LEN {
        return Err(ParseError::Truncated {
            what: "cebp.trailer",
            need: cebp::CEBP_HEADER_LEN + CRC_TRAILER_LEN,
            have: payload.len(),
        });
    }
    let (body, trailer) = payload.split_at(payload.len() - CRC_TRAILER_LEN);
    let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32c(body) != want {
        return Err(ParseError::BadChecksum { what: "cebp.crc32c" });
    }
    cebp::CebpPacket::new_checked(body)?.events()
}

/// Insert a NetSeer sequence tag **in place**: the frame grows by
/// [`SEQTAG_LEN`] bytes but keeps its buffer — the zero-allocation form of
/// `reference::insert_seqtag`, for a frame with no headroom to
/// [`slide_in_seqtag`] into (it moves the payload). Data and
/// notification frames from this module and [`crate::FrameArena`] have
/// the capacity for it, so their buffers never move.
pub fn insert_seqtag_in_place(frame: &mut Vec<u8>, seq: u32) -> Result<()> {
    let eth = EthernetFrame::new_checked(&frame[..])?;
    if eth.ethertype() == EtherType::NetSeerSeq {
        return Err(ParseError::Malformed { what: "seqtag.double-insert" });
    }
    let inner = eth.ethertype();
    let old_len = frame.len();
    frame.resize(old_len + SEQTAG_LEN, 0);
    frame.copy_within(ETHERNET_HEADER_LEN..old_len, ETHERNET_HEADER_LEN + SEQTAG_LEN);
    let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
    eth.set_ethertype(EtherType::NetSeerSeq);
    let mut tag = SeqTag::new_checked(&mut frame[ETHERNET_HEADER_LEN..]).expect("sized");
    tag.set_seq(seq);
    tag.set_inner_ethertype(inner);
    Ok(())
}

/// Strip a NetSeer sequence tag **in place**, returning the sequence
/// number. The frame shrinks by [`SEQTAG_LEN`] bytes but keeps its buffer
/// — the zero-allocation form of `reference::strip_seqtag`. It moves the payload;
/// the switch's parser uses [`slide_out_seqtag`] instead.
pub fn strip_seqtag_in_place(frame: &mut Vec<u8>) -> Result<u32> {
    let eth = EthernetFrame::new_checked(&frame[..])?;
    if eth.ethertype() != EtherType::NetSeerSeq {
        return Err(ParseError::Malformed { what: "seqtag.missing" });
    }
    let tag = SeqTag::new_checked(eth.payload())?;
    let seq = tag.seq();
    let inner = tag.inner_ethertype();
    let len = frame.len();
    frame.copy_within(ETHERNET_HEADER_LEN + SEQTAG_LEN..len, ETHERNET_HEADER_LEN);
    frame.truncate(len - SEQTAG_LEN);
    let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
    eth.set_ethertype(inner);
    Ok(seq)
}

/// The destination and source MAC addresses: what moves when a hop tag
/// slides in or out.
const MAC_BYTES: usize = ETHERNET_HEADER_LEN - 2;

/// What the switch parser reads off an arriving frame in one pass: the
/// sequence number of its hop tag (`None` exactly when [`peek_seqtag`]
/// fails), and the [`classify`] kind of the frame beneath the tag, the
/// one [`strip_seqtag_in_place`] would leave.
#[inline]
pub fn parse_hop(frame: &[u8]) -> (Option<u32>, FrameKind) {
    if frame.len() >= ETHERNET_HEADER_LEN + SEQTAG_LEN
        && be16_at(frame, 12) == Some(EtherType::NetSeerSeq.value())
    {
        // From byte 12 on, `frame[SEQTAG_LEN..]` is the untagged frame,
        // and `classify` reads nothing before byte 12.
        return (be32_at(frame, ETHERNET_HEADER_LEN), classify(&frame[SEQTAG_LEN..]));
    }
    (None, classify(frame))
}

/// True when a hop tag may ride `frame`: it has a whole Ethernet header
/// and is neither PFC (MAC control never leaves the link) nor already
/// tagged.
#[inline]
pub fn taggable(frame: &[u8]) -> bool {
    !matches!(be16_at(frame, 12), None | Some(0x8808 | 0x88b5))
}

/// Remove a hop tag as the switch parser does: slide the 12 MAC bytes
/// over it. `frame[SEQTAG_LEN..]` is then the untagged frame, byte for
/// byte what [`strip_seqtag_in_place`] leaves, and the first
/// [`SEQTAG_LEN`] bytes are headroom. The payload never moves. `frame`
/// must carry a whole tag ([`parse_hop`] read its sequence number).
#[inline]
pub fn slide_out_seqtag(frame: &mut [u8]) {
    debug_assert!(peek_seqtag(frame).is_ok(), "no hop tag to slide out");
    frame.copy_within(..MAC_BYTES, SEQTAG_LEN);
}

/// Re-form a hop tag in the headroom [`slide_out_seqtag`] left: slide the
/// MAC bytes back and write the tag's EtherType and `seq`, so `frame`
/// becomes what [`insert_seqtag_in_place`] makes of `frame[SEQTAG_LEN..]`.
/// The untagged frame's own EtherType already sits where the tag keeps
/// it, so again only 12 bytes move. `frame[SEQTAG_LEN..]` must be
/// [`taggable`].
#[inline]
pub fn slide_in_seqtag(frame: &mut [u8], seq: u32) {
    debug_assert!(taggable(&frame[SEQTAG_LEN..]), "frame under the headroom is not taggable");
    frame.copy_within(SEQTAG_LEN..SEQTAG_LEN + MAC_BYTES, 0);
    frame[MAC_BYTES..ETHERNET_HEADER_LEN]
        .copy_from_slice(&EtherType::NetSeerSeq.value().to_be_bytes());
    set_seqtag_seq(frame, seq);
}

/// Overwrite the sequence number of a tagged frame in place.
#[inline]
pub fn set_seqtag_seq(frame: &mut [u8], seq: u32) {
    frame[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + 4].copy_from_slice(&seq.to_be_bytes());
}

/// Big-endian 16-bit load at a byte offset; `None` past the end.
/// Compiles to a single bounds check plus one word load — the primitive
/// the word-at-a-time parser fast paths are built from.
#[inline]
fn be16_at(b: &[u8], off: usize) -> Option<u16> {
    b.get(off..off + 2).map(|w| u16::from_be_bytes([w[0], w[1]]))
}

/// Big-endian 32-bit load at a byte offset; `None` past the end.
#[inline]
fn be32_at(b: &[u8], off: usize) -> Option<u32> {
    b.get(off..off + 4).map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
}

/// Peek the sequence number of a tagged frame without re-framing.
pub fn peek_seqtag(frame: &[u8]) -> Result<u32> {
    // Word-at-a-time fast path: one ethertype load, one seq load. Anything
    // short or untagged drops to the layered parsers purely to produce the
    // exact same error values they always have.
    if frame.len() >= ETHERNET_HEADER_LEN + SEQTAG_LEN
        && be16_at(frame, 12) == Some(EtherType::NetSeerSeq.value())
    {
        if let Some(seq) = be32_at(frame, ETHERNET_HEADER_LEN) {
            return Ok(seq);
        }
    }
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != EtherType::NetSeerSeq {
        return Err(ParseError::Malformed { what: "seqtag.missing" });
    }
    Ok(SeqTag::new_checked(eth.payload())?.seq())
}

/// Extract the 5-tuple from an Ethernet frame, looking through a sequence
/// tag if present. Non-IP frames yield `None`.
///
/// The common case — a well-formed TCP/UDP-in-IPv4 frame, tagged or not —
/// is decoded with a handful of word loads at fixed offsets; anything the
/// fast path is not certain about (IP options, unusual protocols, odd
/// lengths) falls back to the layered checked parsers, which remain
/// authoritative. The equivalence of the two paths is property-tested in
/// this module.
pub fn extract_flow(frame: &[u8]) -> Option<FlowKey> {
    if let Some(f) = extract_flow_fast(frame) {
        return Some(f);
    }
    extract_flow_checked(frame)
}

/// Word-at-a-time `extract_flow` fast path. Every guard here mirrors a
/// validation the checked parsers perform, so `Some` answers are exactly
/// what [`extract_flow_checked`] would return; `None` only means "let the
/// slow path decide".
#[inline]
fn extract_flow_fast(frame: &[u8]) -> Option<FlowKey> {
    let l3_off = match be16_at(frame, 12)? {
        0x0800 => ETHERNET_HEADER_LEN,
        0x88b5 if be16_at(frame, ETHERNET_HEADER_LEN + 4)? == 0x0800 => {
            ETHERNET_HEADER_LEN + SEQTAG_LEN
        }
        _ => return None,
    };
    let l3_len = frame.len() - l3_off;
    // Version 4, IHL 5 in one byte compare; options (IHL != 5) fall back.
    if l3_len < IPV4_HEADER_LEN || frame[l3_off] != 0x45 {
        return None;
    }
    let total = usize::from(be16_at(frame, l3_off + 2)?);
    if total < IPV4_HEADER_LEN || total > l3_len {
        return None;
    }
    let l4_len = total - IPV4_HEADER_LEN;
    let l4 = l3_off + IPV4_HEADER_LEN;
    let proto = frame[l3_off + 9];
    let (sport, dport) = match proto {
        6 if l4_len >= TCP_HEADER_LEN => (be16_at(frame, l4)?, be16_at(frame, l4 + 2)?),
        17 if l4_len >= UDP_HEADER_LEN => {
            let ulen = usize::from(be16_at(frame, l4 + 4)?);
            if ulen < UDP_HEADER_LEN || ulen > l4_len {
                return None;
            }
            (be16_at(frame, l4)?, be16_at(frame, l4 + 2)?)
        }
        _ => return None,
    };
    Some(FlowKey {
        src: Ipv4Addr::from_u32(be32_at(frame, l3_off + 12)?),
        dst: Ipv4Addr::from_u32(be32_at(frame, l3_off + 16)?),
        sport,
        dport,
        proto: IpProtocol::from_number(proto),
    })
}

/// Layered-parser `extract_flow`: the authoritative slow path.
fn extract_flow_checked(frame: &[u8]) -> Option<FlowKey> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    let (ethertype, l3) = match eth.ethertype() {
        EtherType::NetSeerSeq => {
            let tag = SeqTag::new_checked(eth.payload()).ok()?;
            (tag.inner_ethertype(), &eth.payload()[SEQTAG_LEN..])
        }
        ty => (ty, eth.payload()),
    };
    if ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(l3).ok()?;
    let (sport, dport) = match ip.protocol() {
        IpProtocol::Tcp => {
            let t = TcpSegment::new_checked(ip.payload()).ok()?;
            (t.sport(), t.dport())
        }
        IpProtocol::Udp => {
            let u = UdpDatagram::new_checked(ip.payload()).ok()?;
            (u.sport(), u.dport())
        }
        _ => (0, 0),
    };
    Some(FlowKey { src: ip.src(), dst: ip.dst(), sport, dport, proto: ip.protocol() })
}

/// Classify a frame's top-level protocol for switch parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// IPv4 data traffic (possibly beneath a sequence tag).
    Ipv4,
    /// PFC pause frame.
    Pfc,
    /// NetSeer loss notification.
    LossNotification,
    /// NetSeer CEBP.
    Cebp,
    /// Anything else.
    Other,
}

/// Determine the frame kind.
///
/// Pure word-at-a-time: one ethertype load, plus one inner-ethertype load
/// when a sequence tag is present. A frame too short for the load it needs
/// is `Other`, exactly as the layered parsers would report.
pub fn classify(frame: &[u8]) -> FrameKind {
    match be16_at(frame, 12) {
        Some(0x0800) => FrameKind::Ipv4,
        Some(0x88b5) => match be16_at(frame, ETHERNET_HEADER_LEN + 4) {
            Some(0x0800) => FrameKind::Ipv4,
            Some(0x88b6) => FrameKind::LossNotification,
            _ => FrameKind::Other,
        },
        Some(0x8808) => FrameKind::Pfc,
        Some(0x88b6) => FrameKind::LossNotification,
        Some(0x88b7) => FrameKind::Cebp,
        _ => FrameKind::Other,
    }
}

/// Parse a loss-notification frame (possibly beneath a sequence tag).
pub fn parse_notification(frame: &[u8]) -> Result<(u32, u32, u8, u8)> {
    let eth = EthernetFrame::new_checked(frame)?;
    let payload = match eth.ethertype() {
        EtherType::NetSeerNotify => eth.payload(),
        EtherType::NetSeerSeq => {
            let tag = SeqTag::new_checked(eth.payload())?;
            if tag.inner_ethertype() != EtherType::NetSeerNotify {
                return Err(ParseError::Malformed { what: "notification.ethertype" });
            }
            &eth.payload()[SEQTAG_LEN..]
        }
        _ => return Err(ParseError::Malformed { what: "notification.ethertype" }),
    };
    if payload.len() < NOTIFICATION_LEN + CRC_TRAILER_LEN {
        return Err(ParseError::Truncated {
            what: "notification.trailer",
            need: NOTIFICATION_LEN + CRC_TRAILER_LEN,
            have: payload.len(),
        });
    }
    let want = u32::from_be_bytes([
        payload[NOTIFICATION_LEN],
        payload[NOTIFICATION_LEN + 1],
        payload[NOTIFICATION_LEN + 2],
        payload[NOTIFICATION_LEN + 3],
    ]);
    if crc32c(&payload[..NOTIFICATION_LEN]) != want {
        return Err(ParseError::BadChecksum { what: "notification.crc32c" });
    }
    let n = LossNotification::new_checked(payload)?;
    Ok((n.seq_lo(), n.seq_hi(), n.copy_index(), n.observer_port()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr;
    use crate::reference::{insert_seqtag, strip_seqtag};
    use crate::tcp::flags;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 1, 1]),
            40000,
            Ipv4Addr::from_octets([10, 0, 2, 2]),
            443,
        )
    }

    #[test]
    fn data_packet_roundtrip() {
        let f = flow();
        let pkt = build_data_packet(&f, 100, flags::SYN, 0, 64);
        assert!(pkt.len() >= MIN_FRAME_LEN);
        assert_eq!(classify(&pkt), FrameKind::Ipv4);
        assert_eq!(extract_flow(&pkt), Some(f));
    }

    #[test]
    fn small_packets_pad_to_minimum() {
        let pkt = build_data_packet(&flow(), 0, 0, 0, 64);
        assert_eq!(pkt.len(), MIN_FRAME_LEN);
    }

    #[test]
    fn udp_packet_flow_extraction() {
        let f = FlowKey::udp(
            Ipv4Addr::from_octets([10, 0, 1, 1]),
            5000,
            Ipv4Addr::from_octets([10, 0, 2, 2]),
            6000,
        );
        let pkt = build_data_packet(&f, 200, 0, 0, 64);
        assert_eq!(extract_flow(&pkt), Some(f));
    }

    #[test]
    fn seqtag_insert_strip_roundtrip() {
        let pkt = build_data_packet(&flow(), 50, 0, 0, 64);
        let tagged = insert_seqtag(&pkt, 12345).unwrap();
        assert_eq!(tagged.len(), pkt.len() + SEQTAG_LEN);
        assert_eq!(peek_seqtag(&tagged).unwrap(), 12345);
        // Flow stays extractable through the tag.
        assert_eq!(extract_flow(&tagged), Some(flow()));
        assert_eq!(classify(&tagged), FrameKind::Ipv4);
        let (seq, restored) = strip_seqtag(&tagged).unwrap();
        assert_eq!(seq, 12345);
        assert_eq!(restored, pkt);
    }

    #[test]
    fn in_place_seqtag_matches_allocating_form() {
        let pkt = build_data_packet(&flow(), 50, 0, 0, 64);
        let mut buf = pkt.clone();
        insert_seqtag_in_place(&mut buf, 12345).unwrap();
        assert_eq!(buf, insert_seqtag(&pkt, 12345).unwrap());
        assert!(insert_seqtag_in_place(&mut buf.clone(), 1).is_err());
        let seq = strip_seqtag_in_place(&mut buf).unwrap();
        assert_eq!(seq, 12345);
        assert_eq!(buf, pkt);
        assert!(strip_seqtag_in_place(&mut buf).is_err());
    }

    #[test]
    fn tagging_never_moves_a_frame() {
        let mut arena = crate::FrameArena::new();
        let fresh = build_data_packet_in(&mut arena, &flow(), 1000, flags::ACK, 0, 64);
        let big = build_data_packet_in(&mut arena, &flow(), 1400, 0, 0, 64);
        // Recycled: a buffer large enough is reused, one smaller than the
        // request is replaced.
        arena.put(big);
        let recycled = build_data_packet_in(&mut arena, &flow(), 500, 0, 0, 64);
        arena.put(Vec::with_capacity(100));
        let from_small = build_data_packet_in(&mut arena, &flow(), 1000, 0, 0, 64);
        let mut frames = vec![fresh, recycled, from_small, build_data_packet(&flow(), 0, 0, 0, 64)];
        frames.extend(build_notification_frames_with(1, 9, 3, 3));
        for (i, mut f) in frames.into_iter().enumerate() {
            assert!(f.capacity() >= f.len() + SEQTAG_LEN, "frame {i} lacks tag room");
            let (ptr, cap) = (f.as_ptr(), f.capacity());
            let untagged = f.clone();
            insert_seqtag_in_place(&mut f, 7).unwrap();
            assert_eq!((f.as_ptr(), f.capacity()), (ptr, cap), "frame {i} moved");
            assert_eq!(f, insert_seqtag(&untagged, 7).unwrap());
        }
    }

    #[test]
    fn sliding_the_tag_moves_only_the_macs() {
        let mut arena = crate::FrameArena::new();
        let pkt = build_data_packet(&flow(), 1000, flags::ACK, 0, 64);
        let mut f = build_tagged_data_packet_in(&mut arena, &flow(), 1000, flags::ACK, 0, 64);
        assert_eq!(f, insert_seqtag(&pkt, 0).unwrap(), "built open == built then tagged");
        let ptr = f.as_ptr();
        assert_eq!(parse_hop(&f), (Some(0), FrameKind::Ipv4));
        slide_out_seqtag(&mut f);
        assert_eq!(&f[SEQTAG_LEN..], &pkt[..], "slid out == stripped");
        assert!(taggable(&f[SEQTAG_LEN..]));
        slide_in_seqtag(&mut f, 0xfeed);
        assert_eq!(f, insert_seqtag(&pkt, 0xfeed).unwrap(), "slid in == inserted");
        set_seqtag_seq(&mut f, 3);
        assert_eq!(peek_seqtag(&f).unwrap(), 3);
        assert_eq!(f.as_ptr(), ptr, "the buffer never moved");
        assert_eq!(parse_hop(&pkt), (None, FrameKind::Ipv4));
        assert!(!taggable(&f), "a tagged frame takes no second tag");
        assert!(!taggable(&build_pfc_frame(0, 1)), "PFC stays untagged");
        assert!(!taggable(&pkt[..13]));
    }

    #[test]
    fn double_insert_rejected() {
        let pkt = build_data_packet(&flow(), 50, 0, 0, 64);
        let tagged = insert_seqtag(&pkt, 1).unwrap();
        assert!(insert_seqtag(&tagged, 2).is_err());
    }

    #[test]
    fn strip_untagged_rejected() {
        let pkt = build_data_packet(&flow(), 50, 0, 0, 64);
        assert!(strip_seqtag(&pkt).is_err());
        assert!(peek_seqtag(&pkt).is_err());
    }

    #[test]
    fn pfc_frame_classifies() {
        let pkt = build_pfc_frame(3, 100);
        assert_eq!(classify(&pkt), FrameKind::Pfc);
        assert_eq!(extract_flow(&pkt), None);
    }

    #[test]
    fn notification_frames_are_redundant_copies() {
        let frames = build_notification_frames_with(10, 20, 5, 3);
        assert_eq!(frames.len(), 3);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(classify(f), FrameKind::LossNotification);
            let (lo, hi, copy, port) = parse_notification(f).unwrap();
            assert_eq!((lo, hi, port), (10, 20, 5));
            assert_eq!(copy as usize, i);
        }
    }

    #[test]
    fn notification_survives_seqtag() {
        let frames = build_notification_frames_with(1, 2, 0, 3);
        let tagged = insert_seqtag(&frames[0], 77).unwrap();
        assert_eq!(classify(&tagged), FrameKind::LossNotification);
        let (lo, hi, _, _) = parse_notification(&tagged).unwrap();
        assert_eq!((lo, hi), (1, 2));
    }

    #[test]
    fn cebp_frame_roundtrip() {
        let ev = EventRecord {
            ty: crate::event::EventType::Pause,
            flow: flow(),
            detail: crate::event::EventDetail::Pause { egress_port: 1, queue: 2 },
            counter: 1,
            hash: 42,
        };
        let frame = build_cebp_frame(10, &[ev]).unwrap();
        assert_eq!(classify(&frame), FrameKind::Cebp);
        let p = cebp::CebpPacket::new_checked(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(p.count(), 1);
        assert_eq!(p.events().unwrap()[0], ev);
        assert_eq!(parse_cebp_frame(&frame).unwrap(), vec![ev]);
    }

    #[test]
    fn cebp_crc_rejects_any_single_bit_flip() {
        let ev = EventRecord {
            ty: crate::event::EventType::Pause,
            flow: flow(),
            detail: crate::event::EventDetail::Pause { egress_port: 1, queue: 2 },
            counter: 1,
            hash: 42,
        };
        let frame = build_cebp_frame(10, &[ev]).unwrap();
        // Flip one bit in every CRC-covered byte position in turn.
        for i in ETHERNET_HEADER_LEN..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(parse_cebp_frame(&bad), Err(ParseError::BadChecksum { .. })),
                "flip at byte {i} was not caught"
            );
        }
        // Truncation is caught too (as truncation or checksum failure).
        assert!(parse_cebp_frame(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn notification_crc_rejects_payload_corruption() {
        let frames = build_notification_frames_with(10, 20, 5, 3);
        for i in ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + NOTIFICATION_LEN + 4 {
            let mut bad = frames[0].clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(parse_notification(&bad), Err(ParseError::BadChecksum { .. })),
                "flip at byte {i} was not caught"
            );
        }
    }

    #[test]
    fn fast_flow_extraction_matches_checked_parsers() {
        // Corpus: well-formed frames of every kind, then adversarial
        // mutations of each. The word-at-a-time fast path must agree with
        // the layered checked parsers on every byte string.
        let f = flow();
        let udp = FlowKey::udp(
            Ipv4Addr::from_octets([192, 168, 0, 9]),
            1234,
            Ipv4Addr::from_octets([172, 16, 0, 1]),
            4321,
        );
        let mut corpus: Vec<Vec<u8>> = vec![
            build_data_packet(&f, 100, flags::SYN, 0, 64),
            build_data_packet(&f, 0, 0, 46, 1),
            build_data_packet(&udp, 64, 0, 8, 64),
            insert_seqtag(&build_data_packet(&f, 33, 0, 0, 64), 7).unwrap(),
            insert_seqtag(&build_data_packet(&udp, 0, 0, 0, 64), u32::MAX).unwrap(),
            build_pfc_frame(2, 55),
            build_notification_frames_with(3, 9, 1, 3).remove(0),
            build_cebp_frame(4, &[]).unwrap(),
            vec![],
            vec![0u8; 13],
            vec![0u8; 64],
        ];
        let mutations: Vec<Vec<u8>> = corpus
            .iter()
            .flat_map(|pkt| {
                let mut out = Vec::new();
                // Every truncation point.
                for cut in 0..pkt.len() {
                    out.push(pkt[..cut].to_vec());
                }
                // Single-byte corruptions across the header region: hits
                // ethertype, version/IHL, total length, protocol, ports.
                for i in 0..pkt.len().min(40) {
                    for flip in [0x01u8, 0x10, 0xff] {
                        let mut bad = pkt.clone();
                        bad[i] ^= flip;
                        out.push(bad);
                    }
                }
                out
            })
            .collect();
        corpus.extend(mutations);
        for pkt in &corpus {
            assert_eq!(extract_flow(pkt), extract_flow_checked(pkt), "flow mismatch on {pkt:02x?}");
            let fast = extract_flow_fast(pkt);
            if fast.is_some() {
                assert_eq!(fast, extract_flow_checked(pkt), "fast-path lied on {pkt:02x?}");
            }
        }
    }

    #[test]
    fn fast_peek_matches_tagged_frames() {
        let tagged = insert_seqtag(&build_data_packet(&flow(), 10, 0, 0, 64), 0xdead_beef).unwrap();
        assert_eq!(peek_seqtag(&tagged).unwrap(), 0xdead_beef);
        // Truncations and untagged frames must still error like the
        // layered parsers.
        assert!(peek_seqtag(&tagged[..13]).is_err());
        assert!(peek_seqtag(&tagged[..16]).is_err());
        // 18 bytes holds the seq word but not the full 6-byte shim: the
        // checked parser rejects it, so the fast path must too.
        assert!(peek_seqtag(&tagged[..18]).is_err());
        assert!(peek_seqtag(&build_data_packet(&flow(), 10, 0, 0, 64)).is_err());
    }

    #[test]
    fn classify_garbage() {
        assert_eq!(classify(&[0u8; 5]), FrameKind::Other);
        let mut junk = vec![0u8; 64];
        junk[12] = 0x12;
        junk[13] = 0x34;
        assert_eq!(classify(&junk), FrameKind::Other);
    }
}
