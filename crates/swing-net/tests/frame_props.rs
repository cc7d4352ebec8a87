//! Property tests of the framing layer's torn-read path: however a
//! valid frame stream is split at the byte level — kernel reads ending
//! mid-prefix, mid-payload, or spanning several frames — the
//! [`FrameAssembler`] reassembles the identical [`Message`] sequence. A
//! hostile stream — length prefixes that lie — is rejected or framed,
//! never trusted.

use proptest::prelude::*;
use swing_core::{Error, SeqNo, Tuple, UnitId};
use swing_net::frame::MAX_FRAME;
use swing_net::{FrameAssembler, Message};

fn arb_message() -> impl Strategy<Value = Message> {
    let data = (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        // Cross SHARED_SEGMENT_MIN sometimes so the gathered-write path
        // emits both scratch and shared segments.
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(dest, from, seq, bytes)| Message::Data {
            dest: UnitId(dest),
            from: UnitId(from),
            tuple: Tuple::with_seq(SeqNo(seq)).with("payload", bytes),
        });
    let ack = (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(seq, to, from)| Message::Ack {
        seq: SeqNo(seq),
        to: UnitId(to),
        from: UnitId(from),
        sent_at_us: 1,
        processing_us: 2,
    });
    let registry =
        ("[a-z]{0,8}", "[a-z]{0,8}", "[a-z0-9.:]{0,20}").prop_map(|(app, role, addr)| {
            Message::RegisterService {
                app,
                role,
                stage: String::new(),
                addr,
                ttl_ms: 1_000,
            }
        });
    prop_oneof![data, ack, registry, Just(Message::Ping)]
}

/// The reference encoder: one frame whose payload is the concatenation
/// of `parts` behind a 4-byte big-endian length prefix — what a
/// transport's gathered write puts on the wire.
fn write_frame_parts(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    assert!(total <= MAX_FRAME);
    out.extend_from_slice(&(total as u32).to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// The reference byte stream: every message framed back to back from
/// its encoded segments (the same encoding transports use).
fn frame_stream(msgs: &[Message]) -> Vec<u8> {
    let mut out = Vec::new();
    for msg in msgs {
        let mut scratch = bytes::BytesMut::new();
        let mut segs = Vec::new();
        msg.encode_segments(&mut scratch, &mut segs);
        let parts: Vec<&[u8]> = segs.iter().map(|s| s.bytes(&scratch)).collect();
        write_frame_parts(&mut out, &parts);
    }
    out
}

/// Split `stream` into chunks at positions derived from `cuts`
/// (arbitrary fractions, deduplicated and sorted).
fn split_points(stream_len: usize, cuts: &[f64]) -> Vec<usize> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|f| ((stream_len as f64) * f) as usize)
        .filter(|&p| p > 0 && p < stream_len)
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

proptest! {
    /// Any byte-level split of a valid frame stream reassembles to the
    /// identical message sequence.
    #[test]
    fn any_split_reassembles_identically(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..32),
    ) {
        let stream = frame_stream(&msgs);
        let points = split_points(stream.len(), &cuts);
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        let mut start = 0;
        for end in points.into_iter().chain(std::iter::once(stream.len())) {
            asm.feed(&stream[start..end]);
            start = end;
            while let Some(frame) = asm.next_frame().unwrap() {
                decoded.push(Message::decode_shared(&frame).unwrap());
            }
        }
        prop_assert!(asm.is_at_boundary(), "stream must end on a frame boundary");
        prop_assert_eq!(decoded, msgs);
    }

    /// Degenerate split: one byte at a time (every possible tear at
    /// once).
    #[test]
    fn byte_at_a_time_reassembles_identically(
        msgs in proptest::collection::vec(arb_message(), 1..4),
    ) {
        let stream = frame_stream(&msgs);
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            asm.feed(std::slice::from_ref(byte));
            while let Some(frame) = asm.next_frame().unwrap() {
                decoded.push(Message::decode_shared(&frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// Length prefixes an attacker chose — above `MAX_FRAME`, zero,
    /// honest, or arbitrary, torn across feeds anywhere — get
    /// `FrameTooLarge` or the promised bytes back, never a panic, and
    /// the assembler holds exactly what was fed and not yet framed: a
    /// prefix alone reserves nothing.
    #[test]
    fn adversarial_prefixes_are_rejected_or_framed(
        records in proptest::collection::vec(
            (0u8..4, any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            1..8,
        ),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..16),
    ) {
        let mut stream = Vec::new();
        for (kind, raw, body) in &records {
            let prefix = match kind {
                0 => 0,
                1 => (MAX_FRAME as u32 + 1).saturating_add(*raw),
                2 => body.len() as u32,
                _ => *raw,
            };
            stream.extend_from_slice(&prefix.to_be_bytes());
            stream.extend_from_slice(body);
        }
        let points = split_points(stream.len(), &cuts);
        let mut asm = FrameAssembler::new();
        let mut framed = 0; // stream bytes already returned as frames
        let mut start = 0;
        'feeds: for end in points.into_iter().chain(std::iter::once(stream.len())) {
            asm.feed(&stream[start..end]);
            start = end;
            loop {
                prop_assert_eq!(asm.buffered(), end - framed);
                match asm.next_frame() {
                    Ok(Some(frame)) => {
                        let body = framed + 4..framed + 4 + frame.len();
                        prop_assert_eq!(frame.as_slice(), &stream[body.clone()]);
                        framed = body.end;
                    }
                    Ok(None) => break,
                    // The stream cannot be resynchronised: a transport
                    // drops the connection here.
                    Err(Error::FrameTooLarge(n)) => {
                        prop_assert!(n > MAX_FRAME);
                        break 'feeds;
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other}"),
                }
            }
        }
    }
}
