//! Property tests of the framing layer's torn-read path: however a
//! valid frame stream is split at the byte level — kernel reads ending
//! mid-prefix, mid-payload, or spanning several frames — the
//! [`FrameAssembler`] reassembles the identical [`Message`] sequence. A
//! hostile stream — length prefixes that lie — is rejected or framed,
//! never trusted.

use swing_core::rng::{for_each_case, DetRng};
use swing_core::{Error, SeqNo, Tuple, UnitId};
use swing_net::frame::MAX_FRAME;
use swing_net::{FrameAssembler, Message};

const CASES: u32 = 256;

/// Up to `max_len` characters of `alphabet` (ASCII).
fn string_of(rng: &mut DetRng, alphabet: &str, max_len: usize) -> String {
    (0..rng.random_range(0..=max_len))
        .map(|_| char::from(alphabet.as_bytes()[rng.random_range(0..alphabet.len())]))
        .collect()
}

fn bytes_below(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..rng.random_range(0..len))
        .map(|_| rng.any_u8())
        .collect()
}

/// Fractions of a stream's length to cut it at.
fn cuts_below(rng: &mut DetRng, len: usize) -> Vec<f64> {
    (0..rng.random_range(0..len))
        .map(|_| rng.random_range(0.0..1.0))
        .collect()
}

fn message(rng: &mut DetRng) -> Message {
    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    const ADDR: &str = "abcdefghijklmnopqrstuvwxyz0123456789.:";
    match rng.random_range(0..4) {
        0 => Message::Data {
            dest: UnitId(rng.any_u32()),
            from: UnitId(rng.any_u32()),
            // Cross SHARED_SEGMENT_MIN sometimes so the gathered-write
            // path emits both scratch and shared segments.
            tuple: Tuple::with_seq(SeqNo(rng.any_u64())).with("payload", bytes_below(rng, 2048)),
        },
        1 => Message::Ack {
            seq: SeqNo(rng.any_u64()),
            to: UnitId(rng.any_u32()),
            from: UnitId(rng.any_u32()),
            sent_at_us: 1,
            processing_us: 2,
        },
        2 => Message::RegisterService {
            app: string_of(rng, LOWER, 8),
            role: string_of(rng, LOWER, 8),
            stage: String::new(),
            addr: string_of(rng, ADDR, 20),
            ttl_ms: 1_000,
        },
        _ => Message::Ping,
    }
}

fn messages_below(rng: &mut DetRng, len: usize) -> Vec<Message> {
    (0..rng.random_range(1..len))
        .map(|_| message(rng))
        .collect()
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

/// Any byte-level split of a valid frame stream reassembles to the
/// identical message sequence.
#[test]
fn any_split_reassembles_identically() {
    for_each_case(0xF001, CASES, |rng| {
        let msgs = messages_below(rng, 8);
        let cuts = cuts_below(rng, 32);
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
        assert!(asm.is_at_boundary(), "stream must end on a frame boundary");
        assert_eq!(decoded, msgs);
    });
}

/// Degenerate split: one byte at a time (every possible tear at
/// once).
#[test]
fn byte_at_a_time_reassembles_identically() {
    for_each_case(0xF002, CASES, |rng| {
        let msgs = messages_below(rng, 4);
        let stream = frame_stream(&msgs);
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            asm.feed(std::slice::from_ref(byte));
            while let Some(frame) = asm.next_frame().unwrap() {
                decoded.push(Message::decode_shared(&frame).unwrap());
            }
        }
        assert_eq!(decoded, msgs);
    });
}

/// Length prefixes an attacker chose — above `MAX_FRAME`, zero,
/// honest, or arbitrary, torn across feeds anywhere — get
/// `FrameTooLarge` or the promised bytes back, never a panic, and
/// the assembler holds exactly what was fed and not yet framed: a
/// prefix alone reserves nothing.
#[test]
fn adversarial_prefixes_are_rejected_or_framed() {
    for_each_case(0xF003, CASES, |rng| {
        let records: Vec<(u8, u32, Vec<u8>)> = (0..rng.random_range(1..8))
            .map(|_| (rng.random_range(0..4), rng.any_u32(), bytes_below(rng, 64)))
            .collect();
        let cuts = cuts_below(rng, 16);
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
                assert_eq!(asm.buffered(), end - framed);
                match asm.next_frame() {
                    Ok(Some(frame)) => {
                        let body = framed + 4..framed + 4 + frame.len();
                        assert_eq!(frame.as_slice(), &stream[body.clone()]);
                        framed = body.end;
                    }
                    Ok(None) => break,
                    // The stream cannot be resynchronised: a transport
                    // drops the connection here.
                    Err(Error::FrameTooLarge(n)) => {
                        assert!(n > MAX_FRAME);
                        break 'feeds;
                    }
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
    });
}
