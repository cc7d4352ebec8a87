//! Property tests of the wire format: round-trip fidelity and decoder
//! robustness against arbitrary (corrupt) inputs. Each property runs on
//! 256 seeded cases (see [`for_each_case`] for replaying one).

use swing_core::graph::{EdgeKind, StageId};
use swing_core::rng::{for_each_case, DetRng};
use swing_core::{DeviceId, SeqNo, Tuple, UnitId};
use swing_net::{Message, ServiceEntry};

const CASES: u32 = 256;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const STAGE: &str = "abcdefghijklmnopqrstuvwxyz-";
const FIELD: &str = "abcdefghijklmnopqrstuvwxyz_";
const LABEL: &str = "abcdefghijklmnopqrstuvwxyz0123456789 ";
const ADDR: &str = "abcdefghijklmnopqrstuvwxyz0123456789.:";
const NAME: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

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

/// The pattern coordinates and address the registry's messages carry.
fn entry(rng: &mut DetRng) -> ServiceEntry {
    ServiceEntry {
        app: string_of(rng, LOWER, 12),
        role: string_of(rng, LOWER, 12),
        stage: string_of(rng, STAGE, 12),
        addr: string_of(rng, ADDR, 32),
    }
}

/// The lease registry's messages, wire tags 16–22.
fn registry_message(rng: &mut DetRng) -> Message {
    let kind = rng.random_range(0..7);
    if kind == 3 {
        let services = (0..rng.random_range(0..8)).map(|_| entry(rng)).collect();
        return Message::ServicesFound { services };
    }
    let ServiceEntry {
        app,
        role,
        stage,
        addr,
    } = entry(rng);
    match kind {
        0 => Message::RegisterService {
            app,
            role,
            stage,
            addr,
            ttl_ms: rng.any_u64(),
        },
        1 => Message::ServiceHeartbeat {
            app,
            role,
            stage,
            addr,
        },
        2 => Message::LookupServices { app, role, stage },
        4 => Message::RegistryAck {
            registered: rng.random_bool(0.5),
        },
        5 => Message::WatchServices { app, role, stage },
        _ => Message::ServiceExpired {
            app,
            role,
            stage,
            addr,
        },
    }
}

fn simple_message(rng: &mut DetRng) -> Message {
    let device = DeviceId(rng.any_u32());
    match rng.random_range(0..7) {
        0 => Message::Start,
        1 => Message::Stop,
        2 => Message::Ping,
        3 => Message::Pong { device },
        4 => Message::Ready { device },
        5 => Message::Leave { device },
        _ => Message::Welcome { device },
    }
}

fn message(rng: &mut DetRng) -> Message {
    match rng.random_range(0..10) {
        0 => Message::Data {
            dest: UnitId(rng.any_u32()),
            from: UnitId(rng.any_u32()),
            tuple: Tuple::with_seq(SeqNo(rng.any_u64()))
                .with("payload", bytes_below(rng, 512))
                .with("label", string_of(rng, LABEL, 40)),
        },
        1 => Message::Ack {
            seq: SeqNo(rng.any_u64()),
            to: UnitId(rng.any_u32()),
            from: UnitId(rng.any_u32()),
            sent_at_us: rng.any_u64(),
            processing_us: rng.any_u64(),
        },
        2 => Message::Join {
            device: DeviceId(rng.any_u32()),
            name: string_of(rng, NAME, 32),
            listen_addr: string_of(rng, ADDR, 32),
        },
        3 => Message::Activate {
            unit: UnitId(rng.any_u32()),
            stage: StageId(rng.any_u32()),
            stage_name: string_of(rng, STAGE, 24),
            epoch: rng.any_u64(),
        },
        4 => Message::Connect {
            upstream: UnitId(rng.any_u32()),
            downstream: UnitId(rng.any_u32()),
            addr: string_of(rng, ADDR, 32),
            epoch: rng.any_u64(),
            kind: match rng.random_range(0..3) {
                0 => EdgeKind::Broadcast,
                1 => EdgeKind::KeyBy(string_of(rng, FIELD, 16)),
                _ => EdgeKind::Rebalance,
            },
        },
        5 => Message::Disconnect {
            upstream: UnitId(rng.any_u32()),
            downstream: UnitId(rng.any_u32()),
            epoch: rng.any_u64(),
        },
        6 => Message::MasterHello {
            addr: string_of(rng, ADDR, 32),
            epoch: rng.any_u64(),
        },
        7 => Message::Announce {
            device: DeviceId(rng.any_u32()),
            name: string_of(rng, NAME, 32),
            listen_addr: string_of(rng, ADDR, 32),
            units: (0..rng.random_range(0..16))
                .map(|_| (UnitId(rng.any_u32()), StageId(rng.any_u32())))
                .collect(),
            epoch: rng.any_u64(),
        },
        8 => simple_message(rng),
        _ => registry_message(rng),
    }
}

/// Every message survives encode/decode exactly.
#[test]
fn messages_roundtrip() {
    for_each_case(0xE001, CASES, |rng| {
        let msg = message(rng);
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    });
}

/// The decoder never panics on arbitrary bytes — it only errors.
#[test]
fn decoder_survives_garbage() {
    for_each_case(0xE002, CASES, |rng| {
        let _ = Message::decode(&bytes_below(rng, 600));
    });
}

/// Truncating a valid message at any point yields an error, never a
/// bogus success or a panic.
#[test]
fn truncations_are_rejected() {
    for_each_case(0xE003, CASES, |rng| {
        let bytes = message(rng).encode();
        let cut_frac: f64 = rng.random_range(0.0..1.0);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err());
        }
    });
}

/// Flipping one byte either errors or decodes to *some* message —
/// never panics (bit-flip robustness).
#[test]
fn single_byte_corruption_is_safe() {
    for_each_case(0xE004, CASES, |rng| {
        let mut bytes = message(rng).encode().to_vec();
        let pos_frac: f64 = rng.random_range(0.0..1.0);
        let xor = rng.random_range(1u8..=255);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len().max(1);
        if !bytes.is_empty() {
            bytes[pos] ^= xor;
            let _ = Message::decode(&bytes);
        }
    });
}

/// Encoding into a reused scratch buffer (the transport's fast path)
/// produces byte-for-byte the same wire image as the allocating
/// `encode`, for any message — including when the buffer arrives
/// dirty from a previous, differently-sized message.
#[test]
fn encode_into_reuse_matches_encode() {
    for_each_case(0xE005, CASES, |rng| {
        let (first, second) = (message(rng), message(rng));
        let mut scratch = bytes::BytesMut::new();
        first.encode_into(&mut scratch);
        assert_eq!(&scratch[..], &first.encode()[..]);
        // Reuse for a second message of a different shape/size.
        scratch.clear();
        second.encode_into(&mut scratch);
        assert_eq!(&scratch[..], &second.encode()[..]);
    });
}

/// `encoded_len` is exact for every message, so `encode` never
/// reallocates and transports can reserve precisely.
#[test]
fn encoded_len_is_exact() {
    for_each_case(0xE006, CASES, |rng| {
        let msg = message(rng);
        assert_eq!(msg.encode().len(), msg.encoded_len());
    });
}

/// The zero-copy decoder is observationally identical to the
/// allocating one: same messages on valid input.
#[test]
fn decode_shared_matches_decode() {
    for_each_case(0xE007, CASES, |rng| {
        let msg = message(rng);
        let frame = swing_core::SharedBytes::from_vec(msg.encode().to_vec());
        let shared = Message::decode_shared(&frame).unwrap();
        let copied = Message::decode(&frame).unwrap();
        assert_eq!(&shared, &copied);
        assert_eq!(shared, msg);
    });
}

/// Segment encoding is a pure re-chunking: concatenating the
/// segments reproduces `encode()` byte for byte, for any message.
#[test]
fn segments_concatenate_to_encode() {
    for_each_case(0xE008, CASES, |rng| {
        let msg = message(rng);
        let mut scratch = bytes::BytesMut::new();
        let mut segs = Vec::new();
        msg.encode_segments(&mut scratch, &mut segs);
        let mut flat = Vec::new();
        for s in &segs {
            flat.extend_from_slice(s.bytes(&scratch));
        }
        assert_eq!(&flat[..], &msg.encode()[..]);
    });
}

/// ... and same rejections on corrupt input: neither decoder accepts
/// bytes the other refuses.
#[test]
fn decode_shared_rejects_what_decode_rejects() {
    for_each_case(0xE009, CASES, |rng| {
        let bytes = bytes_below(rng, 600);
        let frame = swing_core::SharedBytes::from_vec(bytes.clone());
        let shared = Message::decode_shared(&frame);
        let copied = Message::decode(&bytes);
        assert_eq!(shared.is_ok(), copied.is_ok());
        if let (Ok(a), Ok(b)) = (shared, copied) {
            assert_eq!(a, b);
        }
    });
}
