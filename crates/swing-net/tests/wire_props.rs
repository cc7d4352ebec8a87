//! Property tests of the wire format: round-trip fidelity and decoder
//! robustness against arbitrary (corrupt) inputs.

use proptest::prelude::*;
use swing_core::graph::{EdgeKind, StageId};
use swing_core::{DeviceId, SeqNo, Tuple, UnitId};
use swing_net::{Message, ServiceEntry};

/// The pattern coordinates and address the registry's messages carry.
fn arb_entry() -> impl Strategy<Value = ServiceEntry> {
    (
        "[a-z]{0,12}",
        "[a-z]{0,12}",
        "[a-z-]{0,12}",
        "[a-z0-9.:]{0,32}",
    )
        .prop_map(|(app, role, stage, addr)| ServiceEntry {
            app,
            role,
            stage,
            addr,
        })
}

/// The lease registry's messages, wire tags 16–22.
fn arb_registry_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_entry(), any::<u64>()).prop_map(|(e, ttl_ms)| Message::RegisterService {
            app: e.app,
            role: e.role,
            stage: e.stage,
            addr: e.addr,
            ttl_ms,
        }),
        arb_entry().prop_map(|e| Message::ServiceHeartbeat {
            app: e.app,
            role: e.role,
            stage: e.stage,
            addr: e.addr,
        }),
        arb_entry().prop_map(|e| Message::LookupServices {
            app: e.app,
            role: e.role,
            stage: e.stage,
        }),
        proptest::collection::vec(arb_entry(), 0..8)
            .prop_map(|services| Message::ServicesFound { services }),
        any::<bool>().prop_map(|registered| Message::RegistryAck { registered }),
        arb_entry().prop_map(|e| Message::WatchServices {
            app: e.app,
            role: e.role,
            stage: e.stage,
        }),
        arb_entry().prop_map(|e| Message::ServiceExpired {
            app: e.app,
            role: e.role,
            stage: e.stage,
            addr: e.addr,
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let data = (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        "[a-z0-9 ]{0,40}",
    )
        .prop_map(|(dest, from, seq, bytes, text)| Message::Data {
            dest: UnitId(dest),
            from: UnitId(from),
            tuple: Tuple::with_seq(SeqNo(seq))
                .with("payload", bytes)
                .with("label", text),
        });
    let ack = (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(seq, to, from, sent, proc)| Message::Ack {
            seq: SeqNo(seq),
            to: UnitId(to),
            from: UnitId(from),
            sent_at_us: sent,
            processing_us: proc,
        });
    let join =
        (any::<u32>(), "[a-zA-Z0-9._-]{0,32}", "[a-z0-9.:]{0,32}").prop_map(|(dev, name, addr)| {
            Message::Join {
                device: DeviceId(dev),
                name,
                listen_addr: addr,
            }
        });
    let activate = (any::<u32>(), any::<u32>(), "[a-z-]{0,24}", any::<u64>()).prop_map(
        |(unit, stage, name, epoch)| Message::Activate {
            unit: UnitId(unit),
            stage: StageId(stage),
            stage_name: name,
            epoch,
        },
    );
    let connect = (
        any::<u32>(),
        any::<u32>(),
        "[a-z0-9.:]{0,32}",
        any::<u64>(),
        (0u8..3, "[a-z_]{0,16}"),
    )
        .prop_map(
            |(up, down, addr, epoch, (kind_sel, field))| Message::Connect {
                upstream: UnitId(up),
                downstream: UnitId(down),
                addr,
                epoch,
                kind: match kind_sel {
                    0 => EdgeKind::Broadcast,
                    1 => EdgeKind::KeyBy(field),
                    _ => EdgeKind::Rebalance,
                },
            },
        );
    let disconnect = (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(up, down, epoch)| {
        Message::Disconnect {
            upstream: UnitId(up),
            downstream: UnitId(down),
            epoch,
        }
    });
    let hello = ("[a-z0-9.:]{0,32}", any::<u64>())
        .prop_map(|(addr, epoch)| Message::MasterHello { addr, epoch });
    let announce = (
        any::<u32>(),
        "[a-zA-Z0-9._-]{0,32}",
        "[a-z0-9.:]{0,32}",
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
        any::<u64>(),
    )
        .prop_map(|(dev, name, addr, units, epoch)| Message::Announce {
            device: DeviceId(dev),
            name,
            listen_addr: addr,
            units: units
                .into_iter()
                .map(|(u, s)| (UnitId(u), StageId(s)))
                .collect(),
            epoch,
        });
    let simple = prop_oneof![
        Just(Message::Start),
        Just(Message::Stop),
        Just(Message::Ping),
        any::<u32>().prop_map(|d| Message::Pong {
            device: DeviceId(d)
        }),
        any::<u32>().prop_map(|d| Message::Ready {
            device: DeviceId(d)
        }),
        any::<u32>().prop_map(|d| Message::Leave {
            device: DeviceId(d)
        }),
        any::<u32>().prop_map(|d| Message::Welcome {
            device: DeviceId(d)
        }),
    ];
    prop_oneof![
        data,
        ack,
        join,
        activate,
        connect,
        disconnect,
        hello,
        announce,
        simple,
        arb_registry_message()
    ]
}

proptest! {
    /// Every message survives encode/decode exactly.
    #[test]
    fn messages_roundtrip(msg in arb_message()) {
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder never panics on arbitrary bytes — it only errors.
    #[test]
    fn decoder_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Message::decode(&bytes);
    }

    /// Truncating a valid message at any point yields an error, never a
    /// bogus success or a panic.
    #[test]
    fn truncations_are_rejected(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
        }
    }

    /// Flipping one byte either errors or decodes to *some* message —
    /// never panics (bit-flip robustness).
    #[test]
    fn single_byte_corruption_is_safe(
        msg in arb_message(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = msg.encode().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len().max(1);
        if !bytes.is_empty() {
            bytes[pos] ^= xor;
            let _ = Message::decode(&bytes);
        }
    }

    /// Encoding into a reused scratch buffer (the transport's fast path)
    /// produces byte-for-byte the same wire image as the allocating
    /// `encode`, for any message — including when the buffer arrives
    /// dirty from a previous, differently-sized message.
    #[test]
    fn encode_into_reuse_matches_encode(first in arb_message(), second in arb_message()) {
        let mut scratch = bytes::BytesMut::new();
        first.encode_into(&mut scratch);
        prop_assert_eq!(&scratch[..], &first.encode()[..]);
        // Reuse for a second message of a different shape/size.
        scratch.clear();
        second.encode_into(&mut scratch);
        prop_assert_eq!(&scratch[..], &second.encode()[..]);
    }

    /// `encoded_len` is exact for every message, so `encode` never
    /// reallocates and transports can reserve precisely.
    #[test]
    fn encoded_len_is_exact(msg in arb_message()) {
        prop_assert_eq!(msg.encode().len(), msg.encoded_len());
    }

    /// The zero-copy decoder is observationally identical to the
    /// allocating one: same messages on valid input.
    #[test]
    fn decode_shared_matches_decode(msg in arb_message()) {
        let frame = swing_core::SharedBytes::from_vec(msg.encode().to_vec());
        let shared = Message::decode_shared(&frame).unwrap();
        let copied = Message::decode(&frame).unwrap();
        prop_assert_eq!(&shared, &copied);
        prop_assert_eq!(shared, msg);
    }

    /// Segment encoding is a pure re-chunking: concatenating the
    /// segments reproduces `encode()` byte for byte, for any message.
    #[test]
    fn segments_concatenate_to_encode(msg in arb_message()) {
        let mut scratch = bytes::BytesMut::new();
        let mut segs = Vec::new();
        msg.encode_segments(&mut scratch, &mut segs);
        let mut flat = Vec::new();
        for s in &segs {
            flat.extend_from_slice(s.bytes(&scratch));
        }
        prop_assert_eq!(&flat[..], &msg.encode()[..]);
    }

    /// ... and same rejections on corrupt input: neither decoder accepts
    /// bytes the other refuses.
    #[test]
    fn decode_shared_rejects_what_decode_rejects(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let frame = swing_core::SharedBytes::from_vec(bytes.clone());
        let shared = Message::decode_shared(&frame);
        let copied = Message::decode(&bytes);
        prop_assert_eq!(shared.is_ok(), copied.is_ok());
        if let (Ok(a), Ok(b)) = (shared, copied) {
            prop_assert_eq!(a, b);
        }
    }
}
