//! Property tests for the unified message codec: every arbitrary
//! message round-trips bit-exactly through the contiguous entry point
//! (`WireMessage::{to_wire, from_wire}`), and decoding rejects
//! truncation at *every* prefix length and any trailing byte — no
//! partial or padded frame is ever accepted.

use bytes::Bytes;
use proptest::prelude::*;

use menos_adapters::FineTuneConfig;
use menos_models::{AdapterTarget, LoraSpec};
use menos_net::DEFAULT_MAX_FRAME;
use menos_split::{ClientId, ClientMessage, EvictionCode, ServerMessage, SplitSpec, WireMessage};

fn arb_target() -> BoxedStrategy<AdapterTarget> {
    prop_oneof![
        Just(AdapterTarget::Q),
        Just(AdapterTarget::K),
        Just(AdapterTarget::V),
        Just(AdapterTarget::O),
        Just(AdapterTarget::MlpUp),
        Just(AdapterTarget::MlpDown),
    ]
    .boxed()
}

fn arb_ft() -> BoxedStrategy<FineTuneConfig> {
    // Finite float ranges keep `PartialEq` round-trip assertions sound
    // (NaN never compares equal to itself).
    let lora = (1usize..64, 0.25f32..128.0).prop_map(|(rank, alpha)| LoraSpec { rank, alpha });
    (
        lora,
        prop::collection::vec(arb_target(), 0..6),
        1e-6f32..1.0,
        1usize..64,
        1usize..512,
    )
        .prop_map(|(lora, targets, lr, batch_size, seq_len)| FineTuneConfig {
            lora,
            targets,
            lr,
            batch_size,
            seq_len,
        })
        .boxed()
}

fn arb_payload() -> BoxedStrategy<Bytes> {
    // The codec treats tensor payloads as opaque bytes, so arbitrary
    // byte strings cover the framing exhaustively.
    prop::collection::vec(0u8..=255, 0..256)
        .prop_map(Bytes::from)
        .boxed()
}

fn arb_client_message() -> BoxedStrategy<ClientMessage> {
    let id = || (0u64..u64::MAX).prop_map(ClientId);
    prop_oneof![
        (id(), arb_ft(), 1usize..12, 1u64..u64::MAX, 0u64..16)
            .prop_map(
                |(client, ft, layers, epoch, codecs)| ClientMessage::Connect {
                    client,
                    ft,
                    split: SplitSpec::new(layers),
                    epoch,
                    codecs,
                }
            )
            .boxed(),
        (id(), arb_payload())
            .prop_map(|(client, frame)| ClientMessage::Activations { client, frame })
            .boxed(),
        (id(), arb_payload())
            .prop_map(|(client, frame)| ClientMessage::Gradients { client, frame })
            .boxed(),
        (id(), 0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(client, epoch, last_step)| ClientMessage::Resume {
                client,
                epoch,
                last_step,
            })
            .boxed(),
        id().prop_map(|client| ClientMessage::Disconnect { client })
            .boxed(),
    ]
    .boxed()
}

fn arb_eviction_code() -> BoxedStrategy<EvictionCode> {
    prop_oneof![
        Just(EvictionCode::Timeout),
        Just(EvictionCode::IdleExpired),
        Just(EvictionCode::Shutdown),
    ]
    .boxed()
}

fn arb_codec() -> BoxedStrategy<menos_net::Codec> {
    prop_oneof![
        Just(menos_net::Codec::F32Raw),
        Just(menos_net::Codec::F16),
        Just(menos_net::Codec::BF16),
        Just(menos_net::Codec::TopK8),
    ]
    .boxed()
}

fn arb_server_message() -> BoxedStrategy<ServerMessage> {
    let id = || (0u64..u64::MAX).prop_map(ClientId);
    prop_oneof![
        (id(), arb_codec())
            .prop_map(|(client, codec)| ServerMessage::Ready { client, codec })
            .boxed(),
        (id(), arb_payload())
            .prop_map(|(client, frame)| ServerMessage::ServerActivations { client, frame })
            .boxed(),
        (id(), arb_payload())
            .prop_map(|(client, frame)| ServerMessage::ServerGradients { client, frame })
            .boxed(),
        (id(), 0u64..u64::MAX, 0u64..u64::MAX, arb_payload())
            .prop_map(
                |(client, epoch, server_step, replay)| ServerMessage::Resumed {
                    client,
                    epoch,
                    server_step,
                    replay,
                }
            )
            .boxed(),
        (id(), arb_eviction_code())
            .prop_map(|(client, code)| ServerMessage::Evicted { client, code })
            .boxed(),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn client_messages_round_trip(msg in arb_client_message()) {
        let bytes = msg.to_wire();
        let back = ClientMessage::from_wire(&bytes, DEFAULT_MAX_FRAME)
            .expect("well-formed frame must decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn server_messages_round_trip(msg in arb_server_message()) {
        let bytes = msg.to_wire();
        let back = ServerMessage::from_wire(&bytes, DEFAULT_MAX_FRAME)
            .expect("well-formed frame must decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn client_decode_rejects_every_truncation(msg in arb_client_message()) {
        let bytes = msg.to_wire();
        for keep in 0..bytes.len() {
            let prefix = bytes.slice(..keep);
            prop_assert!(
                ClientMessage::from_wire(&prefix, DEFAULT_MAX_FRAME).is_err(),
                "prefix of {keep}/{} bytes must not decode",
                bytes.len()
            );
        }
        let padded = Bytes::from([&bytes[..], &[0]].concat());
        prop_assert!(ClientMessage::from_wire(&padded, DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn server_decode_rejects_every_truncation(msg in arb_server_message()) {
        let bytes = msg.to_wire();
        for keep in 0..bytes.len() {
            let prefix = bytes.slice(..keep);
            prop_assert!(
                ServerMessage::from_wire(&prefix, DEFAULT_MAX_FRAME).is_err(),
                "prefix of {keep}/{} bytes must not decode",
                bytes.len()
            );
        }
        let padded = Bytes::from([&bytes[..], &[0]].concat());
        prop_assert!(ServerMessage::from_wire(&padded, DEFAULT_MAX_FRAME).is_err());
    }
}
