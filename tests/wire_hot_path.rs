//! Bit-identity of the zero-copy tensor hot path.
//!
//! The bulk little-endian codec must be *invisible on the wire*:
//! encode/decode produce exactly the bytes and values a naive,
//! element-at-a-time codec would, and every message kind encodes to
//! its pinned golden frame.

use proptest::prelude::*;

use bytes::Bytes;
use menos::adapters::FineTuneConfig;
use menos::models::{AdapterTarget, LoraSpec};
use menos::net::{decode_tensor, encode_tensor, Codec};
use menos::split::{
    ClientId, ClientMessage, EvictionCode, MessageKind, ServerMessage, SplitSpec, WireMessage,
};
use menos::tensor::Tensor;

/// Reference encoder: the tensor wire format written one element at a
/// time into a plain `Vec`, bypassing the bulk-conversion path
/// entirely.
fn naive_encode(t: &Tensor) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&0x4d4e_5331u32.to_le_bytes()); // "MNS1"
    let dims = t.dims();
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in t.to_vec() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Builds a tensor of the given shape filled with a deterministic,
/// seed-dependent pattern (including negatives and non-finite-safe
/// magnitudes) so payload bytes vary across cases.
fn patterned(dims: &[usize], seed: u64) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64);
            ((x >> 33) as f32 / (1u64 << 20) as f32) - 4000.0
        })
        .collect();
    match dims.len() {
        1 => Tensor::from_vec(data, [dims[0]]),
        2 => Tensor::from_vec(data, [dims[0], dims[1]]),
        _ => Tensor::from_vec(data, [dims[0], dims[1], dims[2]]),
    }
}

proptest! {
    /// Bulk encode is byte-identical to the naive per-element
    /// encoder, and bulk decode → encode round-trips those bytes,
    /// for arbitrary small shapes.
    #[test]
    fn pooled_codec_matches_naive_encoder(
        dims in prop::collection::vec(1usize..9, 1..4),
        seed in any::<u64>(),
    ) {
        let t = patterned(&dims, seed);
        let reference = naive_encode(&t);
        let pooled = encode_tensor(&t);
        prop_assert_eq!(&*pooled, &reference[..], "pooled encode differs from naive");

        let back = decode_tensor(&pooled).unwrap();
        prop_assert_eq!(back.dims(), t.dims());
        let bits_back: Vec<u32> = back.to_vec().iter().map(|v| v.to_bits()).collect();
        let bits_orig: Vec<u32> = t.to_vec().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits_back, bits_orig, "decode not bitwise-identical");

        let re = encode_tensor(&back);
        prop_assert_eq!(&*re, &reference[..], "re-encode after pooled decode differs");
    }
}

/// Checks one golden frame, written as spaced hex (header fields
/// first: magic, version, kind, client, length): the encoder must
/// produce exactly these bytes — unless the frame is a legacy body no
/// encoder emits any more — and both decoder entry points must read
/// them back as `msg`. Returns the frame's kind byte.
fn check_golden<M>(msg: &M, golden_hex: &str, encodable: bool) -> u8
where
    M: WireMessage + PartialEq + std::fmt::Debug,
{
    let digits: Vec<u8> = golden_hex.bytes().filter(|b| *b != b' ').collect();
    let golden: Vec<u8> = digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect();
    if encodable {
        let (header, body) = msg.to_wire_parts();
        assert_eq!([&header[..], &body[..]].concat(), golden, "{msg:?}");
        assert_eq!(msg.to_wire()[..], golden[..], "{msg:?}");
    }
    let frame = Bytes::from(golden);
    assert_eq!(&M::from_wire(&frame, 64 << 20).unwrap(), msg);
    let (header, body) = (&frame[..18], frame.slice(18..));
    assert_eq!(&M::from_wire_parts(header, &body, 64 << 20).unwrap(), msg);
    frame[5]
}

/// The wire format, pinned byte for byte: one literal frame per
/// [`MessageKind`], captured from the encoder as it stood before the
/// contiguous and parts encoders were merged. With a single encoder
/// there is no second implementation to compare against, so the bytes
/// themselves are the reference — a codec edit that moves any of them
/// is a protocol change and must say so.
#[test]
fn golden_wire_frames() {
    let id = ClientId(7);
    let golden_ft = || FineTuneConfig {
        lora: LoraSpec {
            rank: 4,
            alpha: 8.0,
        },
        targets: vec![AdapterTarget::Q, AdapterTarget::V],
        lr: 0.5,
        batch_size: 2,
        seq_len: 16,
    };
    let up = encode_tensor(&Tensor::from_vec(vec![1.0, -2.0], [2]));
    let down = encode_tensor(&Tensor::from_vec(vec![0.5], [1]));
    let client_rows = [
        (
            ClientMessage::Connect {
                client: id,
                ft: golden_ft(),
                split: SplitSpec::new(1),
                epoch: 3,
                codecs: Codec::F16.flag(),
            },
            "31504e4d 01 01 0700000000000000 4d000000 \
             0004000000000000 0000000041020000 0000000000020002 000000003f020000 \
             0000000000100000 0000000000010000 0000000000010000 0000000000030000 \
             0000000000020000 0000000000",
        ),
        (
            ClientMessage::Activations {
                client: id,
                frame: up.clone(),
            },
            "31504e4d 01 02 0700000000000000 18000000 \
             31534e4d01000000 0200000000000000 0000803f000000c0",
        ),
        (
            ClientMessage::Gradients {
                client: id,
                frame: up,
            },
            "31504e4d 01 03 0700000000000000 18000000 \
             31534e4d01000000 0200000000000000 0000803f000000c0",
        ),
        (
            ClientMessage::Disconnect { client: id },
            "31504e4d 01 04 0700000000000000 00000000",
        ),
        (
            ClientMessage::Resume {
                client: id,
                epoch: 3,
                last_step: 40,
            },
            "31504e4d 01 05 0700000000000000 10000000 \
             0300000000000000 2800000000000000",
        ),
        (
            ClientMessage::Ping {
                client: ClientId(9),
                seq: 42,
            },
            "31504e4d 01 06 0900000000000000 08000000 \
             2a00000000000000",
        ),
        (
            ClientMessage::ImportSession {
                client: id,
                blob: Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
            },
            "31504e4d 01 07 0700000000000000 04000000 \
             deadbeef",
        ),
    ];
    let server_rows = [
        (
            // The raw codec is the empty v1.1 body, not a tag byte.
            ServerMessage::Ready {
                client: id,
                codec: Codec::F32Raw,
            },
            "31504e4d 01 11 0700000000000000 00000000",
        ),
        (
            ServerMessage::ServerActivations {
                client: id,
                frame: down.clone(),
            },
            "31504e4d 01 12 0700000000000000 14000000 \
             31534e4d01000000 0100000000000000 0000003f",
        ),
        (
            ServerMessage::ServerGradients {
                client: id,
                frame: down,
            },
            "31504e4d 01 13 0700000000000000 14000000 \
             31534e4d01000000 0100000000000000 0000003f",
        ),
        (
            ServerMessage::Resumed {
                client: id,
                epoch: 4,
                server_step: 41,
                replay: Bytes::from_static(&[1, 2, 3]),
            },
            "31504e4d 01 14 0700000000000000 13000000 \
             0400000000000000 2900000000000000 010203",
        ),
        (
            ServerMessage::Evicted {
                client: id,
                code: EvictionCode::IdleExpired,
            },
            "31504e4d 01 15 0700000000000000 01000000 \
             02",
        ),
        (
            ServerMessage::Busy {
                client: id,
                retry_after_ms: 250,
            },
            "31504e4d 01 16 0700000000000000 08000000 \
             fa00000000000000",
        ),
        (
            ServerMessage::Redirect {
                client: id,
                addr: "10.0.0.3:4400".into(),
                retry_after_ms: 0,
            },
            "31504e4d 01 17 0700000000000000 15000000 \
             0000000000000000 31302e302e302e33 3a34343030",
        ),
        (
            ServerMessage::Pong {
                client: ClientId(9),
                seq: 42,
                live_sessions: 3,
                utilization_pct: 87,
            },
            "31504e4d 01 18 0900000000000000 18000000 \
             2a00000000000000 0300000000000000 5700000000000000",
        ),
        (
            ServerMessage::Imported {
                client: id,
                epoch: 5,
            },
            "31504e4d 01 19 0700000000000000 08000000 \
             0500000000000000",
        ),
    ];
    let mut kinds: Vec<u8> = Vec::new();
    kinds.extend(client_rows.iter().map(|(m, g)| check_golden(m, g, true)));
    kinds.extend(server_rows.iter().map(|(m, g)| check_golden(m, g, true)));
    let all: Vec<u8> = MessageKind::ALL.iter().map(|k| k.code()).collect();
    assert_eq!(kinds, all, "one golden frame per message kind, in order");

    // A v1.0 `Connect` body stops before the appended epoch and codec
    // mask (PROTOCOL.md §5): it must still decode, as epoch 0 / raw
    // only, though no current encoder produces it.
    let v1_0 = ClientMessage::Connect {
        client: id,
        ft: golden_ft(),
        split: SplitSpec::new(1),
        epoch: 0,
        codecs: 0,
    };
    let v1_0_frame = "31504e4d 01 01 0700000000000000 3d000000 \
         0004000000000000 0000000041020000 0000000000020002 000000003f020000 \
         0000000000100000 0000000000010000 0000000000010000 0000000000";
    check_golden(&v1_0, v1_0_frame, false);
}

/// FNV-1a, 64-bit: no keys and no version drift, so the literals below
/// mean the same thing on every toolchain.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The durable formats, pinned like the wire frames above: the full
/// snapshot (`to_state().to_bytes()`) and one migration blob
/// (`export_session`) of a fixed-seed server holding two sessions two
/// steps deep, one live and one parked. The literals were computed on
/// the commit *before* the durable-state parsers and writers moved onto
/// `ByteReader` / `put_f32s`; an edit that moves them changes what a
/// `server.snap` or an `ImportSession` body looks like on disk and on
/// the wire.
#[test]
fn golden_snapshot_and_migration_bytes() {
    use menos::core::{MenosServer, ServerMode, ServerSpec};

    let config = menos::models::ModelConfig::tiny_opt(17);
    let mut ft = FineTuneConfig::paper(&config);
    (ft.batch_size, ft.seq_len) = (2, 8);
    let mut srv = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
    for client in [ClientId(7), ClientId(3)] {
        let connect = ClientMessage::Connect {
            client,
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        srv.handle(connect).expect("connect");
        for step in 0..2 {
            let x = 0.1 + step as f32 * 0.01 + client.0 as f32 * 0.001;
            let frame = |v: f32| encode_tensor(&Tensor::full(v, [2, 8, 64]));
            let activations = ClientMessage::Activations {
                client,
                frame: frame(x),
            };
            srv.handle(activations).expect("activations");
            let gradients = ClientMessage::Gradients {
                client,
                frame: frame(x / 10.0),
            };
            srv.handle(gradients).expect("gradients");
        }
    }
    srv.quarantine(ClientId(3));

    let snapshot = srv.to_state().to_bytes();
    let blob = srv.export_session(ClientId(7)).expect("client 7 exports");
    let pinned = [
        (snapshot.len(), fnv1a64(&snapshot)),
        (blob.len(), fnv1a64(&blob)),
    ];
    let parent = [
        (157_975, 0x5a9c_4826_586d_dcdd),
        (79_003, 0x0d2d_99e2_b23a_f5fb),
    ];
    assert_eq!(pinned, parent, "snapshot or migration bytes moved");
}

/// The served arithmetic at `solo_wide`'s geometry (hidden 128, six
/// layers, batch 2, sequence 32): two clients, two steps each, every
/// reply frame and the final snapshot hashed. Unlike the tiny pins
/// above, the activations vary per element, so LayerNorm, the attention
/// softmax and every frozen linear's backward see non-degenerate data.
/// The literal was computed on the commit before the tensor kernels
/// gained their broadcast, permute and `A·Bᵀ` fast paths; those paths
/// are bitwise by construction, and this pin is the end-to-end proof.
#[test]
fn golden_wide_geometry_step_bytes() {
    use menos::core::{MenosServer, ServerMode, ServerSpec};

    let mut config = menos::models::ModelConfig::tiny_opt(17);
    (config.hidden, config.layers, config.intermediate) = (128, 6, 512);
    let mut ft = FineTuneConfig::paper(&config);
    (ft.batch_size, ft.seq_len) = (2, 32);
    let mut srv = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
    let fill = |seed: u32, scale: f32| {
        let data = (0..2 * 32 * 128u32)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b1) ^ seed.wrapping_mul(0x85eb_ca6b);
                (h >> 8) as f32 / (1u32 << 24) as f32 * scale - scale / 2.0
            })
            .collect();
        encode_tensor(&Tensor::from_vec(data, [2, 32, 128]))
    };
    let mut replies = Vec::new();
    for client in [ClientId(7), ClientId(3)] {
        let connect = ClientMessage::Connect {
            client,
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        srv.handle(connect).expect("connect");
        for step in 0..2u32 {
            let seed = client.0 as u32 * 16 + step;
            for msg in [
                ClientMessage::Activations {
                    client,
                    frame: fill(seed, 2.0),
                },
                ClientMessage::Gradients {
                    client,
                    frame: fill(seed ^ 0x55, 0.02),
                },
            ] {
                match srv.handle(msg).expect("step message") {
                    Some(ServerMessage::ServerActivations { frame, .. })
                    | Some(ServerMessage::ServerGradients { frame, .. }) => {
                        replies.extend_from_slice(&frame)
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
    }
    let snapshot = srv.to_state().to_bytes();
    let pinned = [
        (replies.len(), fnv1a64(&replies)),
        (snapshot.len(), fnv1a64(&snapshot)),
    ];
    let parent = [
        (262_400, 0x0951_a3ad_4be0_9b14),
        (560_391, 0x0573_2c4a_5ffc_23ee),
    ];
    assert_eq!(pinned, parent, "wide-geometry step bytes moved");
}
