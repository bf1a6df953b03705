//! The unified message codec: every [`ClientMessage`] and
//! [`ServerMessage`] variant has exactly one byte representation,
//! shared by all transports (in-memory channels, the simulated WAN,
//! and real sockets).
//!
//! A message is a `menos-net` protocol frame: the fixed 18-byte header
//! carries the message kind and the client id; the payload carries the
//! variant's body — an encoded tensor for activation/gradient
//! messages, the fine-tuning configuration for `Connect`, and nothing
//! for the remaining control messages.
//!
//! Each direction has one encoder ([`client_message_parts`],
//! [`server_message_parts`]) and one decoder
//! ([`decode_client_message_parts`], [`decode_server_message_parts`]),
//! all over `(header, body)` parts so tensor bodies move by reference.
//! The contiguous frame is [`WireMessage`](crate::WireMessage)'s
//! provided concatenation of the parts, not a second encoding.

use bytes::Bytes;

use menos_adapters::FineTuneConfig;
use menos_models::{AdapterTarget, LoraSpec};
use menos_net::{decode_frame_parts, encode_frame_header, Codec, WireError};
use menos_tensor::ByteReader;

use crate::message::{ClientId, ClientMessage, EvictionCode, ServerMessage};
use crate::spec::SplitSpec;

pub(crate) const KIND_CONNECT: u8 = 1;
pub(crate) const KIND_ACTIVATIONS: u8 = 2;
pub(crate) const KIND_GRADIENTS: u8 = 3;
pub(crate) const KIND_DISCONNECT: u8 = 4;
pub(crate) const KIND_RESUME: u8 = 5;
pub(crate) const KIND_PING: u8 = 6;
pub(crate) const KIND_IMPORT_SESSION: u8 = 7;
pub(crate) const KIND_READY: u8 = 17;
pub(crate) const KIND_SERVER_ACTIVATIONS: u8 = 18;
pub(crate) const KIND_SERVER_GRADIENTS: u8 = 19;
pub(crate) const KIND_RESUMED: u8 = 20;
pub(crate) const KIND_EVICTED: u8 = 21;
pub(crate) const KIND_BUSY: u8 = 22;
pub(crate) const KIND_REDIRECT: u8 = 23;
pub(crate) const KIND_PONG: u8 = 24;
pub(crate) const KIND_IMPORTED: u8 = 25;

/// Every message kind of wire-protocol v1 — the single source of
/// truth `PROTOCOL.md` is checked against. Client→server kinds live
/// in `1..=16`, server→client kinds in `17..=32`; kinds are
/// directional, so a client kind in a server frame is rejected as
/// [`WireError::UnknownKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageKind {
    /// Client requests a session, carrying its fine-tuning config.
    Connect = KIND_CONNECT,
    /// Cut-layer activations `x_c` (client→server forward input).
    Activations = KIND_ACTIVATIONS,
    /// Cut-layer gradients `g_c` (client→server backward input).
    Gradients = KIND_GRADIENTS,
    /// Client ends its session; the server reclaims its state.
    Disconnect = KIND_DISCONNECT,
    /// Client re-attaches to a quarantined session (v1.1, allocated
    /// from the reserved client→server range).
    Resume = KIND_RESUME,
    /// Liveness probe from a fleet health checker (v1.4).
    Ping = KIND_PING,
    /// A coordinator re-homes an exported session blob (v1.4).
    ImportSession = KIND_IMPORT_SESSION,
    /// Server accepted the connection; the session is live.
    Ready = KIND_READY,
    /// Server-side forward output `x_s` (server→client).
    ServerActivations = KIND_SERVER_ACTIVATIONS,
    /// Server-side gradients `g_s` (server→client).
    ServerGradients = KIND_SERVER_GRADIENTS,
    /// Server accepted a resume; the session continues (v1.1).
    Resumed = KIND_RESUMED,
    /// Server closed the session, with a close code (v1.1).
    Evicted = KIND_EVICTED,
    /// Server shed the connection at admission, with a retry hint
    /// (v1.3, allocated from the reserved server→client range).
    Busy = KIND_BUSY,
    /// Coordinator steers the client to its session's server (v1.4).
    Redirect = KIND_REDIRECT,
    /// Heartbeat reply carrying coarse load (v1.4).
    Pong = KIND_PONG,
    /// Server acknowledged a session import (v1.4).
    Imported = KIND_IMPORTED,
}

impl MessageKind {
    /// All kinds of protocol v1 (including the v1.1 session-lifecycle,
    /// v1.3 overload, and v1.4 fleet additions), in wire-code order.
    pub const ALL: [MessageKind; 16] = [
        MessageKind::Connect,
        MessageKind::Activations,
        MessageKind::Gradients,
        MessageKind::Disconnect,
        MessageKind::Resume,
        MessageKind::Ping,
        MessageKind::ImportSession,
        MessageKind::Ready,
        MessageKind::ServerActivations,
        MessageKind::ServerGradients,
        MessageKind::Resumed,
        MessageKind::Evicted,
        MessageKind::Busy,
        MessageKind::Redirect,
        MessageKind::Pong,
        MessageKind::Imported,
    ];

    /// The kind byte carried in the frame header.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The kind's name as written in `PROTOCOL.md`.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::Connect => "Connect",
            MessageKind::Activations => "Activations",
            MessageKind::Gradients => "Gradients",
            MessageKind::Disconnect => "Disconnect",
            MessageKind::Resume => "Resume",
            MessageKind::Ping => "Ping",
            MessageKind::ImportSession => "ImportSession",
            MessageKind::Ready => "Ready",
            MessageKind::ServerActivations => "ServerActivations",
            MessageKind::ServerGradients => "ServerGradients",
            MessageKind::Resumed => "Resumed",
            MessageKind::Evicted => "Evicted",
            MessageKind::Busy => "Busy",
            MessageKind::Redirect => "Redirect",
            MessageKind::Pong => "Pong",
            MessageKind::Imported => "Imported",
        }
    }
}

/// The `PROTOCOL.md` name of a server message's kind, for error text —
/// read off the kind byte the encoder stamps, so there is no second
/// per-variant table to keep in step.
pub(crate) fn server_kind_name(msg: &ServerMessage) -> &'static str {
    let code = server_message_parts(msg).0[5];
    let kind = MessageKind::ALL.iter().find(|k| k.code() == code);
    kind.expect("the encoder only stamps kinds in MessageKind::ALL")
        .name()
}

/// Serializes a client→server message as `(header, body)` buffer
/// parts — the one encoder of every client kind. Concatenated they are
/// the message's wire frame; a tensor-carrying message shares its
/// already-encoded frame by reference instead of copying it into a
/// contiguous buffer.
pub fn client_message_parts(msg: &ClientMessage) -> (Bytes, Bytes) {
    let (kind, client, body) = match msg {
        ClientMessage::Connect {
            client,
            ft,
            split,
            epoch,
            codecs,
        } => (
            KIND_CONNECT,
            client,
            Bytes::from(encode_config_v12(ft, *split, *epoch, *codecs)),
        ),
        ClientMessage::Resume {
            client,
            epoch,
            last_step,
        } => {
            let mut body = Vec::with_capacity(16);
            body.extend(epoch.to_le_bytes());
            body.extend(last_step.to_le_bytes());
            (KIND_RESUME, client, Bytes::from(body))
        }
        ClientMessage::Activations { client, frame } => (KIND_ACTIVATIONS, client, frame.clone()),
        ClientMessage::Gradients { client, frame } => (KIND_GRADIENTS, client, frame.clone()),
        ClientMessage::Disconnect { client } => (KIND_DISCONNECT, client, Bytes::new()),
        ClientMessage::Ping { client, seq } => {
            (KIND_PING, client, Bytes::from(seq.to_le_bytes().to_vec()))
        }
        ClientMessage::ImportSession { client, blob } => {
            (KIND_IMPORT_SESSION, client, blob.clone())
        }
    };
    (encode_frame_header(kind, client.0, body.len() as u32), body)
}

/// Decodes the body of a client→server message whose frame header has
/// already been parsed and validated.
fn client_message_from_kind(
    kind: u8,
    client: u64,
    payload: Bytes,
) -> Result<ClientMessage, WireError> {
    let client = ClientId(client);
    match kind {
        KIND_CONNECT => {
            let (ft, split, epoch, codecs) = decode_config_v12(&payload)?;
            Ok(ClientMessage::Connect {
                client,
                ft,
                split,
                epoch,
                codecs,
            })
        }
        KIND_RESUME => {
            let mut c = ByteReader::new(&payload);
            let epoch = c.u64()?;
            let last_step = c.u64()?;
            c.finish()?;
            Ok(ClientMessage::Resume {
                client,
                epoch,
                last_step,
            })
        }
        KIND_ACTIVATIONS => Ok(ClientMessage::Activations {
            client,
            frame: payload,
        }),
        KIND_GRADIENTS => Ok(ClientMessage::Gradients {
            client,
            frame: payload,
        }),
        KIND_DISCONNECT => {
            expect_empty(&payload)?;
            Ok(ClientMessage::Disconnect { client })
        }
        KIND_PING => {
            let mut c = ByteReader::new(&payload);
            let seq = c.u64()?;
            c.finish()?;
            Ok(ClientMessage::Ping { client, seq })
        }
        KIND_IMPORT_SESSION => {
            if payload.is_empty() {
                return Err(WireError::Malformed(
                    "ImportSession body must carry a session blob".into(),
                ));
            }
            Ok(ClientMessage::ImportSession {
                client,
                blob: payload,
            })
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

/// Deserializes a client→server message delivered as separate header
/// and body buffers, sharing the body by reference (no copy).
///
/// # Errors
///
/// Rejects truncation at any prefix, bad magic/version, payloads above
/// `max_frame` bytes, unknown message kinds, and malformed bodies.
pub fn decode_client_message_parts(
    header: &[u8],
    body: &Bytes,
    max_frame: usize,
) -> Result<ClientMessage, WireError> {
    let (kind, client, payload) = decode_frame_parts(header, body, max_frame)?;
    client_message_from_kind(kind, client, payload)
}

/// Serializes a server→client message as `(header, body)` buffer
/// parts: the counterpart of [`client_message_parts`]. Tensor replies
/// share their encoded frame by reference — the step-loop reply path
/// never copies the tensor body again after [`menos_net::encode_tensor`].
pub fn server_message_parts(msg: &ServerMessage) -> (Bytes, Bytes) {
    let (kind, client, body) = match msg {
        ServerMessage::Ready { client, codec } => {
            (KIND_READY, client, Bytes::from(ready_body(*codec)))
        }
        ServerMessage::ServerActivations { client, frame } => {
            (KIND_SERVER_ACTIVATIONS, client, frame.clone())
        }
        ServerMessage::ServerGradients { client, frame } => {
            (KIND_SERVER_GRADIENTS, client, frame.clone())
        }
        ServerMessage::Resumed {
            client,
            epoch,
            server_step,
            replay,
        } => {
            let mut body = Vec::with_capacity(16 + replay.len());
            body.extend(epoch.to_le_bytes());
            body.extend(server_step.to_le_bytes());
            body.extend_from_slice(replay);
            (KIND_RESUMED, client, Bytes::from(body))
        }
        ServerMessage::Evicted { client, code } => {
            (KIND_EVICTED, client, Bytes::from(vec![code.code()]))
        }
        ServerMessage::Busy {
            client,
            retry_after_ms,
        } => (
            KIND_BUSY,
            client,
            Bytes::from(retry_after_ms.to_le_bytes().to_vec()),
        ),
        ServerMessage::Redirect {
            client,
            addr,
            retry_after_ms,
        } => (
            KIND_REDIRECT,
            client,
            Bytes::from(redirect_body(addr, *retry_after_ms)),
        ),
        ServerMessage::Pong {
            client,
            seq,
            live_sessions,
            utilization_pct,
        } => (
            KIND_PONG,
            client,
            Bytes::from(pong_body(*seq, *live_sessions, *utilization_pct)),
        ),
        ServerMessage::Imported { client, epoch } => (
            KIND_IMPORTED,
            client,
            Bytes::from(epoch.to_le_bytes().to_vec()),
        ),
    };
    (encode_frame_header(kind, client.0, body.len() as u32), body)
}

/// Decodes the body of a server→client message whose frame header has
/// already been parsed and validated.
fn server_message_from_kind(
    kind: u8,
    client: u64,
    payload: Bytes,
) -> Result<ServerMessage, WireError> {
    let client = ClientId(client);
    match kind {
        KIND_READY => {
            // v1.2 (§7): `Ready` may carry exactly one appended byte —
            // the negotiated codec tag. An empty body is the v1.1
            // encoding and means the raw baseline, so un-upgraded
            // exchanges stay byte-identical. The raw tag must use the
            // empty encoding (one representation per message).
            let codec = match payload.len() {
                0 => Codec::F32Raw,
                1 => match Codec::from_tag(payload[0]) {
                    Some(c) if c != Codec::F32Raw => c,
                    _ => {
                        return Err(WireError::Malformed(format!(
                            "bad Ready codec tag {}",
                            payload[0]
                        )))
                    }
                },
                n => {
                    return Err(WireError::Malformed(format!(
                        "Ready body must be empty or 1 codec byte, got {n}"
                    )))
                }
            };
            Ok(ServerMessage::Ready { client, codec })
        }
        KIND_SERVER_ACTIVATIONS => Ok(ServerMessage::ServerActivations {
            client,
            frame: payload,
        }),
        KIND_SERVER_GRADIENTS => Ok(ServerMessage::ServerGradients {
            client,
            frame: payload,
        }),
        KIND_RESUMED => {
            let mut c = ByteReader::new(&payload);
            let epoch = c.u64()?;
            let server_step = c.u64()?;
            Ok(ServerMessage::Resumed {
                client,
                epoch,
                server_step,
                replay: payload.slice(16..),
            })
        }
        KIND_EVICTED => {
            if payload.len() != 1 {
                return Err(WireError::Malformed(format!(
                    "Evicted body must be 1 close-code byte, got {}",
                    payload.len()
                )));
            }
            let code = EvictionCode::from_code(payload[0]).ok_or_else(|| {
                WireError::Malformed(format!("unknown eviction close code {}", payload[0]))
            })?;
            Ok(ServerMessage::Evicted { client, code })
        }
        KIND_BUSY => {
            let mut c = ByteReader::new(&payload);
            let retry_after_ms = c.u64()?;
            c.finish()?;
            Ok(ServerMessage::Busy {
                client,
                retry_after_ms,
            })
        }
        KIND_REDIRECT => {
            let mut c = ByteReader::new(&payload);
            let retry_after_ms = c.u64()?;
            let addr_bytes = c.take(c.remaining())?;
            if addr_bytes.is_empty() {
                return Err(WireError::Malformed(
                    "Redirect body must carry a non-empty address".into(),
                ));
            }
            let addr = std::str::from_utf8(addr_bytes)
                .map_err(|_| WireError::Malformed("Redirect address is not UTF-8".into()))?
                .to_string();
            Ok(ServerMessage::Redirect {
                client,
                addr,
                retry_after_ms,
            })
        }
        KIND_PONG => {
            let mut c = ByteReader::new(&payload);
            let seq = c.u64()?;
            let live_sessions = c.u64()?;
            let utilization_pct = c.u64()?;
            c.finish()?;
            Ok(ServerMessage::Pong {
                client,
                seq,
                live_sessions,
                utilization_pct,
            })
        }
        KIND_IMPORTED => {
            let mut c = ByteReader::new(&payload);
            let epoch = c.u64()?;
            c.finish()?;
            Ok(ServerMessage::Imported { client, epoch })
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

/// Deserializes a server→client message delivered as separate header
/// and body buffers, sharing the body by reference (no copy).
///
/// # Errors
///
/// Same taxonomy as [`decode_client_message_parts`].
pub fn decode_server_message_parts(
    header: &[u8],
    body: &Bytes,
    max_frame: usize,
) -> Result<ServerMessage, WireError> {
    let (kind, client, payload) = decode_frame_parts(header, body, max_frame)?;
    server_message_from_kind(kind, client, payload)
}

/// The `Ready` payload for a negotiated codec: empty for the raw
/// baseline (the v1.1 encoding, kept byte-identical), one tag byte
/// otherwise.
fn ready_body(codec: Codec) -> Vec<u8> {
    match codec {
        Codec::F32Raw => Vec::new(),
        c => vec![c.tag()],
    }
}

/// The `Redirect` payload (§9.2): the retry hint followed by the
/// target address as UTF-8 (non-empty by construction; the decoder
/// rejects empty or non-UTF-8 addresses as malformed).
fn redirect_body(addr: &str, retry_after_ms: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + addr.len());
    body.extend(retry_after_ms.to_le_bytes());
    body.extend_from_slice(addr.as_bytes());
    body
}

/// The `Pong` payload (§9.3): echoed sequence number, live-session
/// count, and pool utilization percent — 24 fixed bytes.
fn pong_body(seq: u64, live_sessions: u64, utilization_pct: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(24);
    body.extend(seq.to_le_bytes());
    body.extend(live_sessions.to_le_bytes());
    body.extend(utilization_pct.to_le_bytes());
    body
}

fn expect_empty(payload: &Bytes) -> Result<(), WireError> {
    if payload.is_empty() {
        Ok(())
    } else {
        Err(WireError::Malformed(format!(
            "{} payload bytes on a control message",
            payload.len()
        )))
    }
}

// ----------------------------------------------------------------------
// Connect body: the fine-tuning configuration (self-contained binary
// layout; serde derives exist on these types but no wire format crate
// is in the dependency set).
// ----------------------------------------------------------------------

// The layout keeps the fields of options that are now constants (the
// adapter kind, the optimizer kind, the accumulation factor), so a LoRA
// + Adam body is byte-identical to one from before their retirement.
const ADAPTER_LORA: u8 = 0;
const ADAPTER_PREFIX_RETIRED: u8 = 1;
const OPTIMIZER_ADAM: u8 = 0;
const OPTIMIZER_SGD_RETIRED: u8 = 1;

pub(crate) fn encode_config(ft: &FineTuneConfig, split: SplitSpec, epoch: u64) -> Vec<u8> {
    let mut out = vec![ADAPTER_LORA];
    out.extend((ft.lora.rank as u64).to_le_bytes());
    out.extend(ft.lora.alpha.to_le_bytes());
    // The target count, twice: this u64 slot (once a separate
    // targets-per-block setting) and the u8 before the list.
    out.extend((ft.targets.len() as u64).to_le_bytes());
    out.push(ft.targets.len() as u8);
    for t in &ft.targets {
        out.push(match t {
            AdapterTarget::Q => 0,
            AdapterTarget::K => 1,
            AdapterTarget::V => 2,
            AdapterTarget::O => 3,
            AdapterTarget::MlpUp => 4,
            AdapterTarget::MlpDown => 5,
        });
    }
    out.push(OPTIMIZER_ADAM);
    out.extend(ft.lr.to_le_bytes());
    out.extend((ft.batch_size as u64).to_le_bytes());
    out.extend((ft.seq_len as u64).to_le_bytes());
    out.extend(1u64.to_le_bytes()); // gradient accumulation: one step per batch
    out.extend((split.front_layers as u64).to_le_bytes());
    // v1.1: the session epoch rides as an appended field, per the §5
    // versioning policy (v1.0 decoders never read this far; v1.0
    // encoders omit it and decode below as epoch 0).
    out.extend(epoch.to_le_bytes());
    out
}

/// [`encode_config`] plus the v1.2 appended codec feature-flag mask
/// (§7). A zero mask is omitted, which keeps a compression-unaware
/// client's Connect body byte-identical to v1.1.
pub(crate) fn encode_config_v12(
    ft: &FineTuneConfig,
    split: SplitSpec,
    epoch: u64,
    codecs: u64,
) -> Vec<u8> {
    let mut out = encode_config(ft, split, epoch);
    if codecs != 0 {
        out.extend(codecs.to_le_bytes());
    }
    out
}

/// Decodes a Connect config body without the v1.2 codec mask — what
/// session snapshots store (compression state is serialized separately
/// from the config).
pub(crate) fn decode_config(buf: &[u8]) -> Result<(FineTuneConfig, SplitSpec, u64), WireError> {
    decode_config_v12(buf).map(|(ft, split, epoch, _)| (ft, split, epoch))
}

pub(crate) fn decode_config_v12(
    buf: &[u8],
) -> Result<(FineTuneConfig, SplitSpec, u64, u64), WireError> {
    let mut c = ByteReader::new(buf);
    match c.u8()? {
        ADAPTER_LORA => {}
        ADAPTER_PREFIX_RETIRED => {
            return Err(WireError::Malformed(
                "adapter kind 1 (prefix tuning) is retired: sessions fine-tune with LoRA".into(),
            ))
        }
        x => return Err(WireError::Malformed(format!("bad adapter kind {x}"))),
    }
    let rank = c.u64()? as usize;
    let alpha = c.f32()?;
    let declared = c.u64()?;
    let n = c.u8()?;
    if declared != u64::from(n) {
        return Err(WireError::Malformed(format!(
            "LoRA target count {declared} disagrees with the {n} targets listed"
        )));
    }
    let mut targets = Vec::new();
    for _ in 0..n {
        targets.push(match c.u8()? {
            0 => AdapterTarget::Q,
            1 => AdapterTarget::K,
            2 => AdapterTarget::V,
            3 => AdapterTarget::O,
            4 => AdapterTarget::MlpUp,
            5 => AdapterTarget::MlpDown,
            x => return Err(WireError::Malformed(format!("bad adapter target {x}"))),
        });
    }
    match c.u8()? {
        OPTIMIZER_ADAM => {}
        OPTIMIZER_SGD_RETIRED => {
            return Err(WireError::Malformed(
                "optimizer kind 1 (SGD) is retired: sessions train with Adam".into(),
            ))
        }
        x => return Err(WireError::Malformed(format!("bad optimizer kind {x}"))),
    }
    let lr = c.f32()?;
    let batch_size = c.u64()? as usize;
    let seq_len = c.u64()? as usize;
    let accumulation = c.u64()?;
    if accumulation != 1 {
        return Err(WireError::Malformed(format!(
            "gradient accumulation {accumulation} is retired: it must be 1, \
             one optimizer step per batch"
        )));
    }
    let front_layers = c.u64()? as usize;
    // Appended fields are ordered and decoded tolerantly, per the §5
    // versioning policy: a v1.0 body ends right here (epoch 0 ⇒
    // "pre-lifecycle peer"), a v1.1 body after the epoch (codec mask
    // 0 ⇒ raw-only peer, the §7 fallback rule). A *partial* appended
    // field is still malformed — fields are all-or-nothing.
    let epoch = if c.remaining() == 0 { 0 } else { c.u64()? };
    let codecs = if c.remaining() == 0 { 0 } else { c.u64()? };
    c.finish()?;
    Ok((
        FineTuneConfig {
            lora: LoraSpec { rank, alpha },
            targets,
            lr,
            batch_size,
            seq_len,
        },
        SplitSpec::new(front_layers),
        epoch,
        codecs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireMessage;
    use menos_models::ModelConfig;
    use menos_net::{encode_tensor, DEFAULT_MAX_FRAME};
    use menos_tensor::Tensor;

    #[test]
    fn config_round_trip() {
        let cfg = ModelConfig::tiny_opt(10);
        let ft = FineTuneConfig::paper(&cfg);
        let split = SplitSpec::new(2);
        let (ft2, split2, epoch2) = decode_config(&encode_config(&ft, split, 3)).unwrap();
        assert_eq!(ft, ft2);
        assert_eq!(split, split2);
        assert_eq!(epoch2, 3);

        let mut ft = FineTuneConfig::paper(&cfg);
        ft.lora.rank = 4;
        ft.lora.alpha = 3.5;
        ft.targets = vec![AdapterTarget::K, AdapterTarget::MlpDown];
        ft.lr = 0.1;
        ft.batch_size = 3;
        ft.seq_len = 17;
        let (ft2, _, _) = decode_config(&encode_config(&ft, split, 1)).unwrap();
        assert_eq!(ft, ft2);
    }

    /// §5 versioning: the epoch is an appended Connect-body field, so a
    /// v1.0 body (without it) must still decode — as epoch 0.
    #[test]
    fn v1_0_connect_body_without_epoch_still_decodes() {
        let cfg = ModelConfig::tiny_opt(10);
        let ft = FineTuneConfig::paper(&cfg);
        let split = SplitSpec::new(2);
        let mut body = encode_config(&ft, split, 7);
        body.truncate(body.len() - 8); // strip the appended epoch — a v1.0 body
        let (ft2, split2, epoch) = decode_config(&body).unwrap();
        assert_eq!(ft, ft2);
        assert_eq!(split, split2);
        assert_eq!(epoch, 0, "missing epoch decodes as 0");
        // A partially present epoch is still malformed.
        body.extend_from_slice(&[1, 2, 3]);
        assert!(decode_config(&body).is_err());
    }

    #[test]
    fn config_decode_rejects_garbage() {
        assert!(decode_config(&[]).is_err());
        assert!(decode_config(&[9, 0, 0]).is_err());
    }

    /// The paper config's Connect body, patched, decoded as a whole
    /// `Connect` frame: the error it is refused with.
    fn refuse_connect(patch: impl FnOnce(&mut Vec<u8>)) -> String {
        let ft = FineTuneConfig::paper(&ModelConfig::tiny_opt(10));
        let mut body = encode_config(&ft, SplitSpec::paper(), 1);
        patch(&mut body);
        let header = encode_frame_header(KIND_CONNECT, 3, body.len() as u32);
        match ClientMessage::from_wire_parts(&header, &Bytes::from(body), DEFAULT_MAX_FRAME) {
            Err(WireError::Malformed(why)) => why,
            other => panic!("retired option decoded as {other:?}"),
        }
    }

    // Offsets in the paper config's body: adapter kind at 0; rank,
    // alpha, the u64 and u8 target counts and two targets up to 24; optimizer kind at 24; lr, batch size, sequence length;
    // accumulation at 45.
    #[test]
    fn a_connect_with_prefix_tuning_is_refused_by_name() {
        let why = refuse_connect(|b| b[0] = 1);
        assert!(why.contains("prefix tuning"), "{why}");
    }

    #[test]
    fn a_connect_with_sgd_is_refused_by_name() {
        let why = refuse_connect(|b| b[24] = 1);
        assert!(why.contains("SGD"), "{why}");
    }

    #[test]
    fn a_connect_with_gradient_accumulation_is_refused_by_name() {
        let why = refuse_connect(|b| b[45..53].copy_from_slice(&3u64.to_le_bytes()));
        assert!(why.contains("gradient accumulation 3"), "{why}");
    }

    #[test]
    fn all_client_variants_round_trip() {
        let cfg = ModelConfig::tiny_opt(10);
        let tensor_frame = encode_tensor(&Tensor::from_vec(vec![1.0, -2.0, 0.5], [3]));
        let msgs = [
            ClientMessage::Connect {
                client: ClientId(3),
                ft: FineTuneConfig::paper(&cfg),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            },
            ClientMessage::Connect {
                client: ClientId(3),
                ft: FineTuneConfig::paper(&cfg),
                split: SplitSpec::paper(),
                epoch: 2,
                codecs: Codec::F16.flag() | Codec::TopK8.flag(),
            },
            ClientMessage::Resume {
                client: ClientId(3),
                epoch: 2,
                last_step: 40,
            },
            ClientMessage::Activations {
                client: ClientId(4),
                frame: tensor_frame.clone(),
            },
            ClientMessage::Gradients {
                client: ClientId(5),
                frame: tensor_frame,
            },
            ClientMessage::Disconnect {
                client: ClientId(6),
            },
            ClientMessage::Ping {
                client: ClientId(7),
                seq: 42,
            },
            ClientMessage::ImportSession {
                client: ClientId(8),
                blob: Bytes::from(vec![1u8, 2, 3, 4]),
            },
        ];
        for msg in msgs {
            let bytes = msg.to_wire();
            let back = ClientMessage::from_wire(&bytes, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn all_server_variants_round_trip() {
        let tensor_frame = encode_tensor(&Tensor::zeros([2, 2]));
        let msgs = [
            ServerMessage::Ready {
                client: ClientId(1),
                codec: Codec::F32Raw,
            },
            ServerMessage::Ready {
                client: ClientId(1),
                codec: Codec::BF16,
            },
            ServerMessage::ServerActivations {
                client: ClientId(2),
                frame: tensor_frame.clone(),
            },
            ServerMessage::ServerGradients {
                client: ClientId(3),
                frame: tensor_frame.clone(),
            },
            ServerMessage::Resumed {
                client: ClientId(4),
                epoch: 3,
                server_step: 41,
                replay: Bytes::new(),
            },
            ServerMessage::Resumed {
                client: ClientId(4),
                epoch: 3,
                server_step: 41,
                // An embedded replay is a full encoded frame.
                replay: ServerMessage::ServerGradients {
                    client: ClientId(4),
                    frame: tensor_frame,
                }
                .to_wire(),
            },
            ServerMessage::Evicted {
                client: ClientId(5),
                code: EvictionCode::IdleExpired,
            },
            ServerMessage::Busy {
                client: ClientId(6),
                retry_after_ms: 250,
            },
            ServerMessage::Redirect {
                client: ClientId(7),
                addr: "10.0.0.3:4400".into(),
                retry_after_ms: 15,
            },
            ServerMessage::Pong {
                client: ClientId(8),
                seq: 42,
                live_sessions: 3,
                utilization_pct: 87,
            },
            ServerMessage::Imported {
                client: ClientId(9),
                epoch: 4,
            },
        ];
        for msg in msgs {
            let bytes = msg.to_wire();
            let back = ServerMessage::from_wire(&bytes, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn lifecycle_bodies_reject_garbage() {
        // Resume body must be exactly 16 bytes.
        let frame = menos_net::encode_frame(KIND_RESUME, 0, &[1, 2, 3]);
        assert!(ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_RESUME, 0, &[0; 24]);
        assert!(ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Resumed body needs at least epoch + server_step.
        let frame = menos_net::encode_frame(KIND_RESUMED, 0, &[0; 15]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Evicted body must be one known close-code byte.
        let frame = menos_net::encode_frame(KIND_EVICTED, 0, &[]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_EVICTED, 0, &[99]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Busy body must be exactly 8 retry-hint bytes.
        let frame = menos_net::encode_frame(KIND_BUSY, 0, &[1, 2, 3]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_BUSY, 0, &[0; 12]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Ping body must be exactly 8 sequence bytes.
        let frame = menos_net::encode_frame(KIND_PING, 0, &[1, 2, 3]);
        assert!(ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // ImportSession must carry a blob.
        let frame = menos_net::encode_frame(KIND_IMPORT_SESSION, 0, &[]);
        assert!(ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Redirect needs a hint and a non-empty UTF-8 address.
        let frame = menos_net::encode_frame(KIND_REDIRECT, 0, &[0; 8]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let mut bad_utf8 = 0u64.to_le_bytes().to_vec();
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        let frame = menos_net::encode_frame(KIND_REDIRECT, 0, &bad_utf8);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_REDIRECT, 0, &[0; 5]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        // Pong body is exactly 24 bytes; Imported exactly 8.
        let frame = menos_net::encode_frame(KIND_PONG, 0, &[0; 16]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_PONG, 0, &[0; 32]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
        let frame = menos_net::encode_frame(KIND_IMPORTED, 0, &[0; 4]);
        assert!(ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let frame = menos_net::encode_frame(99, 0, &[]);
        assert!(matches!(
            ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::UnknownKind(99))
        ));
        // Kinds are directional: a client kind is not a server kind.
        let frame = menos_net::encode_frame(KIND_CONNECT, 0, &[]);
        assert!(matches!(
            ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::UnknownKind(KIND_CONNECT))
        ));
        // ... and a server kind is not a client kind: `Busy` in a
        // client frame is rejected with the same typed error a pre-v1.3
        // decoder raises for the then-unknown kind 22 — a clean,
        // deterministic disconnect for old peers, never a hang.
        let frame = menos_net::encode_frame(KIND_BUSY, 0, &250u64.to_le_bytes());
        assert!(matches!(
            ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::UnknownKind(KIND_BUSY))
        ));
        // v1.4 fleet kinds are directional too: a `Redirect` in a
        // client frame (or any v1.4 kind at a pre-v1.4 peer) raises the
        // same typed UnknownKind — pre-v1.4 clients meeting a fleet
        // coordinator observe a clean close, never a hang (§9.6).
        let mut body = 0u64.to_le_bytes().to_vec();
        body.extend_from_slice(b"127.0.0.1:1");
        let frame = menos_net::encode_frame(KIND_REDIRECT, 0, &body);
        assert!(matches!(
            ClientMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::UnknownKind(KIND_REDIRECT))
        ));
        let frame = menos_net::encode_frame(KIND_PING, 0, &0u64.to_le_bytes());
        assert!(matches!(
            ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::UnknownKind(KIND_PING))
        ));
    }

    #[test]
    fn control_messages_reject_stray_payloads() {
        let frame = menos_net::encode_frame(KIND_READY, 0, b"junk");
        assert!(matches!(
            ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
    }

    /// §7: the `Ready` codec echo has exactly one byte representation
    /// per value — raw is the empty body, a compressed codec is its
    /// tag byte, and everything else is malformed.
    #[test]
    fn ready_codec_echo_is_canonical() {
        // Raw encodes empty: byte-identical to the v1.1 Ready.
        let raw = ServerMessage::Ready {
            client: ClientId(9),
            codec: Codec::F32Raw,
        }
        .to_wire();
        assert_eq!(raw.len() as u64, menos_net::FRAME_HEADER_BYTES);
        // An explicit raw tag byte is non-canonical.
        let frame = menos_net::encode_frame(KIND_READY, 0, &[Codec::F32Raw.tag()]);
        assert!(matches!(
            ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
        // An unknown tag byte is rejected.
        let frame = menos_net::encode_frame(KIND_READY, 0, &[200]);
        assert!(matches!(
            ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
        // Every compressed codec round-trips through its tag byte.
        for codec in Codec::ALL.into_iter().filter(|c| *c != Codec::F32Raw) {
            let msg = ServerMessage::Ready {
                client: ClientId(9),
                codec,
            };
            let bytes = msg.to_wire();
            assert_eq!(bytes.len() as u64, menos_net::FRAME_HEADER_BYTES + 1);
            assert_eq!(
                ServerMessage::from_wire(&bytes, DEFAULT_MAX_FRAME).unwrap(),
                msg
            );
        }
    }

    /// §5/§7: the codec mask is the second appended Connect-body
    /// field. v1.0 and v1.1 bodies decode with mask 0; a partial mask
    /// is malformed.
    #[test]
    fn connect_codec_mask_is_a_tolerant_appended_field() {
        let cfg = ModelConfig::tiny_opt(10);
        let ft = FineTuneConfig::paper(&cfg);
        let split = SplitSpec::new(2);
        let mask = Codec::F16.flag() | Codec::BF16.flag();
        let body = encode_config_v12(&ft, split, 5, mask);
        let (ft2, split2, epoch, codecs) = decode_config_v12(&body).unwrap();
        assert_eq!((ft2, split2, epoch, codecs), (ft.clone(), split, 5, mask));
        // v1.1 encoder (mask omitted) decodes as mask 0.
        let v11 = encode_config_v12(&ft, split, 5, 0);
        assert_eq!(v11, encode_config(&ft, split, 5));
        let (_, _, epoch, codecs) = decode_config_v12(&v11).unwrap();
        assert_eq!((epoch, codecs), (5, 0));
        // Partial appended mask is malformed (all-or-nothing fields).
        let mut bad = body.clone();
        bad.truncate(bad.len() - 3);
        assert!(decode_config_v12(&bad).is_err());
    }

    /// `PROTOCOL.md` §2 is enforced against [`MessageKind`]: every
    /// kind must appear in the table for its direction with its exact
    /// name and code, and the tables must list nothing else.
    #[test]
    fn protocol_md_matches_message_kinds() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"))
                .expect("PROTOCOL.md at the repository root");

        // Collect `(name, code, client_to_server)` from the §2 tables
        // only (§7's codec table shares the same row shape and is
        // checked by `protocol_md_matches_codec_table`): rows whose
        // first cell is a backticked identifier and whose second cell
        // is an integer. Direction = before/after §2.2.
        let section = &doc[doc.find("## 2.").expect("PROTOCOL.md §2")
            ..doc.find("## 3.").expect("PROTOCOL.md §3")];
        let server_section = section
            .find("### 2.2")
            .expect("PROTOCOL.md §2.2 server→client table");
        let documented = backticked_table_rows(section);

        let expected: Vec<(String, u8, bool)> = MessageKind::ALL
            .iter()
            .map(|k| (k.name().to_string(), k.code(), k.code() <= 16))
            .collect();
        assert_eq!(
            documented
                .into_iter()
                .map(|(name, code, pos)| (name, code, pos < server_section))
                .collect::<Vec<_>>(),
            expected,
            "PROTOCOL.md §2 message-kind tables drifted from MessageKind"
        );
    }

    /// Collects `(name, code, byte_offset)` from every table row in
    /// `section` whose first cell is a backticked identifier and whose
    /// second cell parses as an integer.
    fn backticked_table_rows(section: &str) -> Vec<(String, u8, usize)> {
        let mut rows = Vec::new();
        for (pos, line) in section.lines().scan(0usize, |off, l| {
            let pos = *off;
            *off += l.len() + 1;
            Some((pos, l))
        }) {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let (Some(first), Some(second)) = (cells.next(), cells.next()) else {
                continue;
            };
            let name = first.strip_prefix('`').and_then(|s| s.strip_suffix('`'));
            let (Some(name), Ok(code)) = (name, second.parse::<u8>()) else {
                continue;
            };
            rows.push((name.to_string(), code, pos));
        }
        rows
    }

    /// `PROTOCOL.md` §7's codec table is enforced against
    /// [`menos_net::Codec`] exactly as §2 is against [`MessageKind`]:
    /// every codec with its exact name, tag, and feature-flag bit, and
    /// nothing else.
    #[test]
    fn protocol_md_matches_codec_table() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"))
                .expect("PROTOCOL.md at the repository root");
        let section = &doc[doc
            .find("## 7.")
            .expect("PROTOCOL.md §7 tensor compression")..];

        let documented: Vec<(String, u8)> = backticked_table_rows(section)
            .into_iter()
            .map(|(name, code, _)| (name, code))
            .collect();
        let expected: Vec<(String, u8)> = Codec::ALL
            .iter()
            .map(|c| (c.name().to_string(), c.tag()))
            .collect();
        assert_eq!(
            documented, expected,
            "PROTOCOL.md §7 codec table drifted from menos_net::Codec"
        );

        // The documented flag bits must match `Codec::flag` too: the
        // table's third cell is the bit index.
        for line in section.lines() {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let (Some(first), Some(_), Some(third)) = (cells.next(), cells.next(), cells.next())
            else {
                continue;
            };
            let name = first.strip_prefix('`').and_then(|s| s.strip_suffix('`'));
            let (Some(name), Ok(bit)) = (name, third.parse::<u32>()) else {
                continue;
            };
            let codec = Codec::parse(name).expect("documented codec exists");
            assert_eq!(
                codec.flag(),
                1u64 << bit,
                "PROTOCOL.md §7 flag bit for {name} drifted"
            );
        }
    }

    #[test]
    fn oversize_frame_rejected_by_cap() {
        let big = vec![0u8; 1024];
        let frame = menos_net::encode_frame(KIND_ACTIVATIONS, 0, &big);
        assert!(matches!(
            ClientMessage::from_wire(&frame, 512),
            Err(WireError::TooLarge { .. })
        ));
    }
}
