//! Protocol messages exchanged between split-learning clients and the
//! server.

use bytes::Bytes;

use menos_adapters::FineTuneConfig;
use menos_net::{wire_size, FRAME_HEADER_BYTES};

use crate::spec::SplitSpec;

/// A stable client identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Why the server closed a session (carried by
/// [`ServerMessage::Evicted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EvictionCode {
    /// The connection was silent past the server's client timeout; the
    /// session is quarantined and resumable.
    Timeout = 1,
    /// The quarantined session sat idle past `max_session_idle` and was
    /// expired; its state is gone and a `Resume` cannot succeed.
    IdleExpired = 2,
    /// The server is shutting down.
    Shutdown = 3,
}

impl EvictionCode {
    /// The close-code byte on the wire.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire close-code byte.
    pub fn from_code(code: u8) -> Option<EvictionCode> {
        match code {
            1 => Some(EvictionCode::Timeout),
            2 => Some(EvictionCode::IdleExpired),
            3 => Some(EvictionCode::Shutdown),
            _ => None,
        }
    }
}

/// Messages a client sends to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Initial connection carrying the fine-tuning configuration the
    /// server will profile (paper §3.3).
    Connect {
        /// The connecting client.
        client: ClientId,
        /// Fine-tuning settings (adapter, optimizer, batch, seq).
        ft: FineTuneConfig,
        /// Where the model is cut.
        split: SplitSpec,
        /// Session epoch the client proposes (fresh sessions start at
        /// 1; each successful resume bumps it). v1.0 peers omit the
        /// field and decode as epoch 0, which the server treats as 1.
        epoch: u64,
        /// Feature-flag bitmask of tensor codecs the client is willing
        /// to receive and send (bit `Codec::tag()`, PROTOCOL.md §7).
        /// v1.0/v1.1 peers omit the field and decode as 0, which
        /// negotiates the raw f32 baseline.
        codecs: u64,
    },
    /// A reconnecting client asks to re-attach to its quarantined
    /// session and continue from where training stopped.
    Resume {
        /// The returning client.
        client: ClientId,
        /// The epoch of the session being resumed; must match the
        /// quarantined session's epoch or the server rejects the
        /// resume as stale.
        epoch: u64,
        /// Optimization steps the client has fully completed — lets
        /// the server detect (and replay) a reply the client never
        /// received.
        last_step: u64,
    },
    /// Intermediate activations `x_c` — the server's forward input
    /// (protocol step 1).
    Activations {
        /// Sender.
        client: ClientId,
        /// Encoded activation tensor.
        frame: Bytes,
    },
    /// Gradients `g_c` w.r.t. the server output — the server's
    /// backward input (protocol step 3).
    Gradients {
        /// Sender.
        client: ClientId,
        /// Encoded gradient tensor.
        frame: Bytes,
    },
    /// The client finished fine-tuning; the server may release its
    /// state.
    Disconnect {
        /// Sender.
        client: ClientId,
    },
    /// A liveness probe (v1.4): the fleet coordinator's health checker
    /// sends one per heartbeat interval and expects a
    /// [`ServerMessage::Pong`] echoing the sequence number. Pings are
    /// stateless — no session is created or touched.
    Ping {
        /// Sender (the prober's identity; not a training session).
        client: ClientId,
        /// Echoed verbatim in the `Pong`, so a prober can match
        /// replies to probes over a persistent connection.
        seq: u64,
    },
    /// A fleet coordinator re-homes one quarantined session onto this
    /// server (v1.4): the blob is a self-contained per-session export
    /// produced by `MenosServer::export_session` on (a snapshot of)
    /// the dead origin server. The session is parked quarantined; the
    /// owning client re-admits it through the ordinary `Resume` path.
    ImportSession {
        /// The client whose session is being migrated (must match the
        /// identity sealed inside the blob).
        client: ClientId,
        /// The exported session record (tagged, versioned, CRC-sealed;
        /// PROTOCOL.md §9.4).
        blob: Bytes,
    },
}

/// Messages the server sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// The client's session is profiled and ready to serve.
    Ready {
        /// Addressee.
        client: ClientId,
        /// The tensor codec the server selected from the client's
        /// advertised set. [`Codec::F32Raw`](menos_net::Codec::F32Raw)
        /// encodes as an empty payload — byte-identical to the v1.1
        /// `Ready` — so un-upgraded peers interoperate unchanged.
        codec: menos_net::Codec,
    },
    /// Server-side forward output `x_s` (protocol step 2).
    ServerActivations {
        /// Addressee.
        client: ClientId,
        /// Encoded activation tensor.
        frame: Bytes,
    },
    /// Server-side gradients `g_s` w.r.t. the client's activations
    /// (protocol step 4).
    ServerGradients {
        /// Addressee.
        client: ClientId,
        /// Encoded gradient tensor.
        frame: Bytes,
    },
    /// The server re-attached the client to its quarantined session.
    Resumed {
        /// Addressee.
        client: ClientId,
        /// The session's new epoch (old epoch + 1); the client carries
        /// it in any later `Resume`.
        epoch: u64,
        /// Optimization steps the server session has completed. Equal
        /// to the client's `last_step`, or one ahead when the server
        /// processed a `Gradients` whose reply the client never saw.
        server_step: u64,
        /// When the server is one step ahead: the full encoded
        /// `ServerGradients` frame the client missed, replayed inside
        /// the handshake so the lock-step one-reply-per-message
        /// contract holds on every pump. Empty otherwise.
        replay: Bytes,
    },
    /// The server evicted the client's connection (best-effort notice;
    /// the connection closes right after).
    Evicted {
        /// Addressee.
        client: ClientId,
        /// Why the session was closed.
        code: EvictionCode,
    },
    /// The server shed the connection at admission — it is at capacity
    /// or the Alg. 2 reservation would oversubscribe the GPU pool
    /// (v1.3). The connection closes right after; no session state was
    /// created, so the client simply reconnects later.
    Busy {
        /// Addressee.
        client: ClientId,
        /// How long the client should wait before reconnecting. A
        /// load-aware hint, not a promise of admission — the client's
        /// retry policy still applies its cap and jitter.
        retry_after_ms: u64,
    },
    /// The fleet coordinator steers the client to the server that owns
    /// (or will own) its session (v1.4). The connection closes right
    /// after; the client dials `addr` and replays its `Connect` or
    /// `Resume` there. Chasing a redirect is placement, not a fault —
    /// it does not consume the client's retry budget.
    Redirect {
        /// Addressee.
        client: ClientId,
        /// Where to reconnect, as a `host:port` socket address.
        addr: String,
        /// How long to wait before dialing `addr` (0 = immediately;
        /// the client's jittered floor still applies).
        retry_after_ms: u64,
    },
    /// Heartbeat reply (v1.4): echoes the probe's sequence number and
    /// reports coarse load, which memory-aware placement feeds on.
    Pong {
        /// Addressee (the prober).
        client: ClientId,
        /// The `Ping`'s sequence number, echoed verbatim.
        seq: u64,
        /// Sessions currently bound to live connections.
        live_sessions: u64,
        /// GPU pool utilization in percent (Alg. 2 reservations over
        /// pool bytes), saturated at 100.
        utilization_pct: u64,
    },
    /// The server accepted an [`ClientMessage::ImportSession`] and
    /// parked the migrated session in quarantine (v1.4). Any failure is
    /// a typed rejection and a closed connection instead — no partial
    /// import is ever acknowledged.
    Imported {
        /// The migrated session's owner.
        client: ClientId,
        /// The epoch the imported session is parked at — the
        /// coordinator's fencing token for the migration.
        epoch: u64,
    },
}

/// Size of a small control frame on the wire.
const CONTROL_BYTES: u64 = 256;

impl ClientMessage {
    /// Bytes this message occupies on the wire. Tensor messages are
    /// exact (frame header + encoded payload); control messages use a
    /// nominal size.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ClientMessage::Connect { .. }
            | ClientMessage::Resume { .. }
            | ClientMessage::Disconnect { .. }
            | ClientMessage::Ping { .. } => CONTROL_BYTES,
            ClientMessage::Activations { frame, .. } | ClientMessage::Gradients { frame, .. } => {
                FRAME_HEADER_BYTES + frame.len() as u64
            }
            ClientMessage::ImportSession { blob, .. } => FRAME_HEADER_BYTES + blob.len() as u64,
        }
    }

    /// The sender.
    pub fn client(&self) -> ClientId {
        match self {
            ClientMessage::Connect { client, .. }
            | ClientMessage::Resume { client, .. }
            | ClientMessage::Activations { client, .. }
            | ClientMessage::Gradients { client, .. }
            | ClientMessage::Disconnect { client }
            | ClientMessage::Ping { client, .. }
            | ClientMessage::ImportSession { client, .. } => *client,
        }
    }
}

impl ServerMessage {
    /// Bytes this message occupies on the wire. Tensor messages are
    /// exact (frame header + encoded payload); control messages use a
    /// nominal size.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ServerMessage::Ready { .. }
            | ServerMessage::Evicted { .. }
            | ServerMessage::Busy { .. }
            | ServerMessage::Redirect { .. }
            | ServerMessage::Pong { .. }
            | ServerMessage::Imported { .. } => CONTROL_BYTES,
            ServerMessage::ServerActivations { frame, .. }
            | ServerMessage::ServerGradients { frame, .. } => {
                FRAME_HEADER_BYTES + frame.len() as u64
            }
            ServerMessage::Resumed { replay, .. } => CONTROL_BYTES + replay.len() as u64,
        }
    }

    /// The addressee.
    pub fn client(&self) -> ClientId {
        match self {
            ServerMessage::Ready { client, .. }
            | ServerMessage::ServerActivations { client, .. }
            | ServerMessage::ServerGradients { client, .. }
            | ServerMessage::Resumed { client, .. }
            | ServerMessage::Evicted { client, .. }
            | ServerMessage::Busy { client, .. }
            | ServerMessage::Redirect { client, .. }
            | ServerMessage::Pong { client, .. }
            | ServerMessage::Imported { client, .. } => *client,
        }
    }
}

/// Analytic wire size of a framed activation/gradient message for a
/// workload, without materializing it: protocol frame header plus the
/// encoded `[batch, seq, hidden]` tensor (raw f32 body).
pub fn activation_wire_bytes(batch: usize, seq: usize, hidden: usize) -> u64 {
    activation_wire_bytes_with(menos_net::Codec::F32Raw, batch, seq, hidden)
}

/// Codec-aware [`activation_wire_bytes`]: the analytic engine must
/// charge links with post-compression byte counts, not raw f32 sizes,
/// or WAN steps/s numbers for compressed codecs come out wrong.
pub fn activation_wire_bytes_with(
    codec: menos_net::Codec,
    batch: usize,
    seq: usize,
    hidden: usize,
) -> u64 {
    let dims = [batch, seq, hidden];
    debug_assert_eq!(
        wire_size(&dims),
        menos_net::wire_size_with(menos_net::Codec::F32Raw, &dims)
    );
    FRAME_HEADER_BYTES + menos_net::wire_size_with(codec, &dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_models::ModelConfig;
    use menos_net::encode_tensor;
    use menos_tensor::Tensor;

    #[test]
    fn message_sizes() {
        let t = Tensor::zeros([2, 3, 4]);
        let frame = encode_tensor(&t);
        let msg = ClientMessage::Activations {
            client: ClientId(1),
            frame: frame.clone(),
        };
        assert_eq!(msg.wire_bytes(), FRAME_HEADER_BYTES + frame.len() as u64);
        assert_eq!(msg.client(), ClientId(1));

        let cfg = ModelConfig::tiny_opt(10);
        let connect = ClientMessage::Connect {
            client: ClientId(2),
            ft: menos_adapters::FineTuneConfig::paper(&cfg),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        assert_eq!(connect.wire_bytes(), 256);
        let resume = ClientMessage::Resume {
            client: ClientId(2),
            epoch: 1,
            last_step: 9,
        };
        assert_eq!(resume.wire_bytes(), 256);
        assert_eq!(resume.client(), ClientId(2));
    }

    #[test]
    fn server_message_sizes() {
        let frame = encode_tensor(&Tensor::zeros([4]));
        let msg = ServerMessage::ServerGradients {
            client: ClientId(3),
            frame: frame.clone(),
        };
        assert_eq!(msg.wire_bytes(), FRAME_HEADER_BYTES + frame.len() as u64);
        assert_eq!(msg.client(), ClientId(3));
        assert_eq!(
            ServerMessage::Ready {
                client: ClientId(3),
                codec: menos_net::Codec::F32Raw,
            }
            .wire_bytes(),
            256
        );
    }

    #[test]
    fn analytic_size_matches_real_encoding() {
        // The analytic size must equal the length of the bytes the
        // unified codec actually puts on the wire for that message.
        let t = Tensor::zeros([4, 100, 64]);
        let msg = ClientMessage::Activations {
            client: ClientId(0),
            frame: encode_tensor(&t),
        };
        assert_eq!(
            activation_wire_bytes(4, 100, 64),
            crate::WireMessage::to_wire(&msg).len() as u64
        );
        assert_eq!(activation_wire_bytes(4, 100, 64), msg.wire_bytes());
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(7).to_string(), "client-7");
    }

    #[test]
    fn eviction_codes_round_trip() {
        for code in [
            EvictionCode::Timeout,
            EvictionCode::IdleExpired,
            EvictionCode::Shutdown,
        ] {
            assert_eq!(EvictionCode::from_code(code.code()), Some(code));
        }
        assert_eq!(EvictionCode::from_code(0), None);
        assert_eq!(EvictionCode::from_code(9), None);
        let evicted = ServerMessage::Evicted {
            client: ClientId(3),
            code: EvictionCode::Timeout,
        };
        assert_eq!(evicted.wire_bytes(), 256);
        assert_eq!(evicted.client(), ClientId(3));
    }

    #[test]
    fn busy_is_a_control_message() {
        let busy = ServerMessage::Busy {
            client: ClientId(8),
            retry_after_ms: 125,
        };
        assert_eq!(busy.wire_bytes(), 256);
        assert_eq!(busy.client(), ClientId(8));
    }

    #[test]
    fn fleet_control_messages_have_nominal_sizes() {
        let ping = ClientMessage::Ping {
            client: ClientId(7),
            seq: 3,
        };
        assert_eq!(ping.wire_bytes(), 256);
        assert_eq!(ping.client(), ClientId(7));
        let redirect = ServerMessage::Redirect {
            client: ClientId(7),
            addr: "127.0.0.1:4401".into(),
            retry_after_ms: 10,
        };
        assert_eq!(redirect.wire_bytes(), 256);
        assert_eq!(redirect.client(), ClientId(7));
        let pong = ServerMessage::Pong {
            client: ClientId(7),
            seq: 3,
            live_sessions: 2,
            utilization_pct: 40,
        };
        assert_eq!(pong.wire_bytes(), 256);
        assert_eq!(pong.client(), ClientId(7));
        let imported = ServerMessage::Imported {
            client: ClientId(7),
            epoch: 2,
        };
        assert_eq!(imported.wire_bytes(), 256);
        assert_eq!(imported.client(), ClientId(7));
        // A session blob is sized exactly, like a tensor frame.
        let import = ClientMessage::ImportSession {
            client: ClientId(7),
            blob: Bytes::from(vec![0u8; 100]),
        };
        assert_eq!(import.wire_bytes(), FRAME_HEADER_BYTES + 100);
        assert_eq!(import.client(), ClientId(7));
    }
}
