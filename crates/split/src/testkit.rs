//! Fixtures shared by this crate's unit tests: one client and one
//! handler. The tests here watch the pump, the transports and the
//! driver, not the maths; real training through a transport is checked
//! against `MenosServer` in the root package's `tests/`.

use bytes::Bytes;

use menos_adapters::FineTuneConfig;
use menos_data::{wiki_corpus, TokenDataset, Vocab};
use menos_models::{CausalLm, ModelConfig};
use menos_sim::seeded_rng;

use crate::client::SplitClient;
use crate::event_loop::BatchHandler;
use crate::message::{ClientId, ClientMessage, ServerMessage};
use crate::protocol::{MessageHandler, ProtocolError};
use crate::spec::SplitSpec;

/// Client 0 on the tiny model, batch 2 × 16 tokens; `seed` drives its
/// data order and adapter initialisation.
pub(crate) fn client(seed: u64) -> SplitClient {
    let text = wiki_corpus(5, 4000);
    let vocab = Vocab::from_text(&text);
    let cfg = ModelConfig::tiny_opt(33);
    let mut rng = seeded_rng(100, "split-testkit");
    let ps = menos_models::init_params(&cfg, &mut rng);
    let ds = TokenDataset::new(vocab.encode(&text), 16, 5);
    let mut ft = FineTuneConfig::paper(&cfg);
    ft.batch_size = 2;
    ft.seq_len = 16;
    SplitClient::new(
        ClientId(0),
        CausalLm::bind(&cfg, &ps.shared_view(false)),
        SplitSpec::paper(),
        ft,
        ds,
        seed,
    )
}

/// A bare `Connect` for hand-driven handshakes.
pub(crate) fn connect_msg(c: u64) -> ClientMessage {
    let cfg = ModelConfig::tiny_opt(33);
    ClientMessage::Connect {
        client: ClientId(c),
        ft: FineTuneConfig::paper(&cfg),
        split: SplitSpec::paper(),
        epoch: 1,
        codecs: 0,
    }
}

/// The smallest resumable server: echoes tensor frames back (the shapes
/// line up because both cut tensors are `[batch, seq, hidden]`), keeps
/// no per-step state, and parks nothing on connection loss, so a
/// `Resume` always finds its session.
#[derive(Default)]
pub(crate) struct EchoHandler {
    /// Fail every `kill_every`-th message with a handler-side fault
    /// (0 never does).
    pub kill_every: u32,
    /// Messages handed to [`MessageHandler::handle`] so far.
    pub handled: u32,
    /// Clients the pump reported through `connection_lost`, in order.
    pub lost: Vec<ClientId>,
    /// Whether [`MessageHandler::snapshot_bytes`] reports state: the
    /// `handled` counter, so a test can pin when the loop persisted.
    pub durable: bool,
}

impl MessageHandler for EchoHandler {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        self.handled += 1;
        if self.kill_every > 0 && self.handled.is_multiple_of(self.kill_every) {
            return Err(ProtocolError::Disconnected);
        }
        Ok(match msg {
            ClientMessage::Connect { client, .. } => Some(ServerMessage::Ready {
                client,
                codec: menos_net::Codec::F32Raw,
            }),
            ClientMessage::Resume {
                client,
                epoch,
                last_step,
            } => Some(ServerMessage::Resumed {
                client,
                epoch: epoch + 1,
                server_step: last_step,
                replay: Bytes::new(),
            }),
            ClientMessage::Activations { client, frame } => {
                Some(ServerMessage::ServerActivations { client, frame })
            }
            ClientMessage::Gradients { client, frame } => {
                Some(ServerMessage::ServerGradients { client, frame })
            }
            ClientMessage::Disconnect { .. } => None,
            ClientMessage::Ping { client, seq } => Some(ServerMessage::Pong {
                client,
                seq,
                live_sessions: 0,
                utilization_pct: 0,
            }),
            ClientMessage::ImportSession { .. } => {
                return Err(ProtocolError::Unexpected(
                    "echo handler does not import sessions".into(),
                ))
            }
        })
    }

    fn connection_lost(&mut self, client: ClientId) {
        self.lost.push(client);
    }

    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        self.durable.then(|| self.handled.to_le_bytes().to_vec())
    }
}

impl BatchHandler for EchoHandler {}
