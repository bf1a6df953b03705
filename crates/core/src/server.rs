//! The Menos serving façade: one object owning the shared base, the
//! per-client sessions, and the message dispatch of Algorithm 1.
//!
//! The timed multi-client behaviour (scheduling, memory) is the
//! simulated runtime's job; this façade is the *real-engine* server a
//! deployment embeds. It implements `menos-split`'s
//! [`MessageHandler`] and [`BatchHandler`], so one
//! [`ServerEventLoop`](menos_split::ServerEventLoop) — over in-memory
//! channels, the simulated WAN, or real TCP sockets — pumps messages
//! into the same state machine; the per-session forward/backward step
//! is [`dispatch_session`], shared with the in-process driver.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use menos_adapters::FineTuneConfig;
use menos_models::ModelConfig;
use menos_net::{negotiate, Codec};
use menos_split::{
    dispatch_session, BatchHandler, ClientId, ClientMessage, ForwardMode, MessageHandler,
    ProtocolError, ServerMessage, ServerSession, SplitSpec, WireMessage,
};
use menos_tensor::{CheckpointError, ParamStore};

use crate::profiler::{profile_client, MemoryDemands};
use crate::sharing::SharedBaseRegistry;
use crate::state::{ServerState, SessionRecord};
use crate::workload::ServerSpec;

struct ClientState {
    session: ServerSession,
    demands: MemoryDemands,
    /// Session epoch: 1 for a fresh connect, bumped on every successful
    /// resume so stale reconnect attempts are detectable.
    epoch: u64,
    /// The last gradient reply sent, kept so a resume that raced the
    /// reply can have it re-delivered inside `Resumed`.
    last_reply: Option<ServerMessage>,
    /// `None` while a connection is bound to the session (it is live
    /// and holds its Algorithm-2 reservation). `Some(when)` once the
    /// connection is gone: the session is quarantined — parked so a
    /// reconnecting client can resume exactly where it left off, until
    /// the quarantine TTL expires it.
    parked_since: Option<Instant>,
}

impl ClientState {
    fn is_live(&self) -> bool {
        self.parked_since.is_none()
    }
}

/// The reconnect hint carried in [`ProtocolError::Busy`] sheds.
const BUSY_RETRY_AFTER_MS: u64 = 100;

/// The snapshot/migration record of one session, live or parked.
fn record_of(state: &ClientState) -> SessionRecord {
    SessionRecord {
        client: state.session.client(),
        epoch: state.epoch,
        live: state.is_live(),
        session: state.session.to_state(),
        last_reply: state.last_reply.as_ref().map(crate::state::encode_reply),
    }
}

/// A real-engine Menos server: shared base model, per-client sessions,
/// and Algorithm-1 message dispatch.
///
/// # Examples
///
/// ```
/// use menos_adapters::FineTuneConfig;
/// use menos_core::{MenosServer, ServerMode, ServerSpec};
/// use menos_models::ModelConfig;
/// use menos_split::{ClientId, ClientMessage, MessageHandler, SplitSpec};
///
/// let config = ModelConfig::tiny_llama(16);
/// let mut server = MenosServer::new(config.clone(), ServerSpec::v100(ServerMode::menos()), 1);
/// let mut ft = FineTuneConfig::paper(&config);
/// ft.batch_size = 1;
/// ft.seq_len = 4;
/// let reply = server
///     .handle(ClientMessage::Connect {
///         client: ClientId(0),
///         ft,
///         split: SplitSpec::paper(),
///         epoch: 1,
///         codecs: 0,
///     })
///     .unwrap();
/// assert!(matches!(reply, Some(menos_split::ServerMessage::Ready { .. })));
/// assert_eq!(server.active_clients(), 1);
/// ```
pub struct MenosServer {
    registry: SharedBaseRegistry,
    spec: ServerSpec,
    mode: ForwardMode,
    /// Every session, live or quarantined.
    sessions: HashMap<ClientId, ClientState>,
    seed: u64,
    supported_codecs: u64,
}

impl MenosServer {
    /// Creates a server: loads the base model once (the registry) and
    /// prepares to admit clients against `spec`'s memory budget.
    pub fn new(config: ModelConfig, spec: ServerSpec, seed: u64) -> Self {
        Self::with_registry(SharedBaseRegistry::initialize(config, seed), spec, seed)
    }

    /// Creates a server around pre-existing base parameters (e.g. a
    /// store the test harness also binds its clients to, so both sides
    /// share one model without re-deriving it from the seed).
    ///
    /// # Panics
    ///
    /// Panics if `base` does not contain every parameter `config`
    /// requires (delegated to the registry's validation).
    pub fn from_store(config: ModelConfig, base: ParamStore, spec: ServerSpec, seed: u64) -> Self {
        Self::with_registry(SharedBaseRegistry::from_store(config, base), spec, seed)
    }

    fn with_registry(registry: SharedBaseRegistry, spec: ServerSpec, seed: u64) -> Self {
        MenosServer {
            registry,
            spec,
            mode: ForwardMode::NoGradReforward,
            sessions: HashMap::new(),
            seed,
            supported_codecs: menos_net::supported_codec_mask(),
        }
    }

    /// Current GPU-pool utilization as a percentage of the
    /// Algorithm-2 budget (live reservations over total pool).
    pub fn utilization_pct(&self) -> u64 {
        let pool = self.spec.total_gpu_bytes().max(1);
        self.reserved_bytes().saturating_mul(100) / pool
    }

    /// True once the live reservations fill the pool — the signal
    /// behind the event loop's prefer-draining-over-accepting
    /// degradation.
    pub fn under_pressure(&self) -> bool {
        self.utilization_pct() >= 100
    }

    /// Overrides the tensor-codec mask this server is willing to
    /// negotiate (PROTOCOL.md §7.3). The default is every codec the
    /// build supports; tests narrow it to exercise mismatched-flag
    /// fallback.
    pub fn set_supported_codecs(&mut self, mask: u64) {
        self.supported_codecs = mask;
    }

    /// Switches the execution path (default: Menos' no-grad +
    /// re-forward).
    pub fn set_forward_mode(&mut self, mode: ForwardMode) {
        self.mode = mode;
    }

    /// Currently connected clients.
    pub fn active_clients(&self) -> usize {
        self.live().count()
    }

    fn live(&self) -> impl Iterator<Item = &ClientState> {
        self.sessions.values().filter(|c| c.is_live())
    }

    /// The shared-base registry (e.g. to verify aliasing in tests).
    pub fn registry(&self) -> &SharedBaseRegistry {
        &self.registry
    }

    /// The profiled demands of a connected client.
    pub fn demands_of(&self, client: ClientId) -> Option<MemoryDemands> {
        let state = self.sessions.get(&client).filter(|c| c.is_live());
        state.map(|c| c.demands)
    }

    /// Total profiled backward bytes currently reserved by *live*
    /// sessions — the Algorithm-2 pool share that eviction must return
    /// to zero when the last client leaves. Quarantined sessions hold
    /// no reservation: their GPU claim was released with the
    /// connection; only their (host-side) adapter/optimizer state is
    /// parked.
    pub fn reserved_bytes(&self) -> u64 {
        self.live().map(|c| c.demands.m_b).sum()
    }

    /// Sessions currently parked for reconnection.
    pub fn quarantined_clients(&self) -> usize {
        self.sessions.len() - self.active_clients()
    }

    /// The server-side adapter parameters of a client's session, live
    /// or quarantined (for bit-identity checks in tests and tooling).
    pub fn session_adapters(&self, client: ClientId) -> Option<&ParamStore> {
        let state = self.sessions.get(&client)?;
        Some(state.session.adapter_params())
    }

    /// Parks a client's session for later resumption instead of
    /// dropping it — the server side of a lost connection. The
    /// Algorithm-2 reservation goes with the connection; the session
    /// itself survives under quarantine until a [`Resume`]
    /// re-attaches it or [`MenosServer::expire_idle`] reaps it.
    /// Unknown clients are ignored (the connection died before
    /// `Connect`).
    ///
    /// [`Resume`]: ClientMessage::Resume
    pub fn quarantine(&mut self, client: ClientId) {
        if let Some(state) = self.sessions.get_mut(&client) {
            state.parked_since.get_or_insert_with(Instant::now);
        }
    }

    /// Reaps quarantined sessions idle longer than `max_idle`,
    /// returning the expired client ids (so the caller can notify any
    /// late reconnects). Their adapter/optimizer state is dropped for
    /// good.
    pub fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        let mut expired = Vec::new();
        self.sessions.retain(|client, state| {
            let keep = state.parked_since.is_none_or(|t| t.elapsed() <= max_idle);
            if !keep {
                expired.push(*client);
            }
            keep
        });
        expired.sort_unstable();
        expired
    }

    /// Dispatches one protocol message (Algorithm 1), returning the
    /// reply to send, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on unknown clients, undecodable
    /// frames, protocol-order violations, or rejected configurations.
    /// Errors are scoped to the offending client; other clients are
    /// unaffected.
    pub fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        match msg {
            ClientMessage::Connect {
                client,
                ft,
                split,
                epoch,
                codecs,
            } => {
                let codec = self.connect(client, ft, split, epoch, codecs)?;
                Ok(Some(ServerMessage::Ready { client, codec }))
            }
            ClientMessage::Resume {
                client,
                epoch,
                last_step,
            } => self.resume(client, epoch, last_step).map(Some),
            ClientMessage::Disconnect { client } => {
                let gone = self.sessions.remove(&client);
                gone.map(|_| None)
                    .ok_or(ProtocolError::UnknownClient(client))
            }
            ClientMessage::Ping { client, seq } => Ok(Some(ServerMessage::Pong {
                client,
                seq,
                live_sessions: self.active_clients() as u64,
                utilization_pct: self.utilization_pct(),
            })),
            ClientMessage::ImportSession { client, blob } => {
                let (imported, epoch) = self.import_session(&blob).map_err(|e| {
                    ProtocolError::Rejected(format!("session import rejected: {e}"))
                })?;
                if imported != client {
                    // The frame was addressed to one client but the blob
                    // carries another; un-park and reject so nothing of
                    // the mismatched import survives.
                    self.sessions.remove(&imported);
                    return Err(ProtocolError::Rejected(format!(
                        "import frame addressed to {client} but blob carries {imported}"
                    )));
                }
                Ok(Some(ServerMessage::Imported { client, epoch }))
            }
            tensor_msg => {
                let client = tensor_msg.client();
                let mode = self.mode;
                let state = self
                    .sessions
                    .get_mut(&client)
                    .filter(|c| c.is_live())
                    .ok_or(ProtocolError::UnknownClient(client))?;
                let reply = dispatch_session(&mut state.session, mode, &tensor_msg)?;
                if matches!(reply, ServerMessage::ServerGradients { .. }) {
                    state.last_reply = Some(reply.clone());
                }
                Ok(Some(reply))
            }
        }
    }

    /// Re-attaches a quarantined session (the `Resume` handshake).
    ///
    /// The client reports the epoch it last held and the number of
    /// steps it has *completed*. Two positions are reconcilable:
    ///
    /// * server step == `last_step`: both sides agree; the client
    ///   redoes its aborted in-flight step (if any) from scratch.
    /// * server step == `last_step` + 1: the server finished the step
    ///   but the gradient reply was lost in flight; the cached reply is
    ///   re-delivered embedded in [`ServerMessage::Resumed`] so the
    ///   one-reply-per-message contract holds.
    ///
    /// Anything else means the two sides diverged irrecoverably; the
    /// parked state is dropped and the resume rejected.
    fn resume(
        &mut self,
        client: ClientId,
        epoch: u64,
        last_step: u64,
    ) -> Result<ServerMessage, ProtocolError> {
        let q = self
            .sessions
            .get(&client)
            .ok_or(ProtocolError::UnknownClient(client))?;
        if q.is_live() {
            // The old connection is still live (its EOF has not been
            // processed yet). Retryable: the client backs off and tries
            // again rather than hijacking a live session.
            return Err(ProtocolError::SessionActive(client));
        }
        // Re-attaching returns the session's Algorithm-2 reservation to
        // the pool; if the pool cannot take it back right now, shed
        // (retryable, quarantine intact) rather than oversubscribe.
        if self.reserved_bytes().saturating_add(q.demands.m_b) > self.spec.total_gpu_bytes() {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: BUSY_RETRY_AFTER_MS,
            });
        }
        if q.epoch != epoch {
            return Err(ProtocolError::StaleEpoch {
                client,
                expected: q.epoch,
                got: epoch,
            });
        }
        // `epoch` and `last_step` are peer-supplied: neither may be
        // incremented unchecked.
        let new_epoch = epoch.checked_add(1).ok_or_else(|| {
            ProtocolError::Rejected(format!("{client} resumed at the last representable epoch"))
        })?;
        let server_step = q.session.steps_completed();
        let replay = if server_step == last_step {
            Bytes::new()
        } else if last_step.checked_add(1) == Some(server_step) {
            match &q.last_reply {
                Some(reply) => reply.to_wire(),
                None => {
                    return Err(ProtocolError::Unexpected(format!(
                        "{client} resumed one step behind but no reply is cached"
                    )))
                }
            }
        } else {
            self.sessions.remove(&client);
            return Err(ProtocolError::OutOfOrder(format!(
                "{client} resumed at step {last_step} but the server is at {server_step}"
            )));
        };
        let q = self.sessions.get_mut(&client).expect("looked up above");
        q.epoch = new_epoch;
        q.parked_since = None;
        Ok(ServerMessage::Resumed {
            client,
            epoch: new_epoch,
            server_step,
            replay,
        })
    }

    /// Dispatches a whole ready-set — everything the event loop found
    /// readable in one sweep — by calling [`MenosServer::handle`] on
    /// each message in arrival order. One admitted session runs at a
    /// time, so Algorithm 2's `Σ m_b ≤ pool` holds trivially and only
    /// one activation footprint is alive (the paper's Eq. 3).
    ///
    /// The ready-set remains the unit a durable snapshot covers, and
    /// the scope of the duplicate-frame rejection below.
    pub fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        let mut out = Vec::with_capacity(msgs.len());
        // Lock-step allows one tensor frame in flight per client; a
        // second in the same ready-set is a replayed or forged frame.
        // Reject it here, before dispatch, so a duplicate can never
        // reach an optimizer twice.
        let mut tensor_seen: HashSet<ClientId> = HashSet::new();
        for msg in msgs {
            let is_tensor = matches!(
                msg,
                ClientMessage::Activations { .. } | ClientMessage::Gradients { .. }
            );
            if is_tensor && !tensor_seen.insert(msg.client()) {
                let client = msg.client();
                out.push((
                    client,
                    Err(ProtocolError::OutOfOrder(format!(
                        "duplicate tensor frame from {client} in one ready-set"
                    ))),
                ));
                continue;
            }
            let client = msg.client();
            out.push((client, self.handle(msg)));
        }
        out
    }

    fn connect(
        &mut self,
        client: ClientId,
        ft: FineTuneConfig,
        split: SplitSpec,
        epoch: u64,
        codecs: u64,
    ) -> Result<Codec, ProtocolError> {
        if self.sessions.get(&client).is_some_and(ClientState::is_live) {
            return Err(ProtocolError::Rejected(format!(
                "{client} is already connected"
            )));
        }
        let config = self.registry.config().clone();
        ft.validate(&config).map_err(ProtocolError::Rejected)?;
        split.validate(&config).map_err(ProtocolError::Rejected)?;
        // Profiling + admission (§3.3): reject demands that could never
        // be scheduled. For the tiny real engine the budget check uses
        // the profile of THIS config, so oversized batches are caught.
        let profile = menos_models::ModelProfile::new(config, split.front_layers);
        let demands = profile_client(&profile, &ft);
        let pool = self.spec.total_gpu_bytes();
        if demands.m_b > pool {
            return Err(ProtocolError::Rejected(format!(
                "profiled backward demand {} exceeds GPU pool {pool}",
                demands.m_b
            )));
        }
        // Algorithm-2 shed (v1.3): the demand fits the pool in
        // isolation but not alongside the live reservations. Unlike
        // the terminal `Rejected` above this is retryable — departures
        // will free the pool — so the peer gets a `Busy` hint instead
        // of a rejection.
        if self.reserved_bytes().saturating_add(demands.m_b) > pool {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: BUSY_RETRY_AFTER_MS,
            });
        }
        let codec = negotiate(codecs, self.supported_codecs);
        let session_seed = self.seed.wrapping_add(client.0);
        let mut session = ServerSession::new(
            client,
            self.registry.new_instance(),
            split,
            &ft,
            session_seed,
        );
        debug_assert!(self.registry.verify_aliasing(session.model()));
        session.set_codec(codec);
        // A fresh Connect is an explicit restart: any parked state from
        // a previous incarnation is superseded.
        self.sessions.insert(
            client,
            ClientState {
                session,
                demands,
                // v1.0 peers send no epoch (decoded as 0); treat as 1.
                epoch: epoch.max(1),
                last_reply: None,
                parked_since: None,
            },
        );
        Ok(codec)
    }

    /// Captures the full mutable server state — every session (live or
    /// quarantined), its epoch, and its cached reply — as a
    /// [`ServerState`], sorted by client id so snapshots of the same
    /// state are byte-identical.
    ///
    /// Algorithm-2 reservations are *not* captured: they are a pure
    /// function of the live session set, and restore parks every
    /// session (the connections died with the process), so the
    /// reservations are re-derived when clients resume.
    pub fn to_state(&self) -> ServerState {
        let mut sessions: Vec<SessionRecord> = self.sessions.values().map(record_of).collect();
        sessions.sort_by_key(|r| r.client.0);
        ServerState {
            seed: self.seed,
            mode: self.mode,
            sessions,
        }
    }

    /// Reconstructs sessions, epochs, and cached replies from a
    /// [`ServerState`], returning how many sessions were restored.
    ///
    /// Every record is validated and rebuilt *before* anything is
    /// committed, so a corrupt state leaves the server exactly as it
    /// was — no partial restore. Restored sessions all land in
    /// quarantine: their connections died with the old process, their
    /// Algorithm-2 reservations are zero until the client's `Resume`
    /// re-attaches them, and the idle TTL reaps any client that never
    /// comes back.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the server already has sessions, the
    /// state's seed disagrees with this server's (future connects
    /// would derive different adapters than the snapshotted ones), or
    /// any record fails to rebuild against the registry's model.
    pub fn restore(&mut self, state: ServerState) -> Result<usize, CheckpointError> {
        if !self.sessions.is_empty() {
            return Err(CheckpointError::Corrupt(format!(
                "restore into a server with {} live / {} quarantined sessions",
                self.active_clients(),
                self.quarantined_clients()
            )));
        }
        if state.seed != self.seed {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot seed {} does not match server seed {}",
                state.seed, self.seed
            )));
        }
        // Validate-then-commit: rebuild everything off to the side
        // first so an error cannot leave a half-restored server.
        let mut rebuilt = Vec::with_capacity(state.sessions.len());
        for rec in &state.sessions {
            rebuilt.push((rec.client, self.rebuild(rec)?));
        }
        let restored = rebuilt.len();
        self.mode = state.mode;
        self.sessions.extend(rebuilt);
        Ok(restored)
    }

    /// Rebuilds one record against the registry's model as a parked
    /// session: no Algorithm-2 reservation, demands re-profiled, the
    /// quarantine clock starting now. Parks nothing itself.
    fn rebuild(&mut self, rec: &SessionRecord) -> Result<ClientState, CheckpointError> {
        let session = ServerSession::from_state(self.registry.new_instance(), &rec.session)?;
        if session.client() != rec.client {
            return Err(CheckpointError::Corrupt(format!(
                "record for {} holds a session for {}",
                rec.client,
                session.client()
            )));
        }
        debug_assert!(self.registry.verify_aliasing(session.model()));
        let profile = menos_models::ModelProfile::new(
            self.registry.config().clone(),
            session.split().front_layers,
        );
        let demands = profile_client(&profile, session.ft_config());
        let last_reply = rec
            .last_reply
            .as_deref()
            .map(crate::state::decode_reply)
            .transpose()?;
        Ok(ClientState {
            session,
            demands,
            epoch: rec.epoch,
            last_reply,
            parked_since: Some(Instant::now()),
        })
    }

    /// Serializes one client's session — live or quarantined — into a
    /// self-contained migration blob ([`crate::state::encode_session_record`]):
    /// adapter weights, optimizer moments, step/epoch counters, the
    /// cached lost-reply replay, codec residual state, and the origin
    /// server's base seed. `None` if the client is unknown here.
    ///
    /// The exporter's own state is untouched; a fleet coordinator
    /// re-homing sessions feeds the blob to a survivor via the v1.4
    /// `ImportSession` frame (or [`MenosServer::import_session`]
    /// directly).
    pub fn export_session(&self, client: ClientId) -> Option<Vec<u8>> {
        let rec = record_of(self.sessions.get(&client)?);
        Some(crate::state::encode_session_record(self.seed, &rec))
    }

    /// Imports a migrated session blob, parking it in quarantine
    /// exactly as [`MenosServer::restore`] parks records: no
    /// Algorithm-2 reservation, no live slot — the client's `Resume`
    /// re-admits it through the normal admission path (and may be shed
    /// `Busy` if this server is itself full). Returns the imported
    /// client and its resume epoch (the fencing token the coordinator
    /// echoes in `Imported`).
    ///
    /// Unlike `restore`, the server may be mid-flight with other
    /// sessions; only a *duplicate* of the imported client (live or
    /// quarantined) is refused — two homes for one session would fork
    /// its training state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the blob is corrupt, the origin seed
    /// disagrees with this server's (the adapters were trained against
    /// a different base), the client already has a session here, or
    /// the record fails to rebuild. Nothing is committed on error.
    pub fn import_session(&mut self, blob: &[u8]) -> Result<(ClientId, u64), CheckpointError> {
        let (seed, rec) = crate::state::decode_session_record(blob)?;
        if seed != self.seed {
            return Err(CheckpointError::Corrupt(format!(
                "migrated session's origin seed {} does not match server seed {}",
                seed, self.seed
            )));
        }
        if self.sessions.contains_key(&rec.client) {
            return Err(CheckpointError::Corrupt(format!(
                "{} already has a session on this server",
                rec.client
            )));
        }
        let parked = self.rebuild(&rec)?;
        self.sessions.insert(rec.client, parked);
        Ok((rec.client, rec.epoch))
    }
}

impl MessageHandler for MenosServer {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        MenosServer::handle(self, msg)
    }

    /// A lost connection quarantines the session instead of dropping
    /// it, so the client can reconnect and resume.
    fn connection_lost(&mut self, client: ClientId) {
        self.quarantine(client);
    }

    fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        MenosServer::expire_idle(self, max_idle)
    }

    /// The full [`ServerState`] in snapshot byte form — everything a
    /// fresh process needs to [`restore`](MenosServer::restore) and
    /// accept resumes with zero training divergence.
    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        Some(self.to_state().to_bytes())
    }

    /// A fully reserved pool tells the pump to drain before accepting
    /// (v1.3 graceful degradation).
    fn under_pressure(&mut self) -> bool {
        MenosServer::under_pressure(self)
    }
}

impl BatchHandler for MenosServer {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        MenosServer::handle_batch(self, msgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ServerMode;
    use bytes::Bytes;
    use menos_net::{decode_tensor, encode_tensor, WireError};
    use menos_tensor::Tensor;

    fn server() -> (MenosServer, FineTuneConfig) {
        let config = ModelConfig::tiny_opt(17);
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 2;
        ft.seq_len = 8;
        (
            MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5),
            ft,
        )
    }

    fn frame(t: &Tensor) -> Bytes {
        encode_tensor(t)
    }

    #[test]
    fn full_protocol_cycle() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        let ready = srv
            .handle(ClientMessage::Connect {
                client: c,
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        assert!(matches!(ready, Some(ServerMessage::Ready { .. })));
        assert!(srv.demands_of(c).is_some());
        // A heartbeat from any id is answered and reports the live count.
        let pong = srv.handle(ClientMessage::Ping {
            client: ClientId(99),
            seq: 12,
        });
        assert!(matches!(
            pong,
            Ok(Some(ServerMessage::Pong {
                client: ClientId(99),
                seq: 12,
                live_sessions: 1,
                ..
            }))
        ));

        let x_c = Tensor::full(0.1, [2, 8, 64]);
        let reply = srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: frame(&x_c),
            })
            .unwrap()
            .unwrap();
        let ServerMessage::ServerActivations { frame: xs, .. } = reply else {
            panic!("expected activations");
        };
        let x_s = decode_tensor(&xs).unwrap();
        assert_eq!(x_s.dims(), &[2, 8, 64]);

        let g_c = Tensor::full(0.01, [2, 8, 64]);
        let reply = srv
            .handle(ClientMessage::Gradients {
                client: c,
                frame: frame(&g_c),
            })
            .unwrap()
            .unwrap();
        assert!(matches!(reply, ServerMessage::ServerGradients { .. }));

        assert!(srv
            .handle(ClientMessage::Disconnect { client: c })
            .unwrap()
            .is_none());
        assert_eq!(srv.active_clients(), 0);
    }

    /// Drives one full step for `client` and returns the gradient
    /// reply (which the server also caches for resume replay).
    fn one_step(srv: &mut MenosServer, c: ClientId, ft: &FineTuneConfig) -> ServerMessage {
        srv.handle(ClientMessage::Connect {
            client: c,
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let x_c = Tensor::full(0.1, [2, 8, 64]);
        srv.handle(ClientMessage::Activations {
            client: c,
            frame: frame(&x_c),
        })
        .unwrap();
        let g_c = Tensor::full(0.01, [2, 8, 64]);
        srv.handle(ClientMessage::Gradients {
            client: c,
            frame: frame(&g_c),
        })
        .unwrap()
        .unwrap()
    }

    #[test]
    fn state_survives_restart_bit_identically() {
        let (mut srv, ft) = server();
        let c = ClientId(4);
        let reply = one_step(&mut srv, c, &ft);
        assert!(matches!(reply, ServerMessage::ServerGradients { .. }));

        let state = srv.to_state();
        let bytes = state.to_bytes();
        assert_eq!(ServerState::from_bytes(&bytes).unwrap(), state);

        // A fresh process: same config and seed re-derive the same
        // base; restore rebuilds the sessions.
        let config = ModelConfig::tiny_opt(17);
        let mut fresh = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
        let restored = fresh
            .restore(ServerState::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(restored, 1);
        // Restored sessions are parked: no live reservation until the
        // client resumes (the old connection died with the process).
        assert_eq!(fresh.active_clients(), 0);
        assert_eq!(fresh.quarantined_clients(), 1);
        assert_eq!(fresh.reserved_bytes(), 0);

        // Adapter weights bit-identical to the snapshotted server's.
        let old = srv.session_adapters(c).unwrap();
        let new = fresh.session_adapters(c).unwrap();
        assert_eq!(old.len(), new.len());
        for (name, t) in old.iter() {
            let r = new.get(name).unwrap();
            let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(t), bits(r), "{name}");
        }

        // The resume handshake works against the restored server: the
        // client finished 0 steps, the server finished 1, so the
        // cached reply is replayed byte-for-byte and the Algorithm-2
        // reservation returns.
        let resumed = fresh
            .handle(ClientMessage::Resume {
                client: c,
                epoch: 1,
                last_step: 0,
            })
            .unwrap()
            .unwrap();
        let ServerMessage::Resumed {
            epoch,
            server_step,
            replay,
            ..
        } = resumed
        else {
            panic!("expected Resumed");
        };
        assert_eq!(epoch, 2, "epochs stay monotone across restarts");
        assert_eq!(server_step, 1);
        assert_eq!(replay, reply.to_wire());
        assert!(fresh.reserved_bytes() > 0);
    }

    #[test]
    fn restore_refuses_busy_server_seed_mismatch_and_corruption() {
        let (mut srv, ft) = server();
        one_step(&mut srv, ClientId(0), &ft);
        let bytes = srv.to_state().to_bytes();

        // Busy target: sessions already present.
        let state = ServerState::from_bytes(&bytes).unwrap();
        assert!(srv.restore(state.clone()).is_err());

        // Seed mismatch: a different server identity must not adopt
        // sessions whose adapters derive from another seed.
        let config = ModelConfig::tiny_opt(17);
        let mut other = MenosServer::new(config.clone(), ServerSpec::v100(ServerMode::menos()), 99);
        assert!(other.restore(state.clone()).is_err());
        assert_eq!(other.quarantined_clients(), 0);

        // Corrupt record: validate-then-commit leaves the target
        // untouched. A record only holds a sealed container, so the
        // damage (the micro-step counter) is re-sealed: what rejects
        // it is the session's own validation, not its checksum.
        let mut fresh = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
        let mut broken = state;
        let mut raw = broken.sessions[0].session.clone().into_bytes();
        raw[60] ^= 0xFF;
        assert!(menos_tensor::Sealed::parse(&raw).is_err());
        let body = raw.len() - 4;
        let crc = menos_tensor::crc32(&raw[..body]);
        raw[body..].copy_from_slice(&crc.to_le_bytes());
        broken.sessions[0].session = menos_tensor::Sealed::parse(&raw).unwrap();
        assert!(fresh.restore(broken).is_err());
        assert_eq!(fresh.quarantined_clients(), 0);
        assert_eq!(fresh.active_clients(), 0);
    }

    #[test]
    fn unknown_client_rejected() {
        let (mut srv, _ft) = server();
        let err = srv
            .handle(ClientMessage::Activations {
                client: ClientId(9),
                frame: frame(&Tensor::zeros([1, 1, 64])),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownClient(_)));
        assert!(err.to_string().contains("unknown client"));
    }

    #[test]
    fn bad_frame_rejected_without_state_damage() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        srv.handle(ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let err = srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: Bytes::from_static(b"garbage"),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Wire(WireError::BadMagic(_))));
        // The client remains connected and serviceable.
        let x_c = Tensor::full(0.1, [2, 8, 64]);
        assert!(srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: frame(&x_c),
            })
            .is_ok());
    }

    #[test]
    fn gradients_before_activations_is_a_protocol_error() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        srv.handle(ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let err = srv
            .handle(ClientMessage::Gradients {
                client: c,
                frame: frame(&Tensor::zeros([2, 8, 64])),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfOrder(_)));
    }

    /// Two full steps for a bystander (client 1) interleaved with one
    /// step for client 0 on a fresh server, with `hostile` — a frame
    /// from client 0 — injected just before client 0's correct frame
    /// of the same kind. Returns every reply to a *correct* frame in
    /// wire form and the hostile frame's error; the Alg. 2
    /// reservation must not move when the hostile frame is refused.
    fn step_beside_hostile_frame(
        hostile: Option<ClientMessage>,
    ) -> (Vec<Bytes>, Option<ProtocolError>) {
        let (mut srv, ft) = server();
        for c in 0..2 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(c),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        let admitted = srv.reserved_bytes();
        let wave = |scale: f32| {
            let v = (0..2 * 8 * 64).map(|i| scale * (i as f32 * 0.37).sin());
            frame(&Tensor::from_vec(v.collect(), [2, 8, 64]))
        };
        let acts = |c, scale| ClientMessage::Activations {
            client: ClientId(c),
            frame: wave(scale),
        };
        let grads = |c, scale| ClientMessage::Gradients {
            client: ClientId(c),
            frame: wave(scale),
        };
        let script = [
            acts(1, 0.5),
            acts(0, 0.4),
            grads(1, 0.05),
            grads(0, 0.04),
            acts(1, 0.3),
            grads(1, 0.03),
        ];
        let mut replies = Vec::new();
        let mut refused = None;
        for msg in script {
            if let Some(bad) = &hostile {
                let same_kind = std::mem::discriminant(bad) == std::mem::discriminant(&msg);
                if same_kind && msg.client() == ClientId(0) {
                    refused = Some(srv.handle(bad.clone()).unwrap_err());
                    assert_eq!(srv.reserved_bytes(), admitted);
                }
            }
            let reply = srv.handle(msg).expect("correct frame is served");
            replies.push(reply.expect("tensor reply").to_wire());
        }
        (replies, refused)
    }

    /// A hostile frame must be refused with a typed `Rejected`, and
    /// every correct frame — the offender's own follow-up and the
    /// bystander's whole run — must be answered byte-identically to a
    /// run in which the hostile frame never arrived.
    fn assert_refused_without_a_trace(hostile: ClientMessage) {
        let (clean, _) = step_beside_hostile_frame(None);
        let (replies, refused) = step_beside_hostile_frame(Some(hostile));
        let err = refused.expect("the hostile frame was sent");
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        assert_eq!(replies, clean);
    }

    #[test]
    fn activations_of_the_wrong_hidden_width_are_refused_not_a_panic() {
        assert_refused_without_a_trace(ClientMessage::Activations {
            client: ClientId(0),
            frame: frame(&Tensor::full(0.1, [2, 8, 63])),
        });
    }

    #[test]
    fn gradients_shaped_unlike_the_forward_leave_the_step_completable() {
        assert_refused_without_a_trace(ClientMessage::Gradients {
            client: ClientId(0),
            frame: frame(&Tensor::full(0.01, [2, 7, 64])),
        });
    }

    #[test]
    fn activations_beyond_the_admitted_batch_are_refused() {
        // 32x the batch the Alg. 2 reservation was profiled for.
        assert_refused_without_a_trace(ClientMessage::Activations {
            client: ClientId(0),
            frame: frame(&Tensor::full(0.1, [64, 8, 64])),
        });
    }

    #[test]
    fn invalid_config_rejected_at_connect() {
        let (mut srv, ft) = server();
        let bad: [fn(&mut FineTuneConfig); 2] = [|ft| ft.batch_size = 0, |ft| ft.lr = f32::NAN];
        for make_bad in bad {
            let mut ft = ft.clone();
            make_bad(&mut ft);
            let err = srv
                .handle(ClientMessage::Connect {
                    client: ClientId(0),
                    ft,
                    split: SplitSpec::paper(),
                    epoch: 1,
                    codecs: 0,
                })
                .unwrap_err();
            assert!(matches!(err, ProtocolError::Rejected(_)));
            assert_eq!(srv.active_clients(), 0);
        }
    }

    #[test]
    fn duplicate_connect_rejected() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        let connect = ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        srv.handle(connect.clone()).unwrap();
        let err = srv.handle(connect).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        // The original session is untouched.
        assert_eq!(srv.active_clients(), 1);
    }

    #[test]
    fn sessions_alias_the_shared_base() {
        let (mut srv, ft) = server();
        for k in 0..3 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(k),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        assert_eq!(srv.active_clients(), 3);
        assert_eq!(srv.registry().instances_created(), 3);
    }

    #[test]
    fn resume_at_capacity_is_shed_with_quarantine_intact() {
        let (mut srv, ft) = server();
        for c in 0..2 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(c),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        srv.quarantine(ClientId(1));
        // Shrink the pool so the parked session's reservation no
        // longer fits beside the live one.
        let m_b = srv.demands_of(ClientId(0)).unwrap().m_b;
        srv.spec.gpu_capacity = m_b + m_b / 2;
        let resume = ClientMessage::Resume {
            client: ClientId(1),
            epoch: 1,
            last_step: 0,
        };
        let err = srv.handle(resume.clone()).unwrap_err();
        assert!(matches!(err, ProtocolError::Busy { .. }), "{err}");
        // The parked session survived the shed — a later retry (after
        // the server drained) re-attaches it with zero loss.
        assert_eq!(srv.quarantined_clients(), 1);
        srv.spec.gpu_capacity = 2 * m_b;
        assert!(matches!(
            srv.handle(resume).unwrap(),
            Some(ServerMessage::Resumed { .. })
        ));
    }

    /// `Resume`'s `last_step` and an imported session's epoch are
    /// peer-supplied; values at the top of `u64` must come back as
    /// typed errors, not an overflow panic that takes the server
    /// thread (and every other session) with it.
    #[test]
    fn resume_with_unrepresentable_counters_is_a_typed_error_not_a_panic() {
        let (mut srv, ft) = server();
        for c in 0..2 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(c),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        // The bystander is mid-step when the hostile frame arrives.
        srv.handle(ClientMessage::Activations {
            client: ClientId(0),
            frame: frame(&Tensor::full(0.1, [2, 8, 64])),
        })
        .unwrap();
        srv.quarantine(ClientId(1));
        let err = srv
            .handle(ClientMessage::Resume {
                client: ClientId(1),
                epoch: 1,
                last_step: u64::MAX,
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfOrder(_)), "{err}");
        let reply = srv
            .handle(ClientMessage::Gradients {
                client: ClientId(0),
                frame: frame(&Tensor::full(0.01, [2, 8, 64])),
            })
            .unwrap();
        assert!(matches!(reply, Some(ServerMessage::ServerGradients { .. })));

        // A session migrated in at the last epoch parks, but cannot be
        // resumed into a larger one.
        let blob = srv.export_session(ClientId(0)).unwrap();
        let (seed, mut rec) = crate::state::decode_session_record(&blob).unwrap();
        rec.epoch = u64::MAX;
        let (mut other, _) = server();
        other
            .import_session(&crate::state::encode_session_record(seed, &rec))
            .unwrap();
        let err = other
            .handle(ClientMessage::Resume {
                client: ClientId(0),
                epoch: u64::MAX,
                last_step: 1,
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        assert_eq!(other.quarantined_clients(), 1);
    }

    #[test]
    fn pool_oversubscription_sheds_where_impossible_demands_reject() {
        let (mut srv, ft) = server();
        srv.handle(ClientMessage::Connect {
            client: ClientId(0),
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let m_b = srv.demands_of(ClientId(0)).unwrap().m_b;
        // Shrink the pool so a second identical client fits alone but
        // not alongside the first's live reservation: Busy (retryable).
        srv.spec.gpu_capacity = m_b + m_b / 2;
        let connect = |c| ClientMessage::Connect {
            client: ClientId(c),
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        let err = srv.handle(connect(1)).unwrap_err();
        assert!(matches!(err, ProtocolError::Busy { .. }), "{err}");
        assert_eq!(srv.active_clients(), 1);
        // A demand that can NEVER fit stays a terminal Rejected — the
        // client must not burn retries on the impossible.
        srv.spec.gpu_capacity = m_b - 1;
        let err = srv.handle(connect(2)).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        // The freed pool admits the shed client on retry.
        srv.spec.gpu_capacity = m_b + m_b / 2;
        srv.handle(ClientMessage::Disconnect {
            client: ClientId(0),
        })
        .unwrap();
        assert!(srv.handle(connect(1)).is_ok());
    }

    #[test]
    fn under_pressure_toggles_at_the_watermark() {
        let (mut srv, ft) = server();
        assert!(!srv.under_pressure());
        srv.handle(ClientMessage::Connect {
            client: ClientId(0),
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        // One small session on a V100-sized pool: no pressure.
        assert!(!srv.under_pressure());
        // Pressure is reported exactly when the pool is fully reserved.
        let m_b = srv.demands_of(ClientId(0)).unwrap().m_b;
        srv.spec.gpu_capacity = m_b;
        assert_eq!(srv.utilization_pct(), 100);
        assert!(srv.under_pressure());
        srv.spec.gpu_capacity = m_b + m_b / 2;
        assert!(!srv.under_pressure());
    }

    #[test]
    fn from_store_shares_the_given_base() {
        let config = ModelConfig::tiny_opt(17);
        let mut rng = menos_sim::seeded_rng(5, "base-model");
        let base = menos_models::init_params(&config, &mut rng);
        let srv = MenosServer::from_store(config, base, ServerSpec::v100(ServerMode::menos()), 5);
        assert_eq!(srv.active_clients(), 0);
        assert!(srv.registry().base_bytes() > 0);
    }
}
