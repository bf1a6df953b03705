//! The transport-agnostic protocol core: one error hierarchy, one
//! [`Transport`] abstraction, and the server state-machine surface.
//!
//! Every execution path — in-process channels, the simulated WAN, and
//! real TCP sockets — moves the *same encoded bytes* (the unified
//! codec in [`crate::codec`]) through the same state machine:
//!
//! * [`drive_client`](crate::drive_client) is the only client-side
//!   protocol loop (it lives with its retry policy in `retry`);
//! * [`ServerEventLoop`](crate::ServerEventLoop) is the only
//!   server-side pump, feeding messages to a [`MessageHandler`] (the
//!   real-engine `MenosServer` in `menos-core`, or a single-session
//!   [`SessionHandler`]);
//! * [`dispatch_session`] is the per-session forward/backward step
//!   every handler delegates to.
//!
//! Errors anywhere in the stack surface as one typed
//! [`ProtocolError`]; the pump converts them into
//! [`MessageHandler::connection_lost`] so a failing client never
//! strands its session memory.

use std::marker::PhantomData;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use menos_net::{FrameError, WanLink, WireError, DEFAULT_MAX_FRAME, FRAME_HEADER_BYTES};
use menos_sim::Nanos;

use crate::codec::{
    client_message_parts, decode_client_message_parts, decode_server_message_parts,
    server_message_parts,
};
use crate::driver::ForwardMode;
use crate::message::{ClientId, ClientMessage, ServerMessage};
use crate::server::ServerSession;

// ----------------------------------------------------------------------
// Error hierarchy
// ----------------------------------------------------------------------

/// The unified error taxonomy of the split-learning protocol stack —
/// transport faults and state-machine violations in one hierarchy, so
/// every execution path reports failures identically.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying byte transport failed.
    Io(std::io::Error),
    /// Received bytes do not decode (truncation, bad magic/version,
    /// oversize declaration, unknown kind, malformed payload).
    Wire(WireError),
    /// A read or write missed its deadline.
    Timeout,
    /// The peer hung up (cleanly or mid-frame).
    Disconnected,
    /// A message referenced a client with no session.
    UnknownClient(ClientId),
    /// Messages arrived in an order Algorithm 1 does not allow.
    OutOfOrder(String),
    /// The server refused the client's configuration (validation or
    /// admission control).
    Rejected(String),
    /// The peer sent a well-formed message of the wrong type for the
    /// current protocol step.
    Unexpected(String),
    /// A `Resume` carried an epoch that does not match the quarantined
    /// session — a stale connection from before the last successful
    /// resume. Not retryable.
    StaleEpoch {
        /// The resuming client.
        client: ClientId,
        /// The epoch the quarantined session is at.
        expected: u64,
        /// The epoch the resume carried.
        got: u64,
    },
    /// A `Resume` arrived while the session's previous connection is
    /// still live — the server has not yet observed its death.
    /// Retryable: back off and resume again once the server reclaims
    /// the old connection.
    SessionActive(ClientId),
    /// The server shed the connection at admission — it is at capacity
    /// or the Alg. 2 reservation would oversubscribe the pool (v1.3).
    /// Retryable: wait at least the hinted duration, then reconnect.
    Busy {
        /// The shed client.
        client: ClientId,
        /// The server's load-aware reconnect hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// The peer answered with a v1.4 `Redirect`: the session lives (or
    /// will live) at `addr`, dial there instead. Placement steering,
    /// not a fault — routed drivers chase it without spending their
    /// retry budget.
    Redirected {
        /// The redirected client.
        client: ClientId,
        /// Where to dial next (`host:port`).
        addr: String,
        /// Minimum wait before dialing, in milliseconds (0 = now).
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Wire(e) => write!(f, "wire error: {e}"),
            ProtocolError::Timeout => write!(f, "deadline exceeded"),
            ProtocolError::Disconnected => write!(f, "peer disconnected"),
            ProtocolError::UnknownClient(c) => write!(f, "unknown client {c}"),
            ProtocolError::OutOfOrder(m) => write!(f, "protocol order violated: {m}"),
            ProtocolError::Rejected(m) => write!(f, "client rejected: {m}"),
            ProtocolError::Unexpected(m) => write!(f, "unexpected message: {m}"),
            ProtocolError::StaleEpoch {
                client,
                expected,
                got,
            } => write!(
                f,
                "stale resume for {client}: session is at epoch {expected}, resume carried {got}"
            ),
            ProtocolError::SessionActive(c) => {
                write!(f, "{c} still has a live connection; resume later")
            }
            ProtocolError::Busy {
                client,
                retry_after_ms,
            } => write!(
                f,
                "server busy: {client} shed at admission, retry after {retry_after_ms}ms"
            ),
            ProtocolError::Redirected {
                client,
                addr,
                retry_after_ms,
            } => write!(
                f,
                "redirected: {client} placed at {addr} (after {retry_after_ms}ms)"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => ProtocolError::Disconnected,
            _ => ProtocolError::Io(e),
        }
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e.into(),
            FrameError::Wire(e) => e.into(),
        }
    }
}

// ----------------------------------------------------------------------
// Typed messages ↔ wire bytes
// ----------------------------------------------------------------------

/// A protocol message with exactly one byte representation — the
/// bound every [`Transport`] endpoint type satisfies. Implemented by
/// [`ClientMessage`] and [`ServerMessage`] via the unified codec, which
/// works on `(header, body)` parts; the contiguous frame is derived
/// here and nowhere else.
pub trait WireMessage: Sized {
    /// Serializes to `(header, body)` parts. Tensor-bearing messages
    /// share their payload by reference instead of copying it into a
    /// contiguous frame — the zero-copy send path.
    fn to_wire_parts(&self) -> (Bytes, Bytes);
    /// Deserializes from `(header, body)` parts, enforcing `max_frame`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed frame.
    fn from_wire_parts(header: &[u8], body: &Bytes, max_frame: usize) -> Result<Self, WireError>;

    /// Serializes to the message's contiguous wire frame: header ‖
    /// body. For callers that store or script whole frames (a
    /// snapshot's cached reply, a `Resumed` replay, fault scripts).
    fn to_wire(&self) -> Bytes {
        let (header, body) = self.to_wire_parts();
        Bytes::from([&header[..], &body[..]].concat())
    }
    /// Deserializes from a contiguous wire frame by splitting it at the
    /// header boundary; accepts exactly what
    /// [`WireMessage::from_wire_parts`] accepts on the two halves.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed frame (a buffer shorter
    /// than a header is [`WireError::Truncated`]).
    fn from_wire(bytes: &Bytes, max_frame: usize) -> Result<Self, WireError> {
        let split = bytes.len().min(FRAME_HEADER_BYTES as usize);
        Self::from_wire_parts(&bytes[..split], &bytes.slice(split..), max_frame)
    }
}

impl WireMessage for ClientMessage {
    fn to_wire_parts(&self) -> (Bytes, Bytes) {
        client_message_parts(self)
    }
    fn from_wire_parts(header: &[u8], body: &Bytes, max_frame: usize) -> Result<Self, WireError> {
        decode_client_message_parts(header, body, max_frame)
    }
}

impl WireMessage for ServerMessage {
    fn to_wire_parts(&self) -> (Bytes, Bytes) {
        server_message_parts(self)
    }
    fn from_wire_parts(header: &[u8], body: &Bytes, max_frame: usize) -> Result<Self, WireError> {
        decode_server_message_parts(header, body, max_frame)
    }
}

// ----------------------------------------------------------------------
// Transport
// ----------------------------------------------------------------------

/// A blocking, bidirectional channel for typed protocol messages.
///
/// `Tx` is what this endpoint sends, `Rx` what it receives: a client
/// endpoint is `Transport<Tx = ClientMessage, Rx = ServerMessage>`, a
/// server endpoint the mirror image. Implementations move the
/// *encoded* bytes of each message, so all transports are
/// byte-for-byte interchangeable.
pub trait Transport {
    /// Message type this endpoint sends.
    type Tx: WireMessage;
    /// Message type this endpoint receives.
    type Rx: WireMessage;

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] if the peer is gone,
    /// [`ProtocolError::Timeout`] past the deadline, or a transport
    /// fault.
    fn send(&mut self, msg: &Self::Tx) -> Result<(), ProtocolError>;

    /// Receives the next message, blocking up to the configured
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Wire`] if the peer's bytes do not decode,
    /// [`ProtocolError::Timeout`] / [`ProtocolError::Disconnected`] /
    /// [`ProtocolError::Io`] on transport faults.
    fn recv(&mut self) -> Result<Self::Rx, ProtocolError>;

    /// Sets the per-operation deadline for subsequent sends and
    /// receives (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// Transport-specific; the in-memory transports never fail.
    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError>;
}

/// A borrowed endpoint is an endpoint, so a caller can lend a transport
/// to [`drive_client`](crate::drive_client) and read its counters
/// afterwards.
impl<T: Transport> Transport for &mut T {
    type Tx = T::Tx;
    type Rx = T::Rx;

    fn send(&mut self, msg: &Self::Tx) -> Result<(), ProtocolError> {
        (**self).send(msg)
    }

    fn recv(&mut self) -> Result<Self::Rx, ProtocolError> {
        (**self).recv()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError> {
        (**self).set_deadline(deadline)
    }
}

/// In-memory transport endpoint: encoded frames over a pair of
/// `std::sync::mpsc` channels. The cheapest way to connect a client
/// and a server in one process — tests, benchmarks, and the
/// byte-identity harness all use it.
///
/// Frames travel as `(header, body)` parts so tensor payloads move by
/// `Bytes` refcount, never by copy.
pub struct ChannelTransport<Tx, Rx> {
    tx: mpsc::Sender<(Bytes, Bytes)>,
    rx: mpsc::Receiver<(Bytes, Bytes)>,
    deadline: Option<Duration>,
    max_frame: usize,
    _marker: PhantomData<fn(Tx) -> Rx>,
}

/// Creates a connected in-memory transport pair:
/// `(client endpoint, server endpoint)`.
pub fn channel_pair() -> (
    ChannelTransport<ClientMessage, ServerMessage>,
    ChannelTransport<ServerMessage, ClientMessage>,
) {
    let (to_server, from_client) = mpsc::channel();
    let (to_client, from_server) = mpsc::channel();
    (
        ChannelTransport {
            tx: to_server,
            rx: from_server,
            deadline: None,
            max_frame: DEFAULT_MAX_FRAME,
            _marker: PhantomData,
        },
        ChannelTransport {
            tx: to_client,
            rx: from_client,
            deadline: None,
            max_frame: DEFAULT_MAX_FRAME,
            _marker: PhantomData,
        },
    )
}

impl<Tx: WireMessage, Rx: WireMessage> ChannelTransport<Tx, Rx> {
    /// Nonblocking receive: decodes the next already-delivered message,
    /// if any. The event-driven server polls its channel connections
    /// with this instead of parking a thread in [`Transport::recv`].
    pub(crate) fn try_recv(&mut self) -> Result<Option<Rx>, ProtocolError> {
        match self.rx.try_recv() {
            Ok((header, body)) => Ok(Some(Rx::from_wire_parts(&header, &body, self.max_frame)?)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }

    /// Sends pre-encoded frame parts without re-serializing. The sim
    /// transport uses this after charging its link for the same parts.
    pub(crate) fn send_parts(&mut self, header: Bytes, body: Bytes) -> Result<(), ProtocolError> {
        self.tx
            .send((header, body))
            .map_err(|_| ProtocolError::Disconnected)
    }
}

impl<Tx: WireMessage, Rx: WireMessage> Transport for ChannelTransport<Tx, Rx> {
    type Tx = Tx;
    type Rx = Rx;

    fn send(&mut self, msg: &Tx) -> Result<(), ProtocolError> {
        let (header, body) = msg.to_wire_parts();
        self.send_parts(header, body)
    }

    fn recv(&mut self) -> Result<Rx, ProtocolError> {
        let (header, body) = match self.deadline {
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => ProtocolError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => ProtocolError::Disconnected,
            })?,
            None => self.rx.recv().map_err(|_| ProtocolError::Disconnected)?,
        };
        Ok(Rx::from_wire_parts(&header, &body, self.max_frame)?)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError> {
        self.deadline = deadline;
        Ok(())
    }
}

/// A [`ChannelTransport`] timed by a [`WanLink`]: every send charges
/// the link for the frame's exact byte size and advances a virtual
/// clock shared by both endpoints. This is the DES-facing transport —
/// protocol traffic acquires the same deterministic-but-jittered
/// transfer times the analytic runtime charges, while still moving
/// real bytes through the unified codec.
pub struct SimTransport<Tx, Rx> {
    inner: ChannelTransport<Tx, Rx>,
    link: Arc<Mutex<WanLink>>,
    clock: Arc<Mutex<Nanos>>,
}

/// Creates a connected simulated-WAN pair `(client, server)` with a
/// shared virtual clock. `uplink` times client→server frames,
/// `downlink` the reverse path.
pub fn sim_pair(
    uplink: WanLink,
    downlink: WanLink,
) -> (
    SimTransport<ClientMessage, ServerMessage>,
    SimTransport<ServerMessage, ClientMessage>,
) {
    let (client, server) = channel_pair();
    let clock = Arc::new(Mutex::new(Nanos(0)));
    (
        SimTransport {
            inner: client,
            link: Arc::new(Mutex::new(uplink)),
            clock: clock.clone(),
        },
        SimTransport {
            inner: server,
            link: Arc::new(Mutex::new(downlink)),
            clock,
        },
    )
}

impl<Tx, Rx> SimTransport<Tx, Rx> {
    /// Virtual time accumulated by both directions so far.
    pub fn elapsed(&self) -> Nanos {
        *self.clock.lock().expect("clock lock")
    }

    /// `(bytes, messages)` charged to this endpoint's outgoing link.
    pub fn link_stats(&self) -> (u64, u64) {
        self.link.lock().expect("link lock").stats()
    }
}

impl<Tx: WireMessage, Rx: WireMessage> SimTransport<Tx, Rx> {
    /// Nonblocking receive — see [`ChannelTransport::try_recv`].
    /// Receiving consumes no virtual time (the link was charged at
    /// send time), exactly as in the blocking path.
    pub(crate) fn try_recv(&mut self) -> Result<Option<Rx>, ProtocolError> {
        self.inner.try_recv()
    }
}

impl<Tx: WireMessage, Rx: WireMessage> Transport for SimTransport<Tx, Rx> {
    type Tx = Tx;
    type Rx = Rx;

    fn send(&mut self, msg: &Tx) -> Result<(), ProtocolError> {
        // Encode once: the same parts are charged to the link and then
        // handed to the channel (tensor bodies move by refcount).
        let (header, body) = msg.to_wire_parts();
        let bytes = (header.len() + body.len()) as u64;
        let t = self.link.lock().expect("link lock").transfer_time(bytes);
        let mut clock = self.clock.lock().expect("clock lock");
        *clock = clock.checked_add(t).expect("virtual clock overflow");
        drop(clock);
        self.inner.send_parts(header, body)
    }

    fn recv(&mut self) -> Result<Rx, ProtocolError> {
        self.inner.recv()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError> {
        self.inner.set_deadline(deadline)
    }
}

// ----------------------------------------------------------------------
// The server state machine surface
// ----------------------------------------------------------------------

/// The server side of Algorithm 1 as seen by a transport: one message
/// in, at most one reply out. `menos-core`'s `MenosServer` is the
/// full multi-client implementation (admission control, profiling,
/// shared-base registry); [`SessionHandler`] is the single-session
/// variant the in-process tests use.
/// [`ServerEventLoop`](crate::ServerEventLoop) drives either — transports
/// never interpret protocol state themselves.
pub trait MessageHandler {
    /// Dispatches one client message, returning the reply to send (if
    /// any).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] scoped to the offending client; handler state
    /// for other clients must be unaffected.
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError>;

    /// The pump lost `client`'s connection without a clean
    /// `Disconnect` — a transport fault, a deadline, or an eviction.
    ///
    /// The default synthesizes a `Disconnect`, reclaiming the session
    /// outright (the pre-lifecycle behaviour). Handlers that support
    /// reconnection override this to *quarantine* the session instead:
    /// its memory reservations are released, but adapter and optimizer
    /// state is parked for a `Resume`.
    fn connection_lost(&mut self, client: ClientId) {
        let _ = self.handle(ClientMessage::Disconnect { client });
    }

    /// Drops quarantined sessions idle for longer than `max_idle`,
    /// returning the expired clients. Handlers without a quarantine
    /// have nothing to expire.
    fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        let _ = max_idle;
        Vec::new()
    }

    /// Serializes the handler's full durable state for a snapshot, or
    /// `None` if the handler has nothing durable (the default). The
    /// event loop calls this under its snapshot policy; handlers that
    /// support restart-recovery (the `menos-core` server) override it.
    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// True while the handler wants the pump to prefer draining
    /// existing work over admitting new connections — e.g. GPU pool
    /// utilization past a watermark. Purely advisory load shedding:
    /// deferred peers wait in the listener backlog, nothing is
    /// dropped. The default never reports pressure.
    fn under_pressure(&mut self) -> bool {
        false
    }
}

/// Shared handlers: the pump dispatches through the lock, so a caller
/// holding another `Arc` can read the handler while the loop runs.
impl<H: MessageHandler> MessageHandler for Arc<Mutex<H>> {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        self.lock()
            .map_err(|_| ProtocolError::Unexpected("handler lock poisoned".into()))?
            .handle(msg)
    }

    fn connection_lost(&mut self, client: ClientId) {
        if let Ok(mut h) = self.lock() {
            h.connection_lost(client);
        }
    }

    fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        match self.lock() {
            Ok(mut h) => h.expire_idle(max_idle),
            Err(_) => Vec::new(),
        }
    }

    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        match self.lock() {
            Ok(mut h) => h.snapshot_bytes(),
            Err(_) => None,
        }
    }

    fn under_pressure(&mut self) -> bool {
        match self.lock() {
            Ok(mut h) => h.under_pressure(),
            Err(_) => false,
        }
    }
}

/// Executes one forward or backward step of Algorithm 1 against a
/// session — the single place where protocol messages meet tensor
/// compute. Every handler (the `menos-core` server, the in-process
/// driver, [`SessionHandler`]) delegates here.
///
/// Tensor geometry is peer input: it is checked against what the
/// session was admitted for *before* the session is touched, so a
/// refused frame leaves the step completable by a correct one.
///
/// # Errors
///
/// [`ProtocolError::Wire`] if the tensor payload does not decode;
/// [`ProtocolError::Rejected`] for activations outside the admitted
/// `[batch, seq, hidden]` geometry or gradients shaped unlike the
/// forward they answer; [`ProtocolError::OutOfOrder`] for gradients
/// without a preceding forward, or for control messages (which belong
/// to the session's owner, not the session).
pub fn dispatch_session(
    session: &mut ServerSession,
    mode: ForwardMode,
    msg: &ClientMessage,
) -> Result<ServerMessage, ProtocolError> {
    match msg {
        ClientMessage::Activations { client, frame } => {
            let x_c = session.codec().decode(frame)?;
            check_admitted_geometry(session, x_c.dims())?;
            let x_s = match mode {
                ForwardMode::Cached => session.forward_cached(&x_c),
                ForwardMode::NoGradReforward => session.forward_nograd(&x_c),
            };
            Ok(ServerMessage::ServerActivations {
                client: *client,
                frame: session
                    .codec_mut()
                    .encode(menos_net::ROLE_ACTIVATIONS, &x_s),
            })
        }
        ClientMessage::Gradients { client, frame } => {
            let g_c = session.codec().decode(frame)?;
            let forward = session.forward_dims().ok_or_else(|| {
                ProtocolError::OutOfOrder("gradients received before activations".into())
            })?;
            if g_c.dims() != forward {
                return Err(ProtocolError::Rejected(format!(
                    "{client} sent gradients shaped {:?} for a forward shaped {forward:?}",
                    g_c.dims()
                )));
            }
            let g_s = session.backward(&g_c);
            Ok(ServerMessage::ServerGradients {
                client: *client,
                frame: session.codec_mut().encode(menos_net::ROLE_GRADIENTS, &g_s),
            })
        }
        ClientMessage::Connect { .. }
        | ClientMessage::Resume { .. }
        | ClientMessage::Disconnect { .. }
        | ClientMessage::Ping { .. }
        | ClientMessage::ImportSession { .. } => Err(ProtocolError::OutOfOrder(
            "control message routed to a bound session".into(),
        )),
    }
}

/// Refuses activations the session was not profiled for at `Connect`:
/// anything but `[b, s, hidden]` with `0 < b ≤ batch_size` and
/// `0 < s ≤ seq_len`. A wrong hidden width would panic inside the
/// first layer norm; a larger batch or sequence would run outside the
/// session's Algorithm-2 reservation.
fn check_admitted_geometry(session: &ServerSession, dims: &[usize]) -> Result<(), ProtocolError> {
    let ft = session.ft_config();
    let hidden = session.model().config.hidden;
    match *dims {
        [b, s, h]
            if h == hidden && (1..=ft.batch_size).contains(&b) && (1..=ft.seq_len).contains(&s) =>
        {
            Ok(())
        }
        _ => Err(ProtocolError::Rejected(format!(
            "{} sent activations shaped {dims:?}; admitted for at most [{}, {}, {hidden}]",
            session.client(),
            ft.batch_size,
            ft.seq_len
        ))),
    }
}

/// A [`MessageHandler`] over one pre-built [`ServerSession`] — the
/// minimal server for single-client transports and tests. `Connect`
/// must name the session's client; `Disconnect` drops the session
/// (reclaiming its memory); tensor messages go through
/// [`dispatch_session`].
pub struct SessionHandler {
    session: Option<ServerSession>,
    mode: ForwardMode,
}

impl SessionHandler {
    /// Wraps a session built for one client.
    pub fn new(session: ServerSession, mode: ForwardMode) -> Self {
        SessionHandler {
            session: Some(session),
            mode,
        }
    }

    /// The session, if not yet disconnected.
    pub fn session(&self) -> Option<&ServerSession> {
        self.session.as_ref()
    }
}

impl MessageHandler for SessionHandler {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        // Heartbeats are answered regardless of session binding: a
        // monitor probes liveness, not a particular session.
        if let ClientMessage::Ping { client, seq } = msg {
            return Ok(Some(ServerMessage::Pong {
                client,
                seq,
                live_sessions: u64::from(self.session.is_some()),
                utilization_pct: 0,
            }));
        }
        let bound = self
            .session
            .as_ref()
            .map(|s| s.client())
            .ok_or_else(|| ProtocolError::UnknownClient(msg.client()))?;
        if msg.client() != bound {
            return Err(ProtocolError::UnknownClient(msg.client()));
        }
        match msg {
            ClientMessage::Connect { client, codecs, .. } => {
                let codec = menos_net::negotiate(codecs, menos_net::supported_codec_mask());
                let session = self.session.as_mut().expect("checked above");
                session.set_codec(codec);
                Ok(Some(ServerMessage::Ready { client, codec }))
            }
            ClientMessage::Disconnect { .. } => {
                self.session = None;
                Ok(None)
            }
            ClientMessage::ImportSession { .. } => Err(ProtocolError::Unexpected(
                "single-session handler cannot import sessions".into(),
            )),
            tensor_msg => {
                let session = self.session.as_mut().expect("checked above");
                dispatch_session(session, self.mode, &tensor_msg).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SplitClient;
    use crate::event_loop::{
        event_channel_listener, event_sim_listener, EventLoopOptions, ServerEventLoop,
    };
    use crate::retry::{already_connected, drive_client, RetryPolicy};
    use menos_adapters::FineTuneConfig;
    use menos_data::{wiki_corpus, TokenDataset, Vocab};
    use menos_models::{CausalLm, ModelConfig};
    use menos_sim::seeded_rng;

    fn pair(seed: u64) -> (SplitClient, ServerSession) {
        let text = wiki_corpus(5, 4000);
        let vocab = Vocab::from_text(&text);
        let cfg = ModelConfig::tiny_opt(33);
        let mut rng = seeded_rng(100, "protocol-test");
        let ps = menos_models::init_params(&cfg, &mut rng);
        let ds = TokenDataset::new(vocab.encode(&text), 16, 5);
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.batch_size = 2;
        ft.seq_len = 16;
        let split = crate::spec::SplitSpec::paper();
        let client = SplitClient::new(
            ClientId(0),
            CausalLm::bind(&cfg, &ps.shared_view(false)),
            split,
            ft.clone(),
            ds,
            seed,
        );
        let session = ServerSession::new(
            ClientId(0),
            CausalLm::bind(&cfg, &ps.shared_view(false)),
            split,
            &ft,
            seed,
        );
        (client, session)
    }

    fn one_client() -> EventLoopOptions {
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        }
    }

    #[test]
    fn channel_transport_trains_through_the_event_loop() {
        let (mut client, session) = pair(1);
        let (dialer, listener) = event_channel_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let server = ServerEventLoop::new(listener, handler, one_client());
        let server = std::thread::spawn(move || server.run());
        let none = RetryPolicy::none();
        let curve =
            drive_client(&mut client, |_| dialer.dial(), 3, &none).expect("channel training");
        assert_eq!(curve.points().len(), 3);
        let (handler, stats) = server.join().expect("server thread");
        assert_eq!((stats.served, stats.conn_errors), (1, 0), "clean serve");
        assert!(
            handler.session().is_none(),
            "disconnect must release the session"
        );
    }

    #[test]
    fn sim_transport_charges_virtual_time_for_exact_bytes() {
        let (mut client, session) = pair(2);
        let (dialer, listener) = event_sim_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let server = ServerEventLoop::new(listener, handler, one_client());
        let server = std::thread::spawn(move || server.run());
        let mut client_t = dialer
            .dial(WanLink::lan(1), WanLink::lan(2))
            .expect("dial the loop");
        let clock = client_t.clock.clone();
        let none = RetryPolicy::none();
        drive_client(&mut client, already_connected(&mut client_t), 2, &none)
            .expect("sim training");
        let (_handler, stats) = server.join().expect("server thread");
        assert_eq!((stats.served, stats.conn_errors), (1, 0), "clean serve");
        let elapsed = *clock.lock().unwrap();
        assert!(elapsed > Nanos(0), "transfers must advance virtual time");
        let (bytes, msgs) = client_t.link_stats();
        // Connect + 2*(activations + gradients) + disconnect = 6 uplink messages.
        assert_eq!(msgs, 6);
        assert!(bytes > 0);
    }

    #[test]
    fn channel_deadline_times_out() {
        let (mut client_t, _server_t) = channel_pair();
        client_t
            .set_deadline(Some(Duration::from_millis(10)))
            .unwrap();
        // Server endpoint alive but silent → Timeout (not Disconnected).
        let err = client_t.recv().unwrap_err();
        assert!(matches!(err, ProtocolError::Timeout));
    }

    #[test]
    fn dropped_peer_is_disconnected() {
        let (mut client_t, server_t) = channel_pair();
        drop(server_t);
        assert!(matches!(
            client_t.recv().unwrap_err(),
            ProtocolError::Disconnected
        ));
        let err = client_t
            .send(&ClientMessage::Disconnect {
                client: ClientId(0),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Disconnected));
    }

    #[test]
    fn session_handler_rejects_foreign_client() {
        let (_client, session) = pair(3);
        let mut handler = SessionHandler::new(session, ForwardMode::Cached);
        let err = handler
            .handle(ClientMessage::Disconnect {
                client: ClientId(9),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownClient(ClientId(9))));
    }

    #[test]
    fn error_display_and_source() {
        let e = ProtocolError::Wire(WireError::Truncated);
        assert!(e.to_string().contains("wire error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ProtocolError::Timeout.to_string().contains("deadline"));
        assert!(ProtocolError::UnknownClient(ClientId(4))
            .to_string()
            .contains("client-4"));
        let stale = ProtocolError::StaleEpoch {
            client: ClientId(4),
            expected: 2,
            got: 1,
        };
        assert!(stale.to_string().contains("epoch 2"), "{stale}");
        assert!(ProtocolError::SessionActive(ClientId(4))
            .to_string()
            .contains("live connection"));
        let busy = ProtocolError::Busy {
            client: ClientId(4),
            retry_after_ms: 125,
        };
        assert!(busy.to_string().contains("retry after 125ms"), "{busy}");
        let redirected = ProtocolError::Redirected {
            client: ClientId(4),
            addr: "10.0.0.3:4400".into(),
            retry_after_ms: 5,
        };
        assert!(
            redirected.to_string().contains("10.0.0.3:4400"),
            "{redirected}"
        );
    }

    #[test]
    fn session_handler_answers_ping_without_a_binding() {
        let (_client, session) = pair(7);
        let mut handler = SessionHandler::new(session, ForwardMode::Cached);
        // Any client id may probe; the reply reports one live session.
        match handler
            .handle(ClientMessage::Ping {
                client: ClientId(99),
                seq: 12,
            })
            .expect("ping is always answered")
        {
            Some(ServerMessage::Pong {
                client,
                seq,
                live_sessions,
                ..
            }) => {
                assert_eq!(client, ClientId(99));
                assert_eq!(seq, 12);
                assert_eq!(live_sessions, 1);
            }
            other => panic!("expected Pong, got {other:?}"),
        }
    }

    #[test]
    fn io_error_kinds_map_to_typed_variants() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            ProtocolError::from(Error::new(ErrorKind::TimedOut, "t")),
            ProtocolError::Timeout
        ));
        assert!(matches!(
            ProtocolError::from(Error::new(ErrorKind::UnexpectedEof, "e")),
            ProtocolError::Disconnected
        ));
        assert!(matches!(
            ProtocolError::from(Error::other("o")),
            ProtocolError::Io(_)
        ));
    }
}
