//! The transport-agnostic protocol core: one error hierarchy, one
//! [`Transport`] abstraction, and the server state-machine surface.
//!
//! Both execution paths — in-process channels (free or timed by a
//! simulated WAN link) and real TCP sockets — move the *same encoded
//! bytes* (the unified codec in [`crate::codec`]) through the same
//! state machine:
//!
//! * [`drive_client`](crate::drive_client) is the only client-side
//!   protocol loop (it lives with its retry policy in `retry`);
//! * [`ServerEventLoop`](crate::ServerEventLoop) is the only
//!   server-side pump, feeding messages to a [`MessageHandler`] (the
//!   real-engine `MenosServer` in `menos-core`, or the fleet
//!   coordinator's control plane in `menos-fleet`);
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

/// The virtual network one in-process connection runs over, shared by
/// its two endpoints: a [`WanLink`] per direction, each with its own
/// jitter stream and `(bytes, messages)` counters, and one clock that
/// every send advances by the link's transfer time. A plain channel is
/// the same record with two free links.
struct Link {
    /// `[uplink, downlink]`: client→server, then server→client.
    dirs: [WanLink; 2],
    clock: Nanos,
}

/// A link that charges nothing: zero latency, unlimited bandwidth, no
/// jitter.
pub(crate) fn free_link() -> WanLink {
    WanLink::new(Nanos(0), f64::INFINITY, 0.0, 0)
}

/// In-memory transport endpoint: encoded frames over a pair of
/// `std::sync::mpsc` channels, timed by a [`WanLink`] per direction.
/// Every send charges its direction's link for the frame's exact byte
/// size and advances the virtual clock both endpoints share, so the
/// same endpoint serves as a zero-cost channel (tests, the byte-identity
/// harness) and as a simulated WAN (`exp_serve`'s codec study).
///
/// Frames travel as `(header, body)` parts so tensor payloads move by
/// `Bytes` refcount, never by copy.
pub struct ChannelTransport<Tx, Rx> {
    tx: mpsc::Sender<(Bytes, Bytes)>,
    rx: mpsc::Receiver<(Bytes, Bytes)>,
    deadline: Option<Duration>,
    max_frame: usize,
    link: Arc<Mutex<Link>>,
    /// The index in [`Link::dirs`] this endpoint sends on.
    dir: usize,
    _marker: PhantomData<fn(Tx) -> Rx>,
}

/// Creates a connected in-memory transport pair
/// `(client endpoint, server endpoint)`: `uplink` times client→server
/// frames, `downlink` the reverse path.
pub(crate) fn channel_pair(
    uplink: WanLink,
    downlink: WanLink,
) -> (
    ChannelTransport<ClientMessage, ServerMessage>,
    ChannelTransport<ServerMessage, ClientMessage>,
) {
    let (to_server, from_client) = mpsc::channel();
    let (to_client, from_server) = mpsc::channel();
    let link = Arc::new(Mutex::new(Link {
        dirs: [uplink, downlink],
        clock: Nanos(0),
    }));
    (
        ChannelTransport::new(to_server, from_server, link.clone(), 0),
        ChannelTransport::new(to_client, from_client, link, 1),
    )
}

impl<Tx, Rx> ChannelTransport<Tx, Rx> {
    fn new(
        tx: mpsc::Sender<(Bytes, Bytes)>,
        rx: mpsc::Receiver<(Bytes, Bytes)>,
        link: Arc<Mutex<Link>>,
        dir: usize,
    ) -> Self {
        ChannelTransport {
            tx,
            rx,
            deadline: None,
            max_frame: DEFAULT_MAX_FRAME,
            link,
            dir,
            _marker: PhantomData,
        }
    }

    /// Virtual time both directions have charged so far.
    pub fn elapsed(&self) -> Nanos {
        self.link.lock().expect("link lock").clock
    }

    /// `[uplink, downlink]` `(bytes, messages)`: what each direction of
    /// this connection has charged, readable from either end.
    pub fn link_stats(&self) -> [(u64, u64); 2] {
        self.link
            .lock()
            .expect("link lock")
            .dirs
            .each_ref()
            .map(WanLink::stats)
    }
}

impl<Tx: WireMessage, Rx: WireMessage> ChannelTransport<Tx, Rx> {
    /// Nonblocking receive: decodes the next already-delivered message,
    /// if any. The event-driven server polls its channel connections
    /// with this instead of parking a thread in [`Transport::recv`].
    /// Receiving consumes no virtual time: the link was charged at send
    /// time.
    pub(crate) fn try_recv(&mut self) -> Result<Option<Rx>, ProtocolError> {
        match self.rx.try_recv() {
            Ok((header, body)) => Ok(Some(Rx::from_wire_parts(&header, &body, self.max_frame)?)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ProtocolError::Disconnected),
        }
    }
}

impl<Tx: WireMessage, Rx: WireMessage> Transport for ChannelTransport<Tx, Rx> {
    type Tx = Tx;
    type Rx = Rx;

    fn send(&mut self, msg: &Tx) -> Result<(), ProtocolError> {
        // Encode once: the same parts are charged to the link and then
        // handed to the channel (tensor bodies move by refcount).
        let (header, body) = msg.to_wire_parts();
        let bytes = (header.len() + body.len()) as u64;
        {
            let mut link = self.link.lock().expect("link lock");
            let t = link.dirs[self.dir].transfer_time(bytes);
            link.clock = link.clock.checked_add(t).expect("virtual clock overflow");
        }
        self.tx
            .send((header, body))
            .map_err(|_| ProtocolError::Disconnected)
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

// ----------------------------------------------------------------------
// The server state machine surface
// ----------------------------------------------------------------------

/// The server side of Algorithm 1 as seen by a transport: one message
/// in, at most one reply out. `menos-core`'s `MenosServer` is the
/// training server (admission control, profiling, shared-base
/// registry); `menos-fleet`'s coordinator answers the control messages
/// of a fleet. [`ServerEventLoop`](crate::ServerEventLoop) drives
/// either — transports never interpret protocol state themselves.
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
/// compute. The `menos-core` server and the in-process driver both
/// delegate here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{event_channel_listener, EventLoopOptions, ServerEventLoop};
    use crate::retry::{already_connected, drive_client, RetryPolicy};
    use crate::testkit::{self, EchoHandler};

    fn one_client() -> EventLoopOptions {
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        }
    }

    #[test]
    fn channel_transport_trains_through_the_event_loop() {
        let mut client = testkit::client(1);
        let (dialer, listener) = event_channel_listener();
        let server = ServerEventLoop::new(listener, EchoHandler::default(), one_client());
        let server = std::thread::spawn(move || server.run());
        let none = RetryPolicy::none();
        let curve =
            drive_client(&mut client, |_| dialer.dial(), 3, &none).expect("channel training");
        assert_eq!(curve.points().len(), 3);
        let (_handler, stats) = server.join().expect("server thread");
        assert_eq!((stats.served, stats.conn_errors), (1, 0), "clean serve");
    }

    /// Both ends read one link record: the client endpoint sees the
    /// downlink the server end charged as well as its own uplink, and a
    /// free link charges bytes but no time.
    #[test]
    fn channel_links_charge_virtual_time_for_exact_bytes() {
        let mut client = testkit::client(2);
        let (dialer, listener) = event_channel_listener();
        let server = ServerEventLoop::new(listener, EchoHandler::default(), one_client());
        let server = std::thread::spawn(move || server.run());
        let mut client_t = dialer
            .dial_over(WanLink::lan(1), WanLink::lan(2))
            .expect("dial the loop");
        let none = RetryPolicy::none();
        drive_client(&mut client, already_connected(&mut client_t), 2, &none)
            .expect("linked training");
        let (_handler, stats) = server.join().expect("server thread");
        assert_eq!((stats.served, stats.conn_errors), (1, 0), "clean serve");
        assert!(
            client_t.elapsed() > Nanos(0),
            "transfers advance virtual time"
        );
        let [(up_bytes, up_msgs), (down_bytes, down_msgs)] = client_t.link_stats();
        // Connect + 2*(activations + gradients) + Disconnect up; Ready +
        // 2*(activations + gradients) down. The echo returns each tensor
        // frame unchanged, so the tensor bytes match in both directions.
        assert_eq!((up_msgs, down_msgs), (6, 5));
        let connect = testkit::connect_msg(0).to_wire().len() as u64;
        let disconnect = ClientMessage::Disconnect {
            client: ClientId(0),
        };
        let ready = ServerMessage::Ready {
            client: ClientId(0),
            codec: menos_net::Codec::F32Raw,
        };
        assert_eq!(
            up_bytes - connect - disconnect.to_wire().len() as u64,
            down_bytes - ready.to_wire().len() as u64
        );

        let (mut free, _server_end) = channel_pair(free_link(), free_link());
        free.send(&disconnect).unwrap();
        assert_eq!(free.elapsed(), Nanos(0), "a free link costs no time");
        assert_eq!(free.link_stats()[0], (disconnect.to_wire().len() as u64, 1));
    }

    #[test]
    fn channel_deadline_times_out() {
        let (mut client_t, _server_t) = channel_pair(free_link(), free_link());
        client_t
            .set_deadline(Some(Duration::from_millis(10)))
            .unwrap();
        // Server endpoint alive but silent → Timeout (not Disconnected).
        let err = client_t.recv().unwrap_err();
        assert!(matches!(err, ProtocolError::Timeout));
    }

    #[test]
    fn dropped_peer_is_disconnected() {
        let (mut client_t, server_t) = channel_pair(free_link(), free_link());
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
