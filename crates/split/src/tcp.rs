//! TCP framing for the split fine-tuning protocol.
//!
//! This module contains **no protocol logic**: it is a blocking
//! [`Transport`] over `std::net::TcpStream` for the client side, and a
//! nonblocking [`EventConn`] / [`EventListener`] pair for the server
//! side. Message bytes come from the unified codec ([`crate::codec`]),
//! the client loop is [`drive_client`], and the server loop is the
//! [`ServerEventLoop`] feeding a [`BatchHandler`] — the same state
//! machines every other transport drives.
//!
//! Robustness: each frame header is validated (version, magic,
//! declared length vs a configurable cap) before any payload
//! allocation, client endpoints carry read/write deadlines, and a
//! failing connection hands its session to the loop's lost-connection
//! path — other clients keep training.

use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use menos_data::LossCurve;
use menos_net::{read_frame_bytes, FrameAccumulator, WriteQueue, DEFAULT_MAX_FRAME};

use crate::client::SplitClient;
use crate::event_loop::{
    BatchHandler, EventConn, EventListener, EventLoopOptions, EventLoopStats, ServerEventLoop,
    SnapshotPolicy,
};
use crate::message::{ClientMessage, ServerMessage};
use crate::protocol::{ProtocolError, Transport, WireMessage};
use crate::retry::{drive_client, RetryPolicy};

/// Tuning knobs for TCP endpoints.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Largest payload a peer may declare (frames above this are
    /// rejected before allocation). A *protocol* limit: both ends must
    /// agree on it.
    pub max_frame: usize,
    /// Per-operation read/write deadline (`None` blocks forever).
    pub io_timeout: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            max_frame: DEFAULT_MAX_FRAME,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A [`Transport`] over one TCP stream. The client side is
/// `TcpTransport<ClientMessage, ServerMessage>`; the server side is
/// the mirror image.
pub struct TcpTransport<Tx, Rx> {
    stream: TcpStream,
    max_frame: usize,
    _marker: PhantomData<fn(Tx) -> Rx>,
}

impl TcpTransport<ClientMessage, ServerMessage> {
    /// Connects a client endpoint to a listening server.
    ///
    /// # Errors
    ///
    /// Fails if the address does not resolve or the connection is
    /// refused.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let options = TcpOptions::default();
        let mut transport = TcpTransport {
            stream,
            max_frame: options.max_frame,
            _marker: PhantomData,
        };
        transport.set_deadline(options.io_timeout)?;
        Ok(transport)
    }
}

impl<Tx: WireMessage, Rx: WireMessage> Transport for TcpTransport<Tx, Rx> {
    type Tx = Tx;
    type Rx = Rx;

    fn send(&mut self, msg: &Tx) -> Result<(), ProtocolError> {
        use std::io::Write;
        // Header and body go out in one vectored write; the tensor
        // body is the encoder's buffer shared by reference, so no
        // contiguous frame copy is ever built.
        let (header, body) = msg.to_wire_parts();
        menos_net::write_frame_vectored(&mut self.stream, &header, &body)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Rx, ProtocolError> {
        let frame = read_frame_bytes(&mut self.stream, self.max_frame)?;
        Ok(Rx::from_wire(&frame, self.max_frame)?)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError> {
        self.stream.set_read_timeout(deadline)?;
        self.stream.set_write_timeout(deadline)?;
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Nonblocking TCP for the server
// ----------------------------------------------------------------------

/// One nonblocking TCP connection as seen by the event loop: a
/// [`FrameAccumulator`] reassembles inbound fragments into the exact
/// frames a blocking reader would produce, and a [`WriteQueue`]
/// resumes outbound frames wherever the socket stopped accepting
/// bytes — even mid-header.
pub struct TcpEventConn {
    stream: TcpStream,
    acc: FrameAccumulator,
    writes: WriteQueue,
    max_frame: usize,
}

impl TcpEventConn {
    /// Wraps an accepted stream, switching it to nonblocking mode.
    fn from_stream(stream: TcpStream, options: TcpOptions) -> Result<Self, ProtocolError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpEventConn {
            stream,
            acc: FrameAccumulator::new(options.max_frame),
            writes: WriteQueue::new(),
            max_frame: options.max_frame,
        })
    }
}

impl EventConn for TcpEventConn {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        use std::io::Read;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: surface buffered messages now, the
                    // disconnect on the next sweep.
                    return if out.is_empty() {
                        Err(ProtocolError::Disconnected)
                    } else {
                        Ok(())
                    };
                }
                Ok(n) => {
                    for frame in self.acc.push(&buf[..n])? {
                        out.push(ClientMessage::from_wire(&frame, self.max_frame)?);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        let (header, body) = msg.to_wire_parts();
        self.writes.push_frame(header, body);
        self.flush().map(|_| ())
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        // write_to swallows WouldBlock (returns Ok(false)); any error
        // it surfaces is fatal to the connection.
        Ok(self.writes.write_to(&mut self.stream)?)
    }

    fn has_queued_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    fn queued_write_bytes(&self) -> u64 {
        self.writes.queued_bytes() as u64
    }
}

/// A nonblocking accept source feeding [`TcpEventConn`]s to a
/// [`ServerEventLoop`].
pub struct TcpEventListener {
    listener: TcpListener,
    options: TcpOptions,
    addr: std::net::SocketAddr,
}

impl TcpEventListener {
    /// Binds to `addr` (port 0 for ephemeral) in nonblocking mode.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, options: TcpOptions) -> Result<Self, ProtocolError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpEventListener {
            listener,
            options,
            addr,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl EventListener for TcpEventListener {
    type Conn = TcpEventConn;

    fn poll_accept(&mut self) -> Result<Option<TcpEventConn>, ProtocolError> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(TcpEventConn::from_stream(stream, self.options)?)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// The TCP server: ONE thread runs a [`ServerEventLoop`] over a
/// nonblocking listener, multiplexing every client's connection and
/// handing each sweep's ready messages to the handler, which serves
/// them one after another. The loop owns the handler and returns it
/// from [`join`](TcpEventServer::join); pass an `Arc<Mutex<_>>` only to
/// read it while the loop runs.
pub struct TcpEventServer<H> {
    addr: std::net::SocketAddr,
    handle: Option<JoinHandle<(H, EventLoopStats)>>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
}

impl<H> TcpEventServer<H>
where
    H: BatchHandler + Send + 'static,
{
    /// Binds to `addr` and starts the loop thread. `options` bounds
    /// the run ([`EventLoopOptions::accept_limit`] connections are
    /// served before the loop exits); `tcp` sets per-connection frame
    /// caps.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        Self::spawn_inner(addr, handler, options, tcp, None)
    }

    /// [`TcpEventServer::spawn`] with durable-state snapshots: the
    /// loop persists the handler's state per `policy` (see
    /// [`SnapshotPolicy`] for the cadence and the atomic-write
    /// guarantee), including a final snapshot at shutdown.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn spawn_with_snapshots(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
        policy: SnapshotPolicy,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        Self::spawn_inner(addr, handler, options, tcp, Some(policy))
    }

    fn spawn_inner(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
        policy: Option<SnapshotPolicy>,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        let listener = TcpEventListener::bind(addr, tcp)?;
        let addr = listener.addr();
        let mut event_loop = ServerEventLoop::new(listener, handler, options);
        if let Some(policy) = policy {
            event_loop = event_loop.with_snapshots(policy);
        }
        let shutdown = event_loop.shutdown_handle();
        let handle = std::thread::spawn(move || event_loop.run());
        Ok(TcpEventServer {
            addr,
            handle: Some(handle),
            shutdown,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Waits for the loop to finish, returning the handler and the
    /// run's counters.
    pub fn join(mut self) -> Option<(H, EventLoopStats)> {
        self.handle.take().and_then(|h| h.join().ok())
    }

    /// Stops the loop at its next sweep (live sessions are handed to
    /// the lost-connection path first) and waits for it, as
    /// [`join`](TcpEventServer::join) does.
    pub fn shutdown(self) -> Option<(H, EventLoopStats)> {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.join()
    }
}

impl<H> Drop for TcpEventServer<H> {
    fn drop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Runs `steps` split fine-tuning iterations against the TCP server or
/// fleet coordinator at `addr`, returning the loss curve: shorthand for
/// [`drive_client`] dialing [`TcpTransport::connect`]. `addr` is dialed
/// first and whenever the current route dies; a v1.4 `Redirect` reply
/// (PROTOCOL.md §9) — how a client learns it dialed a coordinator —
/// steers the dial at the placed backend.
///
/// # Errors
///
/// As [`drive_client`]: with [`RetryPolicy::none`], the first fault.
pub fn run_tcp_client(
    addr: &str,
    client: &mut SplitClient,
    steps: usize,
    policy: &RetryPolicy,
) -> Result<LossCurve, ProtocolError> {
    drive_client(
        client,
        |route| TcpTransport::connect(route.unwrap_or(addr)),
        steps,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use crate::protocol::MessageHandler;
    use crate::testkit::{self, EchoHandler};

    /// A loopback server that exits after `accepts` connections.
    fn serve<H: BatchHandler + Send + 'static>(
        handler: H,
        accepts: usize,
        tcp: TcpOptions,
    ) -> TcpEventServer<H> {
        let options = EventLoopOptions {
            accept_limit: accepts,
            ..EventLoopOptions::default()
        };
        TcpEventServer::spawn("127.0.0.1:0", handler, options, tcp).expect("bind")
    }

    #[test]
    fn client_trains_over_a_real_socket() {
        let mut client = testkit::client(500);
        let server = serve(EchoHandler::default(), 1, TcpOptions::default());
        let curve = run_tcp_client(
            &server.addr().to_string(),
            &mut client,
            4,
            &RetryPolicy::none(),
        )
        .expect("tcp training");
        assert_eq!(curve.points().len(), 4);
        let (handler, stats) = server.join().expect("loop thread");
        assert_eq!((stats.served, stats.conn_errors), (1, 0));
        // Connect + 4 × (activations + gradients) + Disconnect.
        assert_eq!(handler.handled, 10);
        assert!(handler.lost.is_empty(), "a clean Disconnect loses nothing");
    }

    #[test]
    fn hostile_length_prefix_cannot_oom_the_server() {
        use std::io::{Read, Write};
        // Tight cap so the test proves the check, not the allocator.
        let options = TcpOptions {
            max_frame: 1 << 20,
            io_timeout: Some(Duration::from_secs(5)),
        };
        let server = serve(EchoHandler::default(), 1, options);
        let mut socket = TcpStream::connect(server.addr()).expect("connect");
        // A header declaring a 4 GiB payload. The server must reject it
        // from the header alone and close the connection — never
        // allocate.
        socket
            .write_all(&menos_net::encode_frame_header(2, 0, u32::MAX))
            .expect("write hostile header");
        let mut buf = [0u8; 1];
        // Read returns 0 (EOF) once the server drops the connection.
        let n = socket.read(&mut buf).expect("read");
        assert_eq!(n, 0, "server must close on oversize declaration");
        let (handler, stats) = server.join().expect("loop thread");
        assert_eq!((stats.served, stats.conn_errors), (0, 1));
        assert_eq!(handler.handled, 0, "no message reached the handler");
    }

    /// A client that dials a coordinator with no policy at all — what
    /// `menos client --addr <coordinator>` passes — follows the
    /// `Redirect` (free of retry budget) and trains.
    #[test]
    fn fleet_client_trains_through_a_redirecting_coordinator() {
        /// A one-backend coordinator shim: control messages get a
        /// v1.4 `Redirect` at the real server, nothing else is legal.
        struct RedirectHandler {
            target: String,
        }

        impl MessageHandler for RedirectHandler {
            fn handle(
                &mut self,
                msg: ClientMessage,
            ) -> Result<Option<ServerMessage>, ProtocolError> {
                match msg {
                    ClientMessage::Connect { client, .. }
                    | ClientMessage::Resume { client, .. } => Ok(Some(ServerMessage::Redirect {
                        client,
                        addr: self.target.clone(),
                        retry_after_ms: 0,
                    })),
                    other => Err(ProtocolError::Unexpected(format!(
                        "coordinator got {other:?}"
                    ))),
                }
            }

            fn connection_lost(&mut self, _client: ClientId) {}
        }

        impl BatchHandler for RedirectHandler {}

        let mut client = testkit::client(502);
        let backend = serve(EchoHandler::default(), 1, TcpOptions::default());
        let target = backend.addr().to_string();
        let coordinator = serve(RedirectHandler { target }, 1, TcpOptions::default());

        let curve = run_tcp_client(
            &coordinator.addr().to_string(),
            &mut client,
            4,
            &RetryPolicy::none(),
        )
        .expect("fleet client trains through the redirect");
        assert_eq!(curve.points().len(), 4);
        let (handler, stats) = backend.join().expect("backend loop");
        coordinator.join().expect("coordinator loop");
        assert_eq!((stats.served, stats.conn_errors), (1, 0));
        assert!(handler.lost.is_empty());
    }

    #[test]
    fn tcp_transport_surfaces_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let _held = std::thread::spawn(move || listener.accept());
        let mut t = TcpTransport::connect(addr).expect("connect");
        t.set_deadline(Some(Duration::from_millis(50))).unwrap();
        let err = t.recv().unwrap_err();
        assert!(matches!(err, ProtocolError::Timeout), "{err}");
    }
}
