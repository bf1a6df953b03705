//! The server pump: one thread multiplexing many clients onto one
//! handler. Every server in the tree — the `menos` binary, a fleet
//! backend, the fleet coordinator's control plane, every test and
//! experiment — runs this loop; only the listener differs.
//!
//! The pieces:
//!
//! * [`EventConn`] / [`EventListener`] — the nonblocking face of a
//!   transport: drain whatever messages are ready *now*, queue replies,
//!   flush partial writes later. Implemented by the in-memory channel
//!   transport here, and by nonblocking TCP in
//!   [`crate::tcp`] (built on `menos-net`'s `FrameAccumulator` /
//!   `WriteQueue`).
//! * [`BatchHandler`] — a [`MessageHandler`] that accepts a whole
//!   sweep's worth of ready messages at once. The default
//!   implementation replays them one by one through `handle`;
//!   `menos-core`'s `MenosServer` does the same after rejecting
//!   duplicate tensor frames within the set. The ready-set is the unit
//!   one durable snapshot covers.
//! * [`ServerEventLoop`] — the pump itself: accept, sweep reads,
//!   dispatch the ready-set, flush and evict, reap idle sessions,
//!   repeat. A connection failure hands the failed client's session to
//!   [`MessageHandler::connection_lost`] (quarantine under
//!   `MenosServer`, a synthetic `Disconnect` by default); other clients
//!   never notice.
//!
//! Two rules keep sessions apart. A connection is *bound* to the one
//! client its `Connect`/`Resume` named; a tensor or `Disconnect`
//! message naming anyone else, or a second `Connect`/`Resume`, fails
//! that connection before any handler sees it (PROTOCOL.md §4). And
//! because the lock-step protocol allows at most one outstanding
//! message per client, the ready-set rule is simple: collect tensor
//! messages until a sweep adds none (the ready set went quiet) or the
//! set reaches 32 messages, then dispatch the whole set. While the
//! handler works through it, the replies release every client in the
//! set; their next messages land together — so large ready-sets are
//! self-sustaining.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::message::{ClientId, ClientMessage, EvictionCode, ServerMessage};
use crate::protocol::{
    channel_pair, free_link, ChannelTransport, MessageHandler, ProtocolError, Transport,
};
use menos_net::WanLink;

// ----------------------------------------------------------------------
// The nonblocking transport face
// ----------------------------------------------------------------------

/// A server-side connection the event loop can poll without blocking.
///
/// One instance exists per connected client. Unlike
/// [`Transport`](crate::Transport), nothing here parks the thread:
/// `poll_recv` drains only what has already arrived, `queue` accepts a
/// reply for (possibly deferred) transmission, and `flush` pushes
/// queued bytes until the peer stops accepting them.
pub trait EventConn {
    /// Drains every message that is ready right now into `out`.
    ///
    /// Must return buffered messages before surfacing a disconnect: if
    /// the peer sent bytes and then hung up, the messages in those
    /// bytes are delivered on this call and the error on the next.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the peer is gone and no
    /// messages remain, [`ProtocolError::Wire`] on undecodable bytes,
    /// or a transport fault. Any error is fatal to this connection.
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError>;

    /// Queues one reply for transmission, writing as much as the peer
    /// will immediately accept.
    ///
    /// # Errors
    ///
    /// Fatal transport faults; `WouldBlock` is not an error (the
    /// remainder is flushed later).
    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError>;

    /// Pushes queued bytes to the peer. Returns `Ok(true)` when
    /// nothing remains queued.
    ///
    /// # Errors
    ///
    /// Fatal transport faults; `WouldBlock` is not an error.
    fn flush(&mut self) -> Result<bool, ProtocolError>;

    /// True while queued bytes await a writable peer.
    fn has_queued_writes(&self) -> bool {
        false
    }

    /// Bytes currently queued awaiting a writable peer. Transports
    /// whose `queue` transmits synchronously (the in-memory channels)
    /// report 0; nonblocking TCP reports its `WriteQueue` depth. The
    /// loop's slow-consumer bound
    /// ([`EventLoopOptions::max_write_buffer`]) is enforced against
    /// this number.
    fn queued_write_bytes(&self) -> u64 {
        0
    }
}

/// A source of new [`EventConn`]s the event loop can poll without
/// blocking — the nonblocking analogue of an accept loop.
pub trait EventListener {
    /// Connection type produced by this listener.
    type Conn: EventConn;

    /// Accepts one pending connection, if any is ready.
    ///
    /// # Errors
    ///
    /// A fatal listener fault; the loop stops accepting (existing
    /// connections drain normally).
    fn poll_accept(&mut self) -> Result<Option<Self::Conn>, ProtocolError>;
}

// ----------------------------------------------------------------------
// Batched dispatch
// ----------------------------------------------------------------------

/// A [`MessageHandler`] that is handed a whole ready-set of tensor
/// messages in one call.
///
/// The event loop hands `handle_batch` every staged `Activations` /
/// `Gradients` message from clients that were ready this dispatch
/// (control messages never appear here — the loop routes them through
/// [`MessageHandler::handle`]). The handler returns one reply slot per
/// input message, keyed by client — the lock-step protocol guarantees
/// at most one outstanding message per client, so the key is
/// unambiguous. A per-client error poisons only that client: the loop
/// reclaims its session and drops its connection, exactly as a
/// transport fault would.
///
/// The default implementation replays messages one at a time through
/// `handle`, making every existing handler event-loop capable;
/// `menos-core`'s `MenosServer` overrides it only to reject a second
/// tensor frame from one client within a set before doing the same.
pub trait BatchHandler: MessageHandler {
    /// Dispatches a batch of tensor messages, returning
    /// `(client, reply-or-error)` for every input message.
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        msgs.into_iter()
            .map(|msg| {
                let client = msg.client();
                (client, self.handle(msg))
            })
            .collect()
    }
}

/// Shared handlers batch through the lock, mirroring the
/// [`MessageHandler`] blanket impl.
impl<H: BatchHandler> BatchHandler for Arc<std::sync::Mutex<H>> {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        match self.lock() {
            Ok(mut h) => h.handle_batch(msgs),
            Err(_) => msgs
                .into_iter()
                .map(|msg| {
                    (
                        msg.client(),
                        Err(ProtocolError::Unexpected("handler lock poisoned".into())),
                    )
                })
                .collect(),
        }
    }
}

// ----------------------------------------------------------------------
// Loop configuration and observability
// ----------------------------------------------------------------------

/// A ready-set is dispatched as soon as it holds this many tensor
/// messages, even if more clients look ready; its members are served
/// one after another and one durable snapshot covers the whole set.
const BATCH_WINDOW: usize = 32;

/// Per-connection bound on tensor messages staged for dispatch — the
/// message-level analogue of `FrameAccumulator::with_staged_cap`.
/// Lock-step traffic stages at most one message per connection, so any
/// excess is a protocol violation (or a fault duplicating frames): the
/// offender is dropped, what it staged is purged, and the drop is
/// counted in [`EventLoopStats::staged_overflows`].
const MAX_STAGED_MSGS: usize = 8;

/// Floor of the idle-backoff ladder: the sleep after the first sweep
/// that made no progress — the idle-path latency floor.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Ceiling of the idle-backoff ladder, so a quiet server does not poll
/// at the floor cadence forever.
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Tuning knobs for [`ServerEventLoop`].
#[derive(Debug, Clone, Copy)]
pub struct EventLoopOptions {
    /// Total connections to accept before the loop stops accepting;
    /// once they all disconnect the loop exits. `usize::MAX` serves
    /// forever (stop via [`ServerEventLoop::shutdown_handle`]). A
    /// lifetime accept budget, not a concurrency cap — that is
    /// [`capacity`](EventLoopOptions::capacity) — and shed connections
    /// still consume it (they were accepted, then turned away).
    pub accept_limit: usize,
    /// Live-session admission cap (PROTOCOL.md §8, v1.3): a `Connect`
    /// or `Resume` arriving while this many sessions are bound to live
    /// connections is shed with [`ServerMessage::Busy`] carrying the
    /// [`busy_retry_after`](EventLoopOptions::busy_retry_after) hint,
    /// then the connection closes. No session state is touched — the
    /// client just reconnects later. `usize::MAX` (the default) never
    /// sheds. Quarantined (disconnected-but-resumable) sessions do not
    /// count — only sessions bound to a live connection.
    pub capacity: usize,
    /// The reconnect hint carried by loop-level capacity sheds.
    /// Handlers that shed on their own (pool admission) carry their
    /// own hint in [`ProtocolError::Busy`].
    pub busy_retry_after: Duration,
    /// Per-connection bound on queued-but-unsent reply bytes. A
    /// consumer stalled past it is evicted and its session quarantined
    /// exactly like an `io_timeout` eviction, so one stalled peer can
    /// never balloon server memory. `None` (the default) keeps the
    /// pre-v1.3 unbounded behaviour.
    pub max_write_buffer: Option<u64>,
    /// Evict a connection silent for longer than this (`None` waits
    /// forever). The evicted client gets a best-effort
    /// [`ServerMessage::Evicted`] notice and its session is handed to
    /// [`MessageHandler::connection_lost`] — under `MenosServer` that
    /// quarantines it for later resumption rather than dropping it.
    pub io_timeout: Option<Duration>,
    /// How long a quarantined (disconnected but resumable) session may
    /// sit idle before [`MessageHandler::expire_idle`] reaps it
    /// (`None` keeps parked sessions forever).
    pub max_session_idle: Option<Duration>,
}

impl Default for EventLoopOptions {
    fn default() -> Self {
        EventLoopOptions {
            accept_limit: usize::MAX,
            capacity: usize::MAX,
            busy_retry_after: Duration::from_millis(100),
            max_write_buffer: None,
            io_timeout: None,
            max_session_idle: None,
        }
    }
}

/// The sweep loop's idle backoff: a sleep ladder that starts at
/// [`IDLE_SLEEP`], doubles on every consecutive idle sweep up to
/// [`MAX_IDLE_SLEEP`], and snaps back to the floor the moment any
/// sweep makes progress — under load it never leaves the floor, and a
/// quiet server climbs to the ceiling within a handful of sweeps.
struct IdleBackoff(Duration);

impl IdleBackoff {
    fn new() -> Self {
        IdleBackoff(IDLE_SLEEP)
    }

    /// Snaps back to the floor — call on any readiness.
    fn reset(&mut self) {
        self.0 = IDLE_SLEEP;
    }

    /// Returns the sleep for this idle sweep and climbs one rung.
    fn next_sleep(&mut self) -> Duration {
        let sleep = self.0;
        self.0 = (sleep * 2).min(MAX_IDLE_SLEEP);
        sleep
    }
}

/// Where the event loop persists the handler's durable state (see
/// [`MessageHandler::snapshot_bytes`]).
///
/// Snapshots land in `dir` as a single `server.snap` file, written
/// atomically: bytes go to `server.snap.tmp`, are fsynced, and the tmp
/// file is renamed over the live one — a crash mid-write leaves the
/// previous snapshot intact, so the file on disk is always a complete,
/// CRC-sealed state (never a torn one).
///
/// A snapshot is taken after every state-advancing dispatch, *before*
/// the corresponding replies are released to clients, and once more
/// at loop exit. That ordering is what makes kill-the-server recovery
/// divergence-free — a client can only have observed a reply whose
/// effects are already on disk, so replaying through the v1.1 `Resume`
/// reconciliation lands on exactly the state the client saw.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    dir: PathBuf,
}

/// File name of the live snapshot inside the policy directory.
const SNAPSHOT_FILE: &str = "server.snap";

impl SnapshotPolicy {
    /// Snapshot into `dir` before every reply release.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        SnapshotPolicy { dir: dir.into() }
    }

    /// Path of the live snapshot file under this policy's directory.
    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Atomically and durably replaces the live snapshot with `bytes`
    /// (tmp file + `write_all` + `sync_all` + rename + directory
    /// `sync_all`). The rename is itself durable only once its
    /// directory is synced: until then a power loss can bring back the
    /// old snapshot, although replies past it were already released.
    ///
    /// # Errors
    ///
    /// Any I/O fault creating the directory, writing, syncing, or
    /// renaming. On error the previous snapshot (if any) is untouched,
    /// except when syncing the directory fails: the rename has then
    /// happened, but is not known to be on disk.
    pub fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join("server.snap.tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        std::fs::File::open(&self.dir)?.sync_all()
    }

    /// Reads the live snapshot under `dir`, if one exists. Validation
    /// is the caller's job (snapshot bytes are CRC-sealed and decode
    /// through the typed checkpoint path).
    pub fn read(dir: impl AsRef<Path>) -> Option<Vec<u8>> {
        std::fs::read(dir.as_ref().join(SNAPSHOT_FILE)).ok()
    }
}

/// Counters describing one [`ServerEventLoop::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EventLoopStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Clients that disconnected cleanly.
    pub served: u64,
    /// Connections dropped on error or timeout (sessions reclaimed).
    pub conn_errors: u64,
    /// Batch dispatches issued.
    pub batches: u64,
    /// Tensor messages dispatched across all batches.
    pub batched_messages: u64,
    /// Largest single batch.
    pub max_batch: usize,
    /// Readiness sweeps executed.
    pub sweeps: u64,
    /// Connections evicted for exceeding the client timeout.
    pub evicted: u64,
    /// Sessions successfully re-attached via `Resume`.
    pub resumed: u64,
    /// Quarantined sessions reaped by the idle TTL.
    pub expired: u64,
    /// Snapshots written successfully (see [`SnapshotPolicy`]).
    pub snapshots: u64,
    /// Snapshot attempts that failed (I/O fault); the loop keeps
    /// serving — durability degrades, training does not stop.
    pub snapshot_errors: u64,
    /// Connections shed at admission with a [`ServerMessage::Busy`]
    /// reply — by the loop's [`EventLoopOptions::capacity`] cap or by
    /// the handler returning [`ProtocolError::Busy`] (v1.3).
    pub shed: u64,
    /// Connections evicted for stalling past
    /// [`EventLoopOptions::max_write_buffer`].
    pub write_overflows: u64,
    /// Connections dropped for staging more than 8 tensor messages —
    /// a lock-step violation (also counted in `conn_errors`).
    pub staged_overflows: u64,
    /// Sweeps that deferred accepting because the handler reported
    /// memory pressure (drain existing work before admitting more).
    pub deferred_accept_sweeps: u64,
    /// High-water mark of sessions bound to live connections — the
    /// number [`EventLoopOptions::capacity`] bounds.
    pub max_live_sessions: usize,
    /// High-water mark of any single connection's queued write bytes,
    /// observed after each flush — the number
    /// [`EventLoopOptions::max_write_buffer`] bounds.
    pub max_queued_write_bytes: u64,
    /// v1.4 heartbeat probes answered with `Pong`.
    pub pings: u64,
    /// v1.4 migrated sessions accepted via `ImportSession` and parked
    /// for their owner's `Resume`.
    pub sessions_imported: u64,
}

// ----------------------------------------------------------------------
// The pump
// ----------------------------------------------------------------------

struct ConnState<C> {
    conn: C,
    /// Bound by a successful `Connect`/`Resume`; every later tensor or
    /// `Disconnect` message on this connection must name this client.
    client: Option<ClientId>,
    last_activity: Instant,
}

/// Sends a courtesy notice on a connection that is about to be dropped.
/// Best effort: the peer may already be gone, and the drop happens
/// regardless.
fn send_best_effort(conn: &mut impl EventConn, notice: &ServerMessage) {
    if conn.queue(notice).is_ok() {
        let _ = conn.flush();
    }
}

/// The server pump: owns every client connection, sweeps them for ready
/// messages, and hands each sweep's ready tensor messages to a
/// [`BatchHandler`] as one ready-set. One thread, any transport — the
/// same codec, the same handler state machine and the same
/// reclaim-on-error behaviour over in-process channels and TCP.
pub struct ServerEventLoop<L: EventListener, H: BatchHandler> {
    listener: L,
    handler: H,
    options: EventLoopOptions,
    snapshots: Option<SnapshotPolicy>,
    shutdown: Arc<AtomicBool>,
}

impl<L: EventListener, H: BatchHandler> ServerEventLoop<L, H> {
    /// Builds a loop over a listener and a handler.
    pub fn new(listener: L, handler: H, options: EventLoopOptions) -> Self {
        ServerEventLoop {
            listener,
            handler,
            options,
            snapshots: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Persists the handler's durable state per `policy` (handlers
    /// that return `None` from
    /// [`MessageHandler::snapshot_bytes`] are simply never
    /// snapshotted). A final snapshot is always written when the loop
    /// exits, whatever the cadence.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// A flag that stops the loop at the next sweep (live sessions are
    /// reclaimed first).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Runs until `accept_limit` connections have been accepted and
    /// all of them have disconnected (or the shutdown flag is raised).
    /// Returns the handler and the run's counters.
    pub fn run(self) -> (H, EventLoopStats) {
        let mut pump = Pump {
            listener: self.listener,
            handler: self.handler,
            options: self.options,
            snapshots: self.snapshots,
            stats: EventLoopStats::default(),
            conns: BTreeMap::new(),
            next_key: 0,
            done_accepting: false,
            pending: Vec::new(),
            ready: Vec::new(),
            key_of: HashMap::new(),
            new_tensors: 0,
            last_expiry_check: Instant::now(),
            progress: false,
        };
        let mut backoff = IdleBackoff::new();
        loop {
            pump.stats.sweeps += 1;
            pump.progress = false;
            if self.shutdown.load(Ordering::Relaxed) {
                pump.park_all();
                break;
            }
            pump.accept();
            pump.sweep_reads();
            pump.dispatch_ready();
            pump.flush_and_evict();
            pump.reap_idle();
            if pump.drained() {
                break;
            }
            if pump.progress {
                backoff.reset();
            } else {
                std::thread::sleep(backoff.next_sleep());
            }
        }
        // Final snapshot at exit: a clean shutdown (including the
        // shutdown-flag branch, which quarantines every live session
        // first) always leaves the latest state on disk.
        pump.write_snapshot();
        (pump.handler, pump.stats)
    }
}

/// Everything one [`ServerEventLoop::run`] owns. The sweep is five
/// phases in a fixed order — [`accept`](Pump::accept),
/// [`sweep_reads`](Pump::sweep_reads),
/// [`dispatch_ready`](Pump::dispatch_ready),
/// [`flush_and_evict`](Pump::flush_and_evict),
/// [`reap_idle`](Pump::reap_idle) — over the connection-level verbs
/// [`fail`](Pump::fail), [`shed`](Pump::shed), [`reply`](Pump::reply)
/// and [`notify_evicted`](Pump::notify_evicted).
struct Pump<L: EventListener, H> {
    listener: L,
    handler: H,
    options: EventLoopOptions,
    snapshots: Option<SnapshotPolicy>,
    stats: EventLoopStats,
    /// BTreeMap: sweeps visit connections in a deterministic order.
    conns: BTreeMap<u64, ConnState<L::Conn>>,
    next_key: u64,
    done_accepting: bool,
    /// Tensor messages staged for the next dispatch, tagged with the
    /// connection that produced them.
    pending: Vec<(u64, ClientMessage)>,
    /// How many of them the current sweep staged.
    new_tensors: usize,
    /// Scratch for one connection's drained messages, and the reply
    /// routing of one dispatch; both reused across sweeps.
    ready: Vec<ClientMessage>,
    key_of: HashMap<ClientId, u64>,
    last_expiry_check: Instant,
    /// Whether this sweep did anything; an idle sweep sleeps.
    progress: bool,
}

impl<L: EventListener, H: BatchHandler> Pump<L, H> {
    // -- connection-level verbs ---------------------------------------

    /// Drops a connection and hands its session to the handler's
    /// lost-connection path, leaving every other client untouched.
    /// Under `MenosServer` the session is quarantined for resumption;
    /// the default hook synthesizes a `Disconnect`, reclaiming it.
    ///
    /// Staged-but-undispatched messages from the dead connection are
    /// purged with it: dispatching them later would advance the
    /// session behind the client's back — fatal once the client
    /// resumes and redoes the step the server already half-ran.
    fn fail(&mut self, key: u64) {
        if let Some(state) = self.conns.remove(&key) {
            self.stats.conn_errors += 1;
            self.pending.retain(|(k, _)| *k != key);
            if let Some(client) = state.client {
                self.handler.connection_lost(client);
            }
        }
    }

    /// Turns away a connection at admission (v1.3, PROTOCOL.md §8):
    /// best-effort `Busy` reply with the retry hint, then the
    /// connection closes. Deliberately NOT [`fail`](Pump::fail) — no
    /// session was created, so there is nothing to quarantine, and a
    /// shed is load management, not a connection error.
    fn shed(&mut self, key: u64, client: ClientId, retry_after_ms: u64) {
        if let Some(mut state) = self.conns.remove(&key) {
            self.stats.shed += 1;
            self.pending.retain(|(k, _)| *k != key);
            let notice = ServerMessage::Busy {
                client,
                retry_after_ms,
            };
            send_best_effort(&mut state.conn, &notice);
        }
    }

    /// Queues `reply` on a connection, failing the connection if its
    /// transport refuses. Returns whether the connection is still
    /// there to talk to.
    fn reply(&mut self, key: u64, reply: &ServerMessage) -> bool {
        let queued = match self.conns.get_mut(&key) {
            Some(state) => state.conn.queue(reply).is_ok(),
            None => return false,
        };
        if !queued {
            self.fail(key);
        }
        queued
    }

    /// Best-effort [`ServerMessage::Evicted`] notice ahead of a drop;
    /// the session is parked (or reclaimed) regardless.
    fn notify_evicted(&mut self, key: u64, client: ClientId, code: EvictionCode) {
        if let Some(state) = self.conns.get_mut(&key) {
            send_best_effort(&mut state.conn, &ServerMessage::Evicted { client, code });
        }
    }

    /// Sessions bound to live connections — what
    /// [`EventLoopOptions::capacity`] bounds.
    fn live_sessions(&self) -> usize {
        self.conns.values().filter(|s| s.client.is_some()).count()
    }

    // -- snapshots -----------------------------------------------------

    /// Persists the handler's state: after a state-advancing dispatch,
    /// *before* the replies it produced are queued — clients then can
    /// never observe a reply whose effects are not on disk, which is
    /// the invariant behind bit-identical kill-the-server recovery —
    /// and once at loop exit. Quarantine/eviction mutations
    /// deliberately do NOT snapshot: restoring a pre-quarantine
    /// superset is safe (the restore path parks every session anyway).
    ///
    /// A failed write is counted and the loop keeps serving —
    /// durability degrades, training does not stop.
    fn write_snapshot(&mut self) {
        let Some(policy) = &self.snapshots else {
            return;
        };
        if let Some(bytes) = self.handler.snapshot_bytes() {
            match policy.write(&bytes) {
                Ok(()) => self.stats.snapshots += 1,
                Err(_e) => self.stats.snapshot_errors += 1,
            }
        }
    }

    // -- the sweep's phases --------------------------------------------

    /// Shutdown: every live session gets a courtesy notice and is
    /// handed to the lost-connection path; every connection closes.
    fn park_all(&mut self) {
        for (_, mut state) in std::mem::take(&mut self.conns) {
            if let Some(client) = state.client {
                let notice = ServerMessage::Evicted {
                    client,
                    code: EvictionCode::Shutdown,
                };
                send_best_effort(&mut state.conn, &notice);
                self.handler.connection_lost(client);
            }
        }
    }

    /// Phase 1: accept whatever is knocking — unless the handler
    /// reports memory pressure and there is existing work to drain, in
    /// which case new connections wait in the listener's backlog this
    /// sweep. Degrading admission under pressure beats accepting work
    /// the pool cannot hold.
    fn accept(&mut self) {
        if !self.conns.is_empty() && self.handler.under_pressure() {
            self.stats.deferred_accept_sweeps += 1;
            return;
        }
        while !self.accepts_exhausted() {
            match self.listener.poll_accept() {
                Ok(Some(conn)) => {
                    let state = ConnState {
                        conn,
                        client: None,
                        last_activity: Instant::now(),
                    };
                    self.conns.insert(self.next_key, state);
                    self.next_key += 1;
                    self.stats.accepted += 1;
                    self.progress = true;
                }
                Ok(None) => break,
                Err(_) => self.done_accepting = true,
            }
        }
    }

    fn accepts_exhausted(&self) -> bool {
        self.done_accepting || self.stats.accepted >= self.options.accept_limit as u64
    }

    /// Phase 2: sweep every connection for ready messages. Control
    /// messages dispatch inline (they are cheap and order-sensitive);
    /// tensor messages stage for the ready-set.
    fn sweep_reads(&mut self) {
        self.new_tensors = 0;
        let mut ready = std::mem::take(&mut self.ready);
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        for key in keys {
            let state = self.conns.get_mut(&key).expect("swept key exists");
            if state.conn.poll_recv(&mut ready).is_err() {
                ready.clear();
                self.fail(key);
                continue;
            }
            if !ready.is_empty() {
                self.progress = true;
                state.last_activity = Instant::now();
            }
            // A message that closes its connection ends the walk; what
            // the peer sent after it is dropped with the connection.
            for msg in ready.drain(..) {
                if !self.on_message(key, msg) {
                    break;
                }
            }
        }
        self.ready = ready;
    }

    /// Routes one inbound message. Returns false once the connection is
    /// gone (served, shed or failed).
    fn on_message(&mut self, key: u64, msg: ClientMessage) -> bool {
        let bound = self.conns.get(&key).and_then(|s| s.client);
        match msg {
            // A connection binds once (PROTOCOL.md §4). A second
            // handshake would rebind it and orphan the session it speaks
            // for — live, holding its reservation, reachable by no
            // connection. It fails the connection instead, and the bound
            // session takes the lost-connection path like any fault.
            ClientMessage::Connect { .. } | ClientMessage::Resume { .. } if bound.is_some() => {
                self.fail(key);
                false
            }
            ClientMessage::Connect { .. } | ClientMessage::Resume { .. } => {
                self.on_handshake(key, msg)
            }
            // v1.4 control messages are legal on unbound connections
            // and never bind one (PROTOCOL.md §9): a monitor's probe
            // must not occupy a live-session slot, and a migrated
            // session parks in quarantine until its *owner* resumes
            // over its own connection. A heartbeat touches no session
            // state; an import mutates durable state, so it snapshots
            // before the ack. A rejected import closes the pushing
            // connection: the coordinator observes the drop as a typed
            // failure, and the handler committed nothing.
            ClientMessage::Ping { .. } | ClientMessage::ImportSession { .. } => {
                let import = matches!(msg, ClientMessage::ImportSession { .. });
                let Ok(Some(reply)) = self.handler.handle(msg) else {
                    self.fail(key);
                    return false;
                };
                if import {
                    self.stats.sessions_imported += 1;
                    self.write_snapshot();
                } else {
                    self.stats.pings += 1;
                }
                self.reply(key, &reply)
            }
            // The binding rule (PROTOCOL.md §4): a connection speaks
            // only for the client it bound. A tensor or `Disconnect`
            // message naming anyone else — from an unbound peer or a
            // bound one — fails this connection and reaches no session.
            msg if bound != Some(msg.client()) => {
                self.fail(key);
                false
            }
            msg @ ClientMessage::Disconnect { .. } => {
                let _ = self.handler.handle(msg);
                self.write_snapshot();
                if self.conns.remove(&key).is_some() {
                    self.stats.served += 1;
                }
                false
            }
            tensor => self.stage(key, tensor),
        }
    }

    /// `Connect` / `Resume`: admission, then binding.
    fn on_handshake(&mut self, key: u64, msg: ClientMessage) -> bool {
        let client = msg.client();
        let is_resume = matches!(msg, ClientMessage::Resume { .. });
        // v1.3 admission: shed at the door when live sessions are at
        // capacity. The handler is never consulted, so no session state
        // is created or mutated — shedding is idempotent.
        if self.live_sessions() >= self.options.capacity {
            let hint = self.options.busy_retry_after.as_millis() as u64;
            self.shed(key, client, hint);
            return false;
        }
        match self.handler.handle(msg) {
            Ok(reply) => {
                // Admission mutated durable state (session created or
                // re-attached); persist before the reply can reach the
                // client.
                self.write_snapshot();
                self.conns
                    .get_mut(&key)
                    .expect("conn alive during handshake")
                    .client = Some(client);
                if is_resume {
                    self.stats.resumed += 1;
                }
                self.stats.max_live_sessions =
                    self.stats.max_live_sessions.max(self.live_sessions());
                reply.is_none_or(|reply| self.reply(key, &reply))
            }
            // The handler shed at its own admission gate (Alg. 2: the
            // reservation would oversubscribe the pool right now) —
            // same wire outcome as the loop-level cap, with the
            // handler's hint.
            Err(ProtocolError::Busy { retry_after_ms, .. }) => {
                self.shed(key, client, retry_after_ms);
                false
            }
            // Rejected (validation/admission, stale epoch, live
            // session): drop the connection; the peer observes a
            // disconnect.
            Err(e) => {
                // A resume for state the TTL already reaped gets a
                // courtesy notice so the client stops retrying.
                if is_resume && matches!(e, ProtocolError::UnknownClient(_)) {
                    self.notify_evicted(key, client, EvictionCode::IdleExpired);
                }
                self.fail(key);
                false
            }
        }
    }

    /// Stages one tensor message for the next dispatch, enforcing
    /// [`MAX_STAGED_MSGS`] per connection.
    fn stage(&mut self, key: u64, msg: ClientMessage) -> bool {
        let staged = self.pending.iter().filter(|(k, _)| *k == key).count();
        if staged >= MAX_STAGED_MSGS {
            self.stats.staged_overflows += 1;
            self.fail(key);
            return false;
        }
        self.pending.push((key, msg));
        self.new_tensors += 1;
        true
    }

    /// Phase 3: dispatch the ready-set once it goes quiet (no new
    /// tensor message this sweep) or reaches [`BATCH_WINDOW`].
    /// Lock-step ⇒ each pending client is stalled until its reply, so
    /// "quiet" means everyone ready has reported.
    fn dispatch_ready(&mut self) {
        if self.pending.is_empty() || (self.new_tensors != 0 && self.pending.len() < BATCH_WINDOW) {
            return;
        }
        self.progress = true;
        let batch = std::mem::take(&mut self.pending);
        self.stats.batches += 1;
        self.stats.batched_messages += batch.len() as u64;
        self.stats.max_batch = self.stats.max_batch.max(batch.len());
        self.key_of.clear();
        self.key_of
            .extend(batch.iter().map(|(k, m)| (m.client(), *k)));
        let results = self
            .handler
            .handle_batch(batch.into_iter().map(|(_, m)| m).collect());
        // Training steps advanced; the replies below must not leave
        // before the state that produced them is on disk.
        self.write_snapshot();
        for (client, result) in results {
            let Some(&key) = self.key_of.get(&client) else {
                continue;
            };
            // A per-client error poisons only that client.
            match result {
                Ok(Some(reply)) => {
                    self.reply(key, &reply);
                }
                Ok(None) => {}
                Err(_e) => self.fail(key),
            }
        }
    }

    /// Phase 4: flush partial writes; enforce the slow-consumer bound
    /// and the silence timeout.
    fn flush_and_evict(&mut self) {
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        for key in keys {
            let state = self.conns.get_mut(&key).expect("flushed key exists");
            if state.conn.has_queued_writes() {
                match state.conn.flush() {
                    Ok(drained) => self.progress |= drained,
                    Err(_e) => {
                        self.fail(key);
                        continue;
                    }
                }
            }
            // Slow-consumer bound: whatever survived the flush is what
            // the peer refused to take. A stalled consumer is evicted
            // (session quarantined, resumable later) — bounded memory
            // beats waiting on a peer that may never drain. A silent
            // one gets a best-effort notice first.
            let queued = state.conn.queued_write_bytes();
            self.stats.max_queued_write_bytes = self.stats.max_queued_write_bytes.max(queued);
            let stalled = self
                .options
                .max_write_buffer
                .is_some_and(|cap| queued > cap);
            let silent = |cap| state.last_activity.elapsed() > cap;
            if stalled {
                self.stats.write_overflows += 1;
            } else if self.options.io_timeout.is_some_and(silent) {
                if let Some(client) = state.client {
                    self.notify_evicted(key, client, EvictionCode::Timeout);
                }
            } else {
                continue;
            }
            self.stats.evicted += 1;
            self.fail(key);
        }
    }

    /// Phase 5: reap quarantined sessions past the idle TTL. Checked
    /// on a coarse cadence — expiry precision does not need
    /// sweep-frequency polling.
    fn reap_idle(&mut self) {
        let Some(ttl) = self.options.max_session_idle else {
            return;
        };
        let cadence = (ttl / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
        if self.last_expiry_check.elapsed() >= cadence {
            self.last_expiry_check = Instant::now();
            self.stats.expired += self.handler.expire_idle(ttl).len() as u64;
        }
    }

    /// Nothing left to accept, serve or dispatch: the run is over.
    fn drained(&self) -> bool {
        self.accepts_exhausted() && self.conns.is_empty() && self.pending.is_empty()
    }
}

// ----------------------------------------------------------------------
// The in-memory listener and its dialer
// ----------------------------------------------------------------------

/// An [`EventListener`] over an in-process queue of pre-built
/// connections — how the channel transport reaches the event loop
/// without sockets.
pub struct QueueListener<C> {
    rx: mpsc::Receiver<C>,
}

impl<C: EventConn> EventListener for QueueListener<C> {
    type Conn = C;

    fn poll_accept(&mut self) -> Result<Option<C>, ProtocolError> {
        match self.rx.try_recv() {
            Ok(conn) => Ok(Some(conn)),
            // All dialers dropped just means no further connections —
            // not a fault.
            Err(mpsc::TryRecvError::Empty) | Err(mpsc::TryRecvError::Disconnected) => Ok(None),
        }
    }
}

/// Client-side factory for in-memory connections to an event loop —
/// the channel analogue of a TCP `connect`. Clone freely; one dialer
/// per client thread.
#[derive(Clone)]
pub struct ChannelDialer {
    tx: mpsc::Sender<ChannelTransport<ServerMessage, ClientMessage>>,
}

impl ChannelDialer {
    /// Opens a new connection over free links (no latency, no
    /// bandwidth limit), returning the client endpoint.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the event loop is gone.
    pub fn dial(&self) -> Result<ChannelTransport<ClientMessage, ServerMessage>, ProtocolError> {
        self.dial_over(free_link(), free_link())
    }

    /// Opens a new connection whose frames are timed by `uplink`
    /// (client→server) and `downlink` (server→client), returning the
    /// client endpoint. Each dial carries its own links, so
    /// heterogeneous client networks share one server.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the event loop is gone.
    pub fn dial_over(
        &self,
        uplink: WanLink,
        downlink: WanLink,
    ) -> Result<ChannelTransport<ClientMessage, ServerMessage>, ProtocolError> {
        let (client, server) = channel_pair(uplink, downlink);
        self.tx
            .send(server)
            .map_err(|_| ProtocolError::Disconnected)?;
        Ok(client)
    }
}

/// Creates a connected `(dialer, listener)` pair for in-memory channel
/// transports: the listener feeds a [`ServerEventLoop`], the dialer
/// mints client endpoints for [`drive_client`](crate::drive_client).
pub fn event_channel_listener() -> (
    ChannelDialer,
    QueueListener<ChannelTransport<ServerMessage, ClientMessage>>,
) {
    let (tx, rx) = mpsc::channel();
    (ChannelDialer { tx }, QueueListener { rx })
}

impl EventConn for ChannelTransport<ServerMessage, ClientMessage> {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        loop {
            match self.try_recv() {
                Ok(Some(msg)) => out.push(msg),
                Ok(None) => return Ok(()),
                // Deliver buffered messages first; the error resurfaces
                // on the next sweep.
                Err(e) => return if out.is_empty() { Err(e) } else { Ok(()) },
            }
        }
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        // Charges the downlink's virtual transfer time.
        Transport::send(self, msg)
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{drive_client, RetryPolicy};
    use crate::testkit::{self, connect_msg, EchoHandler};

    fn one_client() -> EventLoopOptions {
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        }
    }

    #[test]
    fn event_loop_serves_a_channel_client_end_to_end() {
        let mut client = testkit::client(7);
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(listener, EchoHandler::default(), one_client());
        let server = std::thread::spawn(move || event_loop.run());
        let curve = drive_client(&mut client, |_| dialer.dial(), 3, &RetryPolicy::none())
            .expect("training");
        assert_eq!(curve.points().len(), 3);
        let (handler, stats) = server.join().expect("loop thread");
        assert!(handler.lost.is_empty(), "a clean Disconnect loses nothing");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.conn_errors, 0);
        // 3 steps × (activations + gradients) = 6 tensor messages.
        assert_eq!(stats.batched_messages, 6);
    }

    #[test]
    fn shutdown_flag_stops_an_unbounded_loop() {
        let (_dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(
            listener,
            EchoHandler::default(),
            EventLoopOptions::default(),
        );
        let stop = event_loop.shutdown_handle();
        let server = std::thread::spawn(move || event_loop.run());
        stop.store(true, Ordering::Relaxed);
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn idle_backoff_climbs_to_the_ceiling_and_resets_under_load() {
        let mut b = IdleBackoff::new();
        // Idle sweeps double the sleep: 200µs, 400µs, 800µs, 1.6ms,
        // then clamp at the 2ms ceiling.
        let ladder: Vec<Duration> = (0..6).map(|_| b.next_sleep()).collect();
        assert_eq!(
            ladder,
            vec![
                Duration::from_micros(200),
                Duration::from_micros(400),
                Duration::from_micros(800),
                Duration::from_micros(1600),
                Duration::from_millis(2),
                Duration::from_millis(2),
            ]
        );
        // Any readiness snaps back to the floor — a loaded loop never
        // pays more than the floor latency.
        b.reset();
        assert_eq!(b.next_sleep(), IDLE_SLEEP);
    }

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("menos-snap-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_policy_writes_atomically_and_reads_back() {
        let dir = scratch_dir("policy");
        assert!(SnapshotPolicy::read(&dir).is_none());
        let policy = SnapshotPolicy::durable(&dir);
        policy.write(b"first").expect("write");
        assert_eq!(SnapshotPolicy::read(&dir).unwrap(), b"first");
        // Replacement is whole-file: the longer payload fully
        // supersedes the shorter one and no tmp residue remains.
        policy.write(b"second, longer payload").expect("rewrite");
        assert_eq!(
            SnapshotPolicy::read(&dir).unwrap(),
            b"second, longer payload"
        );
        assert!(!dir.join("server.snap.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_mode_snapshots_every_dispatch_and_at_exit() {
        let dir = scratch_dir("durable");
        let mut client = testkit::client(11);
        let (dialer, listener) = event_channel_listener();
        let handler = EchoHandler {
            durable: true,
            ..EchoHandler::default()
        };
        let event_loop = ServerEventLoop::new(listener, handler, one_client())
            .with_snapshots(SnapshotPolicy::durable(&dir));
        let server = std::thread::spawn(move || event_loop.run());
        drive_client(&mut client, |_| dialer.dial(), 2, &RetryPolicy::none()).expect("training");
        let (handler, stats) = server.join().expect("loop thread");
        // Connect + 2×(activations, gradients) + Disconnect = 6
        // dispatched messages; the loop snapshots Connect, Disconnect,
        // and each batch, plus the exit snapshot.
        assert_eq!(handler.handled, 6);
        assert!(
            stats.snapshots >= 4,
            "expected connect+batches+disconnect+exit snapshots, got {}",
            stats.snapshots
        );
        assert_eq!(stats.snapshot_errors, 0);
        // The on-disk snapshot is the *final* version: nothing
        // advanced after the last persisted state.
        let bytes = SnapshotPolicy::read(&dir).expect("snapshot exists");
        assert_eq!(bytes, 6u32.to_le_bytes().to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_mode_always_snapshots_at_exit() {
        // Shut down before anything connects: no dispatch ever
        // snapshots, so the one file on disk is the exit snapshot.
        let dir = scratch_dir("exit");
        let (_dialer, listener) = event_channel_listener();
        let handler = EchoHandler {
            durable: true,
            ..EchoHandler::default()
        };
        let event_loop = ServerEventLoop::new(listener, handler, EventLoopOptions::default())
            .with_snapshots(SnapshotPolicy::durable(&dir));
        event_loop.shutdown_handle().store(true, Ordering::Relaxed);
        let (handler, stats) = event_loop.run();
        assert_eq!(handler.handled, 0);
        assert_eq!(stats.snapshots, 1, "only the exit snapshot");
        let bytes = SnapshotPolicy::read(&dir).expect("snapshot exists");
        assert_eq!(bytes, 0u32.to_le_bytes().to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handlers_without_durable_state_produce_no_snapshot_file() {
        let dir = scratch_dir("none");
        let mut client = testkit::client(13);
        let (dialer, listener) = event_channel_listener();
        // Not durable: snapshot_bytes() reports nothing to persist.
        let event_loop = ServerEventLoop::new(listener, EchoHandler::default(), one_client())
            .with_snapshots(SnapshotPolicy::durable(&dir));
        let server = std::thread::spawn(move || event_loop.run());
        drive_client(&mut client, |_| dialer.dial(), 1, &RetryPolicy::none()).expect("training");
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.snapshot_errors, 0);
        assert!(SnapshotPolicy::read(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_sheds_surplus_connects_with_busy() {
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(
            listener,
            EchoHandler::default(),
            EventLoopOptions {
                accept_limit: 2,
                capacity: 1,
                busy_retry_after: Duration::from_millis(42),
                ..EventLoopOptions::default()
            },
        );
        let server = std::thread::spawn(move || event_loop.run());
        let mut a = dialer.dial().expect("dial a");
        Transport::send(&mut a, &connect_msg(0)).expect("connect a");
        assert!(matches!(a.recv(), Ok(ServerMessage::Ready { .. })));
        // The second session hits the capacity cap: a Busy with the
        // loop's hint, then a clean close — never a hang, and the
        // handler is never consulted.
        let mut b = dialer.dial().expect("dial b");
        Transport::send(&mut b, &connect_msg(1)).expect("connect b");
        assert!(matches!(
            b.recv(),
            Ok(ServerMessage::Busy {
                client: ClientId(1),
                retry_after_ms: 42,
            })
        ));
        assert!(b.recv().is_err(), "shed connection is closed");
        // The live client was untouched by the shed.
        Transport::send(
            &mut a,
            &ClientMessage::Disconnect {
                client: ClientId(0),
            },
        )
        .expect("disconnect a");
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.conn_errors, 0, "a shed is not a connection error");
        assert_eq!(stats.max_live_sessions, 1);
    }

    #[test]
    fn accept_limit_bounds_accepts_independently_of_capacity() {
        // accept_limit 1 with unlimited capacity: the second dial is
        // simply never accepted (no shed — the knobs are distinct).
        let mut client = testkit::client(21);
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(listener, EchoHandler::default(), one_client());
        let server = std::thread::spawn(move || event_loop.run());
        let curve = drive_client(&mut client, |_| dialer.dial(), 1, &RetryPolicy::none())
            .expect("training");
        assert_eq!(curve.points().len(), 1);
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.shed, 0);
    }

    /// A hostile peer that bursts tensor messages without ever waiting
    /// for a reply — the lock-step violation the staged cap exists for.
    /// It binds first, so the cap (not the binding rule) is what fires.
    struct BurstConn {
        burst: usize,
        sent: bool,
    }

    impl EventConn for BurstConn {
        fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
            if !std::mem::replace(&mut self.sent, true) {
                out.push(connect_msg(9));
                for _ in 0..self.burst {
                    out.push(ClientMessage::Activations {
                        client: ClientId(9),
                        frame: bytes::Bytes::new(),
                    });
                }
            }
            Ok(())
        }

        fn queue(&mut self, _msg: &ServerMessage) -> Result<(), ProtocolError> {
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, ProtocolError> {
            Ok(true)
        }
    }

    #[test]
    fn one_burst_past_the_staged_cap_drops_the_offender() {
        let (tx, rx) = mpsc::channel();
        // One message over the cap, all in one sweep: the cap must fire
        // before the quiet-set dispatch could mask the overflow.
        tx.send(BurstConn {
            burst: MAX_STAGED_MSGS + 1,
            sent: false,
        })
        .expect("queue conn");
        drop(tx);
        let event_loop =
            ServerEventLoop::new(QueueListener { rx }, EchoHandler::default(), one_client());
        let (_handler, stats) = event_loop.run();
        assert_eq!(stats.staged_overflows, 1);
        assert_eq!(stats.conn_errors, 1, "the offender is failed, not served");
        assert_eq!(stats.batches, 0, "nothing it staged was ever dispatched");
    }

    /// A peer whose write side never drains — the slow consumer the
    /// write-buffer bound evicts.
    struct StalledConn {
        sent_connect: bool,
        queued: u64,
    }

    impl EventConn for StalledConn {
        fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
            if !self.sent_connect {
                self.sent_connect = true;
                out.push(connect_msg(0));
            }
            Ok(())
        }

        fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
            self.queued += msg.wire_bytes();
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, ProtocolError> {
            Ok(false)
        }

        fn has_queued_writes(&self) -> bool {
            self.queued > 0
        }

        fn queued_write_bytes(&self) -> u64 {
            self.queued
        }
    }

    #[test]
    fn stalled_consumer_is_evicted_by_the_write_buffer_bound() {
        let (tx, rx) = mpsc::channel();
        tx.send(StalledConn {
            sent_connect: false,
            queued: 0,
        })
        .expect("queue conn");
        drop(tx);
        let event_loop = ServerEventLoop::new(
            QueueListener { rx },
            EchoHandler::default(),
            EventLoopOptions {
                accept_limit: 1,
                max_write_buffer: Some(100),
                ..EventLoopOptions::default()
            },
        );
        let (handler, stats) = event_loop.run();
        // The Ready reply (a 256-byte control frame) stalls past the
        // 100-byte bound: evicted via the quarantine path, memory
        // bounded, loop exits.
        assert_eq!(stats.write_overflows, 1);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.max_queued_write_bytes, 256);
        assert_eq!(
            handler.lost,
            vec![ClientId(0)],
            "the stalled client's session went through connection_lost"
        );
    }

    #[test]
    fn default_batch_handler_replays_sequentially() {
        struct Echo(Vec<ClientId>);
        impl MessageHandler for Echo {
            fn handle(
                &mut self,
                msg: ClientMessage,
            ) -> Result<Option<ServerMessage>, ProtocolError> {
                self.0.push(msg.client());
                Ok(None)
            }
        }
        impl BatchHandler for Echo {}
        let mut h = Echo(Vec::new());
        let out = h.handle_batch(vec![
            ClientMessage::Disconnect {
                client: ClientId(3),
            },
            ClientMessage::Disconnect {
                client: ClientId(1),
            },
        ]);
        assert_eq!(h.0, vec![ClientId(3), ClientId(1)]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, r)| matches!(r, Ok(None))));
    }
}
