//! # menos-fleet — whole-server failover for split fine-tuning
//!
//! One Menos server can lose a *connection* and recover (v1.1
//! `Resume`), shed load (v1.3 `Busy`), even be SIGKILLed and restarted
//! from its durable snapshot. This crate survives the case where the
//! process never comes back: a [`FleetCoordinator`] supervises N
//! backend servers, places every session at `Connect` time with a
//! v1.4 `Redirect`, detects a dead backend by missed heartbeats
//! ([`menos_net::HeartbeatMonitor`]), and re-homes the dead server's
//! sessions onto survivors by replaying its last durable snapshot
//! through the `ImportSession` admission path (PROTOCOL.md §9).
//!
//! The coordinator is a *control-plane only* component: it answers
//! `Connect`/`Resume` with `Redirect` (or `Busy`) and never proxies a
//! tensor byte — training traffic always flows client ↔ backend
//! directly, so the paper's bandwidth story is untouched. Its listener
//! is the same [`ServerEventLoop`](menos_split::ServerEventLoop) the
//! backends run, serving a placement handler instead of a training
//! one, so the placement tier sheds garbage peers, bounds its
//! connections and shuts down exactly as the workers under it do.
//! Clients
//! chase redirects with [`drive_client`](menos_split::drive_client): a
//! placement costs no retry budget, and a mid-run backend death walks
//! the client back to the coordinator for re-placement once migration
//! completes.
//!
//! Correctness bar (the house standard): a fleet run that loses a
//! whole server mid-training must produce loss curves and final
//! adapter weights **bit-identical** to an undisturbed run — migration
//! moves the exact optimizer moments, residuals, and cached replies,
//! and the `Resume` reconciliation does the rest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use menos_core::{encode_session_record, ServerState};
use menos_net::{HeartbeatMonitor, HeartbeatVerdict};
use menos_split::{
    BatchHandler, ClientId, ClientMessage, EventLoopOptions, MessageHandler, ProtocolError,
    ServerMessage, SnapshotPolicy, TcpEventServer, TcpOptions, TcpTransport, Transport,
};

/// The client id heartbeat probes travel under. Probes never bind a
/// session (PROTOCOL.md §9.1), so the id only has to be recognizable
/// in logs — it is deliberately outside any realistic client range.
const PROBE_CLIENT: ClientId = ClientId(u64::MAX);

/// One supervised backend server.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Dialable address of the backend's split-protocol listener.
    pub addr: String,
    /// Directory holding the backend's durable `server.snap` — the
    /// source of truth for migration when the backend dies.
    pub snapshot_dir: PathBuf,
}

/// How the coordinator chooses a backend for a new (or migrated)
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Rotate through the alive, non-full backends in index order.
    RoundRobin,
    /// Send each session to the alive backend with the fewest
    /// coordinator-assigned sessions (ties broken by lowest index) —
    /// the Algorithm-2-flavoured choice: the emptiest pool has the
    /// most headroom for the session's reservation.
    MemoryAware,
}

/// Tuning knobs for a fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetOptions {
    /// Placement policy for `Connect` and migration targets.
    pub policy: PlacementPolicy,
    /// Gap between heartbeat rounds; with [`FleetOptions::max_missed`]
    /// it bounds detection latency at `interval × max_missed`.
    pub heartbeat_interval: Duration,
    /// Consecutive unanswered probes before a backend is ruled dead.
    pub max_missed: u32,
    /// Sessions the coordinator will assign to one backend. Should
    /// not exceed the backends' own session capacity — the backend
    /// still enforces its admission gates regardless.
    pub capacity_per_server: usize,
    /// Per-probe I/O deadline (connect errors count as misses too).
    pub probe_timeout: Duration,
}

/// `retry_after_ms` hint carried in `Redirect` replies. Zero is honest
/// for a placement: the target is ready now.
const REDIRECT_RETRY_AFTER_MS: u64 = 0;
/// `retry_after_ms` hint carried in `Busy` replies (migration window,
/// or every backend full).
const BUSY_RETRY_AFTER_MS: u64 = 25;

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            policy: PlacementPolicy::RoundRobin,
            heartbeat_interval: Duration::from_millis(50),
            max_missed: 3,
            capacity_per_server: 64,
            probe_timeout: Duration::from_millis(250),
        }
    }
}

/// Per-backend counters (satellite observability for the failover
/// soak: each must be nonzero where the scenario demands it).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Probes this backend failed to answer (lifetime total).
    pub heartbeats_missed: u64,
    /// Times this backend was ruled dead (at most 1 per run — the
    /// coordinator never re-admits a dead backend by itself).
    pub failovers: u64,
    /// Sessions migrated **off** this backend when it died.
    pub sessions_migrated: u64,
    /// Placements steered **to** this backend via `Redirect`.
    pub redirects_sent: u64,
}

/// Fleet-wide counters plus the per-backend breakdown.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Unanswered probes across all backends.
    pub heartbeats_missed: u64,
    /// Backends ruled dead.
    pub failovers: u64,
    /// Sessions successfully re-homed onto survivors.
    pub sessions_migrated: u64,
    /// Sessions that could not be re-homed (no survivor had room, or
    /// every import attempt failed) — their owners see `Busy`.
    pub migrations_failed: u64,
    /// `Redirect` replies sent (placements and resume steers).
    pub redirects_sent: u64,
    /// `Busy` replies sent (migration window or a full fleet).
    pub busy_turnaways: u64,
    /// Per-backend breakdown, indexed like the backend list.
    pub per_server: Vec<ServerStats>,
}

/// Mutable coordinator state, everything behind one lock: placement
/// is a strict serialization point so two `Connect`s can never both
/// land in the last free slot.
#[derive(Debug)]
struct FleetState {
    alive: Vec<bool>,
    /// Session home: client → backend index. Authoritative for
    /// capacity accounting — the coordinator counts what it assigned,
    /// not what a stale pong reported.
    placements: HashMap<ClientId, usize>,
    /// Failovers currently re-homing sessions. While nonzero, a
    /// `Resume` whose home is dead answers `Busy` instead of a
    /// terminal error — the state is in flight, not lost.
    migrating: u32,
    rr_next: usize,
    stats: FleetStats,
}

struct Shared {
    backends: Vec<BackendSpec>,
    options: FleetOptions,
    state: Mutex<FleetState>,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(backends: Vec<BackendSpec>, options: FleetOptions) -> Self {
        let n = backends.len();
        Shared {
            backends,
            options,
            state: Mutex::new(FleetState {
                alive: vec![true; n],
                placements: HashMap::new(),
                migrating: 0,
                rr_next: 0,
                stats: FleetStats {
                    per_server: vec![ServerStats::default(); n],
                    ..FleetStats::default()
                },
            }),
            shutdown: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().expect("fleet state lock")
    }

    fn assigned(st: &FleetState, backend: usize) -> usize {
        st.placements.values().filter(|&&b| b == backend).count()
    }

    /// Picks a backend for one session under the policy, or `None`
    /// when every alive backend is at capacity.
    fn pick(&self, st: &mut FleetState) -> Option<usize> {
        let n = self.backends.len();
        let fits = |st: &FleetState, b: usize| {
            st.alive[b] && Self::assigned(st, b) < self.options.capacity_per_server
        };
        match self.options.policy {
            PlacementPolicy::RoundRobin => {
                for k in 0..n {
                    let b = (st.rr_next + k) % n;
                    if fits(st, b) {
                        st.rr_next = (b + 1) % n;
                        return Some(b);
                    }
                }
                None
            }
            PlacementPolicy::MemoryAware => (0..n)
                .filter(|&b| fits(st, b))
                .min_by_key(|&b| (Self::assigned(st, b), b)),
        }
    }

    fn redirect(&self, st: &mut FleetState, client: ClientId, backend: usize) -> ServerMessage {
        st.stats.redirects_sent += 1;
        st.stats.per_server[backend].redirects_sent += 1;
        ServerMessage::Redirect {
            client,
            addr: self.backends[backend].addr.clone(),
            retry_after_ms: REDIRECT_RETRY_AFTER_MS,
        }
    }

    fn busy(&self, st: &mut FleetState, client: ClientId) -> ServerMessage {
        st.stats.busy_turnaways += 1;
        ServerMessage::Busy {
            client,
            retry_after_ms: BUSY_RETRY_AFTER_MS,
        }
    }

    /// Answers a `Connect`: place (or re-announce an existing live
    /// placement — placement is idempotent) or shed.
    fn place_connect(&self, client: ClientId) -> ServerMessage {
        let mut st = self.lock();
        if let Some(&home) = st.placements.get(&client) {
            if st.alive[home] {
                return self.redirect(&mut st, client, home);
            }
        }
        match self.pick(&mut st) {
            Some(b) => {
                st.placements.insert(client, b);
                self.redirect(&mut st, client, b)
            }
            None => self.busy(&mut st, client),
        }
    }

    /// Answers a `Resume`: steer home, or hold the client off with
    /// `Busy` while its home's death is still being migrated.
    fn place_resume(&self, client: ClientId) -> ServerMessage {
        let mut st = self.lock();
        match st.placements.get(&client).copied() {
            Some(home) if st.alive[home] => self.redirect(&mut st, client, home),
            // Home is dead: if migration is in flight the session will
            // re-appear on a survivor shortly; if migration already
            // failed, Busy is still the honest answer — state may yet
            // free up. Either way the client's budget is not charged.
            Some(_) => self.busy(&mut st, client),
            // Unknown session mid-migration: it may be this failover's
            // not-yet-imported tail.
            None if st.migrating > 0 => self.busy(&mut st, client),
            // Unknown session, quiet fleet: steer it like a fresh
            // placement. The backend answers the resume truthfully
            // (an `Evicted(IdleExpired)` notice), which beats a hang.
            None => match self.pick(&mut st) {
                Some(b) => {
                    st.placements.insert(client, b);
                    self.redirect(&mut st, client, b)
                }
                None => self.busy(&mut st, client),
            },
        }
    }

    fn pong(&self, client: ClientId, seq: u64) -> ServerMessage {
        let st = self.lock();
        let placed = st.placements.len() as u64;
        let cap = (self.backends.len() * self.options.capacity_per_server).max(1) as u64;
        ServerMessage::Pong {
            client,
            seq,
            live_sessions: placed,
            utilization_pct: (placed * 100) / cap,
        }
    }

    fn note_missed(&self, backend: usize) {
        let mut st = self.lock();
        st.stats.heartbeats_missed += 1;
        st.stats.per_server[backend].heartbeats_missed += 1;
    }

    fn is_alive(&self, backend: usize) -> bool {
        self.lock().alive[backend]
    }

    /// Re-homes every session of a dead backend onto survivors: read
    /// its last durable snapshot, replay each session record through a
    /// survivor's `ImportSession` gate, and repoint the placement map.
    /// Clients land via their normal `Resume` — by the time their
    /// redirect budget walks them back here, the map points at the new
    /// home.
    fn failover(&self, dead: usize) {
        {
            let mut st = self.lock();
            if !st.alive[dead] {
                return;
            }
            st.alive[dead] = false;
            st.migrating += 1;
            st.stats.failovers += 1;
            st.stats.per_server[dead].failovers += 1;
        }
        // Snapshot reads race nothing: the writer is dead, and the
        // atomic-rename protocol means any file present is complete.
        // No file (a backend that died before its first admission)
        // means no sessions to move.
        let decoded = SnapshotPolicy::read(&self.backends[dead].snapshot_dir)
            .and_then(|bytes| ServerState::from_bytes(&bytes).ok());
        let (seed, sessions) = match decoded {
            Some(state) => (state.seed, state.sessions),
            None => (0, Vec::new()),
        };
        for rec in sessions {
            let client = rec.client;
            let blob = bytes::Bytes::from(encode_session_record(seed, &rec));
            let mut migrated = false;
            // A target can die mid-migration; its own monitor will
            // rule on it, so a failed import just tries the next pick
            // — bounded by the fleet size.
            for _attempt in 0..self.backends.len() {
                let Some(target) = ({
                    let mut st = self.lock();
                    self.pick(&mut st)
                }) else {
                    break;
                };
                if import_session(&self.backends[target].addr, client, blob.clone()) {
                    let mut st = self.lock();
                    st.placements.insert(client, target);
                    st.stats.sessions_migrated += 1;
                    st.stats.per_server[dead].sessions_migrated += 1;
                    migrated = true;
                    break;
                }
            }
            if !migrated {
                self.lock().stats.migrations_failed += 1;
            }
        }
        self.lock().migrating -= 1;
    }
}

/// Sends one migration blob through a backend's `ImportSession` gate
/// (PROTOCOL.md §3.9); true only if the backend acked with `Imported`.
fn import_session(addr: &str, client: ClientId, blob: bytes::Bytes) -> bool {
    let Ok(mut t) = TcpTransport::connect(addr) else {
        return false;
    };
    if t.set_deadline(Some(Duration::from_secs(10))).is_err() {
        return false;
    }
    if t.send(&ClientMessage::ImportSession { client, blob })
        .is_err()
    {
        return false;
    }
    matches!(t.recv(), Ok(ServerMessage::Imported { .. }))
}

/// One heartbeat probe: dial, `Ping`, await the `Pong`. Any failure —
/// refused connect, deadline, wrong reply — reads as silence.
fn probe(addr: &str, seq: u64, timeout: Duration) -> Option<u64> {
    let mut t = TcpTransport::connect(addr).ok()?;
    t.set_deadline(Some(timeout)).ok()?;
    t.send(&ClientMessage::Ping {
        client: PROBE_CLIENT,
        seq,
    })
    .ok()?;
    match t.recv().ok()? {
        ServerMessage::Pong { seq, .. } => Some(seq),
        _ => None,
    }
}

fn health_loop(shared: Arc<Shared>) {
    let mut monitors: Vec<HeartbeatMonitor> = shared
        .backends
        .iter()
        .map(|_| HeartbeatMonitor::new(shared.options.max_missed))
        .collect();
    while !shared.shutdown.load(Ordering::Relaxed) {
        for (i, monitor) in monitors.iter_mut().enumerate() {
            if !shared.is_alive(i) {
                continue;
            }
            let (seq, verdict) = monitor.tick();
            match verdict {
                HeartbeatVerdict::Healthy => {}
                HeartbeatVerdict::Missed => shared.note_missed(i),
                HeartbeatVerdict::Dead => {
                    shared.note_missed(i);
                    shared.failover(i);
                    continue;
                }
            }
            if let Some(got) = probe(&shared.backends[i].addr, seq, shared.options.probe_timeout) {
                monitor.note_reply(got);
            }
        }
        std::thread::sleep(shared.options.heartbeat_interval);
    }
}

/// The coordinator's wire-facing half: a [`MessageHandler`] served by
/// the stock event loop. Control messages only — a tensor frame here
/// means a client ignored its redirect, and gets a typed error.
struct CoordinatorHandler {
    shared: Arc<Shared>,
}

impl MessageHandler for CoordinatorHandler {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        match msg {
            ClientMessage::Connect { client, .. } => Ok(Some(self.shared.place_connect(client))),
            ClientMessage::Resume { client, .. } => Ok(Some(self.shared.place_resume(client))),
            ClientMessage::Ping { client, seq } => Ok(Some(self.shared.pong(client, seq))),
            ClientMessage::Disconnect { .. } => Ok(None),
            ClientMessage::ImportSession { .. } => Err(ProtocolError::Unexpected(
                "the coordinator issues imports, it does not accept them".into(),
            )),
            ClientMessage::Activations { .. } | ClientMessage::Gradients { .. } => {
                Err(ProtocolError::Unexpected(
                    "coordinator is control-plane only: dial your redirect target".into(),
                ))
            }
        }
    }

    /// Every redirected client hangs up on us by design — a dropped
    /// coordinator connection is the success path, not a lost session.
    fn connection_lost(&mut self, _client: ClientId) {}
}

impl BatchHandler for CoordinatorHandler {}

/// Supervises N backends: placement at `Connect`, heartbeat failure
/// detection, snapshot-replay migration at failover. See the crate
/// docs for the protocol walk-through.
pub struct FleetCoordinator {
    shared: Arc<Shared>,
    server: Option<TcpEventServer<CoordinatorHandler>>,
    health: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl FleetCoordinator {
    /// Binds the coordinator's control listener (port 0 for ephemeral)
    /// and starts the health-check thread.
    ///
    /// # Errors
    ///
    /// Fails if `backends` is empty or the address cannot be bound.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        backends: Vec<BackendSpec>,
        options: FleetOptions,
    ) -> Result<FleetCoordinator, ProtocolError> {
        if backends.is_empty() {
            return Err(ProtocolError::Rejected(
                "a fleet needs at least one backend".into(),
            ));
        }
        let shared = Arc::new(Shared::new(backends, options));
        let handler = CoordinatorHandler {
            shared: shared.clone(),
        };
        let tcp = TcpOptions::default();
        // The control plane accepts until `shutdown` raises the loop's
        // flag (`EventLoopOptions::accept_limit` defaults to unbounded).
        let loop_options = EventLoopOptions {
            // A redirected client hangs up at once; a peer that dials
            // and then says nothing must not hold a connection forever.
            io_timeout: tcp.io_timeout,
            ..EventLoopOptions::default()
        };
        let server = TcpEventServer::spawn(addr, handler, loop_options, tcp)?;
        let bound = server.addr();
        let health = {
            let shared = shared.clone();
            std::thread::spawn(move || health_loop(shared))
        };
        Ok(FleetCoordinator {
            shared,
            server: Some(server),
            health: Some(health),
            addr: bound,
        })
    }

    /// The coordinator's bound control address — what clients dial
    /// first.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the fleet counters.
    pub fn stats(&self) -> FleetStats {
        self.shared.lock().stats.clone()
    }

    /// Current home of a session, if the coordinator has placed it.
    pub fn placement_of(&self, client: ClientId) -> Option<usize> {
        self.shared.lock().placements.get(&client).copied()
    }

    /// Which backends the coordinator currently believes are alive.
    pub fn alive(&self) -> Vec<bool> {
        self.shared.lock().alive.clone()
    }

    /// Stops the health thread and the control listener, returning the
    /// final counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for FleetCoordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_shared(n: usize, options: FleetOptions) -> Shared {
        let backends = (0..n)
            .map(|i| BackendSpec {
                addr: format!("backend-{i}:4400"),
                snapshot_dir: PathBuf::from(format!("/nonexistent/{i}")),
            })
            .collect();
        Shared::new(backends, options)
    }

    fn addr_of(msg: &ServerMessage) -> &str {
        match msg {
            ServerMessage::Redirect { addr, .. } => addr,
            other => panic!("expected Redirect, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_rotates_and_sheds_at_capacity() {
        let shared = fake_shared(
            3,
            FleetOptions {
                capacity_per_server: 2,
                ..FleetOptions::default()
            },
        );
        let mut homes = Vec::new();
        for k in 0..6 {
            homes.push(addr_of(&shared.place_connect(ClientId(k))).to_string());
        }
        assert_eq!(
            homes,
            [
                "backend-0:4400",
                "backend-1:4400",
                "backend-2:4400",
                "backend-0:4400",
                "backend-1:4400",
                "backend-2:4400"
            ]
        );
        // Slot 7: every backend is at its 2-session cap.
        let reply = shared.place_connect(ClientId(6));
        assert!(
            matches!(reply, ServerMessage::Busy { retry_after_ms, .. } if retry_after_ms == 25),
            "{reply:?}"
        );
        let st = shared.lock();
        assert_eq!(st.stats.redirects_sent, 6);
        assert_eq!(st.stats.busy_turnaways, 1);
        assert_eq!(st.stats.per_server[0].redirects_sent, 2);
    }

    #[test]
    fn placement_is_idempotent_for_a_known_client() {
        let shared = fake_shared(2, FleetOptions::default());
        let first = addr_of(&shared.place_connect(ClientId(9))).to_string();
        // A reconnecting client (fresh Connect after losing its
        // budget) must land on the same backend, not a new slot.
        let again = addr_of(&shared.place_connect(ClientId(9))).to_string();
        assert_eq!(first, again);
        assert_eq!(shared.lock().placements.len(), 1);
    }

    #[test]
    fn memory_aware_fills_the_least_loaded_backend() {
        let shared = fake_shared(
            3,
            FleetOptions {
                policy: PlacementPolicy::MemoryAware,
                ..FleetOptions::default()
            },
        );
        {
            let mut st = shared.lock();
            st.placements.insert(ClientId(100), 0);
            st.placements.insert(ClientId(101), 0);
            st.placements.insert(ClientId(102), 2);
        }
        assert_eq!(
            addr_of(&shared.place_connect(ClientId(0))),
            "backend-1:4400"
        );
        // Now 1 and 2 are tied at one session each: lowest index wins.
        assert_eq!(
            addr_of(&shared.place_connect(ClientId(1))),
            "backend-1:4400"
        );
        assert_eq!(
            addr_of(&shared.place_connect(ClientId(2))),
            "backend-2:4400"
        );
    }

    #[test]
    fn resume_follows_the_placement_map_through_a_failover() {
        let shared = fake_shared(2, FleetOptions::default());
        let home = addr_of(&shared.place_connect(ClientId(3))).to_string();
        assert_eq!(home, "backend-0:4400");
        assert_eq!(addr_of(&shared.place_resume(ClientId(3))), home);

        // Backend 0 dies; while its sessions are in flight, the
        // client is parked with Busy — its budget untouched.
        {
            let mut st = shared.lock();
            st.alive[0] = false;
            st.migrating = 1;
        }
        assert!(matches!(
            shared.place_resume(ClientId(3)),
            ServerMessage::Busy { .. }
        ));
        // Migration repoints the map; the next resume steers home.
        {
            let mut st = shared.lock();
            st.placements.insert(ClientId(3), 1);
            st.migrating = 0;
        }
        assert_eq!(addr_of(&shared.place_resume(ClientId(3))), "backend-1:4400");
    }

    #[test]
    fn unknown_resume_waits_out_migration_then_gets_a_fresh_steer() {
        let shared = fake_shared(2, FleetOptions::default());
        shared.lock().migrating = 1;
        assert!(matches!(
            shared.place_resume(ClientId(7)),
            ServerMessage::Busy { .. }
        ));
        shared.lock().migrating = 0;
        // Quiet fleet: an unknown resume is steered so the backend can
        // answer it truthfully instead of the client hanging.
        assert!(matches!(
            shared.place_resume(ClientId(7)),
            ServerMessage::Redirect { .. }
        ));
    }

    #[test]
    fn dead_backends_are_never_picked() {
        let shared = fake_shared(3, FleetOptions::default());
        shared.lock().alive[0] = false;
        shared.lock().alive[2] = false;
        for k in 0..4 {
            assert_eq!(
                addr_of(&shared.place_connect(ClientId(k))),
                "backend-1:4400"
            );
        }
        shared.lock().alive[1] = false;
        assert!(matches!(
            shared.place_connect(ClientId(99)),
            ServerMessage::Busy { .. }
        ));
    }

    #[test]
    fn the_handler_rejects_tensor_traffic_with_a_typed_error() {
        let shared = Arc::new(fake_shared(1, FleetOptions::default()));
        let mut handler = CoordinatorHandler { shared };
        let err = handler
            .handle(ClientMessage::Activations {
                client: ClientId(0),
                frame: bytes::Bytes::from_static(b"tensor"),
            })
            .expect_err("tensors must not be proxied");
        assert!(matches!(err, ProtocolError::Unexpected(_)), "{err}");
        let reply = handler
            .handle(ClientMessage::Ping {
                client: ClientId(0),
                seq: 41,
            })
            .expect("pings are answered")
            .expect("with a pong");
        assert!(
            matches!(reply, ServerMessage::Pong { seq: 41, .. }),
            "{reply:?}"
        );
    }

    #[test]
    fn failover_without_a_snapshot_still_marks_the_backend_dead() {
        let shared = fake_shared(2, FleetOptions::default());
        shared.place_connect(ClientId(5));
        shared.failover(0);
        let st = shared.lock();
        assert!(!st.alive[0]);
        assert_eq!(st.stats.failovers, 1);
        assert_eq!(st.stats.per_server[0].failovers, 1);
        assert_eq!(st.migrating, 0, "the migration window always closes");
        assert_eq!(
            st.stats.sessions_migrated, 0,
            "no snapshot, nothing to move"
        );
    }
}
