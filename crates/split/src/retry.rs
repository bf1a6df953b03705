//! The client driver: the one `Connect`/`Ready` handshake and the one
//! four-step exchange, wrapped in capped exponential backoff with
//! deterministic jitter.
//!
//! [`drive_client`] treats the retryable faults — timeouts,
//! disconnects, I/O faults — as interruptions: it drops the dead
//! connection, backs off per a [`RetryPolicy`], redials, and
//! re-attaches to its quarantined server session with the v1.1
//! `Resume` handshake (PROTOCOL.md §6). The two reconcilable positions
//! map onto client actions directly:
//!
//! * server at the client's step — abort the in-flight step and redo
//!   it (deterministic: batches key on the step index and the
//!   optimizer only advances on completed steps);
//! * server one step ahead — the gradient reply was lost in flight;
//!   apply the copy the server re-delivers inside `Resumed`.
//!
//! Everything else — stale epochs, expired quarantine (`Evicted`),
//! validation rejects — is terminal and surfaces as the typed error.
//! [`RetryPolicy::none`] makes every fault terminal: the single-shot
//! client is this driver with an empty budget, not a second loop.
//!
//! A v1.3 `Busy` shed (PROTOCOL.md §8) and a v1.4 `Redirect`
//! (PROTOCOL.md §9) sit outside those classes: they are not *faults* —
//! the server explicitly asked the client to come back, or to dial
//! elsewhere. The driver honors the `retry_after_ms` hint (jittered
//! upward so a shed herd does not reconnect in lock-step, capped by
//! [`RetryPolicy::max_backoff`]) instead of the blind exponential
//! ladder, and neither consumes the retry budget.

use std::time::Duration;

use rand::rngs::StdRng;

use menos_data::LossCurve;
use menos_net::DEFAULT_MAX_FRAME;
use menos_sim::{jitter_factor, seeded_rng};

use crate::client::SplitClient;
use crate::codec::server_kind_name;
use crate::message::{ClientMessage, EvictionCode, ServerMessage};
use crate::protocol::{ProtocolError, Transport, WireMessage};

/// Floor under every `Busy`/`Redirect` wait: even a zero hint from the
/// server combined with a zero-backoff policy must sleep a little, not
/// spin — a tight reconnect loop against an overloaded server is a
/// self-inflicted DoS. Jitter applies on top, so even floored waits
/// spread a herd.
const MIN_BUSY_DELAY: Duration = Duration::from_millis(1);

/// Reconnect policy: how many times to retry, and how long to wait
/// between attempts (capped exponential backoff with deterministic
/// ±50% jitter).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Consecutive failed attempts tolerated before giving up. The
    /// budget refills on every successful handshake, so a long run
    /// survives many *separate* faults as long as each is overcome
    /// within `retries` attempts.
    pub retries: u32,
    /// Backoff before the first retry; doubles per consecutive
    /// failure.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (decorrelates clients retrying after
    /// a shared fault, deterministically).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 5,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries a *fault*: the first timeout,
    /// disconnect or I/O error ends [`drive_client`]. `Busy` sheds and
    /// `Redirect`s are not faults and cost no budget, so even this
    /// policy waits a shed out (PROTOCOL.md §8.2) and follows a
    /// redirect — it redials, it just never resumes.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Whether an error is worth retrying: transient transport faults
    /// are; protocol rejections and state-machine violations are not.
    pub fn retryable(e: &ProtocolError) -> bool {
        matches!(
            e,
            ProtocolError::Timeout
                | ProtocolError::Disconnected
                | ProtocolError::Io(_)
                | ProtocolError::SessionActive(_)
                | ProtocolError::Busy { .. }
                | ProtocolError::Redirected { .. }
        )
    }

    /// The sleep before retry number `attempt` (0-based): base backoff
    /// doubled per attempt, capped, jittered ±50%.
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let base = self
            .backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        base.mul_f64(jitter_factor(rng, 0.5))
    }

    /// The sleep after a `Busy` shed (PROTOCOL.md §8.2): the server's
    /// `retry_after_ms` hint overrides the exponential ladder. A zero
    /// hint falls back to the base backoff as the jitter window —
    /// floored at [`MIN_BUSY_DELAY`], so a zero hint meeting a
    /// zero-backoff policy still sleeps instead of reconnecting in a
    /// tight loop.
    fn busy_delay(&self, retry_after_ms: u64, rng: &mut StdRng) -> Duration {
        let base = if retry_after_ms == 0 {
            self.backoff.max(MIN_BUSY_DELAY)
        } else {
            Duration::from_millis(retry_after_ms)
        };
        self.hinted_delay(base, rng)
    }

    /// The sleep before chasing a `Redirect` (PROTOCOL.md §9.2). A zero
    /// hint means "the target is ready now": only the
    /// [`MIN_BUSY_DELAY`] anti-spin floor applies, never the fault
    /// backoff — placement is not a failure to back off from.
    fn redirect_delay(&self, retry_after_ms: u64, rng: &mut StdRng) -> Duration {
        self.hinted_delay(
            Duration::from_millis(retry_after_ms).max(MIN_BUSY_DELAY),
            rng,
        )
    }

    /// A server-hinted wait: jittered *upward* — `[1×, 2×]` the base —
    /// so the client never comes back early and a herd spreads out,
    /// then capped by [`RetryPolicy::max_backoff`] so a hostile or
    /// confused server cannot park a client forever.
    fn hinted_delay(&self, base: Duration, rng: &mut StdRng) -> Duration {
        base.mul_f64(jitter_factor(rng, 0.5) + 0.5)
            .min(self.max_backoff.max(MIN_BUSY_DELAY))
    }
}

/// The client side of the protocol: `Connect`/`Ready`, then `steps`
/// additional four-step iterations, then a clean `Disconnect`. Returns
/// the client's loss curve.
///
/// `connect` is called once per connection attempt (including the
/// first) with the current target: `None` for the root the caller
/// started with (a plain server, or a fleet coordinator), `Some(addr)`
/// after a v1.4 `Redirect` steered the client (PROTOCOL.md §9). For
/// TCP it is a dial; for in-memory transports a fresh dial on the
/// server's listener queue, or [`already_connected`].
///
/// On a retryable fault the connection is dropped, the policy's
/// backoff elapses, `connect` mints a fresh transport, and the `Resume`
/// handshake re-attaches the quarantined session. A fault at a
/// redirected target also resets the route to the root, so a dead
/// target sends the client back to the coordinator for re-placement
/// instead of redialing a corpse until the budget runs dry.
///
/// # Errors
///
/// The first non-retryable [`ProtocolError`], or the last error once
/// the retry budget is exhausted. The client's local state is
/// consistent up to its last completed step either way.
pub fn drive_client<T, F>(
    client: &mut SplitClient,
    mut connect: F,
    steps: usize,
    policy: &RetryPolicy,
) -> Result<LossCurve, ProtocolError>
where
    T: Transport<Tx = ClientMessage, Rx = ServerMessage>,
    F: FnMut(Option<&str>) -> Result<T, ProtocolError>,
{
    let target = client.steps_completed() + steps;
    let mut rng = seeded_rng(policy.seed, &format!("retry-{}", client.id()));
    let mut established = false;
    let mut attempt: u32 = 0;
    let mut route: Option<String> = None;

    loop {
        let result = connect(route.as_deref()).and_then(|mut transport| {
            handshake(client, &mut transport, &mut established)?;
            // A completed handshake is progress: refill the budget.
            attempt = 0;
            while client.steps_completed() < target {
                run_one_step(client, |msg| {
                    transport.send(&msg)?;
                    transport.recv()
                })?;
            }
            transport.send(&ClientMessage::Disconnect {
                client: client.id(),
            })
        });
        match result {
            Ok(()) => return Ok(client.curve().clone()),
            Err(ProtocolError::Busy { retry_after_ms, .. }) => {
                // A shed is not a fault: no session state was touched
                // and the server explicitly invited us back. Honor the
                // hint without consuming the retry budget.
                std::thread::sleep(policy.busy_delay(retry_after_ms, &mut rng));
            }
            Err(ProtocolError::Redirected {
                addr,
                retry_after_ms,
                ..
            }) => {
                // Placement steering (§9.2): dial where the session
                // lives. Like a shed, no budget is consumed.
                route = Some(addr);
                std::thread::sleep(policy.redirect_delay(retry_after_ms, &mut rng));
            }
            Err(e) => {
                // The transport was dropped above, so the server sees
                // EOF and quarantines the session before we redial.
                if !RetryPolicy::retryable(&e) || attempt >= policy.retries {
                    return Err(e);
                }
                // A faulted redirected target may be dead; go back to
                // the root for re-placement.
                route = None;
                std::thread::sleep(policy.delay(attempt, &mut rng));
                attempt += 1;
            }
        }
    }
}

/// The `connect` of a caller that holds one already-connected transport
/// (an in-memory pair, a lent `&mut` endpoint): yields it on the first
/// call; a second dial finds the connection gone.
pub fn already_connected<T>(transport: T) -> impl FnMut(Option<&str>) -> Result<T, ProtocolError> {
    let mut conn = Some(transport);
    move |_| conn.take().ok_or(ProtocolError::Disconnected)
}

/// Runs the connection handshake: `Connect`/`Ready` the first time,
/// `Resume`/`Resumed` with step reconciliation on every reconnect.
fn handshake<T>(
    client: &mut SplitClient,
    transport: &mut T,
    established: &mut bool,
) -> Result<(), ProtocolError>
where
    T: Transport<Tx = ClientMessage, Rx = ServerMessage>,
{
    let id = client.id();
    let last_step = client.steps_completed() as u64;
    transport.send(&if *established {
        ClientMessage::Resume {
            client: id,
            epoch: client.epoch(),
            last_step,
        }
    } else {
        ClientMessage::Connect {
            client: id,
            ft: client.ft_config().clone(),
            split: client.split(),
            epoch: client.epoch(),
            codecs: client.advertised_codecs(),
        }
    })?;
    match transport.recv()? {
        ServerMessage::Ready { codec, .. } if !*established => {
            client.adopt_codec(codec);
            *established = true;
            Ok(())
        }
        ServerMessage::Resumed {
            epoch,
            server_step,
            replay,
            ..
        } if *established => {
            client.set_epoch(epoch);
            if server_step == last_step + 1 {
                // The server finished the step but its reply was
                // lost; apply the re-delivered copy.
                if !client.awaiting_gradients() {
                    return Err(ProtocolError::Unexpected(
                        "server replayed a step the client never finished sending".into(),
                    ));
                }
                match ServerMessage::from_wire(&replay, DEFAULT_MAX_FRAME)? {
                    ServerMessage::ServerGradients { frame, .. } => {
                        let g_s = client.decode_frame(&frame)?;
                        client.receive_server_gradients(&g_s);
                    }
                    other => return Err(unexpected("replayed ServerGradients", &other)),
                }
            } else {
                // Same step on both sides: redo the aborted
                // in-flight step (if any) from scratch.
                client.abort_step();
            }
            Ok(())
        }
        ServerMessage::Evicted { code, .. } if *established => Err(ProtocolError::Rejected(
            format!("session evicted ({code:?}); resume impossible"),
        )),
        // Typed so the driver can honor the hint and chase the route.
        ServerMessage::Busy {
            client,
            retry_after_ms,
        } => Err(ProtocolError::Busy {
            client,
            retry_after_ms,
        }),
        ServerMessage::Redirect {
            client,
            addr,
            retry_after_ms,
        } => Err(ProtocolError::Redirected {
            client,
            addr,
            retry_after_ms,
        }),
        other => Err(unexpected(
            if *established { "Resumed" } else { "Ready" },
            &other,
        )),
    }
}

/// One four-step protocol iteration (Fig. 1): activations out, server
/// activations in, gradients out, server gradients in. `exchange`
/// carries one message to the server and returns its reply — a
/// transport's send-then-receive for [`drive_client`], the in-process
/// codec round trip for [`run_split_steps`](crate::run_split_steps).
pub(crate) fn run_one_step(
    client: &mut SplitClient,
    mut exchange: impl FnMut(ClientMessage) -> Result<ServerMessage, ProtocolError>,
) -> Result<(), ProtocolError> {
    let id = client.id();
    let x_c = client.start_step();
    let frame = client.encode_activations(&x_c);
    let x_s = match exchange(ClientMessage::Activations { client: id, frame })? {
        ServerMessage::ServerActivations { frame, .. } => client.decode_frame(&frame)?,
        ServerMessage::Evicted { code, .. } => return Err(evicted_mid_run(code)),
        other => return Err(unexpected("ServerActivations", &other)),
    };
    let (_loss, g_c) = client.receive_server_activations(&x_s);
    let frame = client.encode_gradients(&g_c);
    let g_s = match exchange(ClientMessage::Gradients { client: id, frame })? {
        ServerMessage::ServerGradients { frame, .. } => client.decode_frame(&frame)?,
        ServerMessage::Evicted { code, .. } => return Err(evicted_mid_run(code)),
        other => return Err(unexpected("ServerGradients", &other)),
    };
    client.receive_server_gradients(&g_s);
    Ok(())
}

/// Classifies an `Evicted` notice arriving *mid-step*. `Timeout` and
/// `Shutdown` park the session in quarantine (PROTOCOL.md §6.4) — the
/// server invites a later `Resume`, possibly at a different home after
/// a fleet failover — so they map to the retryable disconnect the
/// notice accompanies. `IdleExpired` means the parked state is gone:
/// terminal.
fn evicted_mid_run(code: EvictionCode) -> ProtocolError {
    match code {
        EvictionCode::Timeout | EvictionCode::Shutdown => ProtocolError::Disconnected,
        EvictionCode::IdleExpired => {
            ProtocolError::Rejected("session evicted (IdleExpired); cannot continue".into())
        }
    }
}

fn unexpected(wanted: &str, got: &ServerMessage) -> ProtocolError {
    ProtocolError::Unexpected(format!("expected {wanted}, got {}", server_kind_name(got)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(RetryPolicy::retryable(&ProtocolError::Timeout));
        assert!(RetryPolicy::retryable(&ProtocolError::Disconnected));
        assert!(RetryPolicy::retryable(&ProtocolError::Io(
            std::io::Error::other("x")
        )));
        assert!(RetryPolicy::retryable(&ProtocolError::SessionActive(
            crate::ClientId(1)
        )));
        assert!(RetryPolicy::retryable(&ProtocolError::Busy {
            client: crate::ClientId(1),
            retry_after_ms: 50,
        }));
        assert!(RetryPolicy::retryable(&ProtocolError::Redirected {
            client: crate::ClientId(1),
            addr: "10.0.0.3:4400".into(),
            retry_after_ms: 0,
        }));
        assert!(!RetryPolicy::retryable(&ProtocolError::Rejected(
            "r".into()
        )));
        assert!(!RetryPolicy::retryable(&ProtocolError::StaleEpoch {
            client: crate::ClientId(1),
            expected: 2,
            got: 1,
        }));
        assert!(!RetryPolicy::retryable(&ProtocolError::OutOfOrder(
            "o".into()
        )));
    }

    #[test]
    fn delay_doubles_caps_and_is_deterministic() {
        let policy = RetryPolicy {
            retries: 8,
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(500),
            seed: 7,
        };
        let mut a = seeded_rng(7, "retry-client-0");
        let mut b = seeded_rng(7, "retry-client-0");
        let da: Vec<Duration> = (0..6).map(|i| policy.delay(i, &mut a)).collect();
        let db: Vec<Duration> = (0..6).map(|i| policy.delay(i, &mut b)).collect();
        assert_eq!(da, db, "same seed, same delays");
        // Jitter is ±50%, so attempt i's delay lies within
        // [base/2, 3*base/2] where base = min(100ms << i, 500ms).
        for (i, d) in da.iter().enumerate() {
            let base = Duration::from_millis(100)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(500));
            assert!(*d >= base / 2 && *d <= base * 3 / 2, "attempt {i}: {d:?}");
        }
        // The cap binds from attempt 3 on (800ms -> 500ms).
        assert!(da[4] <= Duration::from_millis(750));
        // A huge attempt index must not overflow the shift.
        let _ = policy.delay(40, &mut a);
    }

    /// The jitter stream is seeded per (policy seed, client): two
    /// clients retrying after a shared fault must not sleep in
    /// lock-step, but each stream is individually reproducible.
    #[test]
    fn jitter_streams_decorrelate_across_seeds() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(10),
            ..RetryPolicy::default()
        };
        let mut a = seeded_rng(7, "retry-client-0");
        let mut b = seeded_rng(8, "retry-client-0");
        let mut c = seeded_rng(7, "retry-client-1");
        let da: Vec<Duration> = (0..8).map(|i| policy.delay(i, &mut a)).collect();
        let db: Vec<Duration> = (0..8).map(|i| policy.delay(i, &mut b)).collect();
        let dc: Vec<Duration> = (0..8).map(|i| policy.delay(i, &mut c)).collect();
        assert_ne!(da, db, "different policy seeds must decorrelate");
        assert_ne!(da, dc, "different clients must decorrelate");
    }

    /// PROTOCOL.md §8.2: the `Busy` hint overrides the exponential
    /// ladder — the sleep is at least the hint (jittered upward to
    /// spread the herd) — but the policy's backoff cap still binds as
    /// an upper bound, and a zero hint degrades to the base backoff.
    #[test]
    fn busy_delay_honors_hint_and_backoff_cap() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut rng = seeded_rng(3, "busy");
        for _ in 0..32 {
            let d = policy.busy_delay(40, &mut rng);
            assert!(
                d >= Duration::from_millis(40) && d <= Duration::from_millis(80),
                "hinted delay {d:?} outside [1x, 2x] the hint"
            );
            // A hint at or past the cap pins the sleep to the cap.
            assert_eq!(policy.busy_delay(500, &mut rng), policy.max_backoff);
            let d = policy.busy_delay(0, &mut rng);
            assert!(
                d >= Duration::from_millis(10) && d <= Duration::from_millis(20),
                "zero hint must fall back to the base backoff, got {d:?}"
            );
        }
        // Same seed, same stream: the herd spread is reproducible.
        let mut a = seeded_rng(9, "busy");
        let mut b = seeded_rng(9, "busy");
        let da: Vec<Duration> = (0..6).map(|_| policy.busy_delay(25, &mut a)).collect();
        let db: Vec<Duration> = (0..6).map(|_| policy.busy_delay(25, &mut b)).collect();
        assert_eq!(da, db);
    }

    /// PROTOCOL.md §3.8: a `Redirect` hint of 0 means "dial
    /// immediately" — only the anti-spin floor applies, never the
    /// fault backoff (which a `Busy` zero hint does fall back to). A
    /// nonzero hint is jittered and capped exactly like a `Busy` hint.
    #[test]
    fn redirect_delay_zero_hint_ignores_the_backoff() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut rng = seeded_rng(3, "redirect");
        for _ in 0..32 {
            let d = policy.redirect_delay(0, &mut rng);
            assert!(
                d >= MIN_BUSY_DELAY && d <= MIN_BUSY_DELAY * 2,
                "zero redirect hint slept {d:?}, want the jittered floor"
            );
            let d = policy.redirect_delay(40, &mut rng);
            assert!(
                d >= Duration::from_millis(40) && d <= Duration::from_millis(80),
                "hinted redirect delay {d:?} outside [1x, 2x] the hint"
            );
            assert_eq!(policy.redirect_delay(500, &mut rng), policy.max_backoff);
        }
    }

    /// The degenerate corner of §8.2: a server hinting `retry_after_ms:
    /// 0` at a client whose policy has zero backoff must NOT permit a
    /// tight reconnect loop — the jittered floor applies instead.
    #[test]
    fn busy_delay_zero_hint_zero_backoff_still_sleeps() {
        let zeroed = RetryPolicy {
            retries: 0,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 11,
        };
        let mut rng = seeded_rng(11, "busy-floor");
        for _ in 0..64 {
            let d = zeroed.busy_delay(0, &mut rng);
            assert!(
                d >= MIN_BUSY_DELAY,
                "zero hint + zero backoff slept only {d:?}"
            );
            assert!(d <= MIN_BUSY_DELAY * 2, "floored delay {d:?} unjittered?");
            // A nonzero hint is floored too, never crushed to zero by
            // a zero max_backoff.
            assert!(zeroed.busy_delay(1, &mut rng) >= MIN_BUSY_DELAY);
        }
        // A sane policy is unaffected by the floor: the existing
        // backoff window binds, not MIN_BUSY_DELAY.
        let sane = RetryPolicy {
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let d = sane.busy_delay(0, &mut rng);
        assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(20));
    }

    // ------------------------------------------------------------------
    // End-to-end driver tests against a minimal resumable echo server.
    // ------------------------------------------------------------------

    use std::sync::Arc;

    use crate::event_loop::{
        event_channel_listener, ChannelDialer, EventLoopOptions, ServerEventLoop,
    };
    use crate::protocol::{channel_pair, free_link, ChannelTransport};
    use crate::testkit::{client as test_client, EchoHandler};
    use crate::ClientId;

    /// A hand-scripted server end: what a test sends on the second
    /// endpoint is what the driver reads.
    fn scripted() -> (
        ChannelTransport<ClientMessage, ServerMessage>,
        ChannelTransport<ServerMessage, ClientMessage>,
    ) {
        channel_pair(free_link(), free_link())
    }

    /// An event loop over the echo handler, stopped and joined when the
    /// test drops it. Dial it through `dialer`.
    struct EchoServer {
        dialer: ChannelDialer,
        stop: Arc<std::sync::atomic::AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    fn echo_server(kill_every: u32) -> EchoServer {
        let handler = EchoHandler {
            kill_every,
            ..EchoHandler::default()
        };
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(listener, handler, EventLoopOptions::default());
        let stop = event_loop.shutdown_handle();
        let thread = std::thread::spawn(move || {
            event_loop.run();
        });
        EchoServer {
            dialer,
            stop,
            thread: Some(thread),
        }
    }

    impl Drop for EchoServer {
        fn drop(&mut self) {
            self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// A `Busy` shed is not a fault: even under [`RetryPolicy::none`]
    /// — what a single-shot caller passes — the driver sleeps the hint
    /// (§8.2) and reconnects, as many times as it is shed, and still
    /// completes.
    #[test]
    fn busy_shed_does_not_consume_the_retry_budget() {
        let policy = RetryPolicy::none();
        let server = echo_server(0);
        let mut client = test_client(1);
        let mut shed_conns = Vec::new(); // keep server ends alive
        let mut dials = 0u32;
        let curve = drive_client(
            &mut client,
            |_| {
                dials += 1;
                if dials <= 2 {
                    // Shed with a hint, twice, before admitting.
                    let (client_t, mut server_t) = scripted();
                    server_t.send(&ServerMessage::Busy {
                        client: ClientId(0),
                        retry_after_ms: 1,
                    })?;
                    shed_conns.push(server_t);
                    Ok(client_t)
                } else {
                    server.dialer.dial()
                }
            },
            3,
            &policy,
        )
        .expect("busy sheds must not exhaust a zero retry budget");
        assert_eq!(curve.points().len(), 3);
        assert_eq!(dials, 3, "two sheds, then one admitted connection");
    }

    /// A `Redirect` is placement, not a fault: with a zero retry
    /// budget the driver chases it to the named address and
    /// completes. The plain connect path (`route == None`) plays the
    /// coordinator; the redirected path dials the echo server.
    #[test]
    fn routed_driver_chases_redirects_without_budget() {
        let policy = RetryPolicy {
            retries: 0,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 4,
        };
        let server = echo_server(0);
        let mut client = test_client(4);
        let mut coordinator_conns = Vec::new();
        let mut routes_seen = Vec::new();
        let curve = drive_client(
            &mut client,
            |route| {
                routes_seen.push(route.map(str::to_owned));
                match route {
                    None => {
                        // The "coordinator": answer the handshake with
                        // a Redirect and keep the connection alive long
                        // enough for the client to read it.
                        let (client_t, mut server_t) = scripted();
                        server_t.send(&ServerMessage::Redirect {
                            client: ClientId(0),
                            addr: "worker-1".into(),
                            retry_after_ms: 0,
                        })?;
                        coordinator_conns.push(server_t);
                        Ok(client_t)
                    }
                    Some("worker-1") => server.dialer.dial(),
                    Some(other) => panic!("unexpected route {other}"),
                }
            },
            3,
            &policy,
        )
        .expect("a redirect must not consume the (zero) retry budget");
        assert_eq!(curve.points().len(), 3);
        assert_eq!(
            routes_seen,
            vec![None, Some("worker-1".to_owned())],
            "root dial, then exactly one chased redirect"
        );
    }

    /// A retryable fault at a redirected target resets the route to
    /// the root for re-placement instead of redialing the dead target.
    #[test]
    fn routed_driver_falls_back_to_root_when_target_dies() {
        let policy = RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 5,
        };
        let server = echo_server(0);
        let mut client = test_client(5);
        let mut coordinator_conns = Vec::new();
        let mut routes_seen = Vec::new();
        let curve = drive_client(
            &mut client,
            |route| {
                routes_seen.push(route.map(str::to_owned));
                match route {
                    None => {
                        let (client_t, mut server_t) = scripted();
                        let addr = if coordinator_conns.is_empty() {
                            "dead-worker"
                        } else {
                            "live-worker"
                        };
                        server_t.send(&ServerMessage::Redirect {
                            client: ClientId(0),
                            addr: addr.into(),
                            retry_after_ms: 0,
                        })?;
                        coordinator_conns.push(server_t);
                        Ok(client_t)
                    }
                    // The first placement is a corpse: dialing it fails.
                    Some("dead-worker") => Err(ProtocolError::Disconnected),
                    Some("live-worker") => server.dialer.dial(),
                    Some(other) => panic!("unexpected route {other}"),
                }
            },
            2,
            &policy,
        )
        .expect("a dead target must send the client back for re-placement");
        assert_eq!(curve.points().len(), 2);
        assert_eq!(
            routes_seen,
            vec![
                None,
                Some("dead-worker".to_owned()),
                None,
                Some("live-worker".to_owned()),
            ],
            "placed, target dead, re-placed at the root, completed"
        );
    }

    /// The retry budget refills on every successful handshake: with
    /// `retries: 1`, a run interrupted by two separate faults (each
    /// overcome within one attempt) still completes.
    #[test]
    fn retry_budget_refills_on_successful_handshake() {
        let policy = RetryPolicy {
            retries: 1,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 2,
        };
        // Kill every 5th handler message: Connect, act, grad, act,
        // KILL — then per reconnect: Resume, act, grad, act, KILL —
        // one completed step per connection, two faults total.
        let server = echo_server(5);
        let mut client = test_client(2);
        let mut dials = 0u32;
        let curve = drive_client(
            &mut client,
            |_| {
                dials += 1;
                server.dialer.dial()
            },
            3,
            &policy,
        )
        .expect("per-fault budget must refill after each successful handshake");
        assert_eq!(curve.points().len(), 3);
        assert!(
            dials >= 3,
            "expected at least two faulted reconnects, got {dials} dials"
        );
    }

    /// What the single-shot client newly gets from the one driver: an
    /// `Evicted` notice mid-step is classified, not reported as an
    /// unexpected message. `Timeout`/`Shutdown` park the session, so
    /// they surface as the retryable `Disconnected`; `IdleExpired` is
    /// the terminal `Rejected`.
    #[test]
    fn mid_step_eviction_is_classified_even_without_retries() {
        for code in [
            EvictionCode::Timeout,
            EvictionCode::Shutdown,
            EvictionCode::IdleExpired,
        ] {
            // The channel buffers, so the server's half of the script
            // can be queued up front: Ready, then the eviction.
            let (client_t, mut server_t) = scripted();
            let (client, codec) = (ClientId(0), menos_net::Codec::F32Raw);
            server_t
                .send(&ServerMessage::Ready { client, codec })
                .unwrap();
            server_t
                .send(&ServerMessage::Evicted { client, code })
                .unwrap();
            let mut client = test_client(6);
            let err = drive_client(
                &mut client,
                already_connected(client_t),
                1,
                &RetryPolicy::none(),
            )
            .expect_err("an evicted step cannot complete");
            let expected = match code {
                EvictionCode::IdleExpired => matches!(err, ProtocolError::Rejected(_)),
                _ => matches!(err, ProtocolError::Disconnected),
            };
            assert!(expected, "{code:?} surfaced as {err}");
        }
    }
}
