//! The acceptance harness of the unified transport stack: every
//! transport moves the same codec bytes through the same state
//! machine and the same pump, so (a) training is byte-identical across
//! transports and to the in-process oracle, (b) a faulty peer costs
//! exactly its own connection — dropped, counted, its session
//! quarantined — while bystanders train, and (c) a connection can act
//! only on the session it bound.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ProtocolError, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::net::{encode_frame_header, read_frame_bytes, DEFAULT_MAX_FRAME};
use menos::sim::seeded_rng;
use menos::split::{
    drive_client, event_channel_listener, run_split_steps, run_tcp_client, ClientId, ClientMessage,
    EventLoopOptions, EventLoopStats, EvictionCode, ForwardMode, RetryPolicy, ServerEventLoop,
    ServerMessage, ServerSession, SplitClient, SplitSpec, TcpEventServer, TcpOptions, Transport,
    WireMessage,
};

const SEED: u64 = 4100;

fn setup() -> (
    String,
    Vocab,
    ModelConfig,
    Arc<Mutex<menos::tensor::ParamStore>>,
) {
    let text = wiki_corpus(41, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut rng = seeded_rng(41, "transport-unification");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
    (text, vocab, config, base)
}

fn make_server(
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> Arc<Mutex<MenosServer>> {
    let view = base.lock().unwrap().shared_view(false);
    Arc::new(Mutex::new(MenosServer::from_store(
        config.clone(),
        view,
        ServerSpec::v100(ServerMode::menos()),
        SEED,
    )))
}

fn make_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> SplitClient {
    let vocab = Vocab::from_text(text);
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    let ds = TokenDataset::new(vocab.encode(text), 16, k);
    let view = base.lock().unwrap().shared_view(false);
    SplitClient::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        ft,
        ds,
        k,
    )
}

fn connect_msg(client: &SplitClient) -> ClientMessage {
    ClientMessage::Connect {
        client: client.id(),
        ft: client.ft_config().clone(),
        split: client.split(),
        epoch: 1,
        codecs: 0,
    }
}

fn accepting(accept_limit: usize) -> EventLoopOptions {
    EventLoopOptions {
        accept_limit,
        ..EventLoopOptions::default()
    }
}

type CurveBits = Vec<(usize, u32)>;

fn bits(curve: &LossCurve) -> CurveBits {
    curve
        .points()
        .iter()
        .map(|&(s, l)| (s, l.to_bits()))
        .collect()
}

/// The in-process oracle every pumped run must reproduce bit-for-bit:
/// client `k` stepped against the session `MenosServer` builds for it
/// at `Connect` (same seed derivation), every tensor through the wire
/// codec, no transport and no pump — the reference the benchmark's
/// correctness gate uses.
fn reference_curve(
    k: u64,
    steps: usize,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> CurveBits {
    let mut client = make_client(k, text, config, base);
    let view = base.lock().unwrap().shared_view(false);
    let mut session = ServerSession::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        client.ft_config(),
        SEED.wrapping_add(k),
    );
    bits(&run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        steps,
    ))
}

/// A hand-driven peer on a real socket: well-formed messages, raw
/// bytes, and abrupt hang-ups, in whatever order a test scripts them.
struct RawPeer(TcpStream);

impl RawPeer {
    fn dial(addr: SocketAddr) -> RawPeer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read deadline");
        RawPeer(stream)
    }

    fn send(&mut self, msg: &ClientMessage) {
        self.send_raw(&msg.to_wire());
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.0.write_all(bytes).expect("write");
    }

    fn recv(&mut self) -> ServerMessage {
        let frame = read_frame_bytes(&mut self.0, DEFAULT_MAX_FRAME).expect("a reply frame");
        ServerMessage::from_wire(&frame, DEFAULT_MAX_FRAME).expect("a well-formed reply")
    }

    /// Handshakes as `client`'s owner.
    fn connected(addr: SocketAddr, client: &SplitClient) -> RawPeer {
        let mut peer = RawPeer::dial(addr);
        peer.send(&connect_msg(client));
        assert!(matches!(peer.recv(), ServerMessage::Ready { .. }));
        peer
    }

    /// Blocks until the server has dropped this connection (EOF, or a
    /// reset when it closed with our bytes unread).
    fn expect_closed(mut self) {
        let mut buf = [0u8; 1];
        assert!(
            matches!(self.0.read(&mut buf), Ok(0) | Err(_)),
            "the server must close the connection"
        );
    }
}

/// Polls `cond` (the handler is shared with a running loop) until it
/// holds; a pump that never gets there fails the test, not hangs it.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn zeros_frame() -> bytes::Bytes {
    menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64]))
}

/// What the pump owes a faulty peer, on the server that ships: the
/// connection is dropped and counted, its session is quarantined (never
/// left live), and nobody else notices. The typed identity of each
/// fault is asserted where it is produced — `Truncated` by the codec
/// proptests, `TooLarge` by `FrameAccumulator`'s tests, `OutOfOrder` by
/// `MenosServer::handle`'s — the pump only has to contain them.
#[test]
fn faulty_peers_cost_their_own_connection_and_nothing_else() {
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);
    // Four faulty connections, one concurrent bystander, one after.
    let server = TcpEventServer::spawn(
        "127.0.0.1:0",
        handler.clone(),
        accepting(6),
        TcpOptions::default(),
    )
    .expect("bind");
    let addr = server.addr();
    let victim = make_client(7, &text, &config, &base);
    // Live means holding an Alg. 2 reservation; a parked session holds none.
    let victim_live = || handler.lock().unwrap().demands_of(ClientId(7)).is_some();
    let activations = ClientMessage::Activations {
        client: ClientId(7),
        frame: zeros_frame(),
    };

    // A healthy client trains throughout the abuse.
    let concurrent = {
        let mut healthy = make_client(2, &text, &config, &base);
        std::thread::spawn(move || {
            run_tcp_client(&addr.to_string(), &mut healthy, 3, &RetryPolicy::none())
                .expect("concurrent bystander")
        })
    };

    // Truncated frame after a successful connect: nine bytes of a
    // tensor message, then the peer vanishes.
    let mut peer = RawPeer::connected(addr, &victim);
    peer.send_raw(&activations.to_wire()[..9]);
    drop(peer);
    wait_until("the truncated peer's session to be parked", || {
        handler.lock().unwrap().quarantined_clients() == 1
    });

    // Hostile oversize length declaration: refused from the header.
    let mut peer = RawPeer::connected(addr, &victim);
    peer.send_raw(&encode_frame_header(2, 0, u32::MAX));
    peer.expect_closed();
    assert!(!victim_live(), "parked before the connection closed");

    // Out-of-order message: gradients before any forward.
    let mut peer = RawPeer::connected(addr, &victim);
    peer.send(&ClientMessage::Gradients {
        client: ClientId(7),
        frame: zeros_frame(),
    });
    peer.expect_closed();
    assert!(!victim_live(), "parked before the connection closed");

    // Mid-step hang-up: one good forward, then the peer is gone.
    let mut peer = RawPeer::connected(addr, &victim);
    peer.send(&activations);
    assert!(matches!(
        peer.recv(),
        ServerMessage::ServerActivations { .. }
    ));
    drop(peer);
    wait_until("the vanished peer's session to be parked", || {
        !victim_live()
    });

    // Through all that abuse the concurrent client trained, bit-exact,
    // and an unrelated one still trains on the same server instance.
    let curve = concurrent.join().expect("bystander thread");
    assert_eq!(bits(&curve), reference_curve(2, 3, &text, &config, &base));
    let mut healthy = make_client(1, &text, &config, &base);
    let curve = run_tcp_client(&addr.to_string(), &mut healthy, 3, &RetryPolicy::none())
        .expect("bystander after the abuse");
    assert_eq!(bits(&curve), reference_curve(1, 3, &text, &config, &base));

    let (_handler, stats) = server.join().expect("loop finished");
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.conn_errors, 4, "one per faulty peer: {stats:?}");
    assert_eq!(stats.served, 2, "both bystanders disconnected cleanly");
    // Every faulted incarnation of client 7 was parked, never left
    // live; each reconnect replaced the parked one.
    let srv = handler.lock().unwrap();
    assert_eq!((srv.active_clients(), srv.quarantined_clients()), (0, 1));
}

/// Silence past `io_timeout`: the pump evicts with a `Timeout` notice,
/// parks the session, and counts the eviction.
#[test]
fn a_silent_peer_is_evicted_with_a_notice_and_its_session_parked() {
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);
    let options = EventLoopOptions {
        accept_limit: 1,
        io_timeout: Some(Duration::from_millis(100)),
        ..EventLoopOptions::default()
    };
    let server = TcpEventServer::spawn(
        "127.0.0.1:0",
        handler.clone(),
        options,
        TcpOptions::default(),
    )
    .expect("bind");
    let victim = make_client(7, &text, &config, &base);
    let mut peer = RawPeer::connected(server.addr(), &victim);
    // ...and then nothing. The next frame is the server's goodbye.
    assert!(matches!(
        peer.recv(),
        ServerMessage::Evicted {
            client: ClientId(7),
            code: EvictionCode::Timeout,
        }
    ));
    peer.expect_closed();
    let (_handler, stats) = server.join().expect("loop finished");
    assert_eq!((stats.evicted, stats.conn_errors, stats.served), (1, 1, 0));
    let srv = handler.lock().unwrap();
    assert_eq!((srv.active_clients(), srv.quarantined_clients()), (0, 1));
}

// ----------------------------------------------------------------------
// Many clients on one pump: ready-sets must be bit-identical to the
// per-client in-process oracle, on every transport.
// ----------------------------------------------------------------------

/// Trains `n` clients against one `ServerEventLoop` thread over
/// in-memory channels, returning per-client curves and loop counters.
fn event_loop_fleet(
    n: u64,
    steps: usize,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> (Vec<CurveBits>, EventLoopStats) {
    let none = RetryPolicy::none();
    let handler = make_server(config, base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(listener, handler.clone(), accepting(n as usize));
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let mut drivers = Vec::new();
    for k in 0..n {
        let mut client = make_client(k, text, config, base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            bits(
                &drive_client(&mut client, |_| dialer.dial(), steps, &none)
                    .expect("event-loop fleet"),
            )
        }));
    }
    let curves: Vec<CurveBits> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let (_h, stats) = loop_thread.join().expect("loop thread");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
    (curves, stats)
}

#[test]
fn event_loop_curves_are_bit_identical_to_the_oracle_on_all_transports() {
    let none = RetryPolicy::none();
    let (text, _vocab, config, base) = setup();
    const N: u64 = 4;
    const STEPS: usize = 3;

    let reference: Vec<CurveBits> = (0..N)
        .map(|k| reference_curve(k, STEPS, &text, &config, &base))
        .collect();
    for curve in &reference {
        assert_eq!(curve.len(), STEPS);
    }

    // Channel transport through the event loop.
    let (channel_curves, stats) = event_loop_fleet(N, STEPS, &text, &config, &base);
    assert_eq!(channel_curves, reference, "channel event loop diverged");
    assert_eq!(stats.accepted, N);
    assert_eq!(stats.served, N);
    assert_eq!(stats.conn_errors, 0);
    assert_eq!(stats.batched_messages, N * STEPS as u64 * 2);

    // Channels over simulated links (same bytes, plus virtual transfer
    // time on heterogeneous per-client links).
    let handler = make_server(&config, &base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(listener, handler.clone(), accepting(N as usize));
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, &text, &config, &base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            let dial = |_: Option<&str>| {
                dialer.dial_over(
                    menos::net::WanLink::lan(7 + k),
                    menos::net::WanLink::lan(100 + k),
                )
            };
            bits(&drive_client(&mut client, dial, STEPS, &none).expect("linked event loop"))
        }));
    }
    let linked_curves: Vec<CurveBits> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    loop_thread.join().expect("loop thread");
    assert_eq!(linked_curves, reference, "linked event loop diverged");

    // Real TCP sockets through the event loop (nonblocking reads,
    // partial-frame reassembly, write queues).
    let handler = make_server(&config, &base);
    let server = TcpEventServer::spawn(
        "127.0.0.1:0",
        handler.clone(),
        accepting(N as usize),
        TcpOptions::default(),
    )
    .expect("bind");
    let addr = server.addr();
    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, &text, &config, &base);
        drivers.push(std::thread::spawn(move || {
            bits(
                &run_tcp_client(&addr.to_string(), &mut client, STEPS, &none)
                    .expect("tcp event loop"),
            )
        }));
    }
    let tcp_curves: Vec<CurveBits> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let (_h, tcp_stats) = server.join().expect("loop finished");
    assert_eq!(tcp_curves, reference, "tcp event loop diverged");
    assert_eq!(tcp_stats.served, N);
}

/// The tensor frame of a server reply.
fn frame_of(reply: &ServerMessage) -> &bytes::Bytes {
    match reply {
        ServerMessage::ServerActivations { frame, .. }
        | ServerMessage::ServerGradients { frame, .. } => frame,
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Advances `client` by one protocol message, given the server's reply
/// to its previous one (`None` before the first step).
fn next_message(client: &mut SplitClient, last: Option<&ServerMessage>) -> ClientMessage {
    if let Some(ServerMessage::ServerActivations { frame, .. }) = last {
        let x_s = menos::net::decode_tensor(frame).unwrap();
        let (_loss, g_c) = client.receive_server_activations(&x_s);
        return ClientMessage::Gradients {
            client: client.id(),
            frame: menos::net::encode_tensor(&g_c),
        };
    }
    if let Some(reply) = last {
        client.receive_server_gradients(&menos::net::decode_tensor(frame_of(reply)).unwrap());
    }
    ClientMessage::Activations {
        client: client.id(),
        frame: menos::net::encode_tensor(&client.start_step()),
    }
}

/// The deterministic core of the event loop's dispatch contract, with
/// no thread timing involved: `handle_batch` over a mixed ready-set —
/// forward and backward steps side by side, a replayed duplicate frame
/// and a frame from a client the server never admitted — answers every
/// legitimate message, in arrival order, with the bytes sequential
/// `handle` calls produce, and the two intruders with typed errors.
#[test]
fn handle_batch_is_sequential_handle_over_a_mixed_ready_set() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 3;
    const STRANGER: ClientId = ClientId(99);

    let sequential = make_server(&config, &base);
    let batched = make_server(&config, &base);
    let fleet = || -> Vec<SplitClient> {
        (0..N)
            .map(|k| make_client(k, &text, &config, &base))
            .collect()
    };
    let (mut seq_clients, mut batch_clients) = (fleet(), fleet());
    for client in &seq_clients {
        sequential
            .lock()
            .unwrap()
            .handle(connect_msg(client))
            .unwrap();
        batched.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    let mut seq_last: Vec<Option<ServerMessage>> = vec![None; N as usize];
    let mut batch_last = seq_last.clone();

    // Round 0 advances client 0 alone, so from round 1 on it is half a
    // step ahead: its Gradients share a ready-set with the others'
    // Activations, and vice versa.
    for round in 0..5 {
        let members = if round == 0 { 1 } else { N as usize };
        let mut ready_set = Vec::new();
        for k in 0..members {
            let msg = next_message(&mut seq_clients[k], seq_last[k].as_ref());
            let reply = sequential.lock().unwrap().handle(msg.clone());
            seq_last[k] = Some(reply.unwrap().unwrap());
            let twin = next_message(&mut batch_clients[k], batch_last[k].as_ref());
            assert_eq!(twin, msg, "fleets diverged before dispatch");
            ready_set.push(twin);
        }
        // The intruders: client 0's frame replayed at the end of the
        // set, and a tensor frame from a client that never connected.
        ready_set.push(ready_set[0].clone());
        ready_set.push(ClientMessage::Activations {
            client: STRANGER,
            frame: menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64])),
        });
        if round > 0 {
            let kinds = |m: &ClientMessage| matches!(m, ClientMessage::Gradients { .. });
            assert_ne!(kinds(&ready_set[0]), kinds(&ready_set[1]), "set is mixed");
        }

        let replies = batched.lock().unwrap().handle_batch(ready_set);
        assert_eq!(replies.len(), members + 2);
        for (k, (client, reply)) in replies.iter().take(members).enumerate() {
            assert_eq!(*client, ClientId(k as u64), "replies keep arrival order");
            let reply = reply.as_ref().unwrap().clone().unwrap();
            assert_eq!(
                frame_of(&reply),
                frame_of(seq_last[k].as_ref().unwrap()),
                "round {round}: handle_batch diverged from sequential handle"
            );
            batch_last[k] = Some(reply);
        }
        let (dup_client, dup) = &replies[members];
        assert_eq!(*dup_client, ClientId(0));
        assert!(matches!(dup, Err(ProtocolError::OutOfOrder(_))), "{dup:?}");
        let (stranger, refused) = &replies[members + 1];
        assert_eq!(*stranger, STRANGER);
        assert!(
            matches!(refused, Err(ProtocolError::UnknownClient(STRANGER))),
            "{refused:?}"
        );
    }

    // Both fleets trained identically, client side and server side.
    for (a, b) in seq_clients.iter().zip(&batch_clients) {
        assert_eq!(bits(a.curve()), bits(b.curve()));
        assert!(!a.curve().points().is_empty());
        let (seq, batch) = (sequential.lock().unwrap(), batched.lock().unwrap());
        let (sa, ba) = (
            seq.session_adapters(a.id()).unwrap(),
            batch.session_adapters(a.id()).unwrap(),
        );
        let raw = |t: &menos::tensor::Tensor| -> Vec<u32> {
            t.to_vec().iter().map(|x| x.to_bits()).collect()
        };
        for (name, t) in sa.iter() {
            assert_eq!(raw(t), raw(ba.get(name).unwrap()), "{name}");
        }
    }
}

#[test]
fn one_event_loop_thread_drives_32_concurrent_clients() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 32;
    const STEPS: usize = 2;

    let (curves, stats) = event_loop_fleet(N, STEPS, &text, &config, &base);
    assert_eq!(curves.len(), N as usize);
    for curve in &curves {
        assert_eq!(curve.len(), STEPS, "every client finishes training");
    }
    assert_eq!(stats.accepted, N);
    assert_eq!(stats.served, N);
    assert_eq!(stats.conn_errors, 0);
    assert_eq!(stats.batched_messages, N * STEPS as u64 * 2);
    // The whole point of the event loop: with 32 clients hammering one
    // thread, ready sets pile up while the handler computes, so
    // dispatches genuinely batch instead of degenerating to one
    // message each.
    assert!(stats.max_batch >= 2, "no batching happened: {stats:?}");
    assert!(
        stats.batches < stats.batched_messages,
        "every dispatch was a singleton: {stats:?}"
    );
}

/// Ready-set isolation: a client that dies mid-step — after its
/// activations were served in a 32-wide ready-set but before its
/// gradients were — is excised with a typed error without perturbing
/// the 31 survivors. Their reply frames stay byte-identical to a run
/// of `handle` calls, the dead session is quarantined (not leaked),
/// and its Alg. 2 pool reservation is released at once and gone for
/// good once the quarantine expires.
#[test]
fn quarantined_member_is_excised_with_a_typed_error_and_reservations_return() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 32;
    const VICTIM: ClientId = ClientId(13);

    let solo = make_server(&config, &base);
    let batched = make_server(&config, &base);
    let mut solo_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();
    let mut batch_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();
    for client in &solo_clients {
        solo.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    for client in &batch_clients {
        batched.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    let full_reservation = batched.lock().unwrap().reserved_bytes();
    assert!(full_reservation > 0, "connects reserve pool capacity");

    let tensor_frame = |reply: &ServerMessage| frame_of(reply).clone();

    // Solo reference: every client, including the future victim, runs
    // the full forward alone.
    let mut solo_xs = Vec::new();
    for client in &mut solo_clients {
        let x_c = client.start_step();
        let reply = solo
            .lock()
            .unwrap()
            .handle(ClientMessage::Activations {
                client: client.id(),
                frame: menos::net::encode_tensor(&x_c),
            })
            .unwrap()
            .unwrap();
        solo_xs.push(tensor_frame(&reply));
    }

    // One ready-set with all 32 aboard.
    let batch_msgs: Vec<ClientMessage> = batch_clients
        .iter_mut()
        .map(|client| ClientMessage::Activations {
            client: client.id(),
            frame: menos::net::encode_tensor(&client.start_step()),
        })
        .collect();
    let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
    replies.sort_by_key(|(client, _)| *client);
    let batch_xs: Vec<bytes::Bytes> = replies
        .iter()
        .map(|(_, r)| tensor_frame(r.as_ref().unwrap().as_ref().unwrap()))
        .collect();
    assert_eq!(solo_xs, batch_xs, "ready-set forward diverged");

    // The victim's connection dies between forward and backward — the
    // event loop reports it via `connection_lost`, which quarantines.
    {
        use menos::split::MessageHandler;
        batched.lock().unwrap().connection_lost(VICTIM);
    }
    assert_eq!(batched.lock().unwrap().active_clients(), N as usize - 1);
    assert_eq!(batched.lock().unwrap().quarantined_clients(), 1);
    assert_eq!(
        batched.lock().unwrap().reserved_bytes() + per_client_reservation(full_reservation, N),
        full_reservation,
        "the dead client's pool reservation is released on quarantine"
    );

    // Backward: solo reference for the 31 survivors...
    let mut solo_gs = Vec::new();
    for (client, x_frame) in solo_clients.iter_mut().zip(&solo_xs) {
        let x_s = menos::net::decode_tensor(x_frame).unwrap();
        let (_loss, g_c) = client.receive_server_activations(&x_s);
        if client.id() == VICTIM {
            continue;
        }
        let reply = solo
            .lock()
            .unwrap()
            .handle(ClientMessage::Gradients {
                client: client.id(),
                frame: menos::net::encode_tensor(&g_c),
            })
            .unwrap()
            .unwrap();
        solo_gs.push(tensor_frame(&reply));
    }

    // ...and a ready-set that still contains the dead client's
    // in-flight gradients (they raced the hang-up). The dispatch must
    // excise the victim with a typed error and serve everyone else.
    let batch_msgs: Vec<ClientMessage> = batch_clients
        .iter_mut()
        .zip(&batch_xs)
        .map(|(client, x_frame)| {
            let x_s = menos::net::decode_tensor(x_frame).unwrap();
            let (_loss, g_c) = client.receive_server_activations(&x_s);
            ClientMessage::Gradients {
                client: client.id(),
                frame: menos::net::encode_tensor(&g_c),
            }
        })
        .collect();
    let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
    replies.sort_by_key(|(client, _)| *client);
    assert_eq!(replies.len(), N as usize);
    let mut batch_gs = Vec::new();
    for (client, reply) in &replies {
        if *client == VICTIM {
            assert!(
                matches!(reply, Err(ProtocolError::UnknownClient(VICTIM))),
                "the quarantined member must be excised, got {reply:?}"
            );
        } else {
            batch_gs.push(tensor_frame(reply.as_ref().unwrap().as_ref().unwrap()));
        }
    }
    assert_eq!(solo_gs, batch_gs, "survivors' backward diverged");

    // Survivors finish cleanly; the victim's quarantine expires; every
    // reservation returns to the pool.
    for client in &batch_clients {
        if client.id() != VICTIM {
            batched
                .lock()
                .unwrap()
                .handle(ClientMessage::Disconnect {
                    client: client.id(),
                })
                .unwrap();
        }
    }
    let expired = batched
        .lock()
        .unwrap()
        .expire_idle(Duration::from_millis(0));
    assert_eq!(expired, vec![VICTIM]);
    assert_eq!(batched.lock().unwrap().active_clients(), 0);
    assert_eq!(batched.lock().unwrap().quarantined_clients(), 0);
    assert_eq!(batched.lock().unwrap().reserved_bytes(), 0);
}

/// All clients in these tests share one `FineTuneConfig`, so the pool
/// reservation divides evenly.
fn per_client_reservation(total: u64, n: u64) -> u64 {
    assert_eq!(total % n, 0, "equal configs must reserve equal shares");
    total / n
}

// ----------------------------------------------------------------------
// The binding rule (PROTOCOL.md §4): a connection speaks only for the
// client it bound.
// ----------------------------------------------------------------------

/// The victim's side of a binding run: its loss curve and its
/// server-side adapters just before it disconnects, as raw bits.
type VictimOutcome = (CurveBits, Vec<(String, Vec<u32>)>);

/// Steps client 0 by hand through three training steps on a channel
/// event loop. With `intruders`, six other connections — three that
/// never handshook, three bound to ids of their own — each send one
/// `Disconnect`, `Activations` or `Gradients` naming client 0 while it
/// is mid-step (forward served, gradients not yet sent). Every intruder
/// must be dropped and the victim's reservation must not move.
fn victim_run(intruders: bool) -> (VictimOutcome, EventLoopStats) {
    const VICTIM: ClientId = ClientId(0);
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);
    let (dialer, listener) = event_channel_listener();
    let accepts = if intruders { 7 } else { 1 };
    let event_loop = ServerEventLoop::new(listener, handler.clone(), accepting(accepts));
    let loop_thread = std::thread::spawn(move || event_loop.run());

    let mut victim = make_client(0, &text, &config, &base);
    let mut wire = dialer.dial().expect("dial");
    let mut exchange = |msg: &ClientMessage| {
        wire.send(msg).expect("send");
        wire.recv().expect("the victim is never disturbed")
    };
    assert!(matches!(
        exchange(&connect_msg(&victim)),
        ServerMessage::Ready { .. }
    ));
    let forward = next_message(&mut victim, None);
    let mut last = exchange(&forward);

    if intruders {
        let reserved = handler.lock().unwrap().reserved_bytes();
        let forged = [
            ClientMessage::Disconnect { client: VICTIM },
            ClientMessage::Activations {
                client: VICTIM,
                frame: zeros_frame(),
            },
            ClientMessage::Gradients {
                client: VICTIM,
                frame: zeros_frame(),
            },
        ];
        for (i, forged) in forged.iter().enumerate() {
            // Once from a peer that never handshook...
            let mut unbound = dialer.dial().expect("dial");
            unbound.send(forged).expect("send");
            assert!(unbound.recv().is_err(), "unbound intruder {i} is dropped");
            assert_eq!(handler.lock().unwrap().active_clients(), 1);
            assert_eq!(handler.lock().unwrap().reserved_bytes(), reserved);
            // ...and once from a peer bound to a session of its own.
            let own = make_client(10 + i as u64, &text, &config, &base);
            let mut bound = dialer.dial().expect("dial");
            bound.send(&connect_msg(&own)).expect("send");
            assert!(matches!(bound.recv(), Ok(ServerMessage::Ready { .. })));
            let with_intruder = handler.lock().unwrap().reserved_bytes();
            bound.send(forged).expect("send");
            assert!(bound.recv().is_err(), "bound intruder {i} is dropped");

            let srv = handler.lock().unwrap();
            assert_eq!(srv.active_clients(), 1, "only the victim stays live");
            assert!(
                with_intruder > reserved,
                "the intruder reserved its own share"
            );
            assert_eq!(
                srv.reserved_bytes(),
                reserved,
                "the intruder's share is released, the victim's unmoved"
            );
        }
    }

    // The victim finishes its step and two more, undisturbed.
    for _ in 0..5 {
        let msg = next_message(&mut victim, Some(&last));
        last = exchange(&msg);
    }
    victim.receive_server_gradients(&menos::net::decode_tensor(frame_of(&last)).unwrap());
    let adapters = {
        let srv = handler.lock().unwrap();
        let store = srv.session_adapters(VICTIM).expect("victim is live");
        let mut named: Vec<(String, Vec<u32>)> = store
            .iter()
            .map(|(name, t)| {
                let raw = t.to_vec().iter().map(|x| x.to_bits()).collect();
                (name.to_string(), raw)
            })
            .collect();
        named.sort();
        named
    };
    wire.send(&ClientMessage::Disconnect { client: VICTIM })
        .expect("disconnect");
    let (_h, stats) = loop_thread.join().expect("loop thread");
    ((bits(victim.curve()), adapters), stats)
}

#[test]
fn a_connection_can_only_act_on_the_session_it_bound() {
    let (undisturbed, quiet) = victim_run(false);
    assert_eq!((quiet.served, quiet.conn_errors), (1, 0));
    assert_eq!(undisturbed.0.len(), 3);

    let (disturbed, stats) = victim_run(true);
    assert_eq!(
        disturbed, undisturbed,
        "curve and adapters bit-identical to the undisturbed run"
    );
    assert_eq!(stats.accepted, 7);
    assert_eq!(
        stats.served, 1,
        "only the victim's own Disconnect is served"
    );
    assert_eq!(stats.conn_errors, 6, "every intruder is failed: {stats:?}");
}

/// A connection binds once. Were a second handshake to rebind it, each
/// earlier session would stay live and reserved with no connection to
/// speak for it, and one peer cycling `Connect` on one connection could
/// fill the pool until every honest `Connect` got `Busy`. The second
/// handshake — `Connect` or `Resume` — fails the connection, and the
/// session it was bound to is parked like any other lost connection's.
#[test]
fn a_second_handshake_fails_the_connection_instead_of_orphaning_its_session() {
    const N: u64 = 3;
    let (text, _vocab, config, base) = setup();
    let m_b = {
        let probe = make_server(&config, &base);
        let mut srv = probe.lock().unwrap();
        srv.handle(connect_msg(&make_client(0, &text, &config, &base)))
            .unwrap();
        srv.demands_of(ClientId(0)).unwrap().m_b
    };
    // A pool that fits N sessions and not N + 1.
    let mut spec = ServerSpec::v100(ServerMode::menos());
    spec.gpu_capacity = N * m_b + m_b / 2;
    let view = base.lock().unwrap().shared_view(false);
    let handler = Arc::new(Mutex::new(MenosServer::from_store(
        config.clone(),
        view,
        spec,
        SEED,
    )));
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(listener, handler.clone(), accepting(3));
    let loop_thread = std::thread::spawn(move || event_loop.run());
    // Sends every message, then reads until the server closes the
    // connection; returns how many `Ready`s came back.
    let burst = |msgs: &[ClientMessage]| {
        let mut wire = dialer.dial().expect("dial");
        for msg in msgs {
            // The server may close the connection mid-burst.
            let _ = wire.send(msg);
        }
        let mut readies = 0;
        while let Ok(reply) = wire.recv() {
            readies += usize::from(matches!(reply, ServerMessage::Ready { .. }));
        }
        readies
    };
    let connect = |k: u64| connect_msg(&make_client(k, &text, &config, &base));

    // The Connect arm: one connection, N + 1 handshakes.
    let cycle: Vec<ClientMessage> = (1..=N + 1).map(connect).collect();
    assert_eq!(burst(&cycle), 1, "only the first handshake binds");
    let srv = handler.lock().unwrap();
    assert_eq!((srv.active_clients(), srv.quarantined_clients()), (0, 1));
    assert_eq!(srv.reserved_bytes(), 0, "the bound session was parked");
    drop(srv);

    // The Resume arm: bound to a fresh session, the peer resumes the
    // parked one.
    let resume = ClientMessage::Resume {
        client: ClientId(1),
        epoch: 1,
        last_step: 0,
    };
    assert_eq!(burst(&[connect(N + 2), resume]), 1);
    let srv = handler.lock().unwrap();
    assert_eq!(srv.active_clients(), 0, "no session is left live");
    assert_eq!(srv.reserved_bytes(), 0, "no reservation is left behind");
    assert_eq!(srv.quarantined_clients(), 2);
    drop(srv);

    // The pool is whole: an honest client is admitted and trains
    // bit-identically to the in-process oracle.
    let mut honest = make_client(0, &text, &config, &base);
    let curve = drive_client(&mut honest, |_| dialer.dial(), 3, &RetryPolicy::none())
        .expect("an honest client is admitted");
    assert_eq!(bits(&curve), reference_curve(0, 3, &text, &config, &base));
    let (_h, stats) = loop_thread.join().expect("loop thread");
    assert_eq!((stats.accepted, stats.served, stats.shed), (3, 1, 0));
    assert_eq!(stats.conn_errors, 2, "each cycling connection is failed");
}
