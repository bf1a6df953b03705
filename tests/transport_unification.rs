//! The acceptance harness of the unified transport stack: every
//! transport moves the same codec bytes through the same state
//! machine, so (a) training is byte-identical across transports and
//! (b) injected faults surface as typed [`ProtocolError`]s that
//! reclaim the failed client's session and leave other clients
//! training.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ProtocolError, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::net::WireError;
use menos::sim::seeded_rng;
use menos::split::{
    already_connected, channel_pair, drive_client, event_channel_listener, event_sim_listener,
    serve_loop, sim_pair, ClientId, ClientMessage, EventLoopOptions, EventLoopStats,
    FaultTransport, RetryPolicy, ServerEventLoop, ServerMessage, SplitClient, SplitSpec,
    TcpEventServer, TcpSplitServer, Transport,
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

/// One scripted training step's worth of frames for `client`, captured
/// by running the real client against a scratch server.
fn train_over_channel(
    client: &mut SplitClient,
    handler: Arc<Mutex<MenosServer>>,
    steps: usize,
) -> LossCurve {
    let none = RetryPolicy::none();
    let (client_t, mut server_t) = channel_pair();
    let server = std::thread::spawn(move || {
        let mut handler = handler;
        serve_loop(&mut server_t, &mut handler)
    });
    let curve =
        drive_client(client, already_connected(client_t), steps, &none).expect("channel training");
    server.join().expect("server thread").expect("clean serve");
    curve
}

#[test]
fn same_messages_give_byte_identical_curves_on_every_transport() {
    let none = RetryPolicy::none();
    let (text, _vocab, config, base) = setup();
    const STEPS: usize = 4;

    // In-memory channels.
    let mut client = make_client(0, &text, &config, &base);
    let channel_curve = train_over_channel(&mut client, make_server(&config, &base), STEPS);

    // Real TCP sockets.
    let handler = make_server(&config, &base);
    let server = TcpSplitServer::spawn("127.0.0.1:0", handler, 1).expect("bind");
    let mut client = make_client(0, &text, &config, &base);
    let tcp_curve =
        menos::split::run_tcp_client(&server.addr().to_string(), &mut client, STEPS, &none)
            .expect("tcp training");
    server.join();

    // Simulated WAN (same bytes, plus virtual transfer time).
    let (mut client_t, mut server_t) =
        sim_pair(menos::net::WanLink::lan(7), menos::net::WanLink::lan(8));
    let handler = make_server(&config, &base);
    let sim_server = std::thread::spawn(move || {
        let mut handler = handler;
        serve_loop(&mut server_t, &mut handler)
    });
    let mut client = make_client(0, &text, &config, &base);
    let sim_curve = drive_client(&mut client, already_connected(&mut client_t), STEPS, &none)
        .expect("sim training");
    sim_server.join().expect("thread").expect("clean serve");
    assert!(client_t.elapsed() > menos::sim::Nanos(0));

    // Bit-exact equality: same client, same server seed, same bytes on
    // the wire → the same floats, regardless of transport.
    let bits = |curve: &LossCurve| -> Vec<(usize, u32)> {
        curve
            .points()
            .iter()
            .map(|&(s, l)| (s, l.to_bits()))
            .collect()
    };
    assert_eq!(channel_curve.points().len(), STEPS);
    assert_eq!(bits(&channel_curve), bits(&tcp_curve));
    assert_eq!(bits(&channel_curve), bits(&sim_curve));
}

/// Runs a fault script against a fresh `MenosServer`, returning the
/// serve-loop error and the handler for post-mortem assertions.
fn run_script(
    handler: Arc<Mutex<MenosServer>>,
    script: impl FnOnce(&mut FaultTransport, &ClientMessage),
    connect: &ClientMessage,
) -> ProtocolError {
    let mut transport = FaultTransport::new();
    script(&mut transport, connect);
    let mut h = handler;
    serve_loop(&mut transport, &mut h).expect_err("script must fail the connection")
}

#[test]
fn injected_faults_surface_typed_errors_and_reclaim_sessions() {
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);

    let victim = make_client(7, &text, &config, &base);
    let connect = connect_msg(&victim);
    let activations = ClientMessage::Activations {
        client: ClientId(7),
        frame: menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64])),
    };

    // Truncated frame after a successful connect.
    let err = run_script(
        handler.clone(),
        |t, connect| {
            t.push_message(connect);
            t.push_truncated(&activations, 9);
        },
        &connect,
    );
    assert!(
        matches!(err, ProtocolError::Wire(WireError::Truncated)),
        "{err}"
    );
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Hostile oversize length declaration.
    let err = run_script(
        handler.clone(),
        |t, connect| {
            t.push_message(connect);
            t.push_oversize_header(u32::MAX);
        },
        &connect,
    );
    assert!(
        matches!(err, ProtocolError::Wire(WireError::TooLarge { .. })),
        "{err}"
    );
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Out-of-order message: gradients before any forward.
    let err = run_script(
        handler.clone(),
        |t, connect| {
            t.push_message(connect);
            t.push_message(&ClientMessage::Gradients {
                client: ClientId(7),
                frame: menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64])),
            });
        },
        &connect,
    );
    assert!(matches!(err, ProtocolError::OutOfOrder(_)), "{err}");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Mid-step disconnect: the script runs dry after one good step's
    // first message, modelling an abrupt hang-up.
    let err = run_script(
        handler.clone(),
        |t, connect| {
            t.push_message(connect);
            t.push_message(&activations);
        },
        &connect,
    );
    assert!(matches!(err, ProtocolError::Disconnected), "{err}");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Deadline enforcement: a frame that arrives too late.
    let err = {
        let mut transport = FaultTransport::new();
        transport
            .set_deadline(Some(Duration::from_millis(100)))
            .unwrap();
        transport.push_message(&connect);
        transport.push_delayed(&activations, Duration::from_secs(120));
        let mut h = handler.clone();
        serve_loop(&mut transport, &mut h).expect_err("late frame must fail")
    };
    assert!(matches!(err, ProtocolError::Timeout), "{err}");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Through all that abuse, an unrelated client still trains on the
    // same server instance.
    let mut healthy = make_client(1, &text, &config, &base);
    let curve = train_over_channel(&mut healthy, handler.clone(), 3);
    assert_eq!(curve.points().len(), 3);
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
}

// ----------------------------------------------------------------------
// Event-driven server: batched steps must be bit-identical to the
// blocking thread-per-client pump, on every transport.
// ----------------------------------------------------------------------

type CurveBits = Vec<(usize, u32)>;

fn bits(curve: &LossCurve) -> CurveBits {
    curve
        .points()
        .iter()
        .map(|&(s, l)| (s, l.to_bits()))
        .collect()
}

/// Trains `n` clients concurrently against one shared server via the
/// blocking pump (one `serve_loop` thread per client) — the reference
/// the event loop must reproduce bit-for-bit.
fn blocking_fleet(
    n: u64,
    steps: usize,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> Vec<CurveBits> {
    let none = RetryPolicy::none();
    let handler = make_server(config, base);
    let mut drivers = Vec::new();
    let mut servers = Vec::new();
    for k in 0..n {
        let (client_t, mut server_t) = channel_pair();
        let mut h = handler.clone();
        servers.push(std::thread::spawn(move || {
            serve_loop(&mut server_t, &mut h)
        }));
        let mut client = make_client(k, text, config, base);
        drivers.push(std::thread::spawn(move || {
            bits(
                &drive_client(&mut client, already_connected(client_t), steps, &none)
                    .expect("blocking fleet"),
            )
        }));
    }
    let curves = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    for s in servers {
        s.join().expect("server thread").expect("clean serve");
    }
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
    curves
}

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
    let event_loop = ServerEventLoop::new(
        listener,
        handler.clone(),
        EventLoopOptions {
            accept_limit: n as usize,
            ..EventLoopOptions::default()
        },
    );
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
fn event_loop_curves_are_bit_identical_to_blocking_on_all_transports() {
    let none = RetryPolicy::none();
    let (text, _vocab, config, base) = setup();
    const N: u64 = 4;
    const STEPS: usize = 3;

    let reference = blocking_fleet(N, STEPS, &text, &config, &base);
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

    // Simulated WAN through the event loop (same bytes, plus virtual
    // transfer time on heterogeneous per-client links).
    let handler = make_server(&config, &base);
    let (dialer, listener) = event_sim_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler.clone(),
        EventLoopOptions {
            accept_limit: N as usize,
            ..EventLoopOptions::default()
        },
    );
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, &text, &config, &base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            let dial = |_: Option<&str>| {
                dialer.dial(
                    menos::net::WanLink::lan(7 + k),
                    menos::net::WanLink::lan(100 + k),
                )
            };
            bits(&drive_client(&mut client, dial, STEPS, &none).expect("sim event loop"))
        }));
    }
    let sim_curves: Vec<CurveBits> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    loop_thread.join().expect("loop thread");
    assert_eq!(sim_curves, reference, "sim event loop diverged");

    // Real TCP sockets through the event loop (nonblocking reads,
    // partial-frame reassembly, write queues).
    let handler = make_server(&config, &base);
    let server = TcpEventServer::spawn(
        "127.0.0.1:0",
        handler.clone(),
        EventLoopOptions {
            accept_limit: N as usize,
            ..EventLoopOptions::default()
        },
        menos::split::TcpOptions::default(),
    )
    .expect("bind");
    let addr = server.addr();
    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, &text, &config, &base);
        drivers.push(std::thread::spawn(move || {
            bits(
                &menos::split::run_tcp_client(&addr.to_string(), &mut client, STEPS, &none)
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

#[test]
fn faulty_client_does_not_stop_a_concurrent_one() {
    let none = RetryPolicy::none();
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);

    // Healthy client trains over channels on one thread...
    let (mut client_t, mut server_t) = channel_pair();
    let healthy_handler = handler.clone();
    let healthy_server = std::thread::spawn(move || {
        let mut h = healthy_handler;
        serve_loop(&mut server_t, &mut h)
    });
    let mut healthy = make_client(2, &text, &config, &base);

    // ...while a faulty one connects and breaks mid-step on this one.
    let faulty = make_client(3, &text, &config, &base);
    let mut fault_t = FaultTransport::new();
    fault_t.push_message(&connect_msg(&faulty));
    fault_t.push_truncated(
        &ClientMessage::Activations {
            client: ClientId(3),
            frame: menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64])),
        },
        20,
    );
    let mut fault_handler = handler.clone();
    let fault_err = serve_loop(&mut fault_t, &mut fault_handler).expect_err("fault");
    assert!(matches!(fault_err, ProtocolError::Wire(_)), "{fault_err}");

    let curve = drive_client(&mut healthy, already_connected(&mut client_t), 3, &none)
        .expect("healthy client");
    healthy_server.join().expect("thread").expect("clean serve");
    assert_eq!(curve.points().len(), 3);
    // The faulty session is reclaimed; the healthy one disconnected
    // cleanly — nothing leaks.
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
}
