//! The layers a served step passes through, called directly with the
//! workload's geometry and no sockets: the functions the event loop and
//! the server call, timed one at a time from outside.
//!
//! These numbers say what each layer costs alone, with no socket,
//! thread or second process involved. Like every timing of the
//! benchmark they are taken over the quiet samples only (see
//! `stats::quiet`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use menos_adapters::build_optimizer;
use menos_core::MenosServer;
use menos_net::{FrameAccumulator, WriteQueue, DEFAULT_MAX_FRAME};
use menos_sim::seeded_rng;
use menos_split::{
    client_message_parts, decode_client_message_parts, decode_server_message_parts,
    server_message_parts, ClientMessage, MessageHandler, ServerMessage, SnapshotPolicy, SplitSpec,
};
use menos_tensor::{no_grad, GradStore, Tensor};

use crate::stats::quiet_mean;
use crate::workloads::{out_dir, Inputs};

/// Bytes per read the reassembly measurement feeds the accumulator.
const READ_CHUNK: usize = 16 << 10;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Calls `f` until `budget` is spent (at least three times) and
/// returns the quiet mean time of one call, in ms. `inner` repeats a
/// call too short for the timer inside one sample.
fn quiet_ms(budget: Duration, inner: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 3 || begun.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(ms_since(t) / f64::from(inner));
    }
    quiet_mean(&samples)
}

/// The four tensor messages of one real step of every session, and the
/// in-process server that answered them.
struct Exchange {
    server: MenosServer,
    acts: Vec<ClientMessage>,
    grads: Vec<ClientMessage>,
    x_s: ServerMessage,
    g_s: ServerMessage,
}

fn down_frame(msg: &ServerMessage) -> &Bytes {
    match msg {
        ServerMessage::ServerActivations { frame, .. }
        | ServerMessage::ServerGradients { frame, .. } => frame,
        other => panic!("{other:?} carries no tensor"),
    }
}

/// One in-process step per session against a fresh `MenosServer`.
fn exchange(inputs: &Inputs) -> Exchange {
    let mut server = inputs.server();
    let n = inputs.workload.sessions;
    let (mut acts, mut grads) = (Vec::new(), Vec::new());
    let (mut x_s_msg, mut g_s_msg) = (None, None);
    for k in 0..n {
        let mut client = inputs.client(k);
        let ready = server
            .handle(ClientMessage::Connect {
                client: client.id(),
                ft: client.ft_config().clone(),
                split: client.split(),
                epoch: client.epoch(),
                codecs: client.advertised_codecs(),
            })
            .expect("in-process Connect");
        let Some(ServerMessage::Ready { codec, .. }) = ready else {
            panic!("in-process server answered Connect with {ready:?}");
        };
        client.adopt_codec(codec);
        let x_c = client.start_step();
        let act = ClientMessage::Activations {
            client: client.id(),
            frame: client.encode_activations(&x_c),
        };
        let x_s = server
            .handle(act.clone())
            .expect("in-process forward")
            .expect("a reply to Activations");
        let x_s_t = client.decode_frame(down_frame(&x_s)).expect("x_s decodes");
        let (_, g_c) = client.receive_server_activations(&x_s_t);
        let grad = ClientMessage::Gradients {
            client: client.id(),
            frame: client.encode_gradients(&g_c),
        };
        let g_s = server
            .handle(grad.clone())
            .expect("in-process backward")
            .expect("a reply to Gradients");
        acts.push(act);
        grads.push(grad);
        x_s_msg = Some(x_s);
        g_s_msg = Some(g_s);
    }
    Exchange {
        server,
        acts,
        grads,
        x_s: x_s_msg.expect("at least one session"),
        g_s: g_s_msg.expect("at least one session"),
    }
}

fn frame_of(msg: &ClientMessage) -> &Bytes {
    match msg {
        ClientMessage::Activations { frame, .. } | ClientMessage::Gradients { frame, .. } => frame,
        other => panic!("{other:?} carries no tensor"),
    }
}

/// Measures every stepwise layer metric, spending about `budget` in
/// all. Returns `(metric name, value)` pairs.
pub fn measure(inputs: &Inputs, budget: Duration) -> Vec<(&'static str, f64)> {
    let w = inputs.workload;
    // Shares of the budget: the stacked replay runs whole waves and the
    // session cycles whole steps; the rest are microseconds per call.
    let slice = |share: f64| budget.mul_f64(share);
    let mut out = Vec::new();
    let mut ex = exchange(inputs);

    // --- split.codec: framing and parsing the four messages of a step.
    let ups = [ex.acts[0].clone(), ex.grads[0].clone()];
    let downs = [ex.x_s.clone(), ex.g_s.clone()];
    out.push((
        "split.codec.frame_ms",
        quiet_ms(slice(0.03), 64, || {
            for m in &ups {
                black_box(client_message_parts(black_box(m)));
            }
            for m in &downs {
                black_box(server_message_parts(black_box(m)));
            }
        }),
    ));
    let up_parts: Vec<(Bytes, Bytes)> = ups.iter().map(client_message_parts).collect();
    let down_parts: Vec<(Bytes, Bytes)> = downs.iter().map(server_message_parts).collect();
    out.push((
        "split.codec.parse_ms",
        quiet_ms(slice(0.03), 64, || {
            for (h, b) in &up_parts {
                black_box(decode_client_message_parts(h, b, DEFAULT_MAX_FRAME)).expect("parses");
            }
            for (h, b) in &down_parts {
                black_box(decode_server_message_parts(h, b, DEFAULT_MAX_FRAME)).expect("parses");
            }
        }),
    ));

    // --- net.nonblocking: what the server does with a step's bytes.
    let stream: Vec<u8> = up_parts
        .iter()
        .flat_map(|(h, b)| h.iter().chain(b.iter()).copied())
        .collect();
    let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
    out.push((
        "net.nonblocking.reassemble_ms",
        quiet_ms(slice(0.03), 16, || {
            let mut frames = 0;
            for chunk in stream.chunks(READ_CHUNK) {
                frames += acc.push(black_box(chunk)).expect("well-formed").len();
            }
            assert_eq!(frames, 2);
        }),
    ));
    let mut queue = WriteQueue::new();
    out.push((
        "net.nonblocking.writeq_ms",
        quiet_ms(slice(0.03), 64, || {
            for (h, b) in &down_parts {
                queue.push_frame(h.clone(), b.clone());
            }
            assert!(queue.write_to(&mut std::io::sink()).expect("sink accepts"));
        }),
    ));

    // --- core.state: one durable write of a snapshot this size.
    let blob = ex.server.snapshot_bytes().expect("MenosServer has state");
    let dir = out_dir().join(format!("snapw-{}-{}", w.name, std::process::id()));
    let policy = SnapshotPolicy::durable(&dir);
    out.push((
        "core.state.snapshot_write_ms",
        quiet_ms(slice(0.05), 1, || {
            policy.write(&blob).expect("snapshot write")
        }),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // --- split.server: the session's two forward paths and backward.
    let mut session = inputs.reference_session(0);
    let x_c = session
        .codec()
        .decode(frame_of(&ex.acts[0]))
        .expect("x_c decodes");
    let g_c = session
        .codec()
        .decode(frame_of(&ex.grads[0]))
        .expect("g_c decodes");
    let (mut fwd_nograd, mut bwd_reforward) = (Vec::new(), Vec::new());
    let (mut fwd_cached, mut bwd_plain) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    while fwd_nograd.len() < 3 || begun.elapsed() < slice(0.35) {
        // Alternating the two paths spreads any drift over both.
        for cached in [false, true] {
            let t = Instant::now();
            black_box(if cached {
                session.forward_cached(&x_c)
            } else {
                session.forward_nograd(&x_c)
            });
            let fwd_ms = ms_since(t);
            let t = Instant::now();
            black_box(session.backward(&g_c));
            let bwd_ms = ms_since(t);
            let (fwd, bwd) = if cached {
                (&mut fwd_cached, &mut bwd_plain)
            } else {
                (&mut fwd_nograd, &mut bwd_reforward)
            };
            fwd.push(fwd_ms);
            bwd.push(bwd_ms);
        }
    }
    out.push(("split.server.fwd_nograd_ms", quiet_mean(&fwd_nograd)));
    out.push(("split.server.fwd_cached_ms", quiet_mean(&fwd_cached)));
    out.push(("split.server.bwd_ms", quiet_mean(&bwd_plain)));
    out.push((
        "split.server.reforward_ms",
        quiet_mean(&bwd_reforward) - quiet_mean(&bwd_plain),
    ));

    // --- core.server: N solo dispatches against one stacked dispatch.
    let (mut solo, mut stacked) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    while solo.len() < 2 || begun.elapsed() < slice(0.35) {
        let t = Instant::now();
        for m in ex.acts.iter().chain(&ex.grads) {
            black_box(ex.server.handle(m.clone())).expect("solo replay");
        }
        solo.push(ms_since(t));
        let t = Instant::now();
        for batch in [&ex.acts, &ex.grads] {
            for (client, reply) in ex.server.handle_batch(batch.clone()) {
                reply.unwrap_or_else(|e| panic!("stacked replay, {client}: {e}"));
            }
        }
        stacked.push(ms_since(t));
    }
    out.push((
        "core.server.stack_gain",
        quiet_mean(&solo) / quiet_mean(&stacked),
    ));

    // --- adapters.optim: one optimizer step over a session's adapters.
    let throwaway = inputs.reference_session(0);
    let params: Vec<Tensor> = throwaway.adapter_params().tensors().cloned().collect();
    let mut rng = seeded_rng(inputs.seed, "benchmark-optim-grads");
    let mut grad_store = GradStore::new();
    for p in &params {
        grad_store.insert(p, Tensor::randn(&mut rng, p.dims().to_vec(), 0.01));
    }
    let mut optimizer = build_optimizer(&inputs.ft, params);
    out.push((
        "adapters.optim.step_ms",
        quiet_ms(slice(0.03), 16, || optimizer.step(black_box(&grad_store))),
    ));

    // --- models: the frozen server blocks alone, no adapters, no graph.
    let model = inputs.model();
    let range = SplitSpec::paper().server_range(&inputs.config);
    out.push((
        "models.blocks_fwd_ms",
        quiet_ms(slice(0.05), 1, || {
            black_box(no_grad(|| model.blocks_forward(&x_c, range.clone())));
        }),
    ));

    // --- tensor: the geometry's dominant GEMM, [b·s, h] × [h, 4h].
    let (rows, h) = (w.batch * w.seq, w.hidden);
    let a = Tensor::randn(&mut rng, [rows, h], 1.0);
    let b = Tensor::randn(&mut rng, [h, 4 * h], 1.0);
    let ms = quiet_ms(slice(0.03), 16, || {
        black_box(no_grad(|| black_box(&a).matmul(black_box(&b))));
    });
    let flops = 2.0 * rows as f64 * h as f64 * 4.0 * h as f64;
    out.push(("tensor.matmul_gflops", flops / (ms * 1e-3) / 1e9));

    out
}
