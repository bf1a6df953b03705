//! Tensor-engine kernel throughput: the real-engine substrate behind
//! the convergence experiments.
//!
//! The `matmul`/`nn_primitives`/`served_block` groups measure single
//! kernels; `served_step` measures one whole split step in process at
//! two benchmark workloads' geometry. The `checkpoint` group measures
//! what a durable snapshot costs to seal and to read.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use menos_adapters::FineTuneConfig;
use menos_core::{MenosServer, ServerMode, ServerSpec, ServerState};
use menos_data::{wiki_corpus, TokenDataset, Vocab};
use menos_models::{init_params, CausalLm, ModelConfig};
use menos_net::{encode_tensor, Codec};
use menos_sim::seeded_rng;
use menos_split::{
    run_split_steps, ClientId, ClientMessage, ForwardMode, ServerSession, SplitClient, SplitSpec,
};
use menos_tensor::{crc32, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = seeded_rng(1, "bench");
    for &n in &[32usize, 64, 128, 256, 512] {
        let a = Tensor::randn(&mut rng, [n, n], 1.0);
        let b = Tensor::randn(&mut rng, [n, n], 1.0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        if n >= 256 {
            group.sample_size(10);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b));
        });
    }
    // Transformer-shaped batched products: [batch, seq, d_model] against
    // a shared projection (the linear-layer fast path) and a batched rhs
    // (the attention-score path).
    let (batch, seq, d_model) = (8usize, 128usize, 512usize);
    let x = Tensor::randn(&mut rng, [batch, seq, d_model], 1.0);
    let w = Tensor::randn(&mut rng, [d_model, d_model], 1.0);
    group.throughput(Throughput::Elements(
        (2 * batch * seq * d_model * d_model) as u64,
    ));
    group.sample_size(10);
    group.bench_function(format!("{batch}x{seq}x{d_model}_proj"), |bench| {
        bench.iter(|| x.matmul(&w))
    });
    let k = Tensor::randn(&mut rng, [batch, d_model, seq], 1.0);
    group.throughput(Throughput::Elements(
        (2 * batch * seq * d_model * seq) as u64,
    ));
    group.bench_function(format!("{batch}x{seq}x{d_model}_scores"), |bench| {
        bench.iter(|| x.matmul(&k))
    });
    group.finish();
}

fn bench_nn_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_primitives");
    let mut rng = seeded_rng(2, "bench");
    let x = Tensor::randn(&mut rng, [8, 64, 128], 1.0);
    let gamma = Tensor::ones([128]);
    let beta = Tensor::zeros([128]);
    group.bench_function("softmax_8x64x128", |b| b.iter(|| x.softmax_last()));
    group.bench_function("layer_norm_8x64x128", |b| {
        b.iter(|| x.layer_norm(&gamma, &beta, 1e-5))
    });
    group.bench_function("rms_norm_8x64x128", |b| b.iter(|| x.rms_norm(&gamma, 1e-5)));
    let q = Tensor::randn(&mut rng, [2, 4, 64, 16], 1.0);
    group.bench_function("rope_2x4x64x16", |b| b.iter(|| q.rope(10_000.0, 0)));
    // A [batch, seq, d_model] activation at a larger model's width.
    let big = Tensor::randn(&mut rng, [8, 128, 512], 1.0);
    let gamma_big = Tensor::ones([512]);
    let beta_big = Tensor::zeros([512]);
    group.bench_function("softmax_8x128x512", |b| b.iter(|| big.softmax_last()));
    group.bench_function("layer_norm_8x128x512", |b| {
        b.iter(|| big.layer_norm(&gamma_big, &beta_big, 1e-5))
    });
    group.bench_function("gelu_8x128x512", |b| b.iter(|| big.gelu()));
    group.bench_function("gelu_exact_8x128x512", |b| b.iter(|| big.gelu_exact()));
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("autograd");
    let mut rng = seeded_rng(3, "bench");
    let w1 = Tensor::randn(&mut rng, [64, 64], 0.1).trainable();
    let w2 = Tensor::randn(&mut rng, [64, 64], 0.1).trainable();
    let x = Tensor::randn(&mut rng, [16, 64], 1.0);
    group.bench_function("mlp_forward_backward", |b| {
        b.iter(|| {
            let y = x.matmul(&w1).gelu().matmul(&w2).sum_all();
            y.backward()
        })
    });
    group.finish();
}

/// The served block's non-GEMM kernels and its frozen-linear backward
/// at `solo_wide`'s geometry (batch 2, seq 32, hidden 128, 4 heads):
/// the ops that dominated a served step before the broadcast and
/// permute fast paths and the gradient-only-where-required rule.
fn bench_served_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("served_block");
    let mut rng = seeded_rng(5, "bench");
    let act = Tensor::randn(&mut rng, [2, 32, 128], 1.0);
    let bias = Tensor::randn(&mut rng, [128], 0.1);
    group.bench_function("bias_add_2x32x128+128", |b| b.iter(|| act.add(&bias)));
    let scores = Tensor::randn(&mut rng, [2, 4, 32, 32], 1.0);
    let mask = Tensor::causal_mask(32);
    group.bench_function("mask_add_2x4x32x32+32x32", |b| b.iter(|| scores.add(&mask)));
    let heads = Tensor::randn(&mut rng, [2, 32, 4, 32], 1.0);
    group.bench_function("head_split_permute_2x32x4x32", |b| {
        b.iter(|| heads.permute(&[0, 2, 1, 3]))
    });
    // A trainable input through a frozen weight: backward owes dA only.
    let x = Tensor::randn(&mut rng, [64, 512], 1.0).trainable();
    let w = Tensor::randn(&mut rng, [512, 128], 0.05);
    let y = x.matmul(&w);
    let seed = Tensor::randn(&mut rng, [64, 128], 1.0);
    group.throughput(Throughput::Elements((2 * 64 * 512 * 128) as u64));
    group.bench_function("frozen_linear_backward_64x512x128", |b| {
        b.iter(|| y.backward_with_grad(&seed))
    });
    group.finish();
}

/// One split fine-tuning step in process: the client's forward, the
/// server's no-grad forward, re-forward and backward, and the client's
/// backward, every message through the wire codec. Run at the geometry
/// of the benchmark's `solo_tiny` (hidden 64, 4 layers, 2×16 tokens)
/// and `solo_wide` (hidden 128, 6 layers, 2×32) workloads.
fn bench_served_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("served_step");
    for (name, hidden, layers, seq) in [("solo_tiny", 64, 4, 16), ("solo_wide", 128, 6, 32)] {
        let text = wiki_corpus(1, 12_000);
        let vocab = Vocab::from_text(&text);
        let mut config = ModelConfig::tiny_opt(vocab.size());
        (config.hidden, config.layers, config.intermediate) = (hidden, layers, 4 * hidden);
        let mut ft = FineTuneConfig::paper(&config);
        (ft.batch_size, ft.seq_len) = (2, seq);
        let base = init_params(&config, &mut seeded_rng(1, "base-model"));
        let model = || CausalLm::bind(&config, &base.shared_view(false));
        let dataset = TokenDataset::new(vocab.encode(&text), seq, 1);
        let split = SplitSpec::paper();
        let mut client = SplitClient::new(ClientId(0), model(), split, ft.clone(), dataset, 1);
        let mut session = ServerSession::new(ClientId(0), model(), split, &ft, 1);
        group.bench_function(name, |b| {
            b.iter(|| run_split_steps(&mut client, &mut session, ForwardMode::NoGradReforward, 1))
        });
    }
    group.finish();
}

/// A server holding eight sessions at the durable benchmark workload's
/// geometry (hidden 64, 4 layers, batch 2, seq 16, topk8 codec), each
/// one full step in: adapters, optimizer moments, codec residuals and
/// a cached reply are all live state.
fn durable_server() -> MenosServer {
    let mut config = ModelConfig::tiny_opt(64);
    config.hidden = 64;
    config.layers = 4;
    config.intermediate = 256;
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    let mut server = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 3);
    let mut rng = seeded_rng(6, "bench");
    for id in 0..8 {
        let client = ClientId(id);
        let mut send = |msg| server.handle(msg).expect("in-geometry step");
        send(ClientMessage::Connect {
            client,
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: Codec::TopK8.flag(),
        });
        for gradients in [false, true] {
            let frame = encode_tensor(&Tensor::randn(&mut rng, [2, 16, 64], 1.0));
            send(if gradients {
                ClientMessage::Gradients { client, frame }
            } else {
                ClientMessage::Activations { client, frame }
            });
        }
    }
    server
}

/// Sealing and reading the durable snapshot of [`durable_server`]: the
/// checksum alone, the outer encode of captured sessions, the whole
/// durable-mode encode (capture included), and the validated decode.
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    let server = durable_server();
    let state = server.to_state();
    let bytes = state.to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function(format!("crc32_{}kB", bytes.len() / 1000), |b| {
        b.iter(|| crc32(&bytes))
    });
    group.bench_function("server_state_to_bytes_8_sessions", |b| {
        b.iter(|| state.to_bytes())
    });
    group.bench_function("snapshot_bytes_8_sessions", |b| {
        b.iter(|| server.to_state().to_bytes())
    });
    group.bench_function("server_state_from_bytes_8_sessions", |b| {
        b.iter(|| ServerState::from_bytes(&bytes).expect("own snapshot"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_nn_primitives,
    bench_backward,
    bench_served_block,
    bench_served_step,
    bench_checkpoint
);
criterion_main!(benches);
