//! End-to-end integration: registry → clients → sessions → training →
//! convergence, across the real and simulated engines.

use menos::adapters::FineTuneConfig;
use menos::core::{
    profile_client, run_experiment, ServerMode, ServerSpec, SharedBaseRegistry, WorkloadSpec,
};
use menos::data::{wiki_corpus, TokenDataset, Vocab};
use menos::models::{AdapterTarget, CausalLm, ModelConfig, ModelProfile};
use menos::sim::seeded_rng;
use menos::split::{run_split_steps, ClientId, ForwardMode, ServerSession, SplitClient, SplitSpec};
use menos::tensor::Tensor;

fn setup_corpus() -> (Vocab, String) {
    let text = wiki_corpus(77, 30_000);
    (Vocab::from_text(&text), text)
}

#[test]
fn three_clients_share_one_base_and_all_learn() {
    let (vocab, text) = setup_corpus();
    let config = ModelConfig::tiny_llama(vocab.size());
    let mut registry = SharedBaseRegistry::initialize(config.clone(), 1);
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 24;
    let split = SplitSpec::paper();

    let mut pairs: Vec<(SplitClient, ServerSession)> = (0..3)
        .map(|k| {
            let ds = TokenDataset::new(vocab.encode(&text), ft.seq_len, k);
            let client = SplitClient::new(
                ClientId(k),
                CausalLm::bind(&config, registry.base_store()),
                split,
                ft.clone(),
                ds,
                k,
            );
            let session = ServerSession::new(ClientId(k), registry.new_instance(), split, &ft, k);
            (client, session)
        })
        .collect();

    // All sessions alias the registry's weights.
    for (_, s) in &pairs {
        assert!(registry.verify_aliasing(s.model()));
    }
    // Interleaved training: one step per client, round-robin, like the
    // real server serves concurrent clients.
    for _ in 0..10 {
        for (client, session) in pairs.iter_mut() {
            let x_c = client.start_step();
            let x_s = session.forward_nograd(&x_c);
            let (_, g_c) = client.receive_server_activations(&x_s);
            let g_s = session.backward(&g_c);
            client.receive_server_gradients(&g_s);
        }
    }
    for (client, session) in &pairs {
        let curve = client.curve();
        assert_eq!(curve.points().len(), 10);
        // Compare a trailing mean against a leading mean rather than
        // two individual points: single-step losses jitter with the
        // batch drawn, which made a point-vs-point check flaky.
        let head_mean: f32 = curve.points()[..3].iter().map(|(_, l)| l).sum::<f32>() / 3.0;
        let tail_mean = curve.tail_mean(3).unwrap();
        assert!(
            tail_mean < head_mean + 0.02,
            "client {:?} failed to learn: {:?}",
            client.id(),
            curve.points()
        );
        assert_eq!(session.reforward_count(), 10);
        // Base still shared after training — optimizers touched only
        // adapters.
        assert!(registry.verify_aliasing(session.model()));
    }
}

#[test]
fn training_one_client_does_not_perturb_anothers_output() {
    // Frozen base + private adapters = tenant isolation.
    let (vocab, text) = setup_corpus();
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut registry = SharedBaseRegistry::initialize(config.clone(), 2);
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    let split = SplitSpec::paper();

    let ds0 = TokenDataset::new(vocab.encode(&text), ft.seq_len, 0);
    let mut c0 = SplitClient::new(
        ClientId(0),
        CausalLm::bind(&config, registry.base_store()),
        split,
        ft.clone(),
        ds0,
        0,
    );
    let mut s0 = ServerSession::new(ClientId(0), registry.new_instance(), split, &ft, 0);
    let s1 = ServerSession::new(ClientId(1), registry.new_instance(), split, &ft, 1);

    // Client 1's session output on a fixed probe, before and after
    // client 0 trains.
    let mut probe_session = s1;
    let probe = Tensor::full(0.25, [1, 8, config.hidden]);
    let before = probe_session.forward_nograd(&probe);

    run_split_steps(&mut c0, &mut s0, ForwardMode::NoGradReforward, 8);

    let after = probe_session.forward_nograd(&probe);
    let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&before),
        bits(&after),
        "client 0's training leaked into client 1's computation"
    );
}

#[test]
fn random_probe_profiles_any_configuration() {
    // §3.3: a server session runs random input of the client's reported
    // shape through the no-grad forward and the re-forward + backward
    // with no knowledge of the model being tuned.
    let (vocab, _) = setup_corpus();
    for config in [
        ModelConfig::tiny_opt(vocab.size()),
        ModelConfig::tiny_llama(vocab.size()),
    ] {
        let mut registry = SharedBaseRegistry::initialize(config.clone(), 3);
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 2;
        ft.seq_len = 12;
        let split = SplitSpec::paper();
        let mut session = ServerSession::new(ClientId(9), registry.new_instance(), split, &ft, 9);
        let mut rng = seeded_rng(9, "probe");
        let shape = [ft.batch_size, ft.seq_len, config.hidden];
        let x_s = session.forward_nograd(&Tensor::randn(&mut rng, shape, 1.0));
        assert_eq!(x_s.dims(), &shape);
        let g_s = session.backward(&Tensor::randn(&mut rng, shape, 1.0));
        assert_eq!(g_s.dims(), &shape);
        assert_eq!(session.reforward_count(), 1);
    }
}

#[test]
fn analytic_and_real_adapter_bytes_agree() {
    // The analytic profiler (used by the simulated GPU and admission)
    // and the real engine must account the same A for every target set,
    // MLP projections included, and charge A + O = 4·A per client.
    use AdapterTarget::*;
    let all = [Q, K, V, O, MlpUp, MlpDown];
    let target_sets: Vec<Vec<AdapterTarget>> = all
        .map(|t| vec![t])
        .into_iter()
        .chain([all.to_vec()])
        .collect();
    for config in [ModelConfig::tiny_opt(32), ModelConfig::tiny_llama(32)] {
        let mut registry = SharedBaseRegistry::initialize(config.clone(), 4);
        let split = SplitSpec::paper();
        let profile = ModelProfile::new(config.clone(), split.front_layers);
        for targets in &target_sets {
            let mut ft = FineTuneConfig::paper(&config);
            ft.batch_size = 2;
            ft.seq_len = 12;
            ft.targets = targets.clone();
            let session = ServerSession::new(ClientId(0), registry.new_instance(), split, &ft, 0);
            let real = session.adapter_params().size_bytes();
            let analytic = profile.adapter_bytes(&ft.lora, &ft.targets);
            assert_eq!(analytic, real, "{} {targets:?}", config.name);
            let persistent = profile_client(&profile, &ft).persistent;
            assert_eq!(persistent, 4 * real, "{} {targets:?}", config.name);
        }
    }
}

#[test]
fn simulated_runtime_matches_profiler_memory() {
    // The DES's persistent accounting must equal M + contexts + N·(A+O)
    // computed from the profile.
    let model = ModelConfig::llama2_7b();
    let w = WorkloadSpec::paper(model.clone(), 3, 3);
    let server = ServerSpec::v100(ServerMode::menos());
    let r = run_experiment(&server, &w, 5);
    let profile = ModelProfile::new(model, 1);
    let d = profile_client(&profile, &w.ft);
    let expected = profile.server_param_bytes()
        + server.cost.cuda_context_bytes
        + 3 * (server.cost.cuda_context_bytes + d.persistent);
    assert_eq!(r.persistent_bytes, expected);
    assert!(r.peak_bytes >= r.persistent_bytes);
    assert!(r.peak_bytes <= server.total_gpu_bytes());
}

#[test]
fn full_simulation_grid_is_deterministic_and_feasible() {
    let server = ServerSpec::v100(ServerMode::menos());
    for model in [ModelConfig::opt_1_3b(), ModelConfig::llama2_7b()] {
        for n in [1usize, 2, 4] {
            let w = WorkloadSpec::paper(model.clone(), n, 4);
            let a = run_experiment(&server, &w, 11);
            let b = run_experiment(&server, &w, 11);
            assert!(a.error.is_none(), "{model:?} n={n}: {:?}", a.error);
            assert_eq!(a.avg_round_s.to_bits(), b.avg_round_s.to_bits());
            assert_eq!(a.iterations, 4);
        }
    }
}
