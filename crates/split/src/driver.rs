//! Synchronous protocol drivers: a logical (untimed) split fine-tuning
//! loop and the local fine-tuning baseline.
//!
//! These drivers establish *correctness* — split training must be
//! numerically identical to local training, and Menos' re-forward
//! policy must be identical to the cached policy. Timed multi-client
//! execution lives in `menos-core`.

use menos_adapters::{build_optimizer, inject_adapters, FineTuneConfig};
use menos_data::{LossCurve, TokenDataset};
use menos_models::{causal_lm_loss, CausalLm};
use menos_net::DEFAULT_MAX_FRAME;
use menos_sim::seeded_rng;

use crate::client::SplitClient;
use crate::message::{ClientMessage, ServerMessage};
use crate::protocol::{dispatch_session, ProtocolError, WireMessage};
use crate::retry::run_one_step;
use crate::server::ServerSession;
use crate::spec::SplitSpec;

/// Which forward path the server uses (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardMode {
    /// Gradient-ready forward, graph cached until backward (vanilla).
    Cached,
    /// No-grad forward with re-forward at backward time (Menos).
    NoGradReforward,
}

/// Runs `steps` split fine-tuning iterations between one client and its
/// co-located server session: the same four-step exchange
/// [`drive_client`](crate::drive_client) runs over a transport, here
/// over an in-process hop that still round-trips every message through
/// the unified codec (so the exchanged bytes are exactly what a
/// deployment would move) and executes the server side through the
/// same [`dispatch_session`] state machine every transport-backed
/// server uses.
///
/// Returns the loss points of the steps this call ran — for a fresh
/// client, its whole curve; the client's
/// [`curve`](SplitClient::curve) keeps every step.
///
/// # Panics
///
/// Panics on a protocol error — with a co-located, well-behaved
/// client/session pair every message decodes and arrives in order, so
/// a failure here is a bug, not a runtime condition.
pub fn run_split_steps(
    client: &mut SplitClient,
    session: &mut ServerSession,
    mode: ForwardMode,
    steps: usize,
) -> LossCurve {
    // One in-process exchange: encode → decode (the exact wire bytes)
    // → dispatch through the shared state machine → the same back.
    let mut exchange = |msg: ClientMessage| -> Result<ServerMessage, ProtocolError> {
        let (header, body) = msg.to_wire_parts();
        let msg = ClientMessage::from_wire_parts(&header, &body, DEFAULT_MAX_FRAME)?;
        let (header, body) = dispatch_session(session, mode, &msg)?.to_wire_parts();
        Ok(ServerMessage::from_wire_parts(
            &header,
            &body,
            DEFAULT_MAX_FRAME,
        )?)
    };
    let first = client.curve().points().len();
    for _ in 0..steps {
        run_one_step(client, &mut exchange).expect("co-located split step");
    }
    let mut curve = LossCurve::new();
    for &(step, loss) in &client.curve().points()[first..] {
        curve.push(step, loss);
    }
    curve
}

/// Local (non-split) adapter fine-tuning of the full model — the dashed
/// baseline in the paper's convergence figures.
///
/// To make local runs comparable with split runs, adapters are injected
/// in two groups with the same derived seeds the split parties use:
/// client blocks from `seeded_rng(seed, "client-adapters")`, server
/// blocks from `seeded_rng(seed, "server-adapters")`.
pub fn local_finetune(
    model: CausalLm,
    split: SplitSpec,
    ft: &FineTuneConfig,
    dataset: &TokenDataset,
    seed: u64,
    steps: usize,
) -> LossCurve {
    local_finetune_returning_model(model, split, ft, dataset, seed, steps).0
}

/// [`local_finetune`] that also hands back the trained model (with its
/// adapters), e.g. for held-out evaluation.
pub fn local_finetune_returning_model(
    mut model: CausalLm,
    split: SplitSpec,
    ft: &FineTuneConfig,
    dataset: &TokenDataset,
    seed: u64,
    steps: usize,
) -> (LossCurve, CausalLm) {
    let mut client_rng = seeded_rng(seed, "client-adapters");
    let mut server_rng = seeded_rng(seed, "server-adapters");
    let server_range = split.server_range(&model.config);
    let client_params = inject_adapters(&mut model, split.client_range(), ft, &mut client_rng);
    let server_params = inject_adapters(&mut model, server_range, ft, &mut server_rng);
    // Two optimizers, mirroring the two parties (identical math to one
    // optimizer over the union: Adam's update is element-wise).
    let mut client_opt = build_optimizer(ft, client_params.tensors().cloned().collect());
    let mut server_opt = build_optimizer(ft, server_params.tensors().cloned().collect());

    let mut curve = LossCurve::new();
    for step in 0..steps {
        let batch = dataset.batch(step, ft.batch_size);
        let logits = model.forward(&batch.inputs, batch.batch_size, batch.seq_len);
        let loss = causal_lm_loss(&logits, &batch.targets);
        curve.push(step, loss.to_scalar());
        let grads = loss.backward();
        client_opt.step(&grads);
        server_opt.step(&grads);
    }
    (curve, model)
}

/// Mean cross-entropy of `model` over `batches` held-out batches
/// (no-grad evaluation on a validation split).
///
/// # Panics
///
/// Panics if `batches` is zero or the dataset cannot supply the batch
/// size.
pub fn evaluate_loss(
    model: &CausalLm,
    dataset: &TokenDataset,
    batch_size: usize,
    batches: usize,
) -> f32 {
    assert!(batches > 0, "need at least one evaluation batch");
    menos_tensor::no_grad(|| {
        let mut total = 0.0f32;
        for b in 0..batches {
            let batch = dataset.batch(b, batch_size);
            let logits = model.forward(&batch.inputs, batch.batch_size, batch.seq_len);
            total += causal_lm_loss(&logits, &batch.targets).to_scalar();
        }
        total / batches as f32
    })
}

/// A curve's `(step, loss bits)`: the split and local paths, and the
/// cached and re-forward paths, are equal to the bit.
#[cfg(test)]
fn loss_bits(curve: &LossCurve) -> Vec<(usize, u32)> {
    curve
        .points()
        .iter()
        .map(|&(step, loss)| (step, loss.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use menos_data::{wiki_corpus, Vocab};
    use menos_models::{Arch, ModelConfig};
    use menos_tensor::ParamStore;

    fn setup(arch: Arch) -> (ModelConfig, ParamStore, FineTuneConfig, TokenDataset) {
        let cfg = match arch {
            Arch::Opt => ModelConfig::tiny_opt(33),
            Arch::Llama => ModelConfig::tiny_llama(33),
        };
        let mut rng = seeded_rng(100, "driver-test");
        let ps = menos_models::init_params(&cfg, &mut rng);
        let text = wiki_corpus(5, 4000);
        let vocab = Vocab::from_text(&text);
        assert!(vocab.size() <= 33, "vocab {}", vocab.size());
        let ds = TokenDataset::new(vocab.encode(&text), 16, 5);
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.batch_size = 2;
        ft.seq_len = 16;
        (cfg, ps, ft, ds)
    }

    fn make_pair(
        cfg: &ModelConfig,
        ps: &ParamStore,
        ft: &FineTuneConfig,
        ds: &TokenDataset,
        seed: u64,
    ) -> (SplitClient, ServerSession) {
        let split = SplitSpec::paper();
        let client_model = CausalLm::bind(cfg, &ps.shared_view(false));
        let server_model = CausalLm::bind(cfg, &ps.shared_view(false));
        let client = SplitClient::new(
            ClientId(0),
            client_model,
            split,
            ft.clone(),
            ds.clone(),
            seed,
        );
        let session = ServerSession::new(ClientId(0), server_model, split, ft, seed);
        (client, session)
    }

    #[test]
    fn split_training_reduces_loss() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (mut client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 1);
        let curve = run_split_steps(&mut client, &mut session, ForwardMode::Cached, 20);
        assert_eq!(curve.points().len(), 20);
        assert!(
            curve.final_loss().unwrap() < curve.points()[0].1,
            "loss should fall: {:?}",
            curve.points()
        );
    }

    #[test]
    fn a_reused_client_gets_only_the_steps_each_call_ran() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (mut client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 2);
        let first = run_split_steps(&mut client, &mut session, ForwardMode::Cached, 3);
        let second = run_split_steps(&mut client, &mut session, ForwardMode::Cached, 2);
        let steps = |c: &LossCurve| c.points().iter().map(|&(s, _)| s).collect::<Vec<_>>();
        assert_eq!(steps(&first), [0, 1, 2]);
        assert_eq!(steps(&second), [3, 4]);
        let both: Vec<_> = [first.points(), second.points()].concat();
        assert_eq!(both, client.curve().points());
    }

    #[test]
    fn split_equals_local_exactly() {
        // The paper: "the fine-tuning results of Menos are identical to
        // single-device fine-tuning, as it only distributes computation
        // while maintaining the same logical flow."
        for arch in [Arch::Opt, Arch::Llama] {
            let (cfg, ps, ft, ds) = setup(arch);
            let (mut client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 7);
            // Local run binds a fresh structure over DEEP-COPIED params
            // so the split run cannot perturb it.
            let local_model = CausalLm::bind(&cfg, &ps.deep_copy(false));
            let local = local_finetune(local_model, SplitSpec::paper(), &ft, &ds, 7, 8);
            let split = run_split_steps(&mut client, &mut session, ForwardMode::Cached, 8);
            assert_eq!(loss_bits(&local), loss_bits(&split), "{arch:?}");
        }
    }

    #[test]
    fn reforward_policy_is_numerically_identical() {
        // Menos' no-grad + re-forward path must produce the same losses
        // as the cached path — it trades compute for memory only.
        let (cfg, ps, ft, ds) = setup(Arch::Llama);
        let (mut c1, mut s1) = make_pair(&cfg, &ps, &ft, &ds, 3);
        let cached = run_split_steps(&mut c1, &mut s1, ForwardMode::Cached, 6);

        let ps2 = ps.deep_copy(false);
        let (mut c2, mut s2) = make_pair(&cfg, &ps2, &ft, &ds, 3);
        let nograd = run_split_steps(&mut c2, &mut s2, ForwardMode::NoGradReforward, 6);

        assert_eq!(loss_bits(&cached), loss_bits(&nograd));
        assert_eq!(s2.reforward_count(), 6);
        assert_eq!(s1.reforward_count(), 0);
    }

    #[test]
    fn sessions_share_base_but_not_adapters() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (_c1, s1) = make_pair(&cfg, &ps, &ft, &ds, 1);
        let (_c2, s2) = make_pair(&cfg, &ps, &ft, &ds, 2);
        // Base weights alias.
        for (a, b) in s1
            .model()
            .base_params()
            .iter()
            .zip(s2.model().base_params())
        {
            assert!(menos_tensor::Tensor::same_storage(a, &b));
        }
        // Adapters are private and distinct.
        assert!(!s1.adapter_params().shares_storage_with(s2.adapter_params()));
        assert!(s1.persistent_bytes() > 0);
    }

    #[test]
    fn nograd_forward_requires_no_graph() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (mut client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 1);
        let x_c = client.start_step();
        let x_s = session.forward_nograd(&x_c);
        assert!(!x_s.requires_grad());
        assert!(!session.has_cached_graph());
        let (_, g_c) = client.receive_server_activations(&x_s);
        let g_s = session.backward(&g_c);
        client.receive_server_gradients(&g_s);
        assert_eq!(client.steps_completed(), 1);
    }

    #[test]
    fn release_clears_cached_graph() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (mut client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 1);
        let x_c = client.start_step();
        session.forward_cached(&x_c);
        assert!(session.has_cached_graph());
        session.release();
        assert!(!session.has_cached_graph());
    }

    #[test]
    #[should_panic(expected = "backward without a preceding forward")]
    fn backward_requires_forward() {
        let (cfg, ps, ft, ds) = setup(Arch::Opt);
        let (_client, mut session) = make_pair(&cfg, &ps, &ft, &ds, 1);
        session.backward(&menos_tensor::Tensor::zeros([1, 1, 64]));
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use menos_data::{wiki_corpus, Vocab};
    use menos_models::{init_params, CausalLm, ModelConfig};

    #[test]
    fn evaluation_runs_no_grad_and_matches_training_scale() {
        let text = wiki_corpus(3, 6000);
        let vocab = Vocab::from_text(&text);
        let cfg = ModelConfig::tiny_opt(vocab.size());
        let mut rng = seeded_rng(3, "eval");
        let model = CausalLm::bind(&cfg, &init_params(&cfg, &mut rng));
        let ds = TokenDataset::new(vocab.encode(&text), 16, 3);
        let (train, valid) = ds.train_valid_split(0.8, 3);
        let train_loss = evaluate_loss(&model, &train, 2, 3);
        let valid_loss = evaluate_loss(&model, &valid, 2, 3);
        // Untrained model: both near ln(vocab).
        let uniform = (vocab.size() as f32).ln();
        assert!(
            (train_loss - uniform).abs() < 0.6,
            "{train_loss} vs {uniform}"
        );
        assert!(
            (valid_loss - uniform).abs() < 0.6,
            "{valid_loss} vs {uniform}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one evaluation batch")]
    fn evaluation_needs_batches() {
        let text = wiki_corpus(3, 6000);
        let vocab = Vocab::from_text(&text);
        let cfg = ModelConfig::tiny_opt(vocab.size());
        let mut rng = seeded_rng(3, "eval");
        let model = CausalLm::bind(&cfg, &init_params(&cfg, &mut rng));
        let ds = TokenDataset::new(vocab.encode(&text), 16, 3);
        evaluate_loss(&model, &ds, 2, 0);
    }
}
