//! Fine-tune, then *use* the model: split-train a tiny Llama-style
//! model on the Shakespeare corpus and compare greedy generations
//! before and after — the downstream payoff of the whole pipeline.
//!
//! ```bash
//! cargo run --example finetune_and_generate --release
//! ```

use menos::adapters::FineTuneConfig;
use menos::core::SharedBaseRegistry;
use menos::data::{shakespeare_corpus, TokenDataset, Vocab};
use menos::models::{CausalLm, GenerateConfig, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{run_split_steps, ClientId, ForwardMode, ServerSession, SplitClient, SplitSpec};
use menos::tensor::{load_checkpoint, restore_into, save_checkpoint};

fn main() {
    let text = shakespeare_corpus(40_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_llama(vocab.size());
    let mut registry = SharedBaseRegistry::initialize(config.clone(), 21);

    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 4;
    ft.seq_len = 48;
    ft.lr = 2e-3;
    let split = SplitSpec::paper();

    let prompt_text = "First Citizen: ";
    let prompt = vocab.encode(prompt_text);
    let gen_cfg = GenerateConfig {
        max_tokens: 60,
        temperature: 0.7,
        top_k: 6,
        top_p: 0.95,
    };

    // Generation BEFORE fine-tuning (random weights babble).
    let reference = CausalLm::bind(&config, registry.base_store());
    let mut rng = seeded_rng(21, "gen");
    let before = reference.generate(&prompt, &gen_cfg, &mut rng);
    println!(
        "before fine-tuning:\n  {:?}\n",
        vocab.decode(&before[prompt.len()..])
    );

    // Split fine-tuning.
    let ds = TokenDataset::new(vocab.encode(&text), ft.seq_len, 21);
    let mut client = SplitClient::new(
        ClientId(0),
        CausalLm::bind(&config, registry.base_store()),
        split,
        ft.clone(),
        ds,
        21,
    );
    let mut session = ServerSession::new(ClientId(0), registry.new_instance(), split, &ft, 21);
    println!("split fine-tuning 200 steps...");
    let curve = run_split_steps(&mut client, &mut session, ForwardMode::NoGradReforward, 200);
    println!(
        "  loss {:.3} -> {:.3}\n",
        curve.points()[0].1,
        curve.final_loss().unwrap()
    );

    // Checkpoint the server-side adapters — the client's artifact is a
    // few KB, not a model.
    let ckpt = save_checkpoint(session.adapter_params());
    println!(
        "server adapter checkpoint: {} bytes ({} tensors)\n",
        ckpt.len(),
        session.adapter_params().len()
    );

    // Generation AFTER fine-tuning, from a model that stitches the
    // server's tuned adapters onto a fresh shared-base instance —
    // exactly what serving a tuned client looks like.
    let mut tuned = registry.new_instance();
    let mut adapter_rng = seeded_rng(21, "server-adapters");
    let tuned_params = menos::adapters::inject_adapters(
        &mut tuned,
        split.server_range(&config),
        &ft,
        &mut adapter_rng,
    );
    restore_into(&tuned_params, &load_checkpoint(&ckpt).expect("checkpoint")).expect("restore");
    // Note: front-block adapters live on the client; for this demo the
    // server-side adapters dominate (all but one block).
    let after = tuned.generate(&prompt, &gen_cfg, &mut rng);
    println!("after fine-tuning (server adapters restored from checkpoint):");
    println!("  {:?}", vocab.decode(&after[prompt.len()..]));

    assert_ne!(before, after, "fine-tuning should change generations");
    println!("\nfinetune-and-generate OK");
}
