//! Ablation: LoRA rank vs adapter/optimizer footprint (A + O) and
//! convergence of the real tiny models.
//!
//! The paper fixes r = 8, α = 16; this sweep shows why the exact rank
//! barely matters to Menos' memory story: A + O stays orders of
//! magnitude below M for every practical rank.

use menos_adapters::FineTuneConfig;
use menos_bench::render_table;
use menos_core::profile_client;
use menos_data::{wiki_corpus, TokenDataset, Vocab};
use menos_models::{CausalLm, LoraSpec, ModelConfig, ModelProfile};
use menos_sim::seeded_rng;
use menos_split::{local_finetune, SplitSpec};

fn main() {
    println!("== Ablation: LoRA rank sweep ==\n");

    // Memory side at paper scale (Llama 2).
    let cfg = ModelConfig::llama2_7b();
    let profile = ModelProfile::new(cfg.clone(), 1);
    let mut rows = Vec::new();
    for rank in [2usize, 4, 8, 16, 32] {
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.lora = LoraSpec {
            rank,
            alpha: 2.0 * rank as f32,
        };
        let d = profile_client(&profile, &ft);
        rows.push(vec![
            rank.to_string(),
            format!("{:.1}", d.persistent as f64 / 1e6),
            format!(
                "{:.4}%",
                100.0 * d.persistent as f64 / profile.server_param_bytes() as f64
            ),
        ]);
    }
    println!("-- Llama 2-7B server side --");
    println!(
        "{}",
        render_table(&["rank", "A+O (MB)", "vs base M"], &rows)
    );

    // Convergence side on the real tiny model.
    println!("\n-- tiny-OPT convergence after 25 steps (real training) --");
    let text = wiki_corpus(7, 20_000);
    let vocab = Vocab::from_text(&text);
    let tiny = ModelConfig::tiny_opt(vocab.size());
    let ds = TokenDataset::new(vocab.encode(&text), 32, 7);
    let mut rows = Vec::new();
    for rank in [2usize, 4, 8, 16] {
        let mut ft = FineTuneConfig::paper(&tiny);
        ft.batch_size = 4;
        ft.seq_len = 32;
        ft.lora = LoraSpec {
            rank,
            alpha: 2.0 * rank as f32,
        };
        let mut rng = seeded_rng(7, "rank-sweep");
        let base = menos_models::init_params(&tiny, &mut rng);
        let curve = local_finetune(
            CausalLm::bind(&tiny, &base),
            SplitSpec::paper(),
            &ft,
            &ds,
            7,
            25,
        );
        rows.push(vec![
            rank.to_string(),
            format!("{:.3}", curve.points()[0].1),
            format!("{:.3}", curve.final_loss().unwrap()),
        ]);
    }
    println!(
        "{}",
        render_table(&["rank", "initial loss", "final loss"], &rows)
    );
    println!("\nEvery rank learns; higher ranks add capacity at negligible");
    println!("memory cost relative to the shared base.");
}
