//! Client fine-tuning configurations and adapter injection.
//!
//! In Menos' workflow a client first reports its fine-tuning
//! configuration; the server initializes adapters and an optimizer for
//! the client and profiles the resulting memory demands. This module
//! defines that configuration object and the injection routine both
//! sides use on their own model sections.

use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use menos_models::{AdapterTarget, CausalLm, Lora, LoraSpec, ModelConfig};
use menos_tensor::{ParamStore, Tensor};

use crate::optim::Adam;

/// Everything a client reports to the server before fine-tuning starts
/// (paper §3.3): adapter settings (determine `A`) and fine-tuning
/// settings (determine `O` and `I`). Every client fine-tunes with LoRA
/// and Adam at one optimizer step per batch; tenants differ in cut,
/// rank, alpha and target set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// LoRA rank/alpha settings.
    pub lora: LoraSpec,
    /// Projections to adapt in every block, each at most once (paper:
    /// `[Q, V]`).
    pub targets: Vec<AdapterTarget>,
    /// Adam learning rate.
    pub lr: f32,
    /// Training batch size.
    pub batch_size: usize,
    /// Maximum sequence length.
    pub seq_len: usize,
}

/// Largest batch size a configuration may declare. A `Connect` body, a
/// snapshot and an `ImportSession` blob all carry one from outside the
/// process; the analytic profile multiplies it by sequence length,
/// widths and layer count in `u64`, which this bound keeps from
/// overflowing (the paper's largest batch is 16).
const MAX_BATCH_SIZE: usize = 1 << 16;

impl FineTuneConfig {
    /// The paper's configuration: LoRA r=8 α=16 on Q and V, Adam.
    pub fn paper(model: &ModelConfig) -> Self {
        FineTuneConfig {
            lora: LoraSpec::paper(),
            targets: vec![AdapterTarget::Q, AdapterTarget::V],
            lr: 3e-4,
            batch_size: menos_models::paper_batch_size(model),
            seq_len: menos_models::PAPER_SEQ_LEN,
        }
    }

    /// Validates the configuration against a model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, model: &ModelConfig) -> Result<(), String> {
        if self.batch_size == 0 || self.batch_size > MAX_BATCH_SIZE {
            return Err(format!(
                "batch_size {} outside (0, {MAX_BATCH_SIZE}]",
                self.batch_size
            ));
        }
        if self.seq_len == 0 || self.seq_len > model.max_seq {
            return Err(format!(
                "seq_len {} outside (0, {}]",
                self.seq_len, model.max_seq
            ));
        }
        if self.targets.is_empty() {
            return Err("LoRA needs at least one target projection".into());
        }
        // A repeated target would draw a second adapter over the first
        // and charge A for both while one trains.
        for (i, t) in self.targets.iter().enumerate() {
            if self.targets[..i].contains(t) {
                return Err(format!("LoRA target {t:?} is listed twice"));
            }
        }
        if self.lora.rank == 0 || self.lora.rank > model.hidden {
            return Err(format!(
                "LoRA rank {} invalid for hidden {}",
                self.lora.rank, model.hidden
            ));
        }
        if !self.lora.alpha.is_finite() {
            return Err(format!("LoRA alpha {} must be finite", self.lora.alpha));
        }
        // Written so that NaN fails too: a NaN lr from the wire would
        // otherwise reach `Adam::new` and panic there.
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(format!("Adam lr {} must be finite and positive", self.lr));
        }
        Ok(())
    }
}

/// Injects a LoRA adapter on each target of each block in `layers`,
/// drawing every `A` from `rng` in layer-then-target order, and returns
/// the factors it built, named like [`CausalLm::adapter_params`].
///
/// # Panics
///
/// Panics if the config is invalid for this model or the layer range is
/// out of bounds.
pub fn inject_adapters<R: Rng>(
    model: &mut CausalLm,
    layers: Range<usize>,
    ft: &FineTuneConfig,
    rng: &mut R,
) -> ParamStore {
    ft.validate(&model.config)
        .expect("invalid fine-tune config");
    assert!(
        layers.end <= model.num_blocks(),
        "layer range out of bounds"
    );
    let mut store = ParamStore::new();
    for layer in layers {
        for &t in &ft.targets {
            let (in_dim, out_dim) = t.dims(&model.config);
            let lora = Lora::new(rng, in_dim, out_dim, &ft.lora);
            for (name, factor) in model.set_linear_adapter(layer, t, lora) {
                store.insert(name, factor);
            }
        }
    }
    store
}

/// Builds the Adam optimizer described by `ft` over `params`.
pub fn build_optimizer(ft: &FineTuneConfig, params: Vec<Tensor>) -> Adam {
    Adam::new(params, ft.lr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_models::{init_params, Arch};
    use menos_sim::seeded_rng;

    fn tiny_model(arch: Arch) -> (ModelConfig, CausalLm) {
        let cfg = match arch {
            Arch::Opt => ModelConfig::tiny_opt(13),
            Arch::Llama => ModelConfig::tiny_llama(13),
        };
        let mut rng = seeded_rng(11, "ft-test");
        let ps = init_params(&cfg, &mut rng);
        let lm = CausalLm::bind(&cfg, &ps);
        (cfg, lm)
    }

    #[test]
    fn paper_config_validates() {
        for cfg in [ModelConfig::opt_1_3b(), ModelConfig::llama2_7b()] {
            FineTuneConfig::paper(&cfg).validate(&cfg).unwrap();
        }
    }

    #[test]
    fn lora_injection_creates_expected_params() {
        let (cfg, mut lm) = tiny_model(Arch::Llama);
        let ft = FineTuneConfig::paper(&cfg);
        let mut rng = seeded_rng(1, "inject");
        let params = inject_adapters(&mut lm, 1..4, &ft, &mut rng);
        // 3 layers × 2 targets × 2 factors.
        assert_eq!(params.len(), 12);
        assert!(params.get("blocks.1.attn.q.lora.a").is_some());
        assert!(params.get("blocks.3.attn.v.lora.b").is_some());
        assert!(
            params.get("blocks.0.attn.q.lora.a").is_none(),
            "layer 0 untouched"
        );
        assert!(params.tensors().all(|t| t.requires_grad()));
    }

    #[test]
    fn fresh_lora_does_not_change_forward() {
        let (cfg, mut lm) = tiny_model(Arch::Llama);
        let ids = [1usize, 5, 9, 2];
        let before = lm.forward(&ids, 1, 4);
        let ft = FineTuneConfig::paper(&cfg);
        let mut rng = seeded_rng(3, "inject");
        inject_adapters(&mut lm, 0..4, &ft, &mut rng);
        let after = lm.forward(&ids, 1, 4);
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before), bits(&after), "zero-init B must be a no-op");
    }

    #[test]
    fn build_optimizer_holds_two_moments() {
        let p = vec![Tensor::var_from_vec(vec![0.0], [1])];
        let ft = FineTuneConfig::paper(&ModelConfig::tiny_opt(13));
        let opt = build_optimizer(&ft, p);
        assert_eq!(opt.state_bytes(), 8); // Adam: 2 buffers × 1 elem × 4B
    }

    #[test]
    fn end_to_end_lora_training_reduces_loss() {
        let (_cfg, mut lm) = tiny_model(Arch::Opt);
        let ft = FineTuneConfig {
            lora: LoraSpec {
                rank: 4,
                alpha: 8.0,
            },
            targets: vec![AdapterTarget::Q, AdapterTarget::V],
            lr: 0.01,
            batch_size: 1,
            seq_len: 8,
        };
        let mut rng = seeded_rng(5, "train");
        let params = inject_adapters(&mut lm, 0..4, &ft, &mut rng);
        let mut opt = build_optimizer(&ft, params.tensors().cloned().collect());
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let targets = [2usize, 3, 4, 5, 6, 7, 8, 9];
        let mut losses = Vec::new();
        for _ in 0..30 {
            let logits = lm.forward(&ids, 1, 8);
            let loss = menos_models::causal_lm_loss(&logits, &targets);
            losses.push(loss.to_scalar());
            opt.step(&loss.backward());
        }
        assert!(
            losses.last().unwrap() < &(losses[0] - 0.1),
            "LoRA training should reduce loss: {losses:?}"
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cfg = ModelConfig::tiny_opt(13);
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.batch_size = 0;
        assert!(ft.validate(&cfg).is_err());

        let mut ft = FineTuneConfig::paper(&cfg);
        ft.seq_len = 10_000;
        assert!(ft.validate(&cfg).is_err());

        let mut ft = FineTuneConfig::paper(&cfg);
        ft.lora.rank = 0;
        assert!(ft.validate(&cfg).is_err());

        let mut ft = FineTuneConfig::paper(&cfg);
        ft.targets.clear();
        assert!(ft.validate(&cfg).is_err());

        let mut ft = FineTuneConfig::paper(&cfg);
        ft.targets = vec![AdapterTarget::Q, AdapterTarget::V, AdapterTarget::Q];
        let why = ft.validate(&cfg).unwrap_err();
        assert!(why.contains("Q"), "{why}");

        for alpha in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut ft = FineTuneConfig::paper(&cfg);
            ft.lora.alpha = alpha;
            assert!(ft.validate(&cfg).is_err(), "alpha {alpha}");
        }

        for lr in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let mut ft = FineTuneConfig::paper(&cfg);
            ft.lr = lr;
            assert!(ft.validate(&cfg).is_err(), "lr {lr}");
        }
    }
}
