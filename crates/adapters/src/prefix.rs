//! Prefix tuning: learned key/value positions prepended to attention.

use rand::Rng;

use menos_models::KvPrefixProvider;
use menos_tensor::Tensor;

/// A per-layer prefix-tuning adapter holding trainable key and value
/// prefixes of shape `[heads, prefix_len, head_dim]`.
///
/// Menos supports clients choosing different fine-tuning methods over
/// the same shared base model; this adapter exercises the second hook
/// ([`KvPrefixProvider`]) alongside LoRA's linear hook.
#[derive(Debug)]
pub struct PrefixAdapter {
    k: Tensor,
    v: Tensor,
    prefix_len: usize,
}

impl PrefixAdapter {
    /// Creates a prefix adapter with `prefix_len` learned positions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, heads: usize, head_dim: usize, prefix_len: usize) -> Self {
        assert!(
            heads > 0 && head_dim > 0 && prefix_len > 0,
            "prefix adapter dims must be positive"
        );
        let std = 0.02;
        PrefixAdapter {
            k: Tensor::randn(rng, [heads, prefix_len, head_dim], std).trainable(),
            v: Tensor::randn(rng, [heads, prefix_len, head_dim], std).trainable(),
            prefix_len,
        }
    }

    /// Trainable parameter bytes.
    pub fn param_bytes(&self) -> u64 {
        self.k.size_bytes() + self.v.size_bytes()
    }
}

impl KvPrefixProvider for PrefixAdapter {
    fn prefix_kv(&self) -> (Tensor, Tensor) {
        (self.k.clone(), self.v.clone())
    }

    fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    fn trainable_params(&self) -> Vec<(String, Tensor)> {
        vec![
            ("prefix.k".to_string(), self.k.clone()),
            ("prefix.v".to_string(), self.v.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_sim::seeded_rng;

    #[test]
    fn shapes_and_sizes() {
        let mut rng = seeded_rng(1, "prefix");
        let p = PrefixAdapter::new(&mut rng, 4, 8, 5);
        let (k, v) = p.prefix_kv();
        assert_eq!(k.dims(), &[4, 5, 8]);
        assert_eq!(v.dims(), &[4, 5, 8]);
        assert_eq!(p.prefix_len(), 5);
        assert_eq!(p.param_bytes(), 2 * 4 * 5 * 8 * 4);
    }

    #[test]
    fn params_are_trainable() {
        let mut rng = seeded_rng(2, "prefix");
        let p = PrefixAdapter::new(&mut rng, 2, 4, 3);
        let params = p.trainable_params();
        assert_eq!(params.len(), 2);
        assert!(params.iter().all(|(_, t)| t.requires_grad()));
    }

    #[test]
    fn gradients_reach_prefixes_through_attention() {
        use menos_models::{init_params, CausalLm, ModelConfig};
        use std::sync::Arc;
        let cfg = ModelConfig::tiny_llama(11);
        let mut rng = seeded_rng(3, "prefix");
        let ps = init_params(&cfg, &mut rng);
        let mut lm = CausalLm::bind(&cfg, &ps.shared_view(false));
        let adapter = Arc::new(PrefixAdapter::new(&mut rng, cfg.heads, cfg.head_dim(), 4));
        lm.set_kv_prefix(1, adapter.clone());
        let ids = [1usize, 2, 3, 4];
        let logits = lm.forward(&ids, 1, 4);
        let loss = menos_models::causal_lm_loss(&logits, &[2, 3, 4, 5]);
        let grads = loss.backward();
        let (k, v) = adapter.prefix_kv();
        assert!(grads.get(&k).is_some(), "prefix K should get a gradient");
        assert!(grads.get(&v).is_some(), "prefix V should get a gradient");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prefix_rejected() {
        let mut rng = seeded_rng(4, "prefix");
        PrefixAdapter::new(&mut rng, 2, 4, 0);
    }
}
