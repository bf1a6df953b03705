//! LoRA (Low-Rank Adaptation), the paper's primary fine-tuning method.

use rand::Rng;

use menos_models::{LinearAdapter, LoraSpec};
use menos_tensor::Tensor;

/// A LoRA adapter for one linear projection: the base output is
/// adjusted by `(x A) B · (α / r)` where `A ∈ R^{in×r}` is
/// Gaussian-initialized and `B ∈ R^{r×out}` starts at zero, so a fresh
/// adapter is an exact no-op.
///
/// # Examples
///
/// ```
/// use menos_adapters::LoraAdapter;
/// use menos_models::{LinearAdapter, LoraSpec};
/// use menos_tensor::Tensor;
///
/// let mut rng = menos_sim::seeded_rng(1, "doc");
/// let lora = LoraAdapter::new(&mut rng, 16, 16, &LoraSpec::paper());
/// let x = Tensor::ones([1, 16]);
/// let base = Tensor::zeros([1, 16]);
/// // Zero-initialized B makes the adapter transparent at first.
/// assert_eq!(lora.adjust(&x, &base).to_vec(), vec![0.0; 16]);
/// ```
#[derive(Debug)]
pub struct LoraAdapter {
    a: Tensor,
    b: Tensor,
    scale: f32,
}

impl LoraAdapter {
    /// Creates a LoRA adapter for a `[in_dim, out_dim]` projection.
    ///
    /// # Panics
    ///
    /// Panics if the rank is zero or does not fit the projection.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize, spec: &LoraSpec) -> Self {
        assert!(spec.rank > 0, "LoRA rank must be positive");
        assert!(
            spec.rank <= in_dim.min(out_dim),
            "LoRA rank {} exceeds projection dims {in_dim}x{out_dim}",
            spec.rank
        );
        // Kaiming-style init for A (as in the LoRA paper), zeros for B.
        let std = 1.0 / (in_dim as f32).sqrt();
        LoraAdapter {
            a: Tensor::randn(rng, [in_dim, spec.rank], std).trainable(),
            b: Tensor::zeros([spec.rank, out_dim]).trainable(),
            scale: spec.scale(),
        }
    }

    /// The low-rank factors `(A, B)`.
    pub fn factors(&self) -> (&Tensor, &Tensor) {
        (&self.a, &self.b)
    }

    /// Rank of this adapter.
    pub fn rank(&self) -> usize {
        self.a.shape().dim(1)
    }

    /// Trainable parameter bytes (A and B).
    pub fn param_bytes(&self) -> u64 {
        self.a.size_bytes() + self.b.size_bytes()
    }
}

impl LinearAdapter for LoraAdapter {
    fn adjust(&self, x: &Tensor, base: &Tensor) -> Tensor {
        let delta = x.matmul(&self.a).matmul(&self.b).mul_scalar(self.scale);
        base.add(&delta)
    }

    fn trainable_params(&self) -> Vec<(String, Tensor)> {
        vec![
            ("lora.a".to_string(), self.a.clone()),
            ("lora.b".to_string(), self.b.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_sim::seeded_rng;

    #[test]
    fn fresh_adapter_is_identity() {
        let mut rng = seeded_rng(1, "lora");
        let lora = LoraAdapter::new(&mut rng, 8, 8, &LoraSpec::paper());
        let x = Tensor::randn(&mut rng, [2, 8], 1.0);
        let base = Tensor::randn(&mut rng, [2, 8], 1.0);
        assert!(lora.adjust(&x, &base).max_abs_diff(&base) < 1e-7);
    }

    #[test]
    fn nonzero_b_changes_output() {
        let mut rng = seeded_rng(2, "lora");
        let lora = LoraAdapter::new(&mut rng, 8, 8, &LoraSpec::paper());
        lora.factors()
            .1
            .storage()
            .write()
            .iter_mut()
            .for_each(|v| *v = 0.1);
        let x = Tensor::ones([1, 8]);
        let base = Tensor::zeros([1, 8]);
        let y = lora.adjust(&x, &base);
        assert!(y.to_vec().iter().any(|&v| v.abs() > 1e-4));
    }

    #[test]
    fn gradients_flow_to_both_factors() {
        let mut rng = seeded_rng(3, "lora");
        let lora = LoraAdapter::new(&mut rng, 8, 8, &LoraSpec::paper());
        // Push B off zero so A receives a nonzero gradient.
        lora.factors()
            .1
            .storage()
            .write()
            .iter_mut()
            .for_each(|v| *v = 0.05);
        let x = Tensor::randn(&mut rng, [2, 8], 1.0);
        let base = Tensor::zeros([2, 8]);
        let loss = lora.adjust(&x, &base).powi(2).sum_all();
        let grads = loss.backward();
        let (a, b) = lora.factors();
        assert!(grads.get(a).is_some());
        assert!(grads.get(b).is_some());
        assert!(grads.get(a).unwrap().to_vec().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn param_accounting() {
        let mut rng = seeded_rng(4, "lora");
        let spec = LoraSpec {
            rank: 4,
            alpha: 8.0,
            targets_per_block: 2,
        };
        let lora = LoraAdapter::new(&mut rng, 16, 16, &spec);
        assert_eq!(lora.rank(), 4);
        // (16*4 + 4*16) * 4 bytes.
        assert_eq!(lora.param_bytes(), 512);
        assert_eq!(lora.trainable_params().len(), 2);
        assert!(lora
            .trainable_params()
            .iter()
            .all(|(_, t)| t.requires_grad()));
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn oversized_rank_rejected() {
        let mut rng = seeded_rng(5, "lora");
        LoraAdapter::new(
            &mut rng,
            4,
            4,
            &LoraSpec {
                rank: 8,
                alpha: 16.0,
                targets_per_block: 2,
            },
        );
    }
}
