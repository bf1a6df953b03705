//! Transformer building blocks, with LoRA as the one adapter a linear
//! projection can carry.

use rand::Rng;

use menos_tensor::Tensor;

use crate::config::Arch;
use crate::profile::LoraSpec;

/// A LoRA adapter on one linear projection: the base output is
/// adjusted by `(x A) B · (α / r)` where `A ∈ R^{in×r}` is
/// Gaussian-initialized and `B ∈ R^{r×out}` starts at zero, so a fresh
/// adapter is an exact no-op.
///
/// Its factors are named `{projection}.lora.a` and `{projection}.lora.b`
/// in [`Block::adapter_params`].
///
/// # Examples
///
/// ```
/// use menos_models::{Linear, Lora, LoraSpec};
/// use menos_tensor::Tensor;
///
/// let mut rng = menos_sim::seeded_rng(1, "doc");
/// let mut lin = Linear::new(Tensor::randn(&mut rng, [16, 16], 0.1), None);
/// let x = Tensor::ones([1, 16]);
/// let before = lin.forward(&x).to_vec();
/// lin.lora = Some(Lora::new(&mut rng, 16, 16, &LoraSpec::paper()));
/// // Zero-initialized B makes the adapter transparent at first.
/// assert_eq!(lin.forward(&x).to_vec(), before);
/// ```
#[derive(Debug, Clone)]
pub struct Lora {
    a: Tensor,
    b: Tensor,
    scale: f32,
}

impl Lora {
    /// Creates a LoRA adapter for a `[in_dim, out_dim]` projection,
    /// drawing `A` from `rng`.
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
        Lora {
            a: Tensor::randn(rng, [in_dim, spec.rank], std).trainable(),
            b: Tensor::zeros([spec.rank, out_dim]).trainable(),
            scale: spec.scale(),
        }
    }

    /// `base + (x A) B · scale`, where `base` is the frozen path's output
    /// for input `x`.
    fn adjust(&self, x: &Tensor, base: &Tensor) -> Tensor {
        let delta = x.matmul(&self.a).matmul(&self.b).mul_scalar(self.scale);
        base.add(&delta)
    }

    /// The factors named under the projection `prefix`.
    pub(crate) fn named_factors(&self, prefix: &str) -> [(String, Tensor); 2] {
        [
            (format!("{prefix}.lora.a"), self.a.clone()),
            (format!("{prefix}.lora.b"), self.b.clone()),
        ]
    }
}

/// A linear projection `y = x W (+ b)`, optionally adapted by LoRA.
///
/// The weight is stored `[in, out]` so no transpose is needed on the
/// forward path.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Projection weight, `[in, out]`.
    pub weight: Tensor,
    /// Optional bias, `[out]`.
    pub bias: Option<Tensor>,
    /// Optional LoRA adapter.
    pub lora: Option<Lora>,
}

impl Linear {
    /// Creates a plain linear layer.
    pub fn new(weight: Tensor, bias: Option<Tensor>) -> Self {
        Linear {
            weight,
            bias,
            lora: None,
        }
    }

    /// Applies the projection (and adapter, if attached).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight);
        if let Some(b) = &self.bias {
            y = y.add(b);
        }
        match &self.lora {
            Some(lora) => lora.adjust(x, &y),
            None => y,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.shape().dim(0)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.shape().dim(1)
    }
}

/// Pre-attention / pre-MLP normalization: LayerNorm (OPT) or RMSNorm
/// (Llama).
#[derive(Debug, Clone)]
pub enum Norm {
    /// LayerNorm with affine gamma/beta.
    Layer {
        /// Scale, `[hidden]`.
        gamma: Tensor,
        /// Shift, `[hidden]`.
        beta: Tensor,
        /// Numerical epsilon.
        eps: f32,
    },
    /// RMSNorm with gamma only.
    Rms {
        /// Scale, `[hidden]`.
        gamma: Tensor,
        /// Numerical epsilon.
        eps: f32,
    },
}

impl Norm {
    /// Applies the normalization.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Norm::Layer { gamma, beta, eps } => x.layer_norm(gamma, beta, *eps),
            Norm::Rms { gamma, eps } => x.rms_norm(gamma, *eps),
        }
    }
}

/// Multi-head causal self-attention with optional RoPE.
#[derive(Debug, Clone)]
pub struct Attention {
    /// Query projection.
    pub q: Linear,
    /// Key projection.
    pub k: Linear,
    /// Value projection.
    pub v: Linear,
    /// Output projection.
    pub o: Linear,
    /// Number of heads.
    pub heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// RoPE base frequency; `None` for absolute-position models.
    pub rope_base: Option<f32>,
}

impl Attention {
    /// Runs attention over `x` of shape `[batch, seq, hidden]` with a
    /// causal mask.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 3-D or hidden does not match the
    /// projections.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 3, "attention input must be [batch, seq, hidden]");
        let (b, s, h) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(h, self.heads * self.head_dim, "hidden/heads mismatch");

        let split = |t: &Tensor| -> Tensor {
            // [b, s, h] -> [b, heads, s, head_dim]
            t.reshape([b, s, self.heads, self.head_dim])
                .permute(&[0, 2, 1, 3])
        };

        let mut q = split(&self.q.forward(x));
        let mut k = split(&self.k.forward(x));
        let v = split(&self.v.forward(x));

        if let Some(base) = self.rope_base {
            q = q.rope(base, 0);
            k = k.rope(base, 0);
        }

        // Scores: [b, heads, s, s].
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let scores = q.matmul(&k.t()).mul_scalar(scale);
        let mask = Tensor::causal_mask(s);
        let probs = scores.add(&mask).softmax_last();

        let ctx = probs.matmul(&v); // [b, heads, s, head_dim]
        let merged = ctx.permute(&[0, 2, 1, 3]).reshape([b, s, h]);
        self.o.forward(&merged)
    }
}

/// Feed-forward block: GELU MLP (OPT) or SwiGLU (Llama).
#[derive(Debug, Clone)]
pub enum Mlp {
    /// OPT-style: `fc2(gelu(fc1(x)))`.
    Gelu {
        /// Up projection `[hidden, intermediate]`.
        fc1: Linear,
        /// Down projection `[intermediate, hidden]`.
        fc2: Linear,
    },
    /// Llama-style: `down(silu(gate(x)) * up(x))`.
    SwiGlu {
        /// Gate projection.
        gate: Linear,
        /// Up projection.
        up: Linear,
        /// Down projection.
        down: Linear,
    },
}

impl Mlp {
    /// Applies the feed-forward block.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Mlp::Gelu { fc1, fc2 } => fc2.forward(&fc1.forward(x).gelu()),
            Mlp::SwiGlu { gate, up, down } => {
                let g = gate.forward(x).silu();
                let u = up.forward(x);
                down.forward(&(&g * &u))
            }
        }
    }
}

/// One pre-norm transformer block: `x + attn(norm(x))`, then
/// `x + mlp(norm(x))`.
#[derive(Debug, Clone)]
pub struct Block {
    /// Normalization before attention.
    pub attn_norm: Norm,
    /// Self-attention.
    pub attn: Attention,
    /// Normalization before the MLP.
    pub mlp_norm: Norm,
    /// Feed-forward block.
    pub mlp: Mlp,
    /// Which architecture family this block belongs to.
    pub arch: Arch,
}

impl Block {
    /// Applies the block to `[batch, seq, hidden]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let h = x.add(&self.attn.forward(&self.attn_norm.forward(x)));
        h.add(&self.mlp.forward(&self.mlp_norm.forward(&h)))
    }

    /// Trainable adapter parameters attached to this block, prefixed by
    /// projection name.
    pub fn adapter_params(&self) -> Vec<(String, Tensor)> {
        let mut linears = vec![
            ("attn.q", &self.attn.q),
            ("attn.k", &self.attn.k),
            ("attn.v", &self.attn.v),
            ("attn.o", &self.attn.o),
        ];
        match &self.mlp {
            Mlp::Gelu { fc1, fc2 } => linears.extend([("mlp.fc1", fc1), ("mlp.fc2", fc2)]),
            Mlp::SwiGlu { gate, up, down } => {
                linears.extend([("mlp.gate", gate), ("mlp.up", up), ("mlp.down", down)])
            }
        }
        linears
            .into_iter()
            .filter_map(|(name, lin)| Some(lin.lora.as_ref()?.named_factors(name)))
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_sim::seeded_rng;

    fn linear(in_dim: usize, out_dim: usize, scale: f32) -> Linear {
        let n = in_dim * out_dim;
        let w: Vec<f32> = (0..n)
            .map(|i| scale * ((i % 7) as f32 - 3.0) / 10.0)
            .collect();
        Linear::new(Tensor::from_vec(w, [in_dim, out_dim]), None)
    }

    #[test]
    fn linear_identity() {
        let lin = Linear::new(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]),
            Some(Tensor::from_vec(vec![0.5, -0.5], [2])),
        );
        let x = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        assert_eq!(lin.forward(&x).to_vec(), vec![1.5, 1.5]);
        assert_eq!(lin.in_dim(), 2);
        assert_eq!(lin.out_dim(), 2);
    }

    #[test]
    fn lora_factors_are_shaped_named_and_trainable() {
        let mut rng = seeded_rng(4, "lora");
        let lora = Lora::new(
            &mut rng,
            16,
            12,
            &LoraSpec {
                rank: 4,
                alpha: 8.0,
            },
        );
        assert_eq!((lora.a.dims(), lora.b.dims()), (&[16, 4][..], &[4, 12][..]));
        assert_eq!(lora.scale, 2.0);
        assert!(lora.b.to_vec().iter().all(|&v| v == 0.0));
        let [(na, a), (nb, b)] = lora.named_factors("attn.q");
        assert_eq!(
            (na.as_str(), nb.as_str()),
            ("attn.q.lora.a", "attn.q.lora.b")
        );
        assert!(a.requires_grad() && b.requires_grad());
    }

    #[test]
    fn a_nonzero_b_adapts_the_output_and_both_factors_get_gradients() {
        let mut rng = seeded_rng(3, "lora");
        let mut lin = Linear::new(Tensor::zeros([8, 8]), None);
        let lora = Lora::new(&mut rng, 8, 8, &LoraSpec::paper());
        lora.b.storage().write().iter_mut().for_each(|v| *v = 0.05);
        lin.lora = Some(lora);
        let y = lin.forward(&Tensor::randn(&mut rng, [2, 8], 1.0));
        assert!(y.to_vec().iter().any(|&v| v.abs() > 1e-4));
        let grads = y.powi(2).sum_all().backward();
        let lora = lin.lora.as_ref().unwrap();
        for factor in [&lora.a, &lora.b] {
            let g = grads.get(factor).expect("a gradient").to_vec();
            assert!(g.iter().any(|&g| g != 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn oversized_rank_rejected() {
        let mut rng = seeded_rng(5, "lora");
        Lora::new(
            &mut rng,
            4,
            4,
            &LoraSpec {
                rank: 8,
                alpha: 16.0,
            },
        );
    }

    #[test]
    fn norm_variants_forward() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
        let ln = Norm::Layer {
            gamma: Tensor::ones([4]),
            beta: Tensor::zeros([4]),
            eps: 1e-5,
        };
        let y = ln.forward(&x).to_vec();
        assert!((y.iter().sum::<f32>()).abs() < 1e-4);
        let rms = Norm::Rms {
            gamma: Tensor::ones([4]),
            eps: 1e-5,
        };
        assert!(rms.forward(&x).all_finite());
    }

    fn attention(heads: usize, head_dim: usize, rope: Option<f32>) -> Attention {
        let h = heads * head_dim;
        Attention {
            q: linear(h, h, 1.0),
            k: linear(h, h, 0.7),
            v: linear(h, h, 0.9),
            o: linear(h, h, 0.8),
            heads,
            head_dim,
            rope_base: rope,
        }
    }

    #[test]
    fn attention_shapes() {
        let attn = attention(2, 4, None);
        let x = Tensor::from_vec((0..48).map(|i| 0.01 * i as f32).collect(), [2, 3, 8]);
        let y = attn.forward(&x);
        assert_eq!(y.dims(), &[2, 3, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn attention_is_causal() {
        // Changing a later token must not affect earlier outputs.
        let attn = attention(2, 4, None);
        let base: Vec<f32> = (0..24).map(|i| 0.05 * i as f32).collect();
        let mut changed = base.clone();
        changed[16] += 5.0; // token 2 of 3
        let y1 = attn.forward(&Tensor::from_vec(base, [1, 3, 8]));
        let y2 = attn.forward(&Tensor::from_vec(changed, [1, 3, 8]));
        let v1 = y1.to_vec();
        let v2 = y2.to_vec();
        // Tokens 0 and 1 (first 16 outputs) unchanged.
        for i in 0..16 {
            assert!((v1[i] - v2[i]).abs() < 1e-6, "causality violated at {i}");
        }
        // Token 2 changed.
        assert!((16..24).any(|i| (v1[i] - v2[i]).abs() > 1e-4));
    }

    #[test]
    fn attention_matches_hand_computation() {
        // One head, head_dim 2, identity projections: the output is the
        // causal softmax-weighted average of the values, computable by
        // hand.
        let eye = Linear::new(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]), None);
        let attn = Attention {
            q: eye.clone(),
            k: eye.clone(),
            v: eye.clone(),
            o: eye,
            heads: 1,
            head_dim: 2,
            rope_base: None,
        };
        let x0 = [1.0f32, 0.0];
        let x1 = [0.0f32, 2.0];
        let x = Tensor::from_vec(vec![x0[0], x0[1], x1[0], x1[1]], [1, 2, 2]);
        let y = attn.forward(&x).to_vec();

        // Token 0 attends only to itself: output = v0 = x0.
        assert!((y[0] - x0[0]).abs() < 1e-6);
        assert!((y[1] - x0[1]).abs() < 1e-6);

        // Token 1: scores over (k0, k1) = (q1·k0, q1·k1)/sqrt(2).
        let scale = 1.0 / 2.0f32.sqrt();
        let s0 = (x1[0] * x0[0] + x1[1] * x0[1]) * scale; // 0
        let s1 = (x1[0] * x1[0] + x1[1] * x1[1]) * scale; // 4/sqrt(2)
        let (e0, e1) = ((s0 - s1).exp(), 1.0f32);
        let (w0, w1) = (e0 / (e0 + e1), e1 / (e0 + e1));
        let expected = [w0 * x0[0] + w1 * x1[0], w0 * x0[1] + w1 * x1[1]];
        assert!(
            (y[2] - expected[0]).abs() < 1e-5,
            "{} vs {}",
            y[2],
            expected[0]
        );
        assert!(
            (y[3] - expected[1]).abs() < 1e-5,
            "{} vs {}",
            y[3],
            expected[1]
        );
    }

    #[test]
    fn attention_with_rope_runs() {
        let attn = attention(2, 4, Some(10_000.0));
        let x = Tensor::from_vec((0..24).map(|i| 0.05 * i as f32).collect(), [1, 3, 8]);
        assert!(attn.forward(&x).all_finite());
    }

    #[test]
    fn mlp_variants() {
        let x = Tensor::from_vec(vec![0.5, -0.5], [1, 2]);
        let gelu = Mlp::Gelu {
            fc1: linear(2, 4, 1.0),
            fc2: linear(4, 2, 1.0),
        };
        assert_eq!(gelu.forward(&x).dims(), &[1, 2]);
        let swiglu = Mlp::SwiGlu {
            gate: linear(2, 4, 1.0),
            up: linear(2, 4, 0.5),
            down: linear(4, 2, 1.0),
        };
        assert_eq!(swiglu.forward(&x).dims(), &[1, 2]);
    }

    #[test]
    fn block_residual_path() {
        // With zero attention/MLP weights the block is the identity.
        let h = 8;
        let zeros = |i, o| Linear::new(Tensor::zeros([i, o]), None);
        let block = Block {
            attn_norm: Norm::Rms {
                gamma: Tensor::ones([h]),
                eps: 1e-5,
            },
            attn: Attention {
                q: zeros(h, h),
                k: zeros(h, h),
                v: zeros(h, h),
                o: zeros(h, h),
                heads: 2,
                head_dim: 4,
                rope_base: None,
            },
            mlp_norm: Norm::Rms {
                gamma: Tensor::ones([h]),
                eps: 1e-5,
            },
            mlp: Mlp::SwiGlu {
                gate: zeros(h, h),
                up: zeros(h, h),
                down: zeros(h, h),
            },
            arch: Arch::Llama,
        };
        let x = Tensor::from_vec((0..16).map(|i| i as f32 * 0.1).collect(), [1, 2, 8]);
        let y = block.forward(&x);
        assert!(x.max_abs_diff(&y) < 1e-6);
        assert!(block.adapter_params().is_empty());
    }
}
