//! Transformer building blocks with adapter injection points.

use std::sync::Arc;

use menos_tensor::Tensor;

use crate::config::Arch;

/// Hook for adapters that modify a linear projection's output — LoRA
/// attaches here.
///
/// Implementations live in `menos-adapters`; the model only knows the
/// injection point. This is what lets *one* shared base structure
/// definition serve clients with different fine-tuning methods.
pub trait LinearAdapter: Send + Sync + std::fmt::Debug {
    /// Adjusts the base projection output: given the layer input `x`
    /// (`[.., in]`) and the frozen-path output `base` (`[.., out]`),
    /// returns the adapted output.
    fn adjust(&self, x: &Tensor, base: &Tensor) -> Tensor;

    /// The adapter's trainable parameters as `(suffix, tensor)` pairs.
    fn trainable_params(&self) -> Vec<(String, Tensor)>;
}

/// A linear projection `y = x W (+ b)` with an optional adapter hook.
///
/// The weight is stored `[in, out]` so no transpose is needed on the
/// forward path.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Projection weight, `[in, out]`.
    pub weight: Tensor,
    /// Optional bias, `[out]`.
    pub bias: Option<Tensor>,
    /// Optional output adapter (e.g. LoRA).
    pub adapter: Option<Arc<dyn LinearAdapter>>,
}

impl Linear {
    /// Creates a plain linear layer.
    pub fn new(weight: Tensor, bias: Option<Tensor>) -> Self {
        Linear {
            weight,
            bias,
            adapter: None,
        }
    }

    /// Applies the projection (and adapter, if attached).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight);
        if let Some(b) = &self.bias {
            y = y.add(b);
        }
        match &self.adapter {
            Some(a) => a.adjust(x, &y),
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
        let mut out = Vec::new();
        for (name, lin) in [
            ("attn.q", &self.attn.q),
            ("attn.k", &self.attn.k),
            ("attn.v", &self.attn.v),
            ("attn.o", &self.attn.o),
        ] {
            if let Some(a) = &lin.adapter {
                for (suffix, t) in a.trainable_params() {
                    out.push((format!("{name}.{suffix}"), t));
                }
            }
        }
        let mlp_linears: Vec<(&str, &Linear)> = match &self.mlp {
            Mlp::Gelu { fc1, fc2 } => vec![("mlp.fc1", fc1), ("mlp.fc2", fc2)],
            Mlp::SwiGlu { gate, up, down } => {
                vec![("mlp.gate", gate), ("mlp.up", up), ("mlp.down", down)]
            }
        };
        for (name, lin) in mlp_linears {
            if let Some(a) = &lin.adapter {
                for (suffix, t) in a.trainable_params() {
                    out.push((format!("{name}.{suffix}"), t));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[derive(Debug)]
    struct DoubleAdapter;
    impl LinearAdapter for DoubleAdapter {
        fn adjust(&self, _x: &Tensor, base: &Tensor) -> Tensor {
            base.mul_scalar(2.0)
        }
        fn trainable_params(&self) -> Vec<(String, Tensor)> {
            Vec::new()
        }
    }

    #[test]
    fn linear_adapter_hook_applies() {
        let mut lin = Linear::new(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]), None);
        lin.adapter = Some(Arc::new(DoubleAdapter));
        let x = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        assert_eq!(lin.forward(&x).to_vec(), vec![6.0, 8.0]);
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
