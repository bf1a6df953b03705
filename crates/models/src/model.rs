//! Full causal language models: parameter initialization, structural
//! binding, and forward passes over layer ranges (the primitive that
//! split fine-tuning cuts at).

use std::ops::Range;

use rand::Rng;

use menos_tensor::{ParamStore, Tensor};

use crate::config::{Arch, ModelConfig};
use crate::layers::{Attention, Block, Linear, Lora, Mlp, Norm};

/// Initializes a fresh parameter store for `cfg` with canonical names.
///
/// Loading a pre-trained model in the paper is "construct the structure,
/// then read parameters from files"; here initialization plays the role
/// of the file read. Menos' base-model sharing intercepts *binding*
/// ([`CausalLm::bind`]), never initialization — exactly one store holds
/// the base weights.
pub fn init_params<R: Rng>(cfg: &ModelConfig, rng: &mut R) -> ParamStore {
    cfg.validate().expect("invalid model config");
    let h = cfg.hidden;
    let v = cfg.vocab_size;
    let ffn = cfg.intermediate;
    let std = 0.02f32;
    let mut ps = ParamStore::new();

    ps.insert("embed.weight", Tensor::randn(rng, [v, h], std));
    if cfg.arch == Arch::Opt {
        ps.insert("pos.weight", Tensor::randn(rng, [cfg.max_seq, h], std));
    }

    for i in 0..cfg.layers {
        let p = |s: &str| format!("blocks.{i}.{s}");
        match cfg.arch {
            Arch::Opt => {
                ps.insert(p("attn_norm.gamma"), Tensor::ones([h]));
                ps.insert(p("attn_norm.beta"), Tensor::zeros([h]));
                ps.insert(p("mlp_norm.gamma"), Tensor::ones([h]));
                ps.insert(p("mlp_norm.beta"), Tensor::zeros([h]));
            }
            Arch::Llama => {
                ps.insert(p("attn_norm.gamma"), Tensor::ones([h]));
                ps.insert(p("mlp_norm.gamma"), Tensor::ones([h]));
            }
        }
        for proj in ["q", "k", "v", "o"] {
            ps.insert(
                p(&format!("attn.{proj}.weight")),
                Tensor::randn(rng, [h, h], std),
            );
            if cfg.arch == Arch::Opt {
                ps.insert(p(&format!("attn.{proj}.bias")), Tensor::zeros([h]));
            }
        }
        match cfg.arch {
            Arch::Opt => {
                ps.insert(p("mlp.fc1.weight"), Tensor::randn(rng, [h, ffn], std));
                ps.insert(p("mlp.fc1.bias"), Tensor::zeros([ffn]));
                ps.insert(p("mlp.fc2.weight"), Tensor::randn(rng, [ffn, h], std));
                ps.insert(p("mlp.fc2.bias"), Tensor::zeros([h]));
            }
            Arch::Llama => {
                ps.insert(p("mlp.gate.weight"), Tensor::randn(rng, [h, ffn], std));
                ps.insert(p("mlp.up.weight"), Tensor::randn(rng, [h, ffn], std));
                ps.insert(p("mlp.down.weight"), Tensor::randn(rng, [ffn, h], std));
            }
        }
    }

    ps.insert("final_norm.gamma", Tensor::ones([h]));
    if cfg.arch == Arch::Opt {
        ps.insert("final_norm.beta", Tensor::zeros([h]));
    }
    if !cfg.tie_embeddings {
        ps.insert("lm_head.weight", Tensor::randn(rng, [h, v], std));
    }
    ps
}

/// A decoder-only causal LM whose structure is private but whose
/// parameters may alias a shared store.
///
/// Build one with [`CausalLm::bind`]; the forward pass is exposed in
/// three sections matching the split fine-tuning cut (Fig. 1):
/// [`CausalLm::embed_forward`] (client input section),
/// [`CausalLm::blocks_forward`] over an arbitrary layer range (server
/// body), and [`CausalLm::head_forward`] (client output section).
#[derive(Debug)]
pub struct CausalLm {
    /// The architecture this instance was bound against.
    pub config: ModelConfig,
    embed: Tensor,
    pos: Option<Tensor>,
    blocks: Vec<Block>,
    final_norm: Norm,
    lm_head: Option<Linear>,
}

impl CausalLm {
    /// Binds a model structure to parameters in `store`.
    ///
    /// Tensors are aliased, not copied — binding the same store twice
    /// yields two independent structures over one set of weights.
    ///
    /// # Panics
    ///
    /// Panics if a required parameter is missing or mis-shaped.
    pub fn bind(cfg: &ModelConfig, store: &ParamStore) -> CausalLm {
        cfg.validate().expect("invalid model config");
        let fetch = |name: &str| -> Tensor {
            store
                .get(name)
                .unwrap_or_else(|| panic!("parameter {name} missing from store"))
                .clone()
        };
        let h = cfg.hidden;
        let make_norm = |prefix: &str| -> Norm {
            match cfg.arch {
                Arch::Opt => Norm::Layer {
                    gamma: fetch(&format!("{prefix}.gamma")),
                    beta: fetch(&format!("{prefix}.beta")),
                    eps: cfg.norm_eps,
                },
                Arch::Llama => Norm::Rms {
                    gamma: fetch(&format!("{prefix}.gamma")),
                    eps: cfg.norm_eps,
                },
            }
        };
        let make_linear = |prefix: &str, with_bias: bool| -> Linear {
            Linear::new(
                fetch(&format!("{prefix}.weight")),
                if with_bias {
                    Some(fetch(&format!("{prefix}.bias")))
                } else {
                    None
                },
            )
        };

        let blocks = (0..cfg.layers)
            .map(|i| {
                let p = |s: &str| format!("blocks.{i}.{s}");
                let biased = cfg.arch == Arch::Opt;
                Block {
                    attn_norm: make_norm(&p("attn_norm")),
                    attn: Attention {
                        q: make_linear(&p("attn.q"), biased),
                        k: make_linear(&p("attn.k"), biased),
                        v: make_linear(&p("attn.v"), biased),
                        o: make_linear(&p("attn.o"), biased),
                        heads: cfg.heads,
                        head_dim: cfg.head_dim(),
                        rope_base: (cfg.arch == Arch::Llama).then_some(cfg.rope_base),
                    },
                    mlp_norm: make_norm(&p("mlp_norm")),
                    mlp: match cfg.arch {
                        Arch::Opt => Mlp::Gelu {
                            fc1: make_linear(&p("mlp.fc1"), true),
                            fc2: make_linear(&p("mlp.fc2"), true),
                        },
                        Arch::Llama => Mlp::SwiGlu {
                            gate: make_linear(&p("mlp.gate"), false),
                            up: make_linear(&p("mlp.up"), false),
                            down: make_linear(&p("mlp.down"), false),
                        },
                    },
                    arch: cfg.arch,
                }
            })
            .collect();

        let embed = fetch("embed.weight");
        assert_eq!(embed.dims(), &[cfg.vocab_size, h], "embed shape");

        CausalLm {
            config: cfg.clone(),
            embed,
            pos: (cfg.arch == Arch::Opt).then(|| fetch("pos.weight")),
            blocks,
            final_norm: make_norm("final_norm"),
            lm_head: (!cfg.tie_embeddings).then(|| make_linear("lm_head", false)),
        }
    }

    /// Number of transformer blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The input section: token (+ position) embedding. `ids` has
    /// `batch * seq` entries in row-major `[batch, seq]` order.
    ///
    /// # Panics
    ///
    /// Panics if `seq` exceeds the configured maximum or ids are out of
    /// vocabulary.
    pub fn embed_forward(&self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        assert!(
            seq <= self.config.max_seq,
            "sequence length {seq} exceeds max {}",
            self.config.max_seq
        );
        let tok = Tensor::embedding(&self.embed, ids, &[batch, seq]);
        match &self.pos {
            Some(pos) => {
                let pos_ids: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
                let pe = Tensor::embedding(pos, &pos_ids, &[batch, seq]);
                tok.add(&pe)
            }
            None => tok,
        }
    }

    /// Applies blocks `range` to hidden states `[batch, seq, hidden]`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the block count.
    pub fn blocks_forward(&self, x: &Tensor, range: Range<usize>) -> Tensor {
        assert!(range.end <= self.blocks.len(), "block range out of bounds");
        let mut h = x.clone();
        for b in &self.blocks[range] {
            h = b.forward(&h);
        }
        h
    }

    /// The output section: final norm + LM head, returning logits
    /// `[batch, seq, vocab]`.
    pub fn head_forward(&self, x: &Tensor) -> Tensor {
        let h = self.final_norm.forward(x);
        match &self.lm_head {
            Some(head) => head.forward(&h),
            // Tied embeddings: logits = h @ E^T.
            None => h.matmul(&self.embed.t()),
        }
    }

    /// Full forward pass: embedding, every block, head.
    pub fn forward(&self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        let x = self.embed_forward(ids, batch, seq);
        let x = self.blocks_forward(&x, 0..self.blocks.len());
        self.head_forward(&x)
    }

    /// Attaches `lora` to a projection of block `layer`, replacing any
    /// adapter already there, and returns its factors named as in
    /// [`CausalLm::adapter_params`].
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn set_linear_adapter(
        &mut self,
        layer: usize,
        target: AdapterTarget,
        lora: Lora,
    ) -> [(String, Tensor); 2] {
        let block = &mut self.blocks[layer];
        let (name, slot): (&str, &mut Linear) = match target {
            AdapterTarget::Q => ("attn.q", &mut block.attn.q),
            AdapterTarget::K => ("attn.k", &mut block.attn.k),
            AdapterTarget::V => ("attn.v", &mut block.attn.v),
            AdapterTarget::O => ("attn.o", &mut block.attn.o),
            AdapterTarget::MlpUp => match &mut block.mlp {
                Mlp::Gelu { fc1, .. } => ("mlp.fc1", fc1),
                Mlp::SwiGlu { up, .. } => ("mlp.up", up),
            },
            AdapterTarget::MlpDown => match &mut block.mlp {
                Mlp::Gelu { fc2, .. } => ("mlp.fc2", fc2),
                Mlp::SwiGlu { down, .. } => ("mlp.down", down),
            },
        };
        let named = lora.named_factors(&format!("blocks.{layer}.{name}"));
        slot.lora = Some(lora);
        named
    }

    /// All trainable adapter parameters across blocks, named
    /// `blocks.{i}.{projection}.{suffix}`.
    pub fn adapter_params(&self) -> ParamStore {
        let mut ps = ParamStore::new();
        for (i, b) in self.blocks.iter().enumerate() {
            for (name, t) in b.adapter_params() {
                ps.insert(format!("blocks.{i}.{name}"), t);
            }
        }
        ps
    }

    /// The base (non-adapter) parameters this structure is bound to, as
    /// aliases.
    pub fn base_params(&self) -> Vec<Tensor> {
        let mut out = vec![self.embed.clone()];
        if let Some(p) = &self.pos {
            out.push(p.clone());
        }
        for b in &self.blocks {
            for lin in [&b.attn.q, &b.attn.k, &b.attn.v, &b.attn.o] {
                out.push(lin.weight.clone());
                if let Some(bias) = &lin.bias {
                    out.push(bias.clone());
                }
            }
            match &b.mlp {
                Mlp::Gelu { fc1, fc2 } => {
                    for lin in [fc1, fc2] {
                        out.push(lin.weight.clone());
                        if let Some(bias) = &lin.bias {
                            out.push(bias.clone());
                        }
                    }
                }
                Mlp::SwiGlu { gate, up, down } => {
                    for lin in [gate, up, down] {
                        out.push(lin.weight.clone());
                    }
                }
            }
            for norm in [&b.attn_norm, &b.mlp_norm] {
                match norm {
                    Norm::Layer { gamma, beta, .. } => {
                        out.push(gamma.clone());
                        out.push(beta.clone());
                    }
                    Norm::Rms { gamma, .. } => out.push(gamma.clone()),
                }
            }
        }
        match &self.final_norm {
            Norm::Layer { gamma, beta, .. } => {
                out.push(gamma.clone());
                out.push(beta.clone());
            }
            Norm::Rms { gamma, .. } => out.push(gamma.clone()),
        }
        if let Some(head) = &self.lm_head {
            out.push(head.weight.clone());
        }
        out
    }
}

/// Which projection a [`Lora`] attaches to.
///
/// The paper's LoRA configuration targets `Q` and `V` (r = 8, α = 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AdapterTarget {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// MLP up projection (`fc1` for OPT, `up` for Llama).
    MlpUp,
    /// MLP down projection (`fc2` for OPT, `down` for Llama).
    MlpDown,
}

impl AdapterTarget {
    /// The projection's `(in, out)` dimensions under `cfg`: the shape of
    /// the weight a LoRA on this target adapts.
    pub fn dims(self, cfg: &ModelConfig) -> (usize, usize) {
        let (h, ffn) = (cfg.hidden, cfg.intermediate);
        match self {
            AdapterTarget::Q | AdapterTarget::K | AdapterTarget::V | AdapterTarget::O => (h, h),
            AdapterTarget::MlpUp => (h, ffn),
            AdapterTarget::MlpDown => (ffn, h),
        }
    }
}

/// Mean cross-entropy between logits `[batch, seq, vocab]` and shifted
/// targets (`batch * seq` token ids).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn causal_lm_loss(logits: &Tensor, targets: &[usize]) -> Tensor {
    let dims = logits.dims();
    assert_eq!(dims.len(), 3, "logits must be [batch, seq, vocab]");
    let rows = dims[0] * dims[1];
    assert_eq!(targets.len(), rows, "one target per position");
    logits.reshape([rows, dims[2]]).cross_entropy(targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_sim::seeded_rng;

    fn tiny(arch: Arch) -> (ModelConfig, ParamStore) {
        let cfg = match arch {
            Arch::Opt => ModelConfig::tiny_opt(19),
            Arch::Llama => ModelConfig::tiny_llama(19),
        };
        let mut rng = seeded_rng(7, "model-test");
        let ps = init_params(&cfg, &mut rng);
        (cfg, ps)
    }

    #[test]
    fn init_creates_expected_params() {
        let (cfg, ps) = tiny(Arch::Opt);
        assert!(ps.get("embed.weight").is_some());
        assert!(ps.get("pos.weight").is_some());
        assert!(ps.get("blocks.0.attn.q.weight").is_some());
        assert!(ps.get("blocks.0.attn.q.bias").is_some());
        assert!(ps.get("blocks.3.mlp.fc2.bias").is_some());
        assert!(ps.get("final_norm.beta").is_some());
        assert!(ps.get("lm_head.weight").is_none(), "OPT ties embeddings");
        let _ = cfg;

        let (_, ps) = tiny(Arch::Llama);
        assert!(ps.get("pos.weight").is_none());
        assert!(ps.get("blocks.0.mlp.gate.weight").is_some());
        assert!(ps.get("blocks.0.attn.q.bias").is_none());
        assert!(ps.get("lm_head.weight").is_some());
    }

    #[test]
    fn param_count_matches_analytic() {
        for arch in [Arch::Opt, Arch::Llama] {
            let (cfg, ps) = tiny(arch);
            assert_eq!(
                ps.param_count() as u64,
                cfg.total_params(),
                "analytic count mismatch for {arch:?}"
            );
        }
    }

    #[test]
    fn forward_shapes() {
        for arch in [Arch::Opt, Arch::Llama] {
            let (cfg, ps) = tiny(arch);
            let lm = CausalLm::bind(&cfg, &ps);
            let ids: Vec<usize> = (0..12).map(|i| i % 19).collect();
            let logits = lm.forward(&ids, 2, 6);
            assert_eq!(logits.dims(), &[2, 6, 19]);
            assert!(logits.all_finite());
        }
    }

    #[test]
    fn split_forward_equals_full_forward() {
        // Cutting the model into sections must not change the math —
        // the core premise of split fine-tuning.
        for arch in [Arch::Opt, Arch::Llama] {
            let (cfg, ps) = tiny(arch);
            let lm = CausalLm::bind(&cfg, &ps);
            let ids: Vec<usize> = (0..10).map(|i| (i * 3) % 19).collect();
            let full = lm.forward(&ids, 2, 5);

            let x = lm.embed_forward(&ids, 2, 5);
            let x = lm.blocks_forward(&x, 0..1); // client front
            let x = lm.blocks_forward(&x, 1..lm.num_blocks()); // server
            let split = lm.head_forward(&x); // client back
            let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&full), bits(&split), "{arch:?}");
        }
    }

    #[test]
    fn two_bindings_share_storage() {
        let (cfg, ps) = tiny(Arch::Llama);
        let a = CausalLm::bind(&cfg, &ps);
        let view = ps.shared_view(false);
        let b = CausalLm::bind(&cfg, &view);
        let pa = a.base_params();
        let pb = b.base_params();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert!(Tensor::same_storage(x, y), "structures must share weights");
        }
    }

    #[test]
    #[should_panic(expected = "missing from store")]
    fn bind_reports_missing_param() {
        let (cfg, mut ps) = tiny(Arch::Opt);
        ps.remove("blocks.2.attn.k.weight");
        let _ = CausalLm::bind(&cfg, &ps);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn embed_checks_seq_len() {
        let (cfg, ps) = tiny(Arch::Opt);
        let lm = CausalLm::bind(&cfg, &ps);
        let ids = vec![0; 2 * 1000];
        lm.embed_forward(&ids, 2, 1000);
    }

    #[test]
    fn loss_decreases_direction() {
        // Sanity: loss of random logits is ~ln(vocab).
        let (cfg, ps) = tiny(Arch::Opt);
        let lm = CausalLm::bind(&cfg, &ps);
        let ids: Vec<usize> = (0..8).map(|i| i % 19).collect();
        let logits = lm.forward(&ids, 1, 8);
        let loss = causal_lm_loss(&logits, &ids).to_scalar();
        assert!((loss - (19.0f32).ln()).abs() < 0.5, "loss {loss}");
    }

    #[test]
    fn adapter_params_empty_without_adapters() {
        let (cfg, ps) = tiny(Arch::Llama);
        let lm = CausalLm::bind(&cfg, &ps);
        assert!(lm.adapter_params().is_empty());
    }

    #[test]
    fn base_params_cover_store() {
        for arch in [Arch::Opt, Arch::Llama] {
            let (cfg, ps) = tiny(arch);
            let lm = CausalLm::bind(&cfg, &ps);
            let total: usize = lm.base_params().iter().map(Tensor::elem_count).sum();
            assert_eq!(total, ps.param_count(), "{arch:?}");
            let _ = cfg;
        }
    }
}
