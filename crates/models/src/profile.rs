//! Analytic memory and compute profiles of a model under split
//! fine-tuning.
//!
//! The paper's §2.3 measurement study decomposes server GPU memory into
//! base parameters (M), adapter parameters (A), optimizer states (O),
//! and intermediate results (I). [`ModelProfile`] computes each
//! component from the architecture configuration, so the paper-scale
//! experiments can account bytes and FLOPs without materializing
//! billions of parameters.
//!
//! Calibration choices (DESIGN.md §7): fp32 parameters and activations;
//! cached-activation footprint per layer
//! `batch * seq * (8·hidden + 2·ffn + heads·seq) * 4` bytes, which
//! reproduces the paper's ≈4 GB intermediate footprint for Llama-2-7B
//! at batch 4.

use serde::{Deserialize, Serialize};

use crate::config::{Arch, ModelConfig};
use crate::model::AdapterTarget;

/// Bytes per parameter / activation element (fp32).
pub const BYTES_PER_ELEM: u64 = 4;

/// Base-model parameter precision.
///
/// The paper notes quantization (QLoRA's NF4, GPTQ's 3/4-bit,
/// fp16/int8) is *orthogonal* to Menos: the shared base can be stored
/// at any precision, multiplying the savings. Adapters, optimizer
/// states, and activations stay fp32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit floats (this reproduction's calibration baseline).
    Fp32,
    /// 16-bit floats (mixed-precision storage).
    Fp16,
    /// 8-bit integers (LLM.int8-style).
    Int8,
    /// 4-bit NormalFloat (QLoRA).
    Nf4,
}

impl Precision {
    /// Bits per parameter.
    pub fn bits(self) -> u64 {
        match self {
            Precision::Fp32 => 32,
            Precision::Fp16 => 16,
            Precision::Int8 => 8,
            Precision::Nf4 => 4,
        }
    }

    /// Bytes needed to store `params` parameters at this precision
    /// (rounded up).
    fn bytes_for(self, params: u64) -> u64 {
        (params * self.bits()).div_ceil(8)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Fp32 => write!(f, "fp32"),
            Precision::Fp16 => write!(f, "fp16"),
            Precision::Int8 => write!(f, "int8"),
            Precision::Nf4 => write!(f, "nf4"),
        }
    }
}

/// LoRA adapter hyper-parameters. Which projections carry an adapter is
/// a separate list of [`AdapterTarget`]s.
///
/// The paper's configuration is `r = 8`, `α = 16`, targets = query and
/// value projections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoraSpec {
    /// Low-rank dimension.
    pub rank: usize,
    /// Scaling numerator (`α`); effective scale is `α / r`.
    pub alpha: f32,
}

impl LoraSpec {
    /// The paper's configuration: r = 8, α = 16.
    pub fn paper() -> Self {
        LoraSpec {
            rank: 8,
            alpha: 16.0,
        }
    }

    /// Effective scale `α / r`.
    pub fn scale(&self) -> f32 {
        self.alpha / self.rank as f32
    }
}

/// Analytic per-model byte and FLOP accounting for split fine-tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// The architecture being profiled.
    pub config: ModelConfig,
    /// Blocks on the client before the cut (the paper uses 1).
    pub front_layers: usize,
}

impl ModelProfile {
    /// Builds a profile for `config` split after `front_layers` client
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `front_layers >= config.layers` (the server must hold
    /// at least one block).
    pub fn new(config: ModelConfig, front_layers: usize) -> Self {
        assert!(
            front_layers < config.layers,
            "front_layers {front_layers} leaves no server blocks"
        );
        ModelProfile {
            config,
            front_layers,
        }
    }

    /// Number of transformer blocks hosted by the server.
    pub fn server_layers(&self) -> usize {
        self.config.layers - self.front_layers
    }

    /// Base model parameter bytes resident on the **server** (M in the
    /// paper): the server-side transformer blocks.
    pub fn server_param_bytes(&self) -> u64 {
        self.server_layers() as u64 * self.config.block_params() * BYTES_PER_ELEM
    }

    /// Server base-parameter bytes at a given storage precision — the
    /// QLoRA/GPTQ-combined variant of `M` (paper §6: quantization is
    /// orthogonal and multiplies Menos' savings).
    pub fn server_param_bytes_at(&self, precision: Precision) -> u64 {
        precision.bytes_for(self.server_layers() as u64 * self.config.block_params())
    }

    /// Base model parameter bytes on the **client**: embedding (+
    /// positions), front blocks, final norm, LM head.
    pub fn client_param_bytes(&self) -> u64 {
        let total = self.config.total_params() * BYTES_PER_ELEM;
        total - self.server_param_bytes()
    }

    /// Adapter parameter bytes on the server (A): in every server block,
    /// each target's `[in, out]` projection adds `(in + out) · rank`
    /// parameters.
    pub fn adapter_bytes(&self, lora: &LoraSpec, targets: &[AdapterTarget]) -> u64 {
        let per_block: u64 = targets
            .iter()
            .map(|t| {
                let (i, o) = t.dims(&self.config);
                ((i + o) * lora.rank) as u64
            })
            .sum();
        self.server_layers() as u64 * per_block * BYTES_PER_ELEM
    }

    /// Intermediate-result bytes (I): activations cached by a
    /// gradient-ready forward pass over the server blocks.
    fn cached_activation_bytes(&self, batch: usize, seq: usize) -> u64 {
        let per_layer = self.cached_activation_bytes_per_layer(batch, seq);
        self.server_layers() as u64 * per_layer
    }

    /// Cached activation bytes for a single block.
    fn cached_activation_bytes_per_layer(&self, batch: usize, seq: usize) -> u64 {
        let h = self.config.hidden as u64;
        let ffn = self.config.intermediate as u64;
        let heads = self.config.heads as u64;
        let (b, s) = (batch as u64, seq as u64);
        b * s * (8 * h + 2 * ffn + heads * s) * BYTES_PER_ELEM
    }

    /// Peak transient bytes of a **no-grad** forward pass: one block's
    /// working set plus the layer output — nothing accumulates across
    /// layers because nothing is cached.
    fn nograd_forward_bytes(&self, batch: usize, seq: usize) -> u64 {
        let h = self.config.hidden as u64;
        let ffn = self.config.intermediate as u64;
        let heads = self.config.heads as u64;
        let (b, s) = (batch as u64, seq as u64);
        b * s * (4 * h + ffn + heads * s) * BYTES_PER_ELEM
    }

    /// Bytes of one activation (or gradient) tensor crossing the wire:
    /// `batch * seq * hidden` elements.
    pub fn transfer_bytes(&self, batch: usize, seq: usize) -> u64 {
        (batch * seq * self.config.hidden) as u64 * BYTES_PER_ELEM
    }

    /// Forward FLOPs over the server blocks: dense `2 · params ·
    /// tokens` plus the quadratic attention term.
    pub fn forward_flops(&self, batch: usize, seq: usize) -> f64 {
        let tokens = (batch * seq) as f64;
        let dense =
            2.0 * (self.server_layers() as u64 * self.config.block_params()) as f64 * tokens;
        // Q@K^T and P@V: 2 matmuls of [s, d] x [d, s] per head per layer.
        let attn =
            4.0 * (batch * seq * seq * self.config.hidden) as f64 * self.server_layers() as f64;
        dense + attn
    }

    /// Backward FLOPs (standard 2× forward).
    pub fn backward_flops(&self, batch: usize, seq: usize) -> f64 {
        2.0 * self.forward_flops(batch, seq)
    }

    /// Forward FLOPs of the client's input section (`f_i`): the front
    /// blocks. Embedding lookups are table reads, not FLOPs.
    pub fn client_front_flops(&self, batch: usize, seq: usize) -> f64 {
        let tokens = (batch * seq) as f64;
        let dense = 2.0 * (self.front_layers as u64 * self.config.block_params()) as f64 * tokens;
        let attn = 4.0 * (batch * seq * seq * self.config.hidden) as f64 * self.front_layers as f64;
        dense + attn
    }

    /// Forward FLOPs of the client's output section (`f_o`): final norm
    /// (negligible) plus the LM-head projection.
    pub fn client_head_flops(&self, batch: usize, seq: usize) -> f64 {
        let tokens = (batch * seq) as f64;
        2.0 * tokens * (self.config.hidden as f64) * (self.config.vocab_size as f64)
    }

    /// The paper's per-client persistent footprint under **vanilla**
    /// split learning: `M + A + O`.
    pub fn vanilla_persistent_bytes(&self, lora: &LoraSpec, targets: &[AdapterTarget]) -> u64 {
        self.server_param_bytes() + self.menos_per_client_bytes(lora, targets)
    }

    /// Per-client persistent footprint under Menos (excluding the
    /// shared base): `A + O`, where `O = 3A` is Adam's two moment
    /// buffers plus the gradient buffer.
    pub fn menos_per_client_bytes(&self, lora: &LoraSpec, targets: &[AdapterTarget]) -> u64 {
        4 * self.adapter_bytes(lora, targets)
    }

    /// Peak memory demand of the gradient-ready re-forward + backward
    /// (what the Menos profiler reports as `M_b`): cached activations
    /// plus transient working set.
    pub fn backward_memory_demand(&self, batch: usize, seq: usize) -> u64 {
        self.cached_activation_bytes(batch, seq) + self.nograd_forward_bytes(batch, seq)
    }

    /// Peak memory demand of the no-grad first forward (`M_f`).
    pub fn forward_memory_demand(&self, batch: usize, seq: usize) -> u64 {
        self.nograd_forward_bytes(batch, seq)
    }
}

/// The batch sizes the paper evaluates with.
///
/// # Examples
///
/// ```
/// use menos_models::{paper_batch_size, ModelConfig};
/// assert_eq!(paper_batch_size(&ModelConfig::opt_1_3b()), 16);
/// assert_eq!(paper_batch_size(&ModelConfig::llama2_7b()), 4);
/// ```
pub fn paper_batch_size(config: &ModelConfig) -> usize {
    match config.arch {
        Arch::Opt => 16,
        Arch::Llama => 4,
    }
}

/// The evaluation sequence length. 100 tokens reproduces the paper's
/// reported transfer sizes (13.1 MB for OPT at batch 16, 6.4 MB for
/// Llama at batch 4) with fp32 activations.
pub const PAPER_SEQ_LEN: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    const QV: [AdapterTarget; 2] = [AdapterTarget::Q, AdapterTarget::V];

    fn opt_profile() -> ModelProfile {
        ModelProfile::new(ModelConfig::opt_1_3b(), 1)
    }

    fn llama_profile() -> ModelProfile {
        ModelProfile::new(ModelConfig::llama2_7b(), 1)
    }

    #[test]
    fn server_param_bytes_match_paper_measurements() {
        // Paper §2.3 / Fig.5: OPT server portion ≈ 4.7 GB, Llama ≈ 24 GB.
        let opt = opt_profile().server_param_bytes() as f64 / GIB;
        assert!((4.0..5.2).contains(&opt), "OPT server params {opt} GiB");
        let llama = llama_profile().server_param_bytes() as f64 / GIB;
        assert!(
            (22.0..26.5).contains(&llama),
            "Llama server params {llama} GiB"
        );
    }

    #[test]
    fn cached_activations_match_paper_order() {
        // Paper: ≈4 GB of intermediates for Llama at batch 4.
        let i = llama_profile().cached_activation_bytes(4, PAPER_SEQ_LEN) as f64 / GIB;
        assert!((2.5..4.5).contains(&i), "Llama intermediates {i} GiB");
    }

    #[test]
    fn transfer_bytes_match_paper() {
        // OPT batch 16: ≈13.1 MB per activation transfer.
        let opt = opt_profile().transfer_bytes(16, PAPER_SEQ_LEN) as f64 / 1e6;
        assert!((12.0..14.5).contains(&opt), "OPT transfer {opt} MB");
        // Llama batch 4: ≈6.4 MB.
        let llama = llama_profile().transfer_bytes(4, PAPER_SEQ_LEN) as f64 / 1e6;
        assert!((6.0..7.0).contains(&llama), "Llama transfer {llama} MB");
    }

    #[test]
    fn adapter_is_much_smaller_than_base() {
        let lora = LoraSpec::paper();
        for p in [opt_profile(), llama_profile()] {
            let a = p.adapter_bytes(&lora, &QV);
            let m = p.server_param_bytes();
            assert!(a * 100 < m, "A should be <1% of M (A={a}, M={m})");
            let per_client = p.menos_per_client_bytes(&lora, &QV);
            assert_eq!(per_client, 4 * a); // A + 3A optimizer
        }
    }

    #[test]
    fn nograd_forward_far_smaller_than_backward() {
        let p = llama_profile();
        let mf = p.forward_memory_demand(4, PAPER_SEQ_LEN);
        let mb = p.backward_memory_demand(4, PAPER_SEQ_LEN);
        assert!(mf * 10 < mb, "M_f {mf} vs M_b {mb}");
    }

    #[test]
    fn vanilla_scaling_is_linear() {
        let p = opt_profile();
        let lora = LoraSpec::paper();
        let one = p.vanilla_persistent_bytes(&lora, &QV);
        // Four clients cost exactly 4x in vanilla split learning (Eq. 2).
        assert_eq!(4 * one, 4 * p.vanilla_persistent_bytes(&lora, &QV));
        // And Menos' shared-base saving at N=4 is at least 60% (paper: 64.1%).
        let vanilla4 = 4 * one;
        let menos4 = p.server_param_bytes() + 4 * p.menos_per_client_bytes(&lora, &QV);
        let saving = 1.0 - menos4 as f64 / vanilla4 as f64;
        assert!(saving > 0.6, "saving {saving}");
    }

    #[test]
    fn llama_sharing_saving_exceeds_70_percent() {
        // Paper: 72.2% at 4 clients.
        let p = llama_profile();
        let lora = LoraSpec::paper();
        let vanilla4 = 4 * p.vanilla_persistent_bytes(&lora, &QV);
        let menos4 = p.server_param_bytes() + 4 * p.menos_per_client_bytes(&lora, &QV);
        let saving = 1.0 - menos4 as f64 / vanilla4 as f64;
        assert!((0.70..0.76).contains(&saving), "saving {saving}");
    }

    #[test]
    fn flops_give_subsecond_compute_at_paper_throughput() {
        // Paper Table 2: vanilla fwd+bwd ≈ 0.45 s (OPT) / 0.5 s (Llama)
        // at ~22 TFLOP/s effective.
        let throughput = 22e12;
        let opt = opt_profile();
        let t = (opt.forward_flops(16, PAPER_SEQ_LEN) + opt.backward_flops(16, PAPER_SEQ_LEN))
            / throughput;
        assert!((0.2..0.9).contains(&t), "OPT compute {t}s");
        let llama = llama_profile();
        let t = (llama.forward_flops(4, PAPER_SEQ_LEN) + llama.backward_flops(4, PAPER_SEQ_LEN))
            / throughput;
        assert!((0.3..1.1).contains(&t), "Llama compute {t}s");
    }

    #[test]
    #[should_panic(expected = "no server blocks")]
    fn profile_requires_server_blocks() {
        ModelProfile::new(ModelConfig::tiny_opt(10), 4);
    }

    #[test]
    fn client_plus_server_covers_everything() {
        for p in [opt_profile(), llama_profile()] {
            let total = p.config.total_params() * BYTES_PER_ELEM;
            assert_eq!(p.client_param_bytes() + p.server_param_bytes(), total);
        }
    }

    #[test]
    fn lora_spec_scale() {
        assert_eq!(LoraSpec::paper().scale(), 2.0);
    }

    #[test]
    fn precision_byte_math() {
        assert_eq!(Precision::Fp32.bytes_for(10), 40);
        assert_eq!(Precision::Fp16.bytes_for(10), 20);
        assert_eq!(Precision::Int8.bytes_for(10), 10);
        assert_eq!(Precision::Nf4.bytes_for(10), 5);
        assert_eq!(Precision::Nf4.bytes_for(3), 2, "rounds up");
        assert_eq!(Precision::Nf4.to_string(), "nf4");
    }

    #[test]
    fn quantized_base_shrinks_proportionally() {
        let p = llama_profile();
        let fp32 = p.server_param_bytes_at(Precision::Fp32);
        assert_eq!(fp32, p.server_param_bytes());
        assert_eq!(p.server_param_bytes_at(Precision::Fp16), fp32 / 2);
        assert_eq!(p.server_param_bytes_at(Precision::Nf4), fp32 / 8);
        // QLoRA-style: the 24 GB Llama base drops under 4 GiB.
        assert!((p.server_param_bytes_at(Precision::Nf4) as f64 / GIB) < 4.0);
    }
}
