//! # menos-models — decoder-only transformers with LoRA adapters
//!
//! From-scratch OPT-style and Llama-style causal language models built
//! on `menos-tensor`, standing in for the paper's OPT-1.3B and
//! Llama-2-7B. Two layers of use:
//!
//! * **Real execution** — tiny configs ([`ModelConfig::tiny_opt`],
//!   [`ModelConfig::tiny_llama`]) are bound to initialized parameters
//!   and actually trained in the convergence experiments.
//! * **Analytic accounting** — paper-scale configs
//!   ([`ModelConfig::opt_1_3b`], [`ModelConfig::llama2_7b`]) feed
//!   [`ModelProfile`], which computes the M/A/O/I memory components and
//!   FLOPs used by the simulated-GPU experiments without materializing
//!   any weights.
//!
//! The model structure deliberately separates from its parameters:
//! [`init_params`] creates a named [`menos_tensor::ParamStore`], and
//! [`CausalLm::bind`] builds a structure whose tensors *alias* a store.
//! Binding two structures to one store — or to
//! [`menos_tensor::ParamStore::shared_view`]s of it — is Menos' base
//! model sharing.
//!
//! # Examples
//!
//! ```
//! use menos_models::{init_params, CausalLm, ModelConfig};
//!
//! let cfg = ModelConfig::tiny_llama(32);
//! let mut rng = menos_sim::seeded_rng(0, "example");
//! let params = init_params(&cfg, &mut rng);
//! let model = CausalLm::bind(&cfg, &params);
//! let logits = model.forward(&[1, 2, 3, 4], 1, 4);
//! assert_eq!(logits.dims(), &[1, 4, 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod generate;
mod layers;
mod model;
mod profile;

pub use config::{Arch, ModelConfig};
pub use generate::GenerateConfig;
pub use layers::{Attention, Block, Linear, Lora, Mlp, Norm};
pub use model::{causal_lm_loss, init_params, AdapterTarget, CausalLm};
pub use profile::{
    paper_batch_size, LoraSpec, ModelProfile, Precision, BYTES_PER_ELEM, PAPER_SEQ_LEN,
};
