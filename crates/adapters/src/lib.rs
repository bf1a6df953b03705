//! # menos-adapters — parameter-efficient fine-tuning methods
//!
//! The paper's one fine-tuning recipe: `menos-models`' LoRA adapters,
//! injected by [`inject_adapters`] and trained by Adam at one optimizer
//! step per batch, and the [`FineTuneConfig`] clients report to the
//! Menos server before profiling. Tenants differ in cut, LoRA
//! rank, alpha and target set.
//!
//! The central property exploited by Menos: adapters own their (tiny)
//! trainable parameters privately, while the base weights they attach to
//! are frozen and can therefore be shared across clients.
//!
//! # Examples
//!
//! ```
//! use menos_adapters::{inject_adapters, build_optimizer, FineTuneConfig};
//! use menos_models::{init_params, CausalLm, ModelConfig};
//!
//! let cfg = ModelConfig::tiny_llama(32);
//! let mut rng = menos_sim::seeded_rng(0, "doc");
//! let params = init_params(&cfg, &mut rng);
//! let mut model = CausalLm::bind(&cfg, &params.shared_view(false));
//!
//! let ft = FineTuneConfig::paper(&cfg);
//! let adapters = inject_adapters(&mut model, 1..4, &ft, &mut rng);
//! let _optimizer = build_optimizer(&ft, adapters.tensors().cloned().collect());
//! assert_eq!(adapters.len(), 12); // 3 layers x (q, v) x (A, B)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod finetune;
mod optim;

pub use finetune::{build_optimizer, inject_adapters, FineTuneConfig};
pub use optim::{Adam, OptimState};
