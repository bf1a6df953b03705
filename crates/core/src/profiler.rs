//! Per-client memory profiling (paper §3.3).
//!
//! Menos enforces strict on-demand allocation, so the server must know
//! each client's exact forward (`M_f`) and backward (`M_b`) memory
//! demands before serving it. The paper profiles by pushing random
//! input sequences through one forward and backward pass; this
//! reproduction profiles analytically instead: admission computes the
//! same quantities from the [`ModelProfile`] (the simulated GPU charges
//! exactly these numbers). A probe that measures them on the real
//! engine is still open.

use menos_adapters::FineTuneConfig;
use menos_models::ModelProfile;
use serde::{Deserialize, Serialize};

/// The profiled memory demands of one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryDemands {
    /// Peak bytes of the no-grad first forward (`M_f`).
    pub m_f: u64,
    /// Peak bytes of the gradient-ready re-forward + backward (`M_b`).
    pub m_b: u64,
    /// Persistent per-client bytes: adapters + optimizer states
    /// (`A + O`).
    pub persistent: u64,
}

/// Profiles a client's memory demands from its reported fine-tuning
/// configuration (the analytic equivalent of the paper's random-input
/// probe).
///
/// # Examples
///
/// ```
/// use menos_adapters::FineTuneConfig;
/// use menos_core::profile_client;
/// use menos_models::{ModelConfig, ModelProfile};
///
/// let cfg = ModelConfig::llama2_7b();
/// let profile = ModelProfile::new(cfg.clone(), 1);
/// let ft = FineTuneConfig::paper(&cfg);
/// let d = profile_client(&profile, &ft);
/// assert!(d.m_f * 5 < d.m_b, "no-grad forward is far cheaper");
/// assert!(d.persistent < d.m_b / 10, "A+O is small");
/// ```
pub fn profile_client(profile: &ModelProfile, ft: &FineTuneConfig) -> MemoryDemands {
    MemoryDemands {
        m_f: profile.forward_memory_demand(ft.batch_size, ft.seq_len),
        m_b: profile.backward_memory_demand(ft.batch_size, ft.seq_len),
        persistent: profile.menos_per_client_bytes(&ft.lora, &ft.targets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_models::ModelConfig;

    #[test]
    fn paper_scale_demands() {
        let cfg = ModelConfig::llama2_7b();
        let profile = ModelProfile::new(cfg.clone(), 1);
        let ft = FineTuneConfig::paper(&cfg);
        let d = profile_client(&profile, &ft);
        const GIB: f64 = (1u64 << 30) as f64;
        // I ≈ 3-4.5 GiB for Llama at batch 4 (paper: "4 GB").
        let mb = d.m_b as f64 / GIB;
        assert!((2.5..5.0).contains(&mb), "M_b {mb} GiB");
        // A+O within a few hundred MB (paper: 246 MB).
        let p = d.persistent as f64 / GIB;
        assert!(p < 0.5, "persistent {p} GiB");
    }

    #[test]
    fn demands_scale_with_batch() {
        let cfg = ModelConfig::opt_1_3b();
        let profile = ModelProfile::new(cfg.clone(), 1);
        let mut ft = FineTuneConfig::paper(&cfg);
        let d16 = profile_client(&profile, &ft);
        ft.batch_size = 8;
        let d8 = profile_client(&profile, &ft);
        assert_eq!(d16.m_b, 2 * d8.m_b, "I scales linearly with batch");
        assert_eq!(d16.persistent, d8.persistent, "A+O independent of batch");
    }
}
