//! Per-client memory profiling (paper §3.3).
//!
//! Menos enforces strict on-demand allocation, so the server must know
//! each client's exact forward (`M_f`) and backward (`M_b`) memory
//! demands before serving it. The paper profiles by pushing random
//! input sequences through one forward and backward pass; this
//! reproduction computes the same quantities from the analytic
//! [`ModelProfile`] (the simulated GPU charges exactly these numbers),
//! and offers a random-probe path over the real tiny engine to keep the
//! "generic — no model knowledge needed" property testable.

use rand::Rng;

use menos_adapters::{adapter_bytes, FineTuneConfig};
use menos_models::ModelProfile;
use menos_split::{ServerSession, SplitSpec};
use menos_tensor::Tensor;
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
    let a = adapter_bytes(ft, &profile.config, profile.server_layers());
    let o = 3 * a; // Adam's two moment buffers + gradient buffer
    MemoryDemands {
        m_f: profile.forward_memory_demand(ft.batch_size, ft.seq_len),
        m_b: profile.backward_memory_demand(ft.batch_size, ft.seq_len),
        persistent: a + o,
    }
}

/// Runs the paper's *random-input probe* against a real
/// [`ServerSession`]: generates random activations of the client's
/// reported shape, executes one no-grad forward and one re-forward +
/// backward, and verifies the session serves them without any knowledge
/// of the client's data.
///
/// Returns the number of re-forwards executed (always 1) — the probe's
/// purpose is to exercise the exact code path serving will use.
///
/// # Panics
///
/// Panics if the session cannot complete the probe.
pub fn probe_with_random_input<R: Rng>(
    session: &mut ServerSession,
    ft: &FineTuneConfig,
    split: SplitSpec,
    rng: &mut R,
) -> u64 {
    let hidden = session.model().config.hidden;
    let _ = split;
    let shape = [ft.batch_size, ft.seq_len, hidden];
    let before = session.reforward_count();
    let x_c = Tensor::randn(rng, shape, 1.0);
    let x_s = session.forward_nograd(&x_c);
    assert_eq!(x_s.dims(), &shape, "probe output shape");
    let g_c = Tensor::randn(rng, shape, 1.0);
    let g_s = session.backward(&g_c);
    assert_eq!(g_s.dims(), &shape, "probe gradient shape");
    session.reforward_count() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_models::ModelConfig;
    use menos_sim::seeded_rng;

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

    #[test]
    fn random_probe_exercises_serving_path() {
        use menos_models::{init_params, CausalLm};
        use menos_split::ClientId;
        let cfg = ModelConfig::tiny_llama(11);
        let mut rng = seeded_rng(1, "probe");
        let ps = init_params(&cfg, &mut rng);
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.batch_size = 2;
        ft.seq_len = 8;
        let split = SplitSpec::paper();
        let mut session = ServerSession::new(
            ClientId(0),
            CausalLm::bind(&cfg, &ps.shared_view(false)),
            split,
            &ft,
            1,
        );
        let reforwards = probe_with_random_input(&mut session, &ft, split, &mut rng);
        assert_eq!(reforwards, 1, "probe exercises the re-forward path");
        assert_eq!(session.steps_completed(), 1);
    }
}
