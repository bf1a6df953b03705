//! On-demand memory allocation policies (paper §3.2, Fig. 3).

use serde::{Deserialize, Serialize};

/// When the server allocates and releases GPU memory for a client's
/// intermediate results.
///
/// The four variants correspond to Fig. 3(a)–(d); [`MemoryPolicy::menos`]
/// is the policy the paper ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Fig. 3(a): intermediate memory is allocated once and preserved
    /// for the client's lifetime, even while waiting for the next
    /// iteration's activations.
    PreserveAll,
    /// Fig. 3(b): memory is allocated at the (gradient-ready) forward
    /// pass and released after backward — it is still held across the
    /// wait for client gradients.
    ReleaseAfterBackward,
    /// Fig. 3(c): memory is released while waiting for gradients; the
    /// forward pass must be redone when they arrive.
    ReleaseWhileWaiting,
    /// Fig. 3(d), the Menos policy: additionally, the first forward
    /// runs in a no-grad environment, so its peak is a fraction of a
    /// gradient-ready pass.
    NoGradFirstForward,
}

impl MemoryPolicy {
    /// The policy Menos ships (Fig. 3d).
    pub fn menos() -> Self {
        MemoryPolicy::NoGradFirstForward
    }

    /// Whether intermediate memory is held across the wait for client
    /// gradients (forcing the backward demand to zero but pinning the
    /// memory).
    pub fn holds_memory_while_waiting(self) -> bool {
        matches!(
            self,
            MemoryPolicy::PreserveAll | MemoryPolicy::ReleaseAfterBackward
        )
    }

    /// Whether backward must re-execute the forward pass.
    pub fn requires_reforward(self) -> bool {
        matches!(
            self,
            MemoryPolicy::ReleaseWhileWaiting | MemoryPolicy::NoGradFirstForward
        )
    }

    /// Whether intermediate memory persists across iterations.
    pub fn holds_memory_across_iterations(self) -> bool {
        matches!(self, MemoryPolicy::PreserveAll)
    }

    /// Memory the scheduler must grant for a **forward** request, given
    /// the profiled no-grad (`m_f`) and gradient-ready (`m_b`) demands.
    ///
    /// Under [`MemoryPolicy::PreserveAll`] the memory was granted at
    /// registration, so per-operation demand is zero.
    pub fn forward_demand(self, m_f: u64, m_b: u64) -> u64 {
        match self {
            MemoryPolicy::PreserveAll => 0,
            MemoryPolicy::ReleaseAfterBackward | MemoryPolicy::ReleaseWhileWaiting => m_b,
            MemoryPolicy::NoGradFirstForward => m_f,
        }
    }

    /// Memory the scheduler must grant for a **backward** request.
    pub fn backward_demand(self, m_b: u64) -> u64 {
        if self.holds_memory_while_waiting() {
            0
        } else {
            m_b
        }
    }

    /// All policies, in the Fig. 3 ladder order — used by the ablation
    /// bench.
    pub fn ladder() -> [MemoryPolicy; 4] {
        [
            MemoryPolicy::PreserveAll,
            MemoryPolicy::ReleaseAfterBackward,
            MemoryPolicy::ReleaseWhileWaiting,
            MemoryPolicy::NoGradFirstForward,
        ]
    }
}

impl std::fmt::Display for MemoryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemoryPolicy::PreserveAll => "preserve-all (Fig.3a)",
            MemoryPolicy::ReleaseAfterBackward => "release-after-backward (Fig.3b)",
            MemoryPolicy::ReleaseWhileWaiting => "release-while-waiting (Fig.3c)",
            MemoryPolicy::NoGradFirstForward => "no-grad-first-forward (Menos, Fig.3d)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menos_is_fig_3d() {
        let p = MemoryPolicy::menos();
        assert!(p.requires_reforward());
        assert!(!p.holds_memory_while_waiting());
        assert!(!p.holds_memory_across_iterations());
    }

    #[test]
    fn ladder_is_monotone_in_memory_held() {
        // Walking down the ladder, forward demand never increases for
        // a fixed (m_f << m_b) pair once past the preserve-all special
        // case, and waiting-time retention strictly relaxes.
        let (m_f, m_b) = (100, 1000);
        let demands: Vec<u64> = MemoryPolicy::ladder()
            .iter()
            .map(|p| p.forward_demand(m_f, m_b) + p.backward_demand(m_b))
            .collect();
        // a: 0 + 0 (held persistently), b: m_b + 0, c: m_b + m_b,
        // d: m_f + m_b — d's transient total is below c's.
        assert_eq!(demands, vec![0, 1000, 2000, 1100]);
    }

    #[test]
    fn waiting_retention_flags() {
        assert!(MemoryPolicy::PreserveAll.holds_memory_while_waiting());
        assert!(MemoryPolicy::ReleaseAfterBackward.holds_memory_while_waiting());
        assert!(!MemoryPolicy::ReleaseWhileWaiting.holds_memory_while_waiting());
        assert!(MemoryPolicy::PreserveAll.holds_memory_across_iterations());
        assert!(!MemoryPolicy::ReleaseAfterBackward.holds_memory_across_iterations());
    }

    #[test]
    fn reforward_flags() {
        assert!(!MemoryPolicy::PreserveAll.requires_reforward());
        assert!(!MemoryPolicy::ReleaseAfterBackward.requires_reforward());
        assert!(MemoryPolicy::ReleaseWhileWaiting.requires_reforward());
    }

    #[test]
    fn display_names() {
        assert!(MemoryPolicy::menos().to_string().contains("Menos"));
    }
}
