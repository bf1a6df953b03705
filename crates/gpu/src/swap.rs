//! Task-level swapping — the vanilla split-learning baseline's way of
//! over-committing GPU memory (paper §5.1, "Comparison").
//!
//! Each client task owns a private copy of the base model plus adapter,
//! optimizer state, and preserved activations (Eq. 2's
//! `(M + A + O + I) × N`). When a task's turn arrives and GPU memory is
//! insufficient, resident tasks are evicted (LRU) to host RAM at PCIe
//! cost, then the incoming task is loaded. Only parameters and states
//! move over PCIe — activations are dropped and recreated — so a task's
//! *transfer* bytes are smaller than its *resident* footprint. Host RAM
//! is finite too: with enough Llama-sized tasks even swapping fails,
//! which is why the paper's vanilla numbers stop at 4 clients.

use std::collections::HashMap;

use menos_sim::Nanos;

use crate::cost::CostModel;

/// Why a task could not be made resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// Host memory cannot hold another task's swapped-out image.
    HostExhausted {
        /// Bytes the new task needs in host RAM.
        requested: u64,
        /// Host bytes still free.
        available: u64,
    },
    /// The task does not fit on the GPU even with everything evicted.
    TaskTooLarge {
        /// Resident bytes the task needs.
        requested: u64,
        /// GPU capacity.
        capacity: u64,
    },
    /// Eviction is required but every resident task is pinned
    /// (mid-iteration); the caller should retry after an unpin.
    NoVictim,
    /// The task name is unknown.
    UnknownTask(String),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::HostExhausted {
                requested,
                available,
            } => write!(
                f,
                "host memory exhausted: need {requested} bytes, {available} free"
            ),
            SwapError::TaskTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "task of {requested} bytes exceeds GPU capacity {capacity}"
            ),
            SwapError::NoVictim => write!(f, "all resident tasks are pinned"),
            SwapError::UnknownTask(n) => write!(f, "unknown task {n}"),
        }
    }
}

impl std::error::Error for SwapError {}

#[derive(Debug)]
struct TaskState {
    resident_bytes: u64,
    transfer_bytes: u64,
    resident: bool,
    pinned: bool,
    last_used: u64,
}

/// The outcome of a successful residency request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyOutcome {
    /// Simulated PCIe time spent (zero if already resident).
    pub elapsed: Nanos,
    /// Names of tasks evicted to make room.
    pub evicted: Vec<String>,
}

/// LRU task-swapping manager with pinning, tracking a fixed GPU pool.
///
/// # Examples
///
/// ```
/// use menos_gpu::{CostModel, SwapManager};
///
/// let mut swap = SwapManager::new(10 << 30, 64 << 30);
/// swap.register("a", 8 << 30, 8 << 30).unwrap();
/// swap.register("b", 8 << 30, 8 << 30).unwrap();
/// let cost = CostModel::v100();
/// let r1 = swap.ensure_resident("a", &cost).unwrap();
/// assert!(r1.evicted.is_empty());
/// // "b" forces "a" out.
/// let r2 = swap.ensure_resident("b", &cost).unwrap();
/// assert_eq!(r2.evicted, vec!["a".to_string()]);
/// ```
#[derive(Debug)]
pub struct SwapManager {
    tasks: HashMap<String, TaskState>,
    gpu_capacity: u64,
    gpu_used: u64,
    host_capacity: u64,
    clock: u64,
    swap_ins: u64,
    swap_outs: u64,
}

impl SwapManager {
    /// Creates a manager over `gpu_capacity` bytes of device memory and
    /// `host_capacity` bytes of host RAM for swapped-out images.
    pub fn new(gpu_capacity: u64, host_capacity: u64) -> Self {
        SwapManager {
            tasks: HashMap::new(),
            gpu_capacity,
            gpu_used: 0,
            host_capacity,
            clock: 0,
            swap_ins: 0,
            swap_outs: 0,
        }
    }

    /// Registers a task. `resident_bytes` is its full GPU footprint
    /// (M + A + O + I); `transfer_bytes` is what actually crosses PCIe
    /// on a swap (M + A + O — activations are recreated, not moved).
    ///
    /// # Errors
    ///
    /// Fails if host RAM could not hold all registered tasks' images at
    /// once (the worst case the baseline must survive), or if the task
    /// exceeds GPU capacity outright.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        resident_bytes: u64,
        transfer_bytes: u64,
    ) -> Result<(), SwapError> {
        if resident_bytes > self.gpu_capacity {
            return Err(SwapError::TaskTooLarge {
                requested: resident_bytes,
                capacity: self.gpu_capacity,
            });
        }
        let total: u64 = self.tasks.values().map(|t| t.transfer_bytes).sum();
        if total + transfer_bytes > self.host_capacity {
            return Err(SwapError::HostExhausted {
                requested: transfer_bytes,
                available: self.host_capacity.saturating_sub(total),
            });
        }
        self.tasks.insert(
            name.into(),
            TaskState {
                resident_bytes,
                transfer_bytes,
                resident: false,
                pinned: false,
                last_used: 0,
            },
        );
        Ok(())
    }

    /// Whether a task currently lives on the GPU.
    pub fn is_resident(&self, name: &str) -> bool {
        self.tasks.get(name).map(|t| t.resident).unwrap_or(false)
    }

    /// Bytes currently resident on the GPU.
    pub fn gpu_used(&self) -> u64 {
        self.gpu_used
    }

    /// Lifetime (swap-in, swap-out) counts.
    pub fn swap_counts(&self) -> (u64, u64) {
        (self.swap_ins, self.swap_outs)
    }

    /// Pins a resident task: it cannot be chosen as an eviction victim
    /// until unpinned (a task mid-iteration must not be swapped out).
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown or not resident.
    pub fn pin(&mut self, name: &str) {
        let t = self
            .tasks
            .get_mut(name)
            .unwrap_or_else(|| panic!("pin of unknown task {name}"));
        assert!(t.resident, "cannot pin non-resident task {name}");
        t.pinned = true;
    }

    /// Unpins a task, making it evictable again.
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown.
    pub fn unpin(&mut self, name: &str) {
        self.tasks
            .get_mut(name)
            .unwrap_or_else(|| panic!("unpin of unknown task {name}"))
            .pinned = false;
    }

    /// Makes `name` resident, evicting least-recently-used *unpinned*
    /// tasks as needed.
    ///
    /// # Errors
    ///
    /// [`SwapError::NoVictim`] if eviction is needed but every resident
    /// task is pinned — the caller should retry after an unpin. Also
    /// fails for unknown tasks.
    pub fn ensure_resident(
        &mut self,
        name: &str,
        cost: &CostModel,
    ) -> Result<ResidencyOutcome, SwapError> {
        self.clock += 1;
        let clock = self.clock;
        let task = self
            .tasks
            .get_mut(name)
            .ok_or_else(|| SwapError::UnknownTask(name.to_string()))?;
        task.last_used = clock;
        if task.resident {
            return Ok(ResidencyOutcome {
                elapsed: Nanos::ZERO,
                evicted: Vec::new(),
            });
        }
        let needed = task.resident_bytes;
        let transfer = task.transfer_bytes;

        // Plan evictions without mutating, then commit.
        let mut evicted = Vec::new();
        let mut elapsed = Nanos::ZERO;
        while self.gpu_capacity - self.gpu_used < needed {
            let victim = self
                .tasks
                .iter()
                .filter(|(n, t)| t.resident && !t.pinned && n.as_str() != name)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(n, _)| n.clone());
            let Some(victim) = victim else {
                // Roll back planned evictions? None were needed to roll
                // back logically: we commit evictions as we go, which is
                // faithful — a real system would have paged them out
                // before discovering it still cannot fit.
                return Err(SwapError::NoVictim);
            };
            let v = self.tasks.get_mut(&victim).expect("victim exists");
            v.resident = false;
            self.gpu_used -= v.resident_bytes;
            elapsed += cost.swap_time(v.transfer_bytes);
            self.swap_outs += 1;
            evicted.push(victim);
        }

        let t = self.tasks.get_mut(name).expect("task exists");
        t.resident = true;
        self.gpu_used += needed;
        elapsed += cost.swap_time(transfer);
        self.swap_ins += 1;
        Ok(ResidencyOutcome { elapsed, evicted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn setup(gpu_gib: u64, host_gib: u64) -> (SwapManager, CostModel) {
        (
            SwapManager::new(gpu_gib * GIB, host_gib * GIB),
            CostModel::v100(),
        )
    }

    #[test]
    fn resident_task_costs_nothing() {
        let (mut s, cost) = setup(32, 128);
        s.register("t", 10 * GIB, 10 * GIB).unwrap();
        let r = s.ensure_resident("t", &cost).unwrap();
        assert!(r.elapsed > Nanos::ZERO);
        let r = s.ensure_resident("t", &cost).unwrap();
        assert_eq!(r.elapsed, Nanos::ZERO);
        assert!(s.is_resident("t"));
        assert_eq!(s.swap_counts(), (1, 0));
        assert_eq!(s.gpu_used(), 10 * GIB);
    }

    #[test]
    fn lru_eviction_order() {
        let (mut s, cost) = setup(20, 128);
        for n in ["a", "b"] {
            s.register(n, 8 * GIB, 8 * GIB).unwrap();
        }
        s.ensure_resident("a", &cost).unwrap();
        s.ensure_resident("b", &cost).unwrap();
        s.ensure_resident("a", &cost).unwrap(); // touch a; b is LRU
        s.register("c", 8 * GIB, 8 * GIB).unwrap();
        let r = s.ensure_resident("c", &cost).unwrap();
        assert_eq!(r.evicted, vec!["b".to_string()]);
        assert!(s.is_resident("a"));
        assert!(!s.is_resident("b"));
    }

    #[test]
    fn pinned_tasks_survive_eviction() {
        let (mut s, cost) = setup(20, 128);
        for n in ["a", "b", "c"] {
            s.register(n, 8 * GIB, 8 * GIB).unwrap();
        }
        s.ensure_resident("a", &cost).unwrap();
        s.ensure_resident("b", &cost).unwrap();
        s.pin("a");
        // a is older but pinned; b must be the victim.
        let r = s.ensure_resident("c", &cost).unwrap();
        assert_eq!(r.evicted, vec!["b".to_string()]);
        assert!(s.is_resident("a"));
    }

    #[test]
    fn all_pinned_yields_no_victim() {
        let (mut s, cost) = setup(16, 128);
        for n in ["a", "b", "c"] {
            s.register(n, 8 * GIB, 8 * GIB).unwrap();
        }
        s.ensure_resident("a", &cost).unwrap();
        s.ensure_resident("b", &cost).unwrap();
        s.pin("a");
        s.pin("b");
        assert_eq!(s.ensure_resident("c", &cost), Err(SwapError::NoVictim));
        s.unpin("b");
        assert!(s.ensure_resident("c", &cost).is_ok());
    }

    #[test]
    fn transfer_bytes_priced_not_resident_bytes() {
        // Activations (I) are part of the footprint but never cross
        // PCIe.
        let (mut s, cost) = setup(32, 128);
        s.register("t", 28 * GIB, 24 * GIB).unwrap();
        let r = s.ensure_resident("t", &cost).unwrap();
        assert_eq!(r.elapsed, cost.swap_time(24 * GIB));
    }

    #[test]
    fn host_capacity_limits_registration() {
        // Paper: "at 5 clients even main memory is insufficient" for
        // Llama-sized tasks.
        let (mut s, _cost) = setup(32, 120);
        let llama_transfer = 25 * GIB + 512 * (1 << 20);
        for i in 0..4 {
            s.register(format!("client-{i}"), 29 * GIB, llama_transfer)
                .unwrap();
        }
        let err = s
            .register("client-4", 29 * GIB, llama_transfer)
            .unwrap_err();
        assert!(matches!(err, SwapError::HostExhausted { .. }));
        assert_eq!(s.tasks.len(), 4);
    }

    #[test]
    fn task_larger_than_gpu_fails_at_registration() {
        let (mut s, _cost) = setup(8, 128);
        let err = s.register("huge", 16 * GIB, 16 * GIB).unwrap_err();
        assert!(matches!(err, SwapError::TaskTooLarge { .. }));
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut s, cost) = setup(8, 128);
        assert!(matches!(
            s.ensure_resident("ghost", &cost),
            Err(SwapError::UnknownTask(_))
        ));
    }

    #[test]
    fn eviction_accounts_both_directions() {
        let (mut s, cost) = setup(10, 128);
        s.register("a", 8 * GIB, 6 * GIB).unwrap();
        s.register("b", 8 * GIB, 6 * GIB).unwrap();
        s.ensure_resident("a", &cost).unwrap();
        let r = s.ensure_resident("b", &cost).unwrap();
        assert_eq!(r.elapsed, cost.swap_time(6 * GIB) * 2);
        assert_eq!(s.swap_counts(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "cannot pin non-resident")]
    fn pin_requires_residency() {
        let (mut s, _cost) = setup(8, 128);
        s.register("t", GIB, GIB).unwrap();
        s.pin("t");
    }

    #[test]
    fn error_display() {
        assert!(SwapError::NoVictim.to_string().contains("pinned"));
        assert!(SwapError::UnknownTask("x".into()).to_string().contains("x"));
    }
}
