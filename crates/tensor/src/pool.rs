//! Bytes-copied counter for the tensor hot path.
//!
//! The wire codec and the concat/narrow kernels report every bulk copy
//! here, so benchmarks can state bytes moved per training step.
//!
//! The module and [`PoolStats`] are named for a buffer pool that no
//! longer exists (EXPERIMENTS.md, "Prove or delete: the buffer pool");
//! the names and the two zero fields stay because the out-of-workspace
//! benchmark reads them.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

/// Adds `n` bytes to the global copied-bytes counter. The wire codec
/// and the concat/narrow kernels call this on every bulk copy so
/// benchmarks can report bytes moved per step.
pub fn count_copied(n: usize) {
    BYTES_COPIED.fetch_add(n as u64, Ordering::Relaxed);
}

/// A snapshot of the global copy counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Retired with the buffer pool: always 0.
    pub hits: u64,
    /// Retired with the buffer pool: always 0.
    pub misses: u64,
    /// Bytes moved through instrumented bulk copies.
    pub bytes_copied: u64,
}

/// Reads the global copy counter.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: 0,
        misses: 0,
        bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
    }
}

/// Resets the global copy counter (benchmark warm-up boundary).
pub fn reset_stats() {
    BYTES_COPIED.store(0, Ordering::Relaxed);
}
