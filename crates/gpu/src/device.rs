//! A simulated GPU device: byte-accurate memory accounting with typed
//! allocations, OOM errors, and peak tracking.

use std::collections::HashMap;
use std::fmt;

use menos_sim::{format_bytes, PeakTracker};

use crate::region::{Region, RegionAllocator};

/// What an allocation holds — mirrors the paper's M/A/O/I memory
/// decomposition plus the per-process CUDA context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// Base model parameters (M).
    Model,
    /// Adapter parameters (A).
    Adapter,
    /// Optimizer states (O).
    Optimizer,
    /// Intermediate results / activations (I).
    Activation,
    /// Per-process CUDA context overhead.
    Context,
}

/// Handle to a live allocation on a [`GpuDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(u64);

/// Allocation metadata.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Size in bytes.
    pub bytes: u64,
    /// Component type.
    pub kind: AllocKind,
    /// Owner label (e.g. `"client-3"`).
    pub owner: String,
    /// The address-space region backing this allocation.
    pub region: Region,
}

/// Error returned when a device cannot satisfy an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes available at the time of the request.
    pub available: u64,
    /// Device that rejected the request.
    pub device: usize,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of GPU memory on device {}: requested {}, available {}",
            self.device,
            format_bytes(self.requested),
            format_bytes(self.available)
        )
    }
}

impl std::error::Error for OomError {}

/// One simulated GPU with a fixed memory capacity.
///
/// The device tracks *logical* bytes: the experiments account memory
/// for paper-scale models without materializing their data. Allocation
/// and free are O(1); the device never over-commits.
///
/// # Examples
///
/// ```
/// use menos_gpu::{AllocKind, GpuDevice};
///
/// let mut gpu = GpuDevice::new(0, 32 * (1 << 30)); // a 32 GiB V100
/// let model = gpu.alloc(24 << 30, AllocKind::Model, "base").unwrap();
/// assert!(gpu.alloc(16 << 30, AllocKind::Activation, "too big").is_err());
/// gpu.free(model);
/// assert_eq!(gpu.used(), 0);
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    id: usize,
    capacity: u64,
    allocs: HashMap<AllocId, Allocation>,
    regions: RegionAllocator,
    next_id: u64,
    tracker: PeakTracker,
    alloc_count: u64,
    free_count: u64,
}

impl GpuDevice {
    /// Creates a device with `capacity` bytes of memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(id: usize, capacity: u64) -> Self {
        assert!(capacity > 0, "GPU capacity must be positive");
        GpuDevice {
            id,
            capacity,
            allocs: HashMap::new(),
            regions: RegionAllocator::new(capacity),
            next_id: 0,
            tracker: PeakTracker::new(),
            alloc_count: 0,
            free_count: 0,
        }
    }

    /// Device index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.tracker.current()
    }

    /// Bytes currently free (possibly scattered across holes).
    pub fn available(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Largest single allocatable region — under external
    /// fragmentation this is below [`GpuDevice::available`].
    pub fn largest_free(&self) -> u64 {
        self.regions.largest_free()
    }

    /// External fragmentation of the free space in `[0, 1]`.
    pub fn fragmentation(&self) -> f64 {
        self.regions.fragmentation()
    }

    /// Highest usage ever observed.
    pub fn peak(&self) -> u64 {
        self.tracker.peak()
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }

    /// Allocates `bytes` for `owner` at a concrete address.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if no contiguous free region of `bytes`
    /// exists — either the memory is exhausted or externally
    /// fragmented. The device state is unchanged on failure.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn alloc(
        &mut self,
        bytes: u64,
        kind: AllocKind,
        owner: impl Into<String>,
    ) -> Result<AllocId, OomError> {
        let Some(region) = self.regions.alloc(bytes) else {
            return Err(OomError {
                requested: bytes,
                available: self.available(),
                device: self.id,
            });
        };
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.allocs.insert(
            id,
            Allocation {
                bytes,
                kind,
                owner: owner.into(),
                region,
            },
        );
        self.tracker.add(bytes);
        self.alloc_count += 1;
        Ok(id)
    }

    /// Frees an allocation, returning its size.
    ///
    /// # Panics
    ///
    /// Panics if the id was already freed — double-free is a logic
    /// error the experiments must never commit.
    pub fn free(&mut self, id: AllocId) -> u64 {
        let a = self
            .allocs
            .remove(&id)
            .unwrap_or_else(|| panic!("double free of {id:?} on device {}", self.id));
        self.regions.free(a.region);
        self.tracker.sub(a.bytes);
        self.free_count += 1;
        a.bytes
    }

    /// Looks up allocation metadata.
    pub fn get(&self, id: AllocId) -> Option<&Allocation> {
        self.allocs.get(&id)
    }

    /// Bytes used by allocations of `kind`.
    pub fn used_by_kind(&self, kind: AllocKind) -> u64 {
        self.allocs
            .values()
            .filter(|a| a.kind == kind)
            .map(|a| a.bytes)
            .sum()
    }

    /// Frees every allocation belonging to `owner`, returning the total
    /// bytes released.
    pub fn free_owner(&mut self, owner: &str) -> u64 {
        let ids: Vec<AllocId> = self
            .allocs
            .iter()
            .filter(|(_, a)| a.owner == owner)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter().map(|id| self.free(id)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn alloc_free_cycle() {
        let mut gpu = GpuDevice::new(0, 10 * GIB);
        let a = gpu.alloc(4 * GIB, AllocKind::Model, "m").unwrap();
        let b = gpu.alloc(2 * GIB, AllocKind::Activation, "act").unwrap();
        assert_eq!(gpu.used(), 6 * GIB);
        assert_eq!(gpu.available(), 4 * GIB);
        assert_eq!(gpu.live_allocations(), 2);
        assert_eq!(gpu.free(a), 4 * GIB);
        assert_eq!(gpu.free(b), 2 * GIB);
        assert_eq!(gpu.used(), 0);
        assert_eq!(gpu.peak(), 6 * GIB);
        assert_eq!((gpu.alloc_count, gpu.free_count), (2, 2));
    }

    #[test]
    fn oom_leaves_state_unchanged() {
        let mut gpu = GpuDevice::new(3, GIB);
        gpu.alloc(GIB / 2, AllocKind::Model, "m").unwrap();
        let err = gpu.alloc(GIB, AllocKind::Activation, "a").unwrap_err();
        assert_eq!(err.requested, GIB);
        assert_eq!(err.available, GIB / 2);
        assert_eq!(err.device, 3);
        assert_eq!(gpu.used(), GIB / 2);
        assert!(err.to_string().contains("out of GPU memory"));
    }

    #[test]
    fn exact_fit_allowed() {
        let mut gpu = GpuDevice::new(0, 100);
        assert!(gpu.alloc(100, AllocKind::Model, "m").is_ok());
        assert_eq!(gpu.available(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut gpu = GpuDevice::new(0, 100);
        let a = gpu.alloc(10, AllocKind::Model, "m").unwrap();
        gpu.free(a);
        gpu.free(a);
    }

    #[test]
    fn accounting_by_kind_and_owner() {
        let mut gpu = GpuDevice::new(0, 1000);
        gpu.alloc(100, AllocKind::Model, "base").unwrap();
        gpu.alloc(10, AllocKind::Adapter, "client-1").unwrap();
        gpu.alloc(20, AllocKind::Optimizer, "client-1").unwrap();
        gpu.alloc(10, AllocKind::Adapter, "client-2").unwrap();
        assert_eq!(gpu.used_by_kind(AllocKind::Adapter), 20);
        assert_eq!(gpu.free_owner("client-1"), 30);
        assert_eq!(gpu.used(), 110);
        assert_eq!(gpu.free_owner("client-1"), 0, "nothing of client-1 is left");
    }

    #[test]
    fn allocation_metadata() {
        let mut gpu = GpuDevice::new(0, 100);
        let a = gpu.alloc(10, AllocKind::Context, "mgr").unwrap();
        let meta = gpu.get(a).unwrap();
        assert_eq!(meta.bytes, 10);
        assert_eq!(meta.kind, AllocKind::Context);
        assert_eq!(meta.owner, "mgr");
        gpu.free(a);
        assert!(gpu.get(a).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        GpuDevice::new(0, 0);
    }
}
