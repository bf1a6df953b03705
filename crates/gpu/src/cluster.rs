//! A pool of GPUs on one server.
//!
//! Fig. 2 of the paper notes its GPU memory is "an abstraction of all
//! available GPUs": a model too large for one device is laid out across
//! several, and more GPUs simply mean more schedulable memory. The
//! cluster exposes both single-device (first-fit) and spanning
//! (model-parallel) allocation.

use crate::device::{AllocId, AllocKind, GpuDevice, OomError};

/// An allocation placed on the cluster; may span several devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAlloc {
    /// `(device index, allocation id, bytes)` per participating device.
    parts: Vec<(usize, AllocId, u64)>,
}

impl ClusterAlloc {
    /// Total bytes across all parts.
    pub fn bytes(&self) -> u64 {
        self.parts.iter().map(|&(_, _, b)| b).sum()
    }

    /// Number of devices the allocation spans.
    pub fn span(&self) -> usize {
        self.parts.len()
    }
}

/// A fixed set of identical-capacity GPU devices.
///
/// # Examples
///
/// ```
/// use menos_gpu::{AllocKind, GpuCluster};
///
/// let mut cluster = GpuCluster::new(2, 16 << 30);
/// // 24 GiB does not fit one device but spans two.
/// assert!(cluster.alloc(24 << 30, AllocKind::Model, "base").is_err());
/// let a = cluster.alloc_spanning(24 << 30, AllocKind::Model, "base").unwrap();
/// assert_eq!(a.span(), 2);
/// cluster.free(a);
/// assert_eq!(cluster.used(), 0);
/// ```
#[derive(Debug)]
pub struct GpuCluster {
    devices: Vec<GpuDevice>,
}

impl GpuCluster {
    /// Creates `n` devices of `capacity_each` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, capacity_each: u64) -> Self {
        assert!(n > 0, "cluster needs at least one GPU");
        GpuCluster {
            devices: (0..n).map(|i| GpuDevice::new(i, capacity_each)).collect(),
        }
    }

    /// A device by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &GpuDevice {
        &self.devices[i]
    }

    /// Total capacity across devices.
    pub fn capacity(&self) -> u64 {
        self.devices.iter().map(GpuDevice::capacity).sum()
    }

    /// Total bytes in use.
    pub fn used(&self) -> u64 {
        self.devices.iter().map(GpuDevice::used).sum()
    }

    /// Total bytes free.
    pub fn available(&self) -> u64 {
        self.capacity() - self.used()
    }

    /// Sum of per-device peaks (upper bound on cluster peak).
    pub fn peak(&self) -> u64 {
        self.devices.iter().map(GpuDevice::peak).sum()
    }

    /// Allocates on a single device (first-fit over devices in index
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the OOM error of the *most free* device if none fits.
    pub fn alloc(
        &mut self,
        bytes: u64,
        kind: AllocKind,
        owner: impl Into<String>,
    ) -> Result<ClusterAlloc, OomError> {
        let owner = owner.into();
        let best = self
            .devices
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.available())
            .map(|(i, _)| i)
            .expect("cluster non-empty");
        for i in 0..self.devices.len() {
            if self.devices[i].available() >= bytes {
                let id = self.devices[i].alloc(bytes, kind, owner)?;
                return Ok(ClusterAlloc {
                    parts: vec![(i, id, bytes)],
                });
            }
        }
        Err(OomError {
            requested: bytes,
            available: self.devices[best].available(),
            device: best,
        })
    }

    /// Allocates `bytes` across as many devices as needed (layer-wise
    /// model parallelism). Devices are filled in index order.
    ///
    /// # Errors
    ///
    /// Returns an OOM error (and leaves the cluster unchanged) if the
    /// total free memory is insufficient.
    pub fn alloc_spanning(
        &mut self,
        bytes: u64,
        kind: AllocKind,
        owner: impl Into<String>,
    ) -> Result<ClusterAlloc, OomError> {
        let owner = owner.into();
        let mut remaining = bytes;
        let mut parts = Vec::new();
        for i in 0..self.devices.len() {
            // Take contiguous holes from this device until it is out
            // or the request is satisfied (layer-parallel shards need
            // not be contiguous).
            loop {
                if remaining == 0 {
                    break;
                }
                let take = remaining.min(self.devices[i].largest_free());
                if take == 0 {
                    break;
                }
                let id = self.devices[i]
                    .alloc(take, kind, owner.clone())
                    .expect("largest_free-sized alloc fits");
                parts.push((i, id, take));
                remaining -= take;
            }
        }
        if remaining > 0 {
            // Roll back: the pool cannot host this request.
            let shortfall_available = self.available();
            for (dev, id, _) in parts {
                self.devices[dev].free(id);
            }
            return Err(OomError {
                requested: bytes,
                available: shortfall_available,
                device: 0,
            });
        }
        Ok(ClusterAlloc { parts })
    }

    /// Frees a cluster allocation, returning total bytes released.
    ///
    /// # Panics
    ///
    /// Panics on double-free.
    pub fn free(&mut self, alloc: ClusterAlloc) -> u64 {
        alloc
            .parts
            .into_iter()
            .map(|(dev, id, _)| self.devices[dev].free(id))
            .sum()
    }

    /// Frees every allocation belonging to `owner` on all devices.
    pub fn free_owner(&mut self, owner: &str) -> u64 {
        self.devices.iter_mut().map(|d| d.free_owner(owner)).sum()
    }

    /// Bytes used by `kind` across all devices.
    pub fn used_by_kind(&self, kind: AllocKind) -> u64 {
        self.devices.iter().map(|d| d.used_by_kind(kind)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn first_fit_single_device() {
        let mut c = GpuCluster::new(2, 4 * GIB);
        let a = c.alloc(3 * GIB, AllocKind::Model, "a").unwrap();
        assert_eq!(a.span(), 1);
        assert_eq!(c.device(0).used(), 3 * GIB);
        // Next 3 GiB goes to device 1.
        let b = c.alloc(3 * GIB, AllocKind::Model, "b").unwrap();
        assert_eq!(b.span(), 1);
        assert_eq!(c.device(1).used(), 3 * GIB);
        assert_eq!(c.used(), 6 * GIB);
    }

    #[test]
    fn single_device_alloc_fails_when_fragmented() {
        let mut c = GpuCluster::new(2, 4 * GIB);
        c.alloc(3 * GIB, AllocKind::Model, "a").unwrap();
        c.alloc(3 * GIB, AllocKind::Model, "b").unwrap();
        // 2 GiB total free but only 1 GiB per device.
        let err = c.alloc(2 * GIB, AllocKind::Activation, "c").unwrap_err();
        assert_eq!(err.available, GIB);
    }

    #[test]
    fn spanning_uses_total_capacity() {
        let mut c = GpuCluster::new(4, 8 * GIB);
        let a = c
            .alloc_spanning(25 * GIB, AllocKind::Model, "llama")
            .unwrap();
        assert_eq!(a.bytes(), 25 * GIB);
        assert_eq!(a.span(), 4);
        assert_eq!(c.available(), 7 * GIB);
        c.free(a);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn spanning_oom_when_pool_exhausted() {
        let mut c = GpuCluster::new(2, GIB);
        assert!(c.alloc_spanning(3 * GIB, AllocKind::Model, "x").is_err());
        assert_eq!(c.used(), 0, "failed spanning alloc must not leak");
    }

    #[test]
    fn free_owner_across_devices() {
        let mut c = GpuCluster::new(2, 2 * GIB);
        c.alloc_spanning(3 * GIB, AllocKind::Model, "base").unwrap();
        c.alloc(GIB / 2, AllocKind::Adapter, "client-1").unwrap();
        assert_eq!(c.free_owner("base"), 3 * GIB);
        assert_eq!(c.used(), GIB / 2);
    }

    #[test]
    fn kind_accounting() {
        let mut c = GpuCluster::new(2, 2 * GIB);
        c.alloc_spanning(3 * GIB, AllocKind::Model, "m").unwrap();
        c.alloc(GIB / 4, AllocKind::Activation, "a").unwrap();
        assert_eq!(c.used_by_kind(AllocKind::Model), 3 * GIB);
        assert_eq!(c.used_by_kind(AllocKind::Activation), GIB / 4);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_cluster_rejected() {
        GpuCluster::new(0, GIB);
    }
}
