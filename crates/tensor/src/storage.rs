//! Reference-counted tensor storage.
//!
//! Storage is the unit of *base-model sharing* in Menos: multiple model
//! instances may hold tensors whose structure differs (different
//! adapters, different cut layers) while their parameter data aliases
//! one shared buffer. [`Storage::ptr_eq`] is the primitive the rest of
//! the workspace uses to verify sharing.
//!
//! Storage buffers participate in the [`crate::pool`] arena: when the
//! last alias of a buffer drops, its allocation is recycled into the
//! per-thread pool instead of returning to the allocator, and
//! [`Storage::zeros`] draws from the same pool. Step-loop tensors
//! (activations, gradients) therefore reuse a small working set of
//! allocations instead of mallocing fresh storage every step.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::pool;

static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(1);

/// The pooled buffer inside a [`Storage`]: recycles its allocation
/// into the thread-local pool when the last alias drops.
struct PooledF32(Vec<f32>);

impl Drop for PooledF32 {
    fn drop(&mut self) {
        pool::recycle_f32(std::mem::take(&mut self.0));
    }
}

/// Read guard over a storage buffer; derefs to the `Vec<f32>`.
pub struct StorageReadGuard<'a>(RwLockReadGuard<'a, PooledF32>);

impl Deref for StorageReadGuard<'_> {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.0 .0
    }
}

/// Write guard over a storage buffer; derefs to the `Vec<f32>`.
pub struct StorageWriteGuard<'a>(RwLockWriteGuard<'a, PooledF32>);

impl Deref for StorageWriteGuard<'_> {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.0 .0
    }
}

impl DerefMut for StorageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.0 .0
    }
}

/// A shared, mutable buffer of `f32` values.
///
/// Cloning a `Storage` is cheap and yields an alias of the same buffer;
/// use [`Storage::deep_clone`] for an independent copy.
///
/// # Examples
///
/// ```
/// use menos_tensor::Storage;
///
/// let a = Storage::from_vec(vec![1.0, 2.0]);
/// let b = a.clone();           // alias
/// b.write()[0] = 7.0;
/// assert_eq!(a.read()[0], 7.0);
/// assert!(Storage::ptr_eq(&a, &b));
///
/// let c = a.deep_clone();      // independent copy
/// assert!(!Storage::ptr_eq(&a, &c));
/// ```
#[derive(Clone)]
pub struct Storage {
    id: u64,
    data: Arc<RwLock<PooledF32>>,
}

impl Storage {
    /// Creates storage holding `data`. The allocation joins the
    /// recycling pool when the storage's last alias drops.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Storage {
            id: NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed),
            data: Arc::new(RwLock::new(PooledF32(data))),
        }
    }

    /// Creates zero-filled storage of `len` elements, drawing the
    /// allocation from the buffer pool when possible.
    pub fn zeros(len: usize) -> Self {
        Storage::from_vec(pool::take_zeroed_f32(len))
    }

    /// A stable identifier for the underlying buffer (shared by all
    /// aliases, distinct across [`Storage::deep_clone`]s).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.read().0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to the buffer.
    pub fn read(&self) -> StorageReadGuard<'_> {
        StorageReadGuard(self.data.read())
    }

    /// Write access to the buffer.
    ///
    /// Writes through any alias are visible to all aliases — this is
    /// how optimizer steps update parameters in place without touching
    /// the autograd graph.
    pub fn write(&self) -> StorageWriteGuard<'_> {
        StorageWriteGuard(self.data.write())
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.read().0.clone()
    }

    /// An independent copy of the buffer (new identity), with the new
    /// allocation drawn from the buffer pool.
    pub fn deep_clone(&self) -> Storage {
        let src = self.data.read();
        let mut out = pool::take_f32(src.0.len());
        out.extend_from_slice(&src.0);
        drop(src);
        Storage::from_vec(out)
    }

    /// Whether two handles alias the same underlying buffer.
    pub fn ptr_eq(a: &Storage, b: &Storage) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// Size of the buffer in bytes (4 bytes per element).
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * 4
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage")
            .field("id", &self.id)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliasing_semantics() {
        let a = Storage::from_vec(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        assert!(Storage::ptr_eq(&a, &b));
        b.write()[1] = 9.0;
        assert_eq!(a.to_vec(), vec![1.0, 9.0, 3.0]);
    }

    #[test]
    fn deep_clone_is_independent() {
        let a = Storage::from_vec(vec![1.0]);
        let c = a.deep_clone();
        assert!(!Storage::ptr_eq(&a, &c));
        assert_ne!(a.id(), c.id());
        c.write()[0] = 5.0;
        assert_eq!(a.read()[0], 1.0);
        assert_eq!(c.read()[0], 5.0);
    }

    #[test]
    fn sizes() {
        let s = Storage::zeros(10);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.size_bytes(), 40);
        assert!(s.to_vec().iter().all(|&x| x == 0.0));
        assert!(Storage::from_vec(vec![]).is_empty());
    }

    #[test]
    fn ids_are_unique() {
        let ids: Vec<u64> = (0..100).map(|_| Storage::zeros(1).id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn storage_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Storage>();
    }

    #[test]
    fn dropped_storage_recycles_into_pool() {
        // Big enough to be pool-eligible; same thread, so the next
        // zeros() of the same class must come back zeroed even though
        // the dropped buffer held non-zero data.
        let s = Storage::from_vec(vec![3.25f32; 4096]);
        drop(s);
        let z = Storage::zeros(4096);
        assert!(z.read().iter().all(|&x| x == 0.0));
    }
}
