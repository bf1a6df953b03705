//! Reference-counted tensor storage.
//!
//! Storage is the unit of *base-model sharing* in Menos: multiple model
//! instances may hold tensors whose structure differs (different
//! adapters, different cut layers) while their parameter data aliases
//! one shared buffer. [`Storage::ptr_eq`] is the primitive the rest of
//! the workspace uses to verify sharing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(1);

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
    data: Arc<RwLock<Vec<f32>>>,
}

impl Storage {
    /// Creates storage holding `data`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Storage {
            id: NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed),
            data: Arc::new(RwLock::new(data)),
        }
    }

    /// Creates zero-filled storage of `len` elements.
    pub fn zeros(len: usize) -> Self {
        Storage::from_vec(vec![0.0; len])
    }

    /// A stable identifier for the underlying buffer (shared by all
    /// aliases, distinct across [`Storage::deep_clone`]s).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to the buffer.
    pub fn read(&self) -> RwLockReadGuard<'_, Vec<f32>> {
        self.data.read()
    }

    /// Write access to the buffer.
    ///
    /// Writes through any alias are visible to all aliases — this is
    /// how optimizer steps update parameters in place without touching
    /// the autograd graph.
    pub fn write(&self) -> RwLockWriteGuard<'_, Vec<f32>> {
        self.data.write()
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.read().clone()
    }

    /// An independent copy of the buffer (new identity).
    pub fn deep_clone(&self) -> Storage {
        Storage::from_vec(self.to_vec())
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
}
