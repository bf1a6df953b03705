//! The [`Tensor`] type: a dense f32 array with reverse-mode autograd.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;

use crate::op::Op;
use crate::shape::Shape;
use crate::storage::Storage;

static NEXT_TENSOR_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations currently record the autograd graph.
pub(crate) fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Runs `f` with gradient recording disabled, restoring the previous
/// state afterwards (also on panic).
///
/// This is the primitive behind Menos' *no-grad first forward* policy
/// (Fig. 3d): the initial server forward produces activations for the
/// client without caching anything for backward.
///
/// # Examples
///
/// ```
/// use menos_tensor::{no_grad, Tensor};
///
/// let w = Tensor::var_from_vec(vec![2.0], [1]);
/// let y = no_grad(|| &w * &w);
/// assert!(!y.requires_grad());
/// ```
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAD_ENABLED.with(|g| g.replace(false)));
    f()
}

pub(crate) struct TensorInner {
    id: u64,
    shape: Shape,
    storage: Storage,
    op: Option<Op>,
    requires_grad: bool,
}

/// A dense, contiguous, row-major f32 tensor with optional gradient
/// tracking.
///
/// Cloning is cheap (an [`Arc`] bump) and preserves identity: clones
/// share data, autograd node, and id.
///
/// # Examples
///
/// ```
/// use menos_tensor::Tensor;
///
/// let x = Tensor::var_from_vec(vec![1.0, 2.0, 3.0], [3]);
/// let y = (&x * &x).sum_all();
/// let grads = y.backward();
/// assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0, 4.0, 6.0]);
/// ```
#[derive(Clone)]
pub struct Tensor(pub(crate) Arc<TensorInner>);

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    pub(crate) fn make(
        data: Vec<f32>,
        shape: Shape,
        op: Option<Op>,
        requires_grad: bool,
    ) -> Tensor {
        debug_assert_eq!(data.len(), shape.elem_count(), "data/shape mismatch");
        Tensor(Arc::new(TensorInner {
            id: NEXT_TENSOR_ID.fetch_add(1, Ordering::Relaxed),
            shape,
            storage: Storage::from_vec(data),
            op,
            requires_grad,
        }))
    }

    /// Builds the result of an op, recording the graph only when
    /// gradients are enabled and some input requires them.
    pub(crate) fn from_op(data: Vec<f32>, shape: Shape, op: Op) -> Tensor {
        let track = is_grad_enabled() && op.parents().iter().any(|p| p.requires_grad());
        if track {
            Tensor::make(data, shape, Some(op), true)
        } else {
            Tensor::make(data, shape, None, false)
        }
    }

    /// Creates a constant (non-trainable) tensor from data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.elem_count(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor::make(data, shape, None, false)
    }

    /// Creates a trainable leaf tensor (a parameter) from data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn var_from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(data.len(), shape.elem_count());
        Tensor::make(data, shape, None, true)
    }

    /// Creates a tensor that *aliases* existing storage — the mechanism
    /// behind base-model sharing. The structure (shape, grad tracking)
    /// is private to this tensor; the data is shared.
    ///
    /// # Panics
    ///
    /// Panics if the storage length does not match the shape.
    pub fn from_shared_storage(
        storage: Storage,
        shape: impl Into<Shape>,
        trainable: bool,
    ) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            storage.len(),
            shape.elem_count(),
            "storage length {} does not match shape {shape}",
            storage.len()
        );
        Tensor(Arc::new(TensorInner {
            id: NEXT_TENSOR_ID.fetch_add(1, Ordering::Relaxed),
            shape,
            storage,
            op: None,
            requires_grad: trainable,
        }))
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor::make(vec![0.0; shape.elem_count()], shape, None, false)
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(1.0, shape)
    }

    /// A tensor filled with `value`.
    pub fn full(value: f32, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor::make(vec![value; shape.elem_count()], shape, None, false)
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::make(vec![value], Shape::scalar(), None, false)
    }

    /// Standard-normal random tensor scaled by `std` (non-trainable;
    /// call [`Tensor::trainable`] for a parameter view).
    pub fn randn<R: Rng>(rng: &mut R, shape: impl Into<Shape>, std: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.elem_count();
        // Box-Muller keeps us independent of rand_distr.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor::make(data, shape, None, false)
    }

    /// Returns a copy of this tensor marked trainable (a new leaf with
    /// its own identity, sharing the same storage).
    pub fn trainable(&self) -> Tensor {
        Tensor::from_shared_storage(self.0.storage.clone(), self.0.shape.clone(), true)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Unique identity of this tensor node.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.0.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.0.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.shape.rank()
    }

    /// Total element count.
    pub fn elem_count(&self) -> usize {
        self.0.shape.elem_count()
    }

    /// Whether this tensor participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// The recorded op that produced this tensor, if any.
    pub(crate) fn op(&self) -> Option<&Op> {
        self.0.op.as_ref()
    }

    /// The underlying storage handle.
    pub fn storage(&self) -> &Storage {
        &self.0.storage
    }

    /// Copies the data out as a flat `Vec` in row-major order.
    pub fn to_vec(&self) -> Vec<f32> {
        self.0.storage.to_vec()
    }

    /// Extracts the value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn to_scalar(&self) -> f32 {
        assert_eq!(
            self.elem_count(),
            1,
            "to_scalar on tensor of shape {}",
            self.shape()
        );
        self.0.storage.read()[0]
    }

    /// Logical size of this tensor's data in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.elem_count() as u64 * 4
    }

    /// A gradient-detached view sharing the same storage.
    pub fn detach(&self) -> Tensor {
        Tensor::from_shared_storage(self.0.storage.clone(), self.0.shape.clone(), false)
    }

    /// An independent deep copy (fresh storage, no graph, not
    /// trainable).
    pub fn deep_clone(&self) -> Tensor {
        Tensor::make(self.to_vec(), self.0.shape.clone(), None, false)
    }

    /// Whether two tensors alias the same underlying storage.
    pub fn same_storage(a: &Tensor, b: &Tensor) -> bool {
        Storage::ptr_eq(&a.0.storage, &b.0.storage)
    }

    /// Whether all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.0.storage.read().iter().all(|x| x.is_finite())
    }

    /// Max absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in comparison");
        let a = self.0.storage.read();
        let b = other.0.storage.read();
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.0.storage.read();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        f.debug_struct("Tensor")
            .field("id", &self.0.id)
            .field("shape", &self.0.shape)
            .field("requires_grad", &self.0.requires_grad)
            .field("data[..8]", &preview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.elem_count(), 4);
        assert!(!t.requires_grad());
        assert_eq!(t.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_len() {
        Tensor::from_vec(vec![1.0], [2, 2]);
    }

    #[test]
    fn fills() {
        assert!(Tensor::zeros([3]).to_vec().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([3]).to_vec().iter().all(|&x| x == 1.0));
        assert_eq!(Tensor::full(2.5, [2]).to_vec(), vec![2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).to_scalar(), 7.0);
    }

    #[test]
    #[should_panic(expected = "to_scalar on tensor")]
    fn to_scalar_rejects_vectors() {
        Tensor::zeros([2]).to_scalar();
    }

    #[test]
    fn clone_shares_identity_and_data() {
        let a = Tensor::var_from_vec(vec![1.0], [1]);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        assert!(Tensor::same_storage(&a, &b));
    }

    #[test]
    fn detach_drops_grad_but_shares_data() {
        let a = Tensor::var_from_vec(vec![1.0], [1]);
        let d = a.detach();
        assert!(!d.requires_grad());
        assert!(Tensor::same_storage(&a, &d));
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn deep_clone_is_independent() {
        let a = Tensor::var_from_vec(vec![1.0], [1]);
        let c = a.deep_clone();
        assert!(!Tensor::same_storage(&a, &c));
        a.storage().write()[0] = 9.0;
        assert_eq!(c.to_vec(), vec![1.0]);
    }

    #[test]
    fn shared_storage_aliases() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_shared_storage(a.storage().clone(), [2], false);
        assert!(Tensor::same_storage(&a, &b));
        a.storage().write()[0] = 5.0;
        assert_eq!(b.to_vec(), vec![5.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "storage length")]
    fn shared_storage_validates_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        Tensor::from_shared_storage(a.storage().clone(), [3], false);
    }

    #[test]
    fn no_grad_scoping() {
        assert!(is_grad_enabled());
        no_grad(|| {
            assert!(!is_grad_enabled());
            no_grad(|| assert!(!is_grad_enabled()));
            assert!(!is_grad_enabled());
        });
        assert!(is_grad_enabled());
    }

    #[test]
    fn no_grad_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            no_grad(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(is_grad_enabled());
    }

    #[test]
    fn randn_statistics() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
        let t = Tensor::randn(&mut rng, [10_000], 1.0);
        let v = t.to_vec();
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        let var: f32 = v.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.2, "var {var}");
        assert!(t.all_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], [2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
