//! Tensor shapes and broadcasting rules.
//!
//! All tensors in this crate are dense, row-major and contiguous.
//! Broadcasting follows the NumPy trailing-dimension rule: shapes are
//! aligned at the last dimension and each pair of dimensions must be
//! equal or one of them must be `1`.

use std::fmt;

/// The dimensions of a tensor, outermost first.
///
/// A scalar is represented by the empty shape `[]` with one element.
///
/// # Examples
///
/// ```
/// use menos_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.elem_count(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from explicit dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The scalar shape `[]`.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (`1` for a scalar).
    pub fn elem_count(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Size of the last dimension.
    ///
    /// # Panics
    ///
    /// Panics on a scalar shape.
    fn last_dim(&self) -> usize {
        *self.0.last().expect("scalar shape has no last dimension")
    }

    /// Row-major strides for this shape (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// The broadcast of two shapes under the trailing-dimension rule, or
    /// `None` if they are incompatible.
    ///
    /// # Examples
    ///
    /// ```
    /// use menos_tensor::Shape;
    /// let a = Shape::new(vec![4, 3]);
    /// let b = Shape::new(vec![3]);
    /// assert_eq!(a.broadcast_with(&b), Some(Shape::new(vec![4, 3])));
    /// let c = Shape::new(vec![2]);
    /// assert_eq!(a.broadcast_with(&c), None);
    /// ```
    pub fn broadcast_with(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            *dim = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
        }
        Some(Shape(dims))
    }

    /// Whether this shape can broadcast *to* `target` (i.e. the
    /// broadcast of the two is exactly `target`).
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        self.broadcast_with(target)
            .map(|s| s == *target)
            .unwrap_or(false)
    }

    /// Splits into all-but-last and last dimension sizes — the (rows,
    /// cols) view used by ops that act along the last dimension.
    ///
    /// # Panics
    ///
    /// Panics on a scalar shape.
    pub fn rows_cols(&self) -> (usize, usize) {
        let cols = self.last_dim();
        let rows = self.elem_count() / cols.max(1);
        (rows, cols)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Iterates over the multi-dimensional indices of `shape` in row-major
/// order, calling `f` with each index slice.
///
/// Used by broadcasting kernels; hot loops use flat indexing instead.
pub fn for_each_index(shape: &Shape, mut f: impl FnMut(&[usize])) {
    let rank = shape.rank();
    if rank == 0 {
        f(&[]);
        return;
    }
    let mut idx = vec![0usize; rank];
    let total = shape.elem_count();
    if total == 0 {
        return;
    }
    for _ in 0..total {
        f(&idx);
        // Odometer increment.
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < shape.dim(d) {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Strides of `in_shape` read through a broadcast output of rank
/// `out_rank`, one per output dimension: the input's row-major stride
/// where it has the dimension, and 0 where it is broadcast (size 1, or
/// missing for lower rank) — that is what broadcasting means. Computed
/// once per kernel call; [`broadcast_offset`] then maps each index.
pub fn broadcast_strides(in_shape: &Shape, out_rank: usize) -> Vec<usize> {
    let mut strides = vec![0; out_rank];
    let lead = out_rank - in_shape.rank();
    for (d, stride) in in_shape.strides().into_iter().enumerate() {
        if in_shape.dim(d) != 1 {
            strides[lead + d] = stride;
        }
    }
    strides
}

/// Maps a multi-dimensional index in the broadcast (output) shape back
/// to the flat offset in an input whose [`broadcast_strides`] are
/// `strides`.
pub fn broadcast_offset(out_idx: &[usize], strides: &[usize]) -> usize {
    out_idx.iter().zip(strides).map(|(i, s)| i * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.elem_count(), 6);
        assert_eq!(s.dim(0), 2);
        assert_eq!(s.last_dim(), 3);
        assert_eq!(s.strides(), vec![3, 1]);
        assert_eq!(s.rows_cols(), (2, 3));
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.elem_count(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn strides_3d() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(vec![2, 3, 4]);
        assert_eq!(
            a.broadcast_with(&Shape::new(vec![4])),
            Some(Shape::new(vec![2, 3, 4]))
        );
        assert_eq!(
            a.broadcast_with(&Shape::new(vec![3, 1])),
            Some(Shape::new(vec![2, 3, 4]))
        );
        assert_eq!(
            Shape::new(vec![1]).broadcast_with(&Shape::new(vec![5])),
            Some(Shape::new(vec![5]))
        );
        assert_eq!(a.broadcast_with(&Shape::new(vec![5])), None);
        // Scalar broadcasts with anything.
        assert_eq!(Shape::scalar().broadcast_with(&a), Some(a.clone()));
    }

    #[test]
    fn broadcasts_to_is_directional() {
        let bias = Shape::new(vec![4]);
        let x = Shape::new(vec![2, 4]);
        assert!(bias.broadcasts_to(&x));
        assert!(!x.broadcasts_to(&bias));
    }

    #[test]
    fn index_iteration_order() {
        let s = Shape::new(vec![2, 2]);
        let mut seen = Vec::new();
        for_each_index(&s, |idx| seen.push(idx.to_vec()));
        assert_eq!(seen, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn index_iteration_empty_and_scalar() {
        let mut n = 0;
        for_each_index(&Shape::new(vec![0, 3]), |_| n += 1);
        assert_eq!(n, 0);
        for_each_index(&Shape::scalar(), |idx| {
            assert!(idx.is_empty());
            n += 1;
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn broadcast_offsets() {
        // Input [3] broadcast into output [2, 3]: offset ignores the
        // leading output dim.
        let strides = broadcast_strides(&Shape::new(vec![3]), 2);
        assert_eq!(strides, vec![0, 1]);
        assert_eq!(broadcast_offset(&[0, 2], &strides), 2);
        assert_eq!(broadcast_offset(&[1, 2], &strides), 2);
        // Input [2, 1] broadcast into [2, 3]: column index is pinned.
        let strides = broadcast_strides(&Shape::new(vec![2, 1]), 2);
        assert_eq!(broadcast_offset(&[1, 2], &strides), 1);
        assert_eq!(broadcast_offset(&[0, 1], &strides), 0);
    }

    #[test]
    fn conversions() {
        let s: Shape = [1, 2].into();
        assert_eq!(s.dims(), &[1, 2]);
        let s: Shape = vec![3].into();
        assert_eq!(s.dims(), &[3]);
        let s: Shape = (&[4usize, 5][..]).into();
        assert_eq!(s.dims(), &[4, 5]);
    }
}
