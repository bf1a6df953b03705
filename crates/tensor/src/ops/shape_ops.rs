//! Shape-changing operations: reshape, permute, narrow, concat.

use crate::op::Op;
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Copies `data` (shaped `shape`) into the layout of
/// `shape.permute(perm)`, one output row at a time: the source offset
/// of each row advances incrementally with an odometer over the outer
/// output dims, and the row itself is a slice copy when its source is
/// contiguous and a strided gather otherwise.
pub(crate) fn permute_kernel(data: &[f32], shape: &Shape, perm: &[usize]) -> (Vec<f32>, Shape) {
    let out_dims: Vec<usize> = perm.iter().map(|&d| shape.dim(d)).collect();
    let out_shape = Shape::new(out_dims);
    let n = shape.elem_count();
    let Some((&row_len, outer)) = out_shape.dims().split_last() else {
        return (data.to_vec(), out_shape);
    };
    if n == 0 {
        return (Vec::new(), out_shape);
    }
    let in_strides = shape.strides();
    let src: Vec<usize> = perm.iter().map(|&d| in_strides[d]).collect();
    let (&row_stride, outer_src) = src.split_last().expect("same rank as the output");
    let mut out = Vec::with_capacity(n);
    let mut idx = vec![0usize; outer.len()];
    let mut off = 0usize;
    for _ in 0..n / row_len {
        if row_stride == 1 {
            out.extend_from_slice(&data[off..off + row_len]);
        } else {
            out.extend((0..row_len).map(|j| data[off + j * row_stride]));
        }
        // Odometer over the outer dims, moving the source offset along.
        for d in (0..outer.len()).rev() {
            idx[d] += 1;
            off += outer_src[d];
            if idx[d] < outer[d] {
                break;
            }
            off -= outer[d] * outer_src[d];
            idx[d] = 0;
        }
    }
    (out, out_shape)
}

pub(crate) fn inverse_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

pub(crate) fn narrow_kernel(
    data: &[f32],
    shape: &Shape,
    dim: usize,
    start: usize,
    len: usize,
) -> (Vec<f32>, Shape) {
    let outer: usize = shape.dims()[..dim].iter().product();
    let inner: usize = shape.dims()[dim + 1..].iter().product();
    let dsz = shape.dim(dim);
    let mut out_dims = shape.dims().to_vec();
    out_dims[dim] = len;
    let mut out = Vec::with_capacity(outer * len * inner);
    for o in 0..outer {
        let base = o * dsz * inner + start * inner;
        out.extend_from_slice(&data[base..base + len * inner]);
    }
    pool::count_copied(out.len() * 4);
    (out, Shape::new(out_dims))
}

/// Scatters `grad` (shaped like the narrow output) back into a zero
/// tensor shaped like the narrow input.
pub(crate) fn narrow_backward_kernel(
    grad: &[f32],
    in_shape: &Shape,
    dim: usize,
    start: usize,
    len: usize,
) -> Vec<f32> {
    let outer: usize = in_shape.dims()[..dim].iter().product();
    let inner: usize = in_shape.dims()[dim + 1..].iter().product();
    let dsz = in_shape.dim(dim);
    let mut out = vec![0.0; in_shape.elem_count()];
    for o in 0..outer {
        let dst = o * dsz * inner + start * inner;
        let src = o * len * inner;
        out[dst..dst + len * inner].copy_from_slice(&grad[src..src + len * inner]);
    }
    pool::count_copied(grad.len() * 4);
    out
}

impl Tensor {
    /// Reinterprets the data with a new shape of the same element
    /// count. Free at the data level (the buffer is copied only because
    /// the result is a fresh graph node).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.elem_count(),
            shape.elem_count(),
            "reshape {} -> {shape} changes element count",
            self.shape()
        );
        Tensor::from_op(self.to_vec(), shape, Op::Reshape(self.clone()))
    }

    /// Reorders dimensions: `out[i0, i1, ..] = self[i_perm[0], ..]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    ///
    /// # Examples
    ///
    /// ```
    /// use menos_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
    /// assert_eq!(t.permute(&[1, 0]).to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    /// ```
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let data = self.storage().read();
        let (out, shape) = permute_kernel(&data, self.shape(), perm);
        drop(data);
        Tensor::from_op(out, shape, Op::Permute(self.clone(), perm.to_vec()))
    }

    /// Swaps the last two dimensions (matrix transpose for 2-D).
    ///
    /// # Panics
    ///
    /// Panics if rank < 2.
    pub fn t(&self) -> Tensor {
        assert!(self.rank() >= 2, "transpose needs rank >= 2");
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(self.rank() - 2, self.rank() - 1);
        self.permute(&perm)
    }

    /// Selects `len` indices starting at `start` along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Tensor {
        assert!(dim < self.rank(), "narrow dim {dim} out of range");
        assert!(
            start + len <= self.shape().dim(dim),
            "narrow range {start}+{len} exceeds dim {dim} of {}",
            self.shape()
        );
        let data = self.storage().read();
        let (out, shape) = narrow_kernel(&data, self.shape(), dim, start, len);
        drop(data);
        Tensor::from_op(out, shape, Op::Narrow(self.clone(), dim, start, len))
    }

    /// Concatenates tensors along `dim`. All other dimensions must
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics on an empty input list or mismatched shapes.
    pub fn concat(tensors: &[Tensor], dim: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = &tensors[0];
        assert!(dim < first.rank(), "concat dim out of range");
        for t in tensors {
            assert_eq!(t.rank(), first.rank(), "concat rank mismatch");
            for d in 0..first.rank() {
                if d != dim {
                    assert_eq!(
                        t.shape().dim(d),
                        first.shape().dim(d),
                        "concat shape mismatch on dim {d}"
                    );
                }
            }
        }
        let outer: usize = first.dims()[..dim].iter().product();
        let inner: usize = first.dims()[dim + 1..].iter().product();
        let total_dim: usize = tensors.iter().map(|t| t.shape().dim(dim)).sum();
        let mut out_dims = first.dims().to_vec();
        out_dims[dim] = total_dim;
        let mut out = Vec::with_capacity(outer * total_dim * inner);
        let guards: Vec<_> = tensors.iter().map(|t| t.storage().read()).collect();
        for o in 0..outer {
            for (t, g) in tensors.iter().zip(guards.iter()) {
                let d = t.shape().dim(dim);
                let base = o * d * inner;
                out.extend_from_slice(&g[base..base + d * inner]);
            }
        }
        drop(guards);
        pool::count_copied(out.len() * 4);
        Tensor::from_op(out, Shape::new(out_dims), Op::Concat(tensors.to_vec(), dim))
    }

    /// Splits into equal chunks along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is not divisible by `chunks`.
    pub fn chunk(&self, chunks: usize, dim: usize) -> Vec<Tensor> {
        let dsz = self.shape().dim(dim);
        assert_eq!(
            dsz % chunks,
            0,
            "dim {dim} size {dsz} not divisible by {chunks}"
        );
        let each = dsz / chunks;
        (0..chunks)
            .map(|i| self.narrow(dim, i * each, each))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{bits, fill};
    use crate::shape::for_each_index;
    use proptest::prelude::*;

    /// [`permute_kernel`] element by element through the output odometer:
    /// the oracle of its row copies.
    fn permute_indexed(data: &[f32], shape: &Shape, perm: &[usize]) -> Vec<f32> {
        let out_shape = Shape::new(perm.iter().map(|&d| shape.dim(d)).collect());
        let in_strides = shape.strides();
        let mut out = Vec::with_capacity(shape.elem_count());
        for_each_index(&out_shape, |out_idx| {
            let off: usize = perm
                .iter()
                .zip(out_idx)
                .map(|(&d, &i)| i * in_strides[d])
                .sum();
            out.push(data[off]);
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Row copies equal the per-element oracle for any permutation
        /// of any shape up to rank 5, zero-size dims included.
        #[test]
        fn permute_kernel_matches_the_index_loop(
            dims in prop::collection::vec(0usize..5, 0..6),
            shuffle in any::<u64>(),
        ) {
            let mut perm: Vec<usize> = (0..dims.len()).collect();
            let mut s = shuffle;
            for i in (1..perm.len()).rev() {
                perm.swap(i, (s % (i as u64 + 1)) as usize);
                s /= i as u64 + 1;
            }
            let shape = Shape::new(dims);
            let data = fill(shuffle, shape.elem_count());
            let (got, out_shape) = permute_kernel(&data, &shape, &perm);
            let want = permute_indexed(&data, &shape, &perm);
            prop_assert_eq!(out_shape.elem_count(), shape.elem_count());
            prop_assert_eq!(bits(&got), bits(&want), "permute {} by {:?}", shape, perm);
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let r = t.reshape([2, 2]);
        assert_eq!(r.dims(), &[2, 2]);
        assert_eq!(r.to_vec(), t.to_vec());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_validates_count() {
        Tensor::zeros([4]).reshape([3]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.t();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Double transpose is identity.
        assert_eq!(tt.t().to_vec(), t.to_vec());
    }

    #[test]
    fn permute_4d_head_split() {
        // [b=1, s=2, h=2, d=2] -> [b, h, s, d] as attention does.
        let t = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 2, 2, 2]);
        let p = t.permute(&[0, 2, 1, 3]);
        assert_eq!(p.dims(), &[1, 2, 2, 2]);
        assert_eq!(p.to_vec(), vec![0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros([2, 2]).permute(&[0, 0]);
    }

    #[test]
    fn inverse_perm_round_trips() {
        let perm = [2, 0, 3, 1];
        let inv = inverse_perm(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        let t = Tensor::from_vec((0..16).map(|x| x as f32).collect(), [2, 2, 2, 2]);
        let round = t.permute(&perm).permute(&inv);
        assert_eq!(round.to_vec(), t.to_vec());
    }

    #[test]
    fn narrow_middle_dim() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [2, 3, 2]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.dims(), &[2, 2, 2]);
        assert_eq!(n.to_vec(), vec![2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn narrow_validates_range() {
        Tensor::zeros([2, 3]).narrow(1, 2, 2);
    }

    #[test]
    fn narrow_backward_scatters() {
        let shape = Shape::new(vec![2, 3]);
        let grad = vec![1.0, 2.0]; // narrow(1, 1, 1) output grad
        let full = narrow_backward_kernel(&grad, &shape, 1, 1, 1);
        assert_eq!(full, vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn concat_and_chunk_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let c = Tensor::concat(&[a, b], 0);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let parts = c.chunk(2, 0);
        assert_eq!(parts[0].to_vec(), vec![1.0, 2.0]);
        assert_eq!(parts[1].to_vec(), vec![3.0, 4.0]);
    }

    #[test]
    fn concat_last_dim() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 5.0, 6.0], [2, 2]);
        let b = Tensor::from_vec(vec![3.0, 7.0], [2, 1]);
        let c = Tensor::concat(&[a, b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "concat of zero tensors")]
    fn concat_rejects_empty() {
        Tensor::concat(&[], 0);
    }
}
