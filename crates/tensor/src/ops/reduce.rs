//! Reduction operations.
//!
//! Full reductions accumulate over fixed-size element blocks combined
//! in block order, so the result is independent of the worker-pool
//! size (and, as a side effect, slightly more accurate than a single
//! running sum).

use crate::op::Op;
use crate::parallel;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Elements per partial-sum block. Fixed (never derived from the
/// thread count) so the summation tree is stable.
const SUM_BLOCK: usize = 4096;

/// Block-wise sum: partials in block order, folded serially.
fn blocked_sum(data: &[f32]) -> f32 {
    if data.len() <= SUM_BLOCK {
        return data.iter().sum();
    }
    let blocks = data.len().div_ceil(SUM_BLOCK);
    let partials = parallel::par_blocks(blocks, data.len(), |b| {
        let lo = b * SUM_BLOCK;
        let hi = (lo + SUM_BLOCK).min(data.len());
        data[lo..hi].iter().sum::<f32>()
    });
    partials.iter().sum()
}

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let s = blocked_sum(&self.storage().read());
        Tensor::from_op(vec![s], Shape::scalar(), Op::SumAll(self.clone()))
    }

    /// Mean of all elements, as a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.elem_count();
        assert!(n > 0, "mean of empty tensor");
        let s = blocked_sum(&self.storage().read());
        Tensor::from_op(
            vec![s / n as f32],
            Shape::scalar(),
            Op::MeanAll(self.clone()),
        )
    }

    /// Sum along the last dimension, keeping it as size 1.
    pub fn sum_last_keepdim(&self) -> Tensor {
        let (rows, cols) = self.shape().rows_cols();
        let data = self.storage().read();
        let mut out = vec![0.0; rows];
        parallel::par_chunks_mut(&mut out, 1, rows * cols, |start, chunk| {
            for (local, o) in chunk.iter_mut().enumerate() {
                let r = start + local;
                *o = data[r * cols..(r + 1) * cols].iter().sum();
            }
        });
        drop(data);
        let mut dims = self.dims().to_vec();
        *dims.last_mut().expect("rank >= 1") = 1;
        Tensor::from_op(out, Shape::new(dims), Op::SumLastKeepdim(self.clone()))
    }

    /// Index of the maximum element along the last dimension (no
    /// gradient). Ties resolve to the first maximum.
    pub fn argmax_last(&self) -> Vec<usize> {
        let (rows, cols) = self.shape().rows_cols();
        let data = self.storage().read();
        (0..rows)
            .map(|r| {
                let row = &data[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Maximum element value (no gradient).
    pub fn max_all(&self) -> f32 {
        let data = self.storage().read();
        if data.len() <= SUM_BLOCK {
            return data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }
        // max is exact (no rounding), so blocking cannot change it.
        let blocks = data.len().div_ceil(SUM_BLOCK);
        parallel::par_blocks(blocks, data.len(), |b| {
            let lo = b * SUM_BLOCK;
            let hi = (lo + SUM_BLOCK).min(data.len());
            data[lo..hi]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .into_iter()
        .fold(f32::NEG_INFINITY, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum_all().to_scalar(), 10.0);
        assert_eq!(t.mean_all().to_scalar(), 2.5);
        assert_eq!(t.sum_all().dims(), &[] as &[usize]);
    }

    #[test]
    fn sum_last_keepdim_shapes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let s = t.sum_last_keepdim();
        assert_eq!(s.dims(), &[2, 1]);
        assert_eq!(s.to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7, 0.2, 0.1], [2, 3]);
        assert_eq!(t.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn argmax_tie_takes_first() {
        let t = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        assert_eq!(t.argmax_last(), vec![0]);
    }

    #[test]
    fn max_all_value() {
        let t = Tensor::from_vec(vec![-5.0, 3.0, 2.0], [3]);
        assert_eq!(t.max_all(), 3.0);
    }
}
