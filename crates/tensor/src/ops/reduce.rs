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
}
