//! Broadcasting element-wise binary operations.

use crate::op::Op;
use crate::shape::{broadcast_offset, for_each_index, Shape};
use crate::tensor::Tensor;

/// Computes `f(a, b)` element-wise under NumPy broadcasting, returning
/// the flat output data and broadcast shape.
pub(crate) fn broadcast_binary_kernel(
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> (Vec<f32>, Shape) {
    let out_shape = a
        .shape()
        .broadcast_with(b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {} with {}", a.shape(), b.shape()));
    let da = a.storage().read();
    let db = b.storage().read();
    if a.shape() == b.shape() {
        // Fast path: identical shapes, fanned out over the pool.
        let out = crate::parallel::par_map2(&da, &db, 2, &f);
        return (out, out_shape);
    }
    let mut out = Vec::with_capacity(out_shape.elem_count());
    {
        // Broadcasting path: index arithmetic per element, serial.
        let sa = a.shape().clone();
        let sb = b.shape().clone();
        for_each_index(&out_shape, |idx| {
            let x = da[broadcast_offset(idx, &sa)];
            let y = db[broadcast_offset(idx, &sb)];
            out.push(f(x, y));
        });
    }
    (out, out_shape)
}

/// Reduces a gradient of `grad_shape` down to `target` by summing over
/// the dimensions that were broadcast — the adjoint of broadcasting.
pub(crate) fn reduce_grad_to(grad: &[f32], grad_shape: &Shape, target: &Shape) -> Vec<f32> {
    if grad_shape == target {
        return grad.to_vec();
    }
    debug_assert!(
        target.broadcasts_to(grad_shape),
        "cannot reduce grad {grad_shape} to {target}"
    );
    let mut out = vec![0.0; target.elem_count()];
    let mut i = 0usize;
    for_each_index(grad_shape, |idx| {
        out[broadcast_offset(idx, target)] += grad[i];
        i += 1;
    });
    out
}

macro_rules! binary_method {
    ($name:ident, $opvar:ident, $f:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// Operands broadcast under the NumPy trailing-dimension rule.
        ///
        /// # Panics
        ///
        /// Panics if the shapes are not broadcast-compatible.
        pub fn $name(&self, rhs: &Tensor) -> Tensor {
            let (data, shape) = broadcast_binary_kernel(self, rhs, $f);
            Tensor::from_op(data, shape, Op::$opvar(self.clone(), rhs.clone()))
        }
    };
}

impl Tensor {
    binary_method!(add, Add, |x, y| x + y, "Element-wise addition.");
    binary_method!(sub, Sub, |x, y| x - y, "Element-wise subtraction.");
    binary_method!(mul, Mul, |x, y| x * y, "Element-wise multiplication.");
    binary_method!(div, Div, |x, y| x / y, "Element-wise division.");

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let data = crate::parallel::par_map(&self.storage().read(), 2, |x| x + s);
        Tensor::from_op(data, self.shape().clone(), Op::AddScalar(self.clone()))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let data = crate::parallel::par_map(&self.storage().read(), 2, |x| x * s);
        Tensor::from_op(data, self.shape().clone(), Op::MulScalar(self.clone(), s))
    }

    /// Raises every element to an integer power.
    pub fn powi(&self, p: i32) -> Tensor {
        let data = crate::parallel::par_map(&self.storage().read(), 4, |x| x.powi(p));
        Tensor::from_op(data, self.shape().clone(), Op::PowScalar(self.clone(), p))
    }
}

macro_rules! std_op {
    ($trait:ident, $method:ident, $tensor_method:ident) => {
        impl std::ops::$trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$tensor_method(rhs)
            }
        }
    };
}

std_op!(Add, add, add);
std_op!(Sub, sub, sub);
std_op!(Mul, mul, mul);
std_op!(Div, div, div);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.mul_scalar(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]);
        assert_eq!((&a + &b).to_vec(), vec![4.0, 7.0]);
        assert_eq!((&a - &b).to_vec(), vec![-2.0, -3.0]);
        assert_eq!((&a * &b).to_vec(), vec![3.0, 10.0]);
        assert_eq!((&b / &a).to_vec(), vec![3.0, 2.5]);
    }

    #[test]
    fn bias_broadcast() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        assert_eq!(x.add(&b).to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn column_broadcast() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let c = Tensor::from_vec(vec![10.0, 100.0], [2, 1]);
        assert_eq!(x.mul(&c).to_vec(), vec![10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn scalar_tensor_broadcast() {
        let x = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let s = Tensor::scalar(3.0);
        assert_eq!(x.mul(&s).to_vec(), vec![3.0, 6.0]);
        assert_eq!(s.sub(&x).to_vec(), vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        let _ = a.add(&b);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], [2]);
        assert_eq!(a.add_scalar(1.0).to_vec(), vec![2.0, -1.0]);
        assert_eq!(a.mul_scalar(-3.0).to_vec(), vec![-3.0, 6.0]);
        assert_eq!(a.powi(2).to_vec(), vec![1.0, 4.0]);
        assert_eq!((-&a).to_vec(), vec![-1.0, 2.0]);
    }

    #[test]
    fn reduce_grad_to_sums_broadcast_dims() {
        // grad [2,3] reduced to bias shape [3]: column sums.
        let grad = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let r = reduce_grad_to(&grad, &Shape::new(vec![2, 3]), &Shape::new(vec![3]));
        assert_eq!(r, vec![5.0, 7.0, 9.0]);
        // Reduce to [2,1]: row sums.
        let r = reduce_grad_to(&grad, &Shape::new(vec![2, 3]), &Shape::new(vec![2, 1]));
        assert_eq!(r, vec![6.0, 15.0]);
        // Reduce to scalar.
        let r = reduce_grad_to(&grad, &Shape::new(vec![2, 3]), &Shape::scalar());
        assert_eq!(r, vec![21.0]);
        // Identity.
        let r = reduce_grad_to(&grad, &Shape::new(vec![2, 3]), &Shape::new(vec![2, 3]));
        assert_eq!(r, grad);
    }

    #[test]
    fn grad_tracking_propagates() {
        let a = Tensor::var_from_vec(vec![1.0], [1]);
        let b = Tensor::from_vec(vec![2.0], [1]);
        assert!(a.add(&b).requires_grad());
        assert!(!b.mul(&b).requires_grad());
        crate::tensor::no_grad(|| {
            assert!(!a.add(&b).requires_grad());
        });
    }
}
