//! Broadcasting element-wise binary operations.
//!
//! Every path computes the same `f(x, y)` for each output element, and
//! the gradient reduction adds each target element's contributions in
//! the same ascending order, so the fast paths are bitwise equal to
//! the index-loop fallback that stays as their proptest oracle.

use crate::op::Op;
use crate::parallel;
use crate::shape::{broadcast_offset, broadcast_strides, for_each_index, Shape};
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
    let out = broadcast_zip(&da, a.shape(), &db, b.shape(), &out_shape, f);
    (out, out_shape)
}

/// Whether `full` already has the output's layout and `part`, leading
/// 1s ignored, is a trailing block of the output that repeats along it:
/// `[.., n] ∘ [n]`, `[.., r, c] ∘ [r, c]`, a scalar.
fn trailing_block(full: &Shape, part: &Shape, out: &Shape) -> bool {
    let lead = part.dims().iter().take_while(|&&d| d == 1).count();
    full.elem_count() == out.elem_count() && out.dims().ends_with(&part.dims()[lead..])
}

/// `f(x, y)` over the broadcast of `x` (shaped `sx`) and `y` (shaped
/// `sy`) to `out`.
pub(crate) fn broadcast_zip(
    x: &[f32],
    sx: &Shape,
    y: &[f32],
    sy: &Shape,
    out: &Shape,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Vec<f32> {
    let n = out.elem_count();
    if sx.elem_count() == n && sy.elem_count() == n {
        // Both already in the output's layout.
        return parallel::par_map2(x, y, 2, f);
    }
    if trailing_block(sx, sy, out) {
        return zip_rows(x, y, f);
    }
    if trailing_block(sy, sx, out) {
        return zip_rows(y, x, |yv, xv| f(xv, yv));
    }
    broadcast_zip_indexed(x, sx, y, sy, out, f)
}

/// `f(full[i], block[i % block.len()])`, one output row per block
/// repeat, so the inner loop is a plain zip that vectorises.
fn zip_rows(full: &[f32], block: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    let len = block.len();
    if len == 1 {
        let y = block[0];
        return parallel::par_map(full, 2, |x| f(x, y));
    }
    let mut out = vec![0.0; full.len()];
    parallel::par_chunks_mut(&mut out, len, 2 * full.len(), |start, chunk| {
        let rows = chunk
            .chunks_exact_mut(len)
            .zip(full[start..].chunks_exact(len));
        for (orow, xrow) in rows {
            for ((o, &x), &y) in orow.iter_mut().zip(xrow).zip(block) {
                *o = f(x, y);
            }
        }
    });
    out
}

/// The general broadcast: the output odometer mapped into both inputs
/// per element. The fallback for layouts no fast path covers, and the
/// oracle every fast path must match bit for bit.
fn broadcast_zip_indexed(
    x: &[f32],
    sx: &Shape,
    y: &[f32],
    sy: &Shape,
    out: &Shape,
    f: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let tx = broadcast_strides(sx, out.rank());
    let ty = broadcast_strides(sy, out.rank());
    let mut v = Vec::with_capacity(out.elem_count());
    for_each_index(out, |idx| {
        v.push(f(
            x[broadcast_offset(idx, &tx)],
            y[broadcast_offset(idx, &ty)],
        ));
    });
    v
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
    if !trailing_block(grad_shape, target, grad_shape) {
        return reduce_grad_indexed(grad, grad_shape, target);
    }
    // Rows added in ascending order: each target element sees the
    // index loop's summation order.
    let len = target.elem_count();
    let mut out = vec![0.0; len];
    if len > 0 {
        for row in grad.chunks_exact(len) {
            for (o, g) in out.iter_mut().zip(row) {
                *o += g;
            }
        }
    }
    out
}

/// [`reduce_grad_to`] by the output odometer: the fallback and the
/// oracle of the row-sum fast path.
fn reduce_grad_indexed(grad: &[f32], grad_shape: &Shape, target: &Shape) -> Vec<f32> {
    let strides = broadcast_strides(target, grad_shape.rank());
    let mut out = vec![0.0; target.elem_count()];
    let mut i = 0usize;
    for_each_index(grad_shape, |idx| {
        out[broadcast_offset(idx, &strides)] += grad[i];
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
    use crate::ops::{bits, fill};
    use proptest::prelude::*;

    /// `dims` with the first `drop` dims removed and the dims whose bit
    /// is set in `ones` replaced by 1: always broadcast-compatible with
    /// `dims`.
    fn derived(dims: &[usize], ones: u32, drop: usize) -> Shape {
        let kept = &dims[drop.min(dims.len())..];
        let d = kept.iter().enumerate();
        Shape::new(
            d.map(|(i, &n)| if ones >> i & 1 == 1 { 1 } else { n })
                .collect(),
        )
    }

    /// A broadcast-compatible shape pair. Mode 0 derives both operands
    /// freely; modes 1 and 2 make one operand the full shape and the
    /// other a trailing block with leading 1s (either order), the
    /// layouts the fast paths take.
    fn shape_pair(dims: &[usize], mode: u32, ones: u32, drops: usize) -> (Shape, Shape) {
        let lead = (ones & 7) as usize;
        let block = derived(dims, (1u32 << lead.min(dims.len())) - 1, drops % 6);
        match mode {
            0 => (
                derived(dims, ones, drops % 6),
                derived(dims, ones >> 8, drops / 6),
            ),
            1 => (Shape::new(dims.to_vec()), block),
            _ => (block, Shape::new(dims.to_vec())),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The broadcast fast paths and the row-sum gradient reduction
        /// equal the index-loop oracle bit for bit, over shape pairs of
        /// rank up to 5 with leading 1s, scalars and zero-size dims.
        #[test]
        fn fast_paths_match_the_index_loop_bitwise(
            dims in prop::collection::vec(0usize..4, 0..6),
            mode in 0u32..3,
            ones in any::<u32>(),
            drops in 0usize..36,
            seed in any::<u64>(),
        ) {
            let (sx, sy) = shape_pair(&dims, mode, ones, drops);
            let out = sx.broadcast_with(&sy).expect("derived shapes broadcast");
            let x = fill(seed, sx.elem_count());
            let y = fill(seed ^ 0x5555, sy.elem_count());
            // Not commutative, so a swapped operand order shows.
            let f = |a: f32, b: f32| a - 0.5 * b;
            prop_assert_eq!(
                bits(&broadcast_zip(&x, &sx, &y, &sy, &out, f)),
                bits(&broadcast_zip_indexed(&x, &sx, &y, &sy, &out, f)),
                "forward {} ∘ {}", sx, sy
            );
            let grad = fill(seed ^ 0xaaaa, out.elem_count());
            for target in [&sx, &sy] {
                // The parent returned an equal-shaped gradient as is.
                let oracle = if *target == out {
                    grad.clone()
                } else {
                    reduce_grad_indexed(&grad, &out, target)
                };
                prop_assert_eq!(
                    bits(&reduce_grad_to(&grad, &out, target)),
                    bits(&oracle),
                    "reduce {} -> {}", out, target
                );
            }
        }
    }

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
