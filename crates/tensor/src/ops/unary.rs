//! Element-wise unary operations and their derivatives.

use crate::op::Op;
use crate::tensor::Tensor;

/// The constant `sqrt(2/pi)` used by the tanh GELU approximation.
pub(crate) const GELU_C: f32 = 0.797_884_6;

/// The sigmoid-GELU scale: `gelu(x) ≈ x * sigmoid(1.702 x)`.
const GELU_SIG_C: f32 = 1.702;

pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Fast `2^z`: the integer part scales via exponent-bit assembly, the
/// fractional part (in `[0, 1)`) via a degree-5 Taylor polynomial of
/// `2^f`. Relative error stays below `2e-5`.
fn exp2_fast(z: f32) -> f32 {
    // Clamp keeps the assembled exponent in the normal-float range;
    // past ±30 the sigmoid consuming this is saturated anyway.
    let z = z.clamp(-80.0, 80.0);
    let zi = z.floor();
    let zf = z - zi;
    let p = 1.0
        + zf * (std::f32::consts::LN_2
            + zf * (0.240_226_5 + zf * (0.055_504_1 + zf * (0.009_618_1 + zf * 0.001_333_4))));
    f32::from_bits((((zi as i32) + 127) << 23) as u32) * p
}

/// Fast logistic sigmoid built on [`exp2_fast`] — no libm call.
fn sigmoid_fast(x: f32) -> f32 {
    1.0 / (1.0 + exp2_fast(-x * std::f32::consts::LOG2_E))
}

/// GELU, sigmoid form: `x * sigmoid(1.702 x)`. This is the shipped
/// fast path — one cheap polynomial `exp2` instead of a libm `tanh`,
/// within `~1e-2` of the exact GELU everywhere (the two published
/// approximations differ by that much from each other).
pub(crate) fn gelu(x: f32) -> f32 {
    x * sigmoid_fast(GELU_SIG_C * x)
}

/// Derivative of [`gelu`] (the sigmoid form, matching the forward
/// pass exactly).
pub(crate) fn gelu_prime(x: f32) -> f32 {
    let s = sigmoid_fast(GELU_SIG_C * x);
    s + GELU_SIG_C * x * s * (1.0 - s)
}

/// GELU, tanh approximation — the reference variant used by GPT/OPT.
/// Kept exact (libm `tanh`) for gradient checks and accuracy tests;
/// the compute path ships [`gelu`].
pub(crate) fn gelu_exact(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_exact`].
pub(crate) fn gelu_exact_prime(x: f32) -> f32 {
    let inner = GELU_C * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let dinner = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// SiLU / swish: `x * sigmoid(x)` — the activation in Llama's SwiGLU.
pub(crate) fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of [`silu`].
pub(crate) fn silu_prime(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

macro_rules! unary_method {
    ($name:ident, $opvar:ident, $f:expr, $doc:expr) => {
        #[doc = $doc]
        pub fn $name(&self) -> Tensor {
            let data = self.storage().read().iter().map(|&x| $f(x)).collect();
            Tensor::from_op(data, self.shape().clone(), Op::$opvar(self.clone()))
        }
    };
}

impl Tensor {
    unary_method!(exp, Exp, |x: f32| x.exp(), "Element-wise `e^x`.");
    unary_method!(ln, Ln, |x: f32| x.ln(), "Element-wise natural log.");
    unary_method!(
        tanh,
        Tanh,
        |x: f32| x.tanh(),
        "Element-wise hyperbolic tangent."
    );
    unary_method!(sqrt, Sqrt, |x: f32| x.sqrt(), "Element-wise square root.");
    unary_method!(sigmoid, Sigmoid, sigmoid, "Element-wise logistic sigmoid.");
    unary_method!(relu, Relu, |x: f32| x.max(0.0), "Element-wise ReLU.");
    unary_method!(
        gelu,
        Gelu,
        gelu,
        "Element-wise GELU, fast sigmoid form (`x * sigmoid(1.702x)`), as used by \
         OPT-style models. See [`Tensor::gelu_exact`] for the reference tanh variant."
    );
    unary_method!(
        gelu_exact,
        GeluExact,
        gelu_exact,
        "Element-wise GELU, reference tanh approximation. Slower than [`Tensor::gelu`]; \
         used where bit-level agreement with the published formula matters (e.g. \
         gradient checks)."
    );
    unary_method!(
        silu,
        Silu,
        silu,
        "Element-wise SiLU (`x * sigmoid(x)`), as used by Llama-style SwiGLU MLPs."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn exp_ln_inverse() {
        let x = Tensor::from_vec(vec![0.5, 1.0, 2.0], [3]);
        let y = x.exp().ln();
        assert!(x.max_abs_diff(&y) < 1e-5);
    }

    #[test]
    fn tanh_range() {
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], [3]);
        let y = x.tanh().to_vec();
        assert_close(y[0], -1.0, 1e-4);
        assert_close(y[1], 0.0, 1e-7);
        assert_close(y[2], 1.0, 1e-4);
    }

    #[test]
    fn relu_clamps() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(x.relu().to_vec(), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert_close(sigmoid(0.0), 0.5, 1e-7);
        assert_close(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-6);
    }

    #[test]
    fn gelu_exact_reference_values() {
        // Reference values from the tanh-approximation formula.
        assert_close(gelu_exact(0.0), 0.0, 1e-7);
        assert_close(gelu_exact(1.0), 0.841_192, 1e-4);
        assert_close(gelu_exact(-1.0), -0.158_808, 1e-4);
        // GELU is asymptotically identity for large x.
        assert_close(gelu_exact(10.0), 10.0, 1e-3);
    }

    #[test]
    fn fast_gelu_matches_ideal_sigmoid_form() {
        // The fast path approximates x * sigmoid(1.702x) with a
        // polynomial exp2; it must track the libm evaluation of that
        // same formula tightly across the active range.
        let mut x = -12.0f32;
        while x <= 12.0 {
            let ideal = x * sigmoid(1.702 * x);
            assert_close(gelu(x), ideal, 2e-3);
            x += 0.01;
        }
        assert_close(gelu(0.0), 0.0, 1e-7);
        assert_close(gelu(30.0), 30.0, 1e-3);
        assert_close(gelu(-30.0), 0.0, 1e-3);
    }

    #[test]
    fn fast_gelu_tracks_exact_gelu() {
        // The sigmoid and tanh GELU approximations agree to ~2e-2
        // absolute (their intrinsic divergence, not our polynomial);
        // the fast path must stay inside that envelope.
        let mut x = -6.0f32;
        while x <= 6.0 {
            assert_close(gelu(x), gelu_exact(x), 3e-2);
            x += 0.01;
        }
    }

    #[test]
    fn silu_reference_values() {
        assert_close(silu(0.0), 0.0, 1e-7);
        assert_close(silu(1.0), 0.731_058, 1e-4);
        assert_close(silu(-20.0), 0.0, 1e-4);
    }

    #[test]
    fn numeric_derivatives_match_closed_forms() {
        let eps = 1e-3f32;
        for &x in &[-2.0f32, -0.7, 0.0, 0.3, 1.9] {
            let num = (gelu_exact(x + eps) - gelu_exact(x - eps)) / (2.0 * eps);
            assert_close(gelu_exact_prime(x), num, 1e-3);
            let num = (silu(x + eps) - silu(x - eps)) / (2.0 * eps);
            assert_close(silu_prime(x), num, 1e-3);
        }
    }

    #[test]
    fn fast_gelu_derivative_matches_ideal_closed_form() {
        // Differentiate the ideal sigmoid-form GELU analytically (with
        // libm sigmoid) and compare the fast-path derivative to it —
        // finite differences through the polynomial exp2 would just
        // amplify approximation noise.
        for &x in &[-4.0f32, -2.0, -0.7, 0.0, 0.3, 1.9, 4.0] {
            let s = sigmoid(1.702 * x);
            let ideal = s + 1.702 * x * s * (1.0 - s);
            assert_close(gelu_prime(x), ideal, 2e-3);
        }
    }

    #[test]
    fn sqrt_works() {
        let x = Tensor::from_vec(vec![4.0, 9.0], [2]);
        assert_eq!(x.sqrt().to_vec(), vec![2.0, 3.0]);
    }
}
