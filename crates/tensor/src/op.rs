//! The recorded operation graph and per-op backward rules.

use std::sync::Arc;

use crate::ops::binary::{broadcast_zip, reduce_grad_to};
use crate::ops::matmul::matmul_backward;
use crate::ops::nn::{
    cross_entropy_backward, embedding_backward, layer_norm_backward, rms_norm_backward,
    rope_backward, softmax_backward,
};
use crate::ops::shape_ops::{inverse_perm, narrow_backward_kernel, permute_kernel};
use crate::ops::unary::{gelu_exact_prime, gelu_prime, sigmoid, silu_prime};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// A recorded tensor operation, holding its inputs.
///
/// Backward passes *recompute* any forward quantities they need (e.g.
/// normalization statistics) from the stored inputs rather than caching
/// them — this keeps the graph small and matches the recompute-oriented
/// design of Menos' on-demand memory policy. Softmax is the exception:
/// its gradient reads the op's own output, which the graph holds anyway.
pub(crate) enum Op {
    Add(Tensor, Tensor),
    Sub(Tensor, Tensor),
    Mul(Tensor, Tensor),
    Div(Tensor, Tensor),
    AddScalar(Tensor),
    MulScalar(Tensor, f32),
    PowScalar(Tensor, i32),
    Exp(Tensor),
    Ln(Tensor),
    Tanh(Tensor),
    Sqrt(Tensor),
    Sigmoid(Tensor),
    Relu(Tensor),
    Gelu(Tensor),
    GeluExact(Tensor),
    Silu(Tensor),
    Matmul(Tensor, Tensor),
    SumAll(Tensor),
    MeanAll(Tensor),
    Reshape(Tensor),
    Permute(Tensor, Vec<usize>),
    Narrow(Tensor, usize, usize, usize),
    Concat(Vec<Tensor>, usize),
    Softmax(Tensor),
    LayerNorm {
        x: Tensor,
        gamma: Tensor,
        beta: Tensor,
        eps: f32,
    },
    RmsNorm {
        x: Tensor,
        gamma: Tensor,
        eps: f32,
    },
    Embedding {
        table: Tensor,
        ids: Arc<Vec<usize>>,
    },
    CrossEntropy {
        logits: Tensor,
        targets: Arc<Vec<usize>>,
    },
    Rope {
        x: Tensor,
        base: f32,
        pos_offset: usize,
    },
}

impl Op {
    /// The input tensors of this op, in a fixed order.
    pub(crate) fn parents(&self) -> Vec<Tensor> {
        match self {
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::Matmul(a, b) => {
                vec![a.clone(), b.clone()]
            }
            Op::AddScalar(a)
            | Op::MulScalar(a, _)
            | Op::PowScalar(a, _)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Tanh(a)
            | Op::Sqrt(a)
            | Op::Sigmoid(a)
            | Op::Relu(a)
            | Op::Gelu(a)
            | Op::GeluExact(a)
            | Op::Silu(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::Reshape(a)
            | Op::Permute(a, _)
            | Op::Narrow(a, _, _, _)
            | Op::Softmax(a) => vec![a.clone()],
            Op::Concat(ts, _) => ts.clone(),
            Op::LayerNorm { x, gamma, beta, .. } => {
                vec![x.clone(), gamma.clone(), beta.clone()]
            }
            Op::RmsNorm { x, gamma, .. } => vec![x.clone(), gamma.clone()],
            Op::Embedding { table, .. } => vec![table.clone()],
            Op::CrossEntropy { logits, .. } => vec![logits.clone()],
            Op::Rope { x, .. } => vec![x.clone()],
        }
    }

    /// Computes the gradients of the parents that require one, given
    /// the output gradient, as `(parent, grad_data)` pairs in parent
    /// order. This is the one place the rule lives: a parent that does
    /// not require a gradient (a frozen base weight, a constant mask)
    /// gets no entry and costs no arithmetic, and every gradient that
    /// is computed runs the same arithmetic as if all were.
    ///
    /// A recorded op has at least one parent that requires a gradient
    /// (see [`Tensor::from_op`]), so single-parent ops always compute.
    pub(crate) fn backward(&self, out: &Tensor, grad: &[f32]) -> Vec<(Tensor, Vec<f32>)> {
        let os = out.shape();
        match self {
            Op::Add(a, b) => wanted([
                (a, &|| reduce_grad_to(grad, os, a.shape())),
                (b, &|| reduce_grad_to(grad, os, b.shape())),
            ]),
            Op::Sub(a, b) => wanted([
                (a, &|| reduce_grad_to(grad, os, a.shape())),
                (b, &|| {
                    let gb: Vec<f32> = grad.iter().map(|g| -g).collect();
                    reduce_grad_to(&gb, os, b.shape())
                }),
            ]),
            Op::Mul(a, b) => wanted([
                (a, &|| {
                    let ga = with_operand(grad, os, b, |g, bv| g * bv);
                    reduce_grad_to(&ga, os, a.shape())
                }),
                (b, &|| {
                    let gb = with_operand(grad, os, a, |g, av| g * av);
                    reduce_grad_to(&gb, os, b.shape())
                }),
            ]),
            Op::Div(a, b) => wanted([
                (a, &|| {
                    let ga = with_operand(grad, os, b, |g, bv| g / bv);
                    reduce_grad_to(&ga, os, a.shape())
                }),
                (b, &|| {
                    // -g * a / (b * b), rounded step by step as written.
                    let ga = with_operand(grad, os, a, |g, av| -g * av);
                    let gb = with_operand(&ga, os, b, |q, bv| q / (bv * bv));
                    reduce_grad_to(&gb, os, b.shape())
                }),
            ]),
            Op::AddScalar(a) => vec![(a.clone(), grad.to_vec())],
            Op::MulScalar(a, s) => {
                vec![(a.clone(), grad.iter().map(|g| g * s).collect())]
            }
            Op::PowScalar(a, p) => {
                let x = a.storage().read();
                let g = grad
                    .iter()
                    .zip(x.iter())
                    .map(|(g, &xv)| g * (*p as f32) * xv.powi(p - 1))
                    .collect();
                drop(x);
                vec![(a.clone(), g)]
            }
            Op::Exp(a) => unary_grad(a, grad, |x| x.exp()),
            Op::Ln(a) => unary_grad(a, grad, |x| 1.0 / x),
            Op::Tanh(a) => unary_grad(a, grad, |x| {
                let t = x.tanh();
                1.0 - t * t
            }),
            Op::Sqrt(a) => unary_grad(a, grad, |x| 0.5 / x.sqrt()),
            Op::Sigmoid(a) => unary_grad(a, grad, |x| {
                let s = sigmoid(x);
                s * (1.0 - s)
            }),
            Op::Relu(a) => unary_grad(a, grad, |x| if x > 0.0 { 1.0 } else { 0.0 }),
            Op::Gelu(a) => unary_grad(a, grad, gelu_prime),
            Op::GeluExact(a) => unary_grad(a, grad, gelu_exact_prime),
            Op::Silu(a) => unary_grad(a, grad, silu_prime),
            Op::Matmul(a, b) => {
                let (ga, gb) = matmul_backward(a, b, grad, a.requires_grad(), b.requires_grad());
                paired([(a, ga), (b, gb)])
            }
            Op::SumAll(a) => {
                let g = grad[0];
                vec![(a.clone(), vec![g; a.elem_count()])]
            }
            Op::MeanAll(a) => {
                let g = grad[0] / a.elem_count() as f32;
                vec![(a.clone(), vec![g; a.elem_count()])]
            }
            Op::Reshape(a) => vec![(a.clone(), grad.to_vec())],
            Op::Permute(a, perm) => {
                let inv = inverse_perm(perm);
                let (g, _) = permute_kernel(grad, os, &inv);
                vec![(a.clone(), g)]
            }
            Op::Narrow(a, dim, start, len) => {
                let g = narrow_backward_kernel(grad, a.shape(), *dim, *start, *len);
                vec![(a.clone(), g)]
            }
            Op::Concat(ts, dim) => {
                let dim = *dim;
                let outer: usize = out.dims()[..dim].iter().product();
                let inner: usize = out.dims()[dim + 1..].iter().product();
                let total = out.shape().dim(dim);
                let mut grads = Vec::new();
                let mut offset = 0usize;
                for t in ts {
                    let d = t.shape().dim(dim);
                    if t.requires_grad() {
                        let mut g = Vec::with_capacity(t.elem_count());
                        for o in 0..outer {
                            let src = o * total * inner + offset * inner;
                            g.extend_from_slice(&grad[src..src + d * inner]);
                        }
                        grads.push((t.clone(), g));
                    }
                    offset += d;
                }
                grads
            }
            Op::Softmax(a) => vec![(a.clone(), softmax_backward(out, grad))],
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let need_affine = gamma.requires_grad() || beta.requires_grad();
                let (dx, affine) =
                    layer_norm_backward(x, gamma, *eps, grad, x.requires_grad(), need_affine);
                let (dg, db) = affine.unzip();
                paired([(x, dx), (gamma, dg), (beta, db)])
            }
            Op::RmsNorm { x, gamma, eps } => {
                let (dx, dg) = rms_norm_backward(
                    x,
                    gamma,
                    *eps,
                    grad,
                    x.requires_grad(),
                    gamma.requires_grad(),
                );
                paired([(x, dx), (gamma, dg)])
            }
            Op::Embedding { table, ids } => {
                vec![(table.clone(), embedding_backward(table, ids, grad))]
            }
            Op::CrossEntropy { logits, targets } => {
                vec![(
                    logits.clone(),
                    cross_entropy_backward(logits, targets, grad[0]),
                )]
            }
            Op::Rope {
                x,
                base,
                pos_offset,
            } => {
                vec![(x.clone(), rope_backward(x, *base, *pos_offset, grad))]
            }
        }
    }
}

/// `f(g, t)` for each element `g` of an output-shaped gradient and the
/// element of operand `t` broadcast to it.
fn with_operand(
    grad: &[f32],
    out: &Shape,
    t: &Tensor,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Vec<f32> {
    broadcast_zip(grad, out, &t.storage().read(), t.shape(), out, f)
}

/// Runs each parent's gradient closure only if that parent requires a
/// gradient.
fn wanted<const N: usize>(parts: [(&Tensor, &dyn Fn() -> Vec<f32>); N]) -> Vec<(Tensor, Vec<f32>)> {
    parts
        .into_iter()
        .filter(|(t, _)| t.requires_grad())
        .map(|(t, g)| (t.clone(), g()))
        .collect()
}

/// Pairs the gradients a multi-output kernel computed with their
/// parents, dropping any a parent that requires no gradient shares
/// with one that does (LayerNorm's `dgamma`/`dbeta`).
fn paired<const N: usize>(parts: [(&Tensor, Option<Vec<f32>>); N]) -> Vec<(Tensor, Vec<f32>)> {
    parts
        .into_iter()
        .filter(|(t, _)| t.requires_grad())
        .filter_map(|(t, g)| g.map(|g| (t.clone(), g)))
        .collect()
}

fn unary_grad(a: &Tensor, grad: &[f32], dfdx: impl Fn(f32) -> f32) -> Vec<(Tensor, Vec<f32>)> {
    let x = a.storage().read();
    let g = grad
        .iter()
        .zip(x.iter())
        .map(|(g, &xv)| g * dfdx(xv))
        .collect();
    drop(x);
    vec![(a.clone(), g)]
}
