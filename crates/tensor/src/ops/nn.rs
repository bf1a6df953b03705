//! Neural-network primitives: softmax, normalization layers, embedding
//! lookup, fused cross-entropy, and rotary position embeddings.
//!
//! Row-wise kernels fan out over the shared worker pool (see
//! [`crate::parallel`]); rows are independent, so any partition of
//! them yields bitwise-identical results. Cross-row reductions
//! (the cross-entropy loss, `dgamma`/`dbeta`) accumulate over
//! fixed-size row blocks combined in block order, which keeps them
//! independent of the thread count too.

use std::sync::Arc;

use crate::op::Op;
use crate::parallel;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Rows per reduction block for blocked cross-row accumulations. Fixed
/// (not derived from the pool size) so the summation tree never moves.
const ROW_BLOCK: usize = 64;

// ----------------------------------------------------------------------
// Forward kernels (shared by ops and by backward recomputation)
// ----------------------------------------------------------------------

fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        z += *x;
    }
    let inv = 1.0 / z;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Numerically stable softmax along the last dimension, in place row by
/// row (rows are distributed over the worker pool).
pub(crate) fn softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(data.len(), rows * cols);
    parallel::par_chunks_mut(data, cols, rows * cols * 8, |_, chunk| {
        for row in chunk.chunks_exact_mut(cols) {
            softmax_row(row);
        }
    });
}

pub(crate) fn layer_norm_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let n = row.len() as f32;
    let mu = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|x| (x - mu) * (x - mu)).sum::<f32>() / n;
    (mu, 1.0 / (var + eps).sqrt())
}

pub(crate) fn rms_norm_rrms(row: &[f32], eps: f32) -> f32 {
    let n = row.len() as f32;
    let ms = row.iter().map(|x| x * x).sum::<f32>() / n;
    1.0 / (ms + eps).sqrt()
}

/// Rotary-embedding angle for pair index `i` at position `pos`.
pub(crate) fn rope_angle(pos: usize, pair: usize, half_dim: usize, base: f32) -> f32 {
    let exponent = pair as f32 / half_dim as f32;
    pos as f32 / base.powf(exponent)
}

// ----------------------------------------------------------------------
// Tensor methods
// ----------------------------------------------------------------------

impl Tensor {
    /// Softmax along the last dimension (numerically stabilized).
    pub fn softmax_last(&self) -> Tensor {
        let (rows, cols) = self.shape().rows_cols();
        let mut data = self.to_vec();
        softmax_rows(&mut data, rows, cols);
        Tensor::from_op(data, self.shape().clone(), Op::Softmax(self.clone()))
    }

    /// Layer normalization over the last dimension with affine
    /// parameters: `(x - mean) / sqrt(var + eps) * gamma + beta`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not 1-D of the last-dim size.
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let (rows, cols) = self.shape().rows_cols();
        assert_eq!(gamma.dims(), &[cols], "layer_norm gamma shape");
        assert_eq!(beta.dims(), &[cols], "layer_norm beta shape");
        let x = self.storage().read();
        let g = gamma.storage().read();
        let b = beta.storage().read();
        let mut out = vec![0.0; rows * cols];
        parallel::par_chunks_mut(&mut out, cols, rows * cols * 6, |start, chunk| {
            for (local, orow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = start / cols + local;
                let row = &x[r * cols..(r + 1) * cols];
                let (mu, rstd) = layer_norm_stats(row, eps);
                for c in 0..cols {
                    orow[c] = (row[c] - mu) * rstd * g[c] + b[c];
                }
            }
        });
        drop((x, g, b));
        Tensor::from_op(
            out,
            self.shape().clone(),
            Op::LayerNorm {
                x: self.clone(),
                gamma: gamma.clone(),
                beta: beta.clone(),
                eps,
            },
        )
    }

    /// RMS normalization over the last dimension (Llama-style):
    /// `x / sqrt(mean(x^2) + eps) * gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not 1-D of the last-dim size.
    pub fn rms_norm(&self, gamma: &Tensor, eps: f32) -> Tensor {
        let (rows, cols) = self.shape().rows_cols();
        assert_eq!(gamma.dims(), &[cols], "rms_norm gamma shape");
        let x = self.storage().read();
        let g = gamma.storage().read();
        let mut out = vec![0.0; rows * cols];
        parallel::par_chunks_mut(&mut out, cols, rows * cols * 4, |start, chunk| {
            for (local, orow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = start / cols + local;
                let row = &x[r * cols..(r + 1) * cols];
                let rrms = rms_norm_rrms(row, eps);
                for c in 0..cols {
                    orow[c] = row[c] * rrms * g[c];
                }
            }
        });
        drop((x, g));
        Tensor::from_op(
            out,
            self.shape().clone(),
            Op::RmsNorm {
                x: self.clone(),
                gamma: gamma.clone(),
                eps,
            },
        )
    }

    /// Embedding lookup: for a table of shape `[vocab, dim]` and ids of
    /// logical shape `batch_dims`, returns `batch_dims + [dim]`.
    ///
    /// Gradients scatter-add into the table.
    ///
    /// # Panics
    ///
    /// Panics if the table is not 2-D, an id is out of vocabulary, or
    /// `ids.len()` does not equal the product of `batch_dims`.
    pub fn embedding(table: &Tensor, ids: &[usize], batch_dims: &[usize]) -> Tensor {
        assert_eq!(table.rank(), 2, "embedding table must be [vocab, dim]");
        let vocab = table.shape().dim(0);
        let dim = table.shape().dim(1);
        assert_eq!(
            ids.len(),
            batch_dims.iter().product::<usize>(),
            "ids length does not match batch dims {batch_dims:?}"
        );
        for &id in ids {
            assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
        }
        let t = table.storage().read();
        let mut out = vec![0.0; ids.len() * dim];
        parallel::par_chunks_mut(&mut out, dim, ids.len() * dim, |start, chunk| {
            for (local, orow) in chunk.chunks_exact_mut(dim).enumerate() {
                let id = ids[start / dim + local];
                orow.copy_from_slice(&t[id * dim..(id + 1) * dim]);
            }
        });
        drop(t);
        let mut dims = batch_dims.to_vec();
        dims.push(dim);
        Tensor::from_op(
            out,
            Shape::new(dims),
            Op::Embedding {
                table: table.clone(),
                ids: Arc::new(ids.to_vec()),
            },
        )
    }

    /// Fused mean cross-entropy between `self` (logits, `[N, vocab]` or
    /// `[.., vocab]` flattened row-wise) and integer `targets` (one per
    /// row).
    ///
    /// Equivalent to `mean(-log_softmax(logits)[target])`, with the
    /// backward pass fused for numerical stability.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` does not match the number of rows or a
    /// target is out of range.
    pub fn cross_entropy(&self, targets: &[usize]) -> Tensor {
        let (rows, cols) = self.shape().rows_cols();
        assert_eq!(targets.len(), rows, "one target per logit row");
        let mut probs = self.to_vec();
        softmax_rows(&mut probs, rows, cols);
        // Fixed-size row blocks keep the f64 summation order identical
        // at any thread count.
        let blocks = rows.div_ceil(ROW_BLOCK);
        let partials = parallel::par_blocks(blocks, rows * 8, |bi| {
            let lo = bi * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(rows);
            let mut s = 0.0f64;
            for (r, &t) in targets[lo..hi].iter().enumerate().map(|(i, t)| (lo + i, t)) {
                assert!(t < cols, "target {t} out of range {cols}");
                // Clamp to avoid -inf on underflow.
                s -= f64::from(probs[r * cols + t].max(1e-12).ln());
            }
            s
        });
        let loss = (partials.iter().sum::<f64>() / rows as f64) as f32;
        Tensor::from_op(
            vec![loss],
            Shape::scalar(),
            Op::CrossEntropy {
                logits: self.clone(),
                targets: Arc::new(targets.to_vec()),
            },
        )
    }

    /// Applies rotary position embeddings to a `[batch, heads, seq,
    /// head_dim]` tensor, rotating adjacent pairs by position-dependent
    /// angles (`base` is typically `10000.0`). `pos_offset` shifts the
    /// position index (for generation with a prefix).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or the head dimension is odd.
    pub fn rope(&self, base: f32, pos_offset: usize) -> Tensor {
        assert_eq!(self.rank(), 4, "rope expects [b, h, s, d]");
        let d = self.shape().dim(3);
        assert_eq!(d % 2, 0, "rope head dim must be even");
        let s = self.shape().dim(2);
        let x = self.storage().read();
        let mut out = vec![0.0; x.len()];
        let half = d / 2;
        parallel::par_chunks_mut(&mut out, d, x.len() * 12, |start, chunk| {
            for (local, orow) in chunk.chunks_exact_mut(d).enumerate() {
                let row = start / d + local;
                let si = row % s;
                let off = row * d;
                for i in 0..half {
                    let theta = rope_angle(si + pos_offset, i, half, base);
                    let (sin, cos) = theta.sin_cos();
                    let x0 = x[off + 2 * i];
                    let x1 = x[off + 2 * i + 1];
                    orow[2 * i] = x0 * cos - x1 * sin;
                    orow[2 * i + 1] = x0 * sin + x1 * cos;
                }
            }
        });
        drop(x);
        Tensor::from_op(
            out,
            self.shape().clone(),
            Op::Rope {
                x: self.clone(),
                base,
                pos_offset,
            },
        )
    }

    /// An additive causal attention mask of shape `[seq, seq]`: zero on
    /// and below the diagonal, a large negative value above. Broadcasts
    /// against `[batch, heads, seq, seq]` attention scores.
    pub fn causal_mask(seq: usize) -> Tensor {
        let mut data = vec![0.0; seq * seq];
        for i in 0..seq {
            for j in (i + 1)..seq {
                data[i * seq + j] = -1e9;
            }
        }
        Tensor::from_vec(data, [seq, seq])
    }
}

// ----------------------------------------------------------------------
// Backward kernels (called from Op::backward)
// ----------------------------------------------------------------------

/// `dx` of a softmax from its forward output `y`, the very values the
/// forward wrote, so nothing is recomputed.
pub(crate) fn softmax_backward(y: &Tensor, grad: &[f32]) -> Vec<f32> {
    let (rows, cols) = y.shape().rows_cols();
    let y = y.storage().read();
    let mut dx = vec![0.0; y.len()];
    parallel::par_chunks_mut(&mut dx, cols, rows * cols * 4, |start, chunk| {
        for (local, drow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = start / cols + local;
            let yr = &y[r * cols..(r + 1) * cols];
            let gr = &grad[r * cols..(r + 1) * cols];
            let dot: f32 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
            for c in 0..cols {
                drow[c] = yr[c] * (gr[c] - dot);
            }
        }
    });
    dx
}

/// Runs `body(block, dx_block)` over fixed `ROW_BLOCK`-row blocks, with
/// `dx_block` the block's rows of a fresh `dx` when `need_x` and `None`
/// otherwise. Returns `dx` (if needed) and the per-block partials in
/// block order, so folding them is thread-count independent.
fn norm_backward_blocks<T: Send>(
    rows: usize,
    cols: usize,
    work: usize,
    need_x: bool,
    body: impl Fn(usize, Option<&mut [f32]>) -> T + Sync,
) -> (Option<Vec<f32>>, Vec<T>) {
    if need_x {
        let mut dx = vec![0.0; rows * cols];
        let partials =
            parallel::par_blocks_mut(&mut dx, ROW_BLOCK * cols, work, |bi, c| body(bi, Some(c)));
        (Some(dx), partials)
    } else {
        let partials = parallel::par_blocks(rows.div_ceil(ROW_BLOCK), work, |bi| body(bi, None));
        (None, partials)
    }
}

/// Sums per-block `[cols]` partials in block order.
fn fold_partials(cols: usize, partials: impl Iterator<Item = Vec<f32>>) -> Vec<f32> {
    let mut sum = vec![0.0f32; cols];
    for p in partials {
        for (s, v) in sum.iter_mut().zip(&p) {
            *s += v;
        }
    }
    sum
}

/// `(dx, (dgamma, dbeta))` of a layer norm, each computed only if its
/// flag asks for it.
#[allow(clippy::type_complexity)] // two optional outputs, one of them a pair
pub(crate) fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    grad: &[f32],
    need_x: bool,
    need_affine: bool,
) -> (Option<Vec<f32>>, Option<(Vec<f32>, Vec<f32>)>) {
    let (rows, cols) = x.shape().rows_cols();
    let xd = x.storage().read();
    let g = gamma.storage().read();
    let n = cols as f32;
    // One pass per fixed row block: writes the block's dx rows and
    // returns its dgamma/dbeta partials; folding the partials in block
    // order reproduces one summation order at any pool size.
    let (dx, partials) =
        norm_backward_blocks(rows, cols, rows * cols * 10, need_x, |bi, mut dx| {
            let mut affine = need_affine.then(|| (vec![0.0f32; cols], vec![0.0f32; cols]));
            for r in bi * ROW_BLOCK..((bi + 1) * ROW_BLOCK).min(rows) {
                let row = &xd[r * cols..(r + 1) * cols];
                let gr = &grad[r * cols..(r + 1) * cols];
                let (mu, rstd) = layer_norm_stats(row, eps);
                if let Some((dgamma, dbeta)) = affine.as_mut() {
                    for c in 0..cols {
                        let xhat = (row[c] - mu) * rstd;
                        dgamma[c] += gr[c] * xhat;
                        dbeta[c] += gr[c];
                    }
                }
                let Some(dx) = dx.as_deref_mut() else {
                    continue;
                };
                let drow = &mut dx[(r - bi * ROW_BLOCK) * cols..][..cols];
                // xhat and dxhat.
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for c in 0..cols {
                    let xhat = (row[c] - mu) * rstd;
                    let dxhat = gr[c] * g[c];
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xhat;
                }
                for c in 0..cols {
                    let xhat = (row[c] - mu) * rstd;
                    let dxhat = gr[c] * g[c];
                    drow[c] = rstd / n * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
                }
            }
            affine
        });
    let affine = need_affine.then(|| {
        let (pg, pb): (Vec<_>, Vec<_>) = partials.into_iter().flatten().unzip();
        (
            fold_partials(cols, pg.into_iter()),
            fold_partials(cols, pb.into_iter()),
        )
    });
    (dx, affine)
}

/// `(dx, dgamma)` of an RMS norm, each computed only if its flag asks
/// for it.
pub(crate) fn rms_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    grad: &[f32],
    need_x: bool,
    need_gamma: bool,
) -> (Option<Vec<f32>>, Option<Vec<f32>>) {
    let (rows, cols) = x.shape().rows_cols();
    let xd = x.storage().read();
    let g = gamma.storage().read();
    let n = cols as f32;
    let (dx, partials) = norm_backward_blocks(rows, cols, rows * cols * 8, need_x, |bi, mut dx| {
        let mut dgamma = need_gamma.then(|| vec![0.0f32; cols]);
        for r in bi * ROW_BLOCK..((bi + 1) * ROW_BLOCK).min(rows) {
            let row = &xd[r * cols..(r + 1) * cols];
            let gr = &grad[r * cols..(r + 1) * cols];
            let rrms = rms_norm_rrms(row, eps);
            if let Some(dgamma) = dgamma.as_mut() {
                for c in 0..cols {
                    dgamma[c] += gr[c] * row[c] * rrms;
                }
            }
            let Some(dx) = dx.as_deref_mut() else {
                continue;
            };
            let drow = &mut dx[(r - bi * ROW_BLOCK) * cols..][..cols];
            let mut dot = 0.0f32; // sum_i dy_i * gamma_i * x_i
            for c in 0..cols {
                dot += gr[c] * g[c] * row[c];
            }
            let k = rrms * rrms * rrms / n;
            for c in 0..cols {
                drow[c] = gr[c] * g[c] * rrms - k * row[c] * dot;
            }
        }
        dgamma
    });
    let dgamma = need_gamma.then(|| fold_partials(cols, partials.into_iter().flatten()));
    (dx, dgamma)
}

pub(crate) fn embedding_backward(table: &Tensor, ids: &[usize], grad: &[f32]) -> Vec<f32> {
    // Scatter-add: distinct ids may collide on the same table row, so
    // this stays serial (it is gather/scatter memory-bound anyway).
    let dim = table.shape().dim(1);
    let mut dt = vec![0.0; table.elem_count()];
    for (n, &id) in ids.iter().enumerate() {
        let src = &grad[n * dim..(n + 1) * dim];
        let dst = &mut dt[id * dim..(id + 1) * dim];
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d += s;
        }
    }
    dt
}

pub(crate) fn cross_entropy_backward(
    logits: &Tensor,
    targets: &[usize],
    grad_scalar: f32,
) -> Vec<f32> {
    let (rows, cols) = logits.shape().rows_cols();
    let mut probs = logits.to_vec();
    softmax_rows(&mut probs, rows, cols);
    let scale = grad_scalar / rows as f32;
    parallel::par_chunks_mut(&mut probs, cols, rows * cols * 2, |start, chunk| {
        for (local, prow) in chunk.chunks_exact_mut(cols).enumerate() {
            prow[targets[start / cols + local]] -= 1.0;
            for p in prow.iter_mut() {
                *p *= scale;
            }
        }
    });
    probs
}

pub(crate) fn rope_backward(x: &Tensor, base: f32, pos_offset: usize, grad: &[f32]) -> Vec<f32> {
    let (s, d) = (x.shape().dim(2), x.shape().dim(3));
    let half = d / 2;
    let mut dx = vec![0.0; grad.len()];
    parallel::par_chunks_mut(&mut dx, d, grad.len() * 12, |start, chunk| {
        for (local, drow) in chunk.chunks_exact_mut(d).enumerate() {
            let row = start / d + local;
            let si = row % s;
            let off = row * d;
            for i in 0..half {
                let theta = rope_angle(si + pos_offset, i, half, base);
                let (sin, cos) = theta.sin_cos();
                let g0 = grad[off + 2 * i];
                let g1 = grad[off + 2 * i + 1];
                // Rotation is orthogonal: the adjoint rotates by -theta.
                drow[2 * i] = g0 * cos + g1 * sin;
                drow[2 * i + 1] = -g0 * sin + g1 * cos;
            }
        }
    });
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], [2, 3]);
        let y = x.softmax_last();
        let v = y.to_vec();
        let s1: f32 = v[..3].iter().sum();
        let s2: f32 = v[3..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-6);
        assert!((s2 - 1.0).abs() < 1e-6, "overflow not handled");
        assert!(v[2] > v[1] && v[1] > v[0]);
        assert!((v[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_normalizes() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let y = x.layer_norm(&gamma, &beta, 1e-5).to_vec();
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_affine() {
        let x = Tensor::from_vec(vec![-1.0, 1.0], [1, 2]);
        let gamma = Tensor::from_vec(vec![2.0, 2.0], [2]);
        let beta = Tensor::from_vec(vec![1.0, 1.0], [2]);
        let y = x.layer_norm(&gamma, &beta, 1e-9).to_vec();
        assert!((y[0] - (-1.0)).abs() < 1e-3, "{y:?}");
        assert!((y[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rms_norm_matches_manual() {
        let x = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let gamma = Tensor::ones([2]);
        let y = x.rms_norm(&gamma, 0.0).to_vec();
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((y[0] - 3.0 / rms).abs() < 1e-6);
        assert!((y[1] - 4.0 / rms).abs() < 1e-6);
    }

    #[test]
    fn embedding_lookup_and_shape() {
        let table = Tensor::from_vec(vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1], [3, 2]);
        let out = Tensor::embedding(&table, &[2, 0, 1, 1], &[2, 2]);
        assert_eq!(out.dims(), &[2, 2, 2]);
        assert_eq!(out.to_vec(), vec![2.0, 2.1, 0.0, 0.1, 1.0, 1.1, 1.0, 1.1]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_validates_ids() {
        let table = Tensor::zeros([3, 2]);
        Tensor::embedding(&table, &[3], &[1]);
    }

    #[test]
    fn embedding_backward_scatters() {
        let table = Tensor::zeros([3, 2]);
        let grad = vec![1.0, 2.0, 3.0, 4.0];
        // ids [1, 1]: both rows accumulate into table row 1.
        let dt = embedding_backward(&table, &[1, 1], &grad);
        assert_eq!(dt, vec![0.0, 0.0, 4.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros([2, 4]);
        let loss = logits.cross_entropy(&[0, 3]).to_scalar();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0, 10.0], [2, 2]);
        let loss = logits.cross_entropy(&[0, 1]).to_scalar();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_backward_rowsum_zero() {
        // softmax - onehot rows each sum to zero.
        let logits = Tensor::from_vec(vec![0.3, -0.4, 1.0, 0.0, 0.0, 0.0], [2, 3]);
        let g = cross_entropy_backward(&logits, &[2, 0], 1.0);
        let s1: f32 = g[..3].iter().sum();
        let s2: f32 = g[3..].iter().sum();
        assert!(s1.abs() < 1e-6 && s2.abs() < 1e-6);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 1, 4]);
        let y = x.rope(10_000.0, 0);
        assert!(x.max_abs_diff(&y) < 1e-6);
    }

    #[test]
    fn rope_preserves_norm() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [1, 1, 2, 4]);
        let y = x.rope(10_000.0, 3);
        let nx: f32 = x.to_vec().iter().map(|v| v * v).sum();
        let ny: f32 = y.to_vec().iter().map(|v| v * v).sum();
        assert!((nx - ny).abs() < 1e-4);
    }

    #[test]
    fn rope_relative_property() {
        // The same content at shifted offsets differs (absolute
        // encoding) but preserves pairwise dot products within a head
        // at equal relative distance.
        let x = Tensor::from_vec(vec![1.0, 0.5, -0.3, 0.8, 0.2, -1.0, 0.6, 0.1], [1, 1, 2, 4]);
        let y0 = x.rope(10_000.0, 0).to_vec();
        let y5 = x.rope(10_000.0, 5).to_vec();
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(p, q)| p * q).sum() };
        let d0 = dot(&y0[..4], &y0[4..]);
        let d5 = dot(&y5[..4], &y5[4..]);
        assert!((d0 - d5).abs() < 1e-4, "{d0} vs {d5}");
    }

    #[test]
    fn causal_mask_shape_and_values() {
        let m = Tensor::causal_mask(3);
        assert_eq!(m.dims(), &[3, 3]);
        let v = m.to_vec();
        assert_eq!(v[0], 0.0); // (0,0)
        assert_eq!(v[1], -1e9); // (0,1) future
        assert_eq!(v[3], 0.0); // (1,0) past
        assert_eq!(v[4], 0.0); // (1,1)
        assert_eq!(v[5], -1e9); // (1,2) future
    }
}
