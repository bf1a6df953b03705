//! Matrix multiplication: 2-D and batched, with a 2-D right-hand-side
//! fast path for linear layers.
//!
//! The kernels are cache-blocked (tiled over `k` and `n`) and register-
//! blocked (`MR x NR` accumulator tiles that vectorize to FMA where the
//! target supports it). Each output element runs one accumulation chain
//! in `k`-ascending order, the same whether it lands in a register tile
//! or on an edge: a pinned summation order that the tile sizes never
//! change.

use crate::op::Op;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Tile width over the reduction (`k`) dimension: keeps a `KB x NB`
/// panel of `B` resident in cache across all rows of the block.
const KB: usize = 256;
/// Tile width over the output column (`n`) dimension: one `NB`-wide
/// strip of an output row (1 KiB) plus the matching `B` columns.
const NB: usize = 256;
/// Register-tile height: output rows held live per microkernel call.
const MR: usize = 4;
/// Register-tile width: output columns held live per microkernel call
/// (four 8-lane AVX2 vectors, or eight SSE vectors).
const NR: usize = 32;

/// Fused multiply-add when the target has a hardware `fma` instruction,
/// separate multiply + add otherwise (where `mul_add` would be a slow
/// libm call). Chosen at compile time, so results are reproducible on a
/// given build even though the two forms round differently.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `MR x NR` register tile at output position `(i, j)`: all `MR * NR`
/// accumulators stay live (in vector registers) across the `k0..k1`
/// block, each receiving its contributions in ascending `k` order, and
/// the block partial is added into `out` afterwards.
#[allow(clippy::too_many_arguments)] // flat coordinates keep the hot path free of struct plumbing
#[inline(always)]
fn microkernel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    k0: usize,
    k1: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in k0..k1 {
        let bw: &[f32; NR] = b[kk * n + j..kk * n + j + NR]
            .try_into()
            .expect("NR-wide B slice");
        for r in 0..MR {
            let ar = a[(i + r) * k + kk];
            for (ac, &bv) in acc[r].iter_mut().zip(bw) {
                *ac = fmadd(ar, bv, *ac);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * n + j..(i + r) * n + j + NR];
        for (o, &v) in orow.iter_mut().zip(accr) {
            *o += v;
        }
    }
}

/// Scalar edge path for rows/columns that do not fill a register tile.
/// Per element it runs the identical fmadd chain (`k` ascending within
/// the block, block partial added into `out`) as [`microkernel`], so
/// whether a row lands in a tile or on an edge never changes results.
#[allow(clippy::too_many_arguments)] // same coordinate set as `microkernel`
#[inline(always)]
fn edge_cols(
    a_row: &[f32],
    b: &[f32],
    out_row: &mut [f32],
    n: usize,
    j0: usize,
    j1: usize,
    k0: usize,
    k1: usize,
) {
    for jj in j0..j1 {
        let mut acc = 0.0f32;
        for kk in k0..k1 {
            acc = fmadd(a_row[kk], b[kk * n + jj], acc);
        }
        out_row[jj] += acc;
    }
}

/// `C[m,n] += A[m,k] @ B[k,n]` into `out` (row-major, pre-zeroed by the
/// caller). Serial building block: cache-blocked over `n` and `k`
/// around an `MR x NR` register-tiled microkernel, with scalar edges.
///
/// For any fixed output element the `k` contributions accumulate in
/// ascending order regardless of tiling, so tile sizes never change the
/// result.
pub(crate) fn matmul_2d_accum(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for j0 in (0..n).step_by(NB) {
        let j1 = (j0 + NB).min(n);
        for k0 in (0..k).step_by(KB) {
            let k1 = (k0 + KB).min(k);
            let mut i = 0;
            while i + MR <= m {
                let mut j = j0;
                while j + NR <= j1 {
                    microkernel(a, b, out, k, n, i, j, k0, k1);
                    j += NR;
                }
                for r in 0..MR {
                    let a_row = &a[(i + r) * k..(i + r + 1) * k];
                    let out_row = &mut out[(i + r) * n..(i + r + 1) * n];
                    edge_cols(a_row, b, out_row, n, j, j1, k0, k1);
                }
                i += MR;
            }
            while i < m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                edge_cols(a_row, b, out_row, n, j0, j1, k0, k1);
                i += 1;
            }
        }
    }
}

/// `C[k,n] += A[m,k]^T @ B[m,n]`. The `i` (sample) loop stays
/// outermost and ascending within each `NB`-wide column strip, so every
/// output element accumulates its `m` contributions in sample order.
pub(crate) fn matmul_at_b_accum(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), k * n);
    for j0 in (0..n).step_by(NB) {
        let j1 = (j0 + NB).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let b_row = &b[i * n + j0..i * n + j1];
            for (kk, &aik) in a_row.iter().enumerate() {
                let out_row = &mut out[kk * n + j0..kk * n + j1];
                for (o, &bin) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bin;
                }
            }
        }
    }
}

/// Output columns per `A·Bᵀ` register tile: one vector of lanes per
/// tile row and partial sum.
const L: usize = 16;

/// The dot product of `dA = dC·Bᵀ`, as one output element's chain:
/// four non-fused partial sums over `c ≡ q (mod 4)` ascending, combined
/// as `(s0 + s1) + (s2 + s3)`, then the `n % 4` tail in order. Every
/// `A·Bᵀ` path reproduces this chain exactly; this form is the edge
/// path and the oracle.
#[inline(always)]
fn dot4(a_row: &[f32], b_row: &[f32]) -> f32 {
    let mut c = a_row.chunks_exact(4).zip(b_row.chunks_exact(4));
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
    for (xa, xb) in &mut c {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    let tail = a_row.len() - a_row.len() % 4;
    for (x, y) in a_row[tail..].iter().zip(&b_row[tail..]) {
        acc += x * y;
    }
    acc
}

/// `B[k,n]` repacked for [`a_bt_rows`]: for each full `L`-wide band of
/// `k`, an `[n][L]` panel whose row `c` holds `B[band, c]`, so a tile
/// reads its `L` output columns as one contiguous vector per `c`. The
/// last `k % L` rows of `B` are not packed; the edge path reads `B`.
fn pack_bt(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0; k / L * L * n];
    for (band, panel) in packed.chunks_exact_mut(n.max(1) * L).enumerate() {
        for l in 0..L {
            let b_row = &b[(band * L + l) * n..(band * L + l + 1) * n];
            for (c, &v) in b_row.iter().enumerate() {
                panel[c * L + l] = v;
            }
        }
    }
    packed
}

/// One partial sum of an `MR x L` tile: `acc[r][l] += a[r][c] * bt[c][l]`
/// over `c = q, q + 4, ..` below `n4`, each element's chain ascending.
#[inline(always)]
fn bt_partial(a_rows: &[f32], panel: &[f32], n: usize, n4: usize, q: usize) -> [[f32; L]; MR] {
    let mut acc = [[0.0f32; L]; MR];
    for c in (q..n4).step_by(4) {
        let bv: &[f32; L] = panel[c * L..(c + 1) * L]
            .try_into()
            .expect("L-wide panel row");
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = a_rows[r * n + c];
            for (ac, &bl) in accr.iter_mut().zip(bv) {
                *ac += ar * bl;
            }
        }
    }
    acc
}

/// `C[rows,k] += A[rows,n] @ B[k,n]^T` where `a_rows`/`out_rows` cover
/// the same band of rows and `bt` is `pack_bt(b)`. Full `MR x L` tiles
/// vectorise across output columns: each of the four partial sums of
/// [`dot4`] is its own register tile, then the tile combines and adds
/// the tail exactly as `dot4` does. Leftover rows and columns take
/// `dot4` itself, so tile membership never changes a result.
fn a_bt_rows(a_rows: &[f32], b: &[f32], bt: &[f32], out_rows: &mut [f32], n: usize, k: usize) {
    let rows = out_rows.len() / k.max(1);
    let tiled_rows = rows - rows % MR;
    let n4 = n - n % 4;
    for (band, panel) in bt.chunks_exact(n.max(1) * L).enumerate() {
        for i in (0..tiled_rows).step_by(MR) {
            let a_tile = &a_rows[i * n..(i + MR) * n];
            let s = [0, 1, 2, 3].map(|q| bt_partial(a_tile, panel, n, n4, q));
            for r in 0..MR {
                let a_row = &a_tile[r * n..(r + 1) * n];
                let out = &mut out_rows[(i + r) * k + band * L..(i + r) * k + (band + 1) * L];
                for (l, o) in out.iter_mut().enumerate() {
                    let mut acc = (s[0][r][l] + s[1][r][l]) + (s[2][r][l] + s[3][r][l]);
                    for c in n4..n {
                        acc += a_row[c] * panel[c * L + l];
                    }
                    *o += acc;
                }
            }
        }
    }
    let packed_cols = bt.len().checked_div(n).unwrap_or(0);
    for i in 0..rows {
        let a_row = &a_rows[i * n..(i + 1) * n];
        let first = if i < tiled_rows { packed_cols } else { 0 };
        for kk in first..k {
            out_rows[i * k + kk] += dot4(a_row, &b[kk * n..(kk + 1) * n]);
        }
    }
}

/// `C[m,k] += A[m,n] @ B[k,n]^T` over the full output (serial).
#[cfg(test)]
pub(crate) fn matmul_a_bt_accum(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(out.len(), m * k);
    debug_assert_eq!(a.len(), m * n);
    a_bt_rows(a, b, &pack_bt(b, k, n), out, n, k);
}

/// Describes how a matmul's operands line up.
pub(crate) struct MatmulDims {
    /// Number of batch matrices on the left (product of leading dims).
    pub batch: usize,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Whether the right operand is a single 2-D matrix shared across
    /// the batch (the linear-layer case).
    pub rhs_2d: bool,
}

pub(crate) fn matmul_dims(a: &Shape, b: &Shape) -> MatmulDims {
    assert!(a.rank() >= 2, "matmul lhs must be at least 2-D, got {a}");
    assert!(b.rank() >= 2, "matmul rhs must be at least 2-D, got {b}");
    let m = a.dim(a.rank() - 2);
    let k = a.dim(a.rank() - 1);
    let kb = b.dim(b.rank() - 2);
    let n = b.dim(b.rank() - 1);
    assert_eq!(
        k, kb,
        "matmul inner dimensions disagree: {a} @ {b} (k={k} vs {kb})"
    );
    let batch_a: usize = a.dims()[..a.rank() - 2].iter().product();
    if b.rank() == 2 {
        return MatmulDims {
            batch: batch_a,
            m,
            k,
            n,
            rhs_2d: true,
        };
    }
    let batch_b: usize = b.dims()[..b.rank() - 2].iter().product();
    assert_eq!(
        a.dims()[..a.rank() - 2],
        b.dims()[..b.rank() - 2],
        "matmul batch dimensions disagree: {a} @ {b}"
    );
    debug_assert_eq!(batch_a, batch_b);
    MatmulDims {
        batch: batch_a,
        m,
        k,
        n,
        rhs_2d: false,
    }
}

pub(crate) fn matmul_forward(a: &Tensor, b: &Tensor) -> (Vec<f32>, Shape) {
    let d = matmul_dims(a.shape(), b.shape());
    let da = a.storage().read();
    let db = b.storage().read();
    let mut out = vec![0.0; d.batch * d.m * d.n];
    if d.rhs_2d {
        // A shared 2-D rhs makes the whole batch one flat
        // [batch*m, k] @ [k, n] product.
        matmul_2d_accum(&da, &db, &mut out, d.batch * d.m, d.k, d.n);
    } else {
        let (a_len, b_len, o_len) = (d.m * d.k, d.k * d.n, d.m * d.n);
        for bi in 0..d.batch {
            matmul_2d_accum(
                &da[bi * a_len..(bi + 1) * a_len],
                &db[bi * b_len..(bi + 1) * b_len],
                &mut out[bi * o_len..(bi + 1) * o_len],
                d.m,
                d.k,
                d.n,
            );
        }
    }
    let mut dims = a.dims()[..a.rank() - 2].to_vec();
    dims.push(d.m);
    dims.push(d.n);
    (out, Shape::new(dims))
}

impl Tensor {
    /// Matrix multiplication.
    ///
    /// Supported operand layouts:
    ///
    /// * `[.., m, k] @ [.., k, n]` with identical leading (batch) dims;
    /// * `[.., m, k] @ [k, n]` — a shared 2-D right operand, the linear
    ///   layer case.
    ///
    /// # Panics
    ///
    /// Panics if inner or batch dimensions disagree or an operand has
    /// rank < 2.
    ///
    /// # Examples
    ///
    /// ```
    /// use menos_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
    /// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
    /// assert_eq!(a.matmul(&id).to_vec(), a.to_vec());
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (data, shape) = matmul_forward(self, rhs);
        Tensor::from_op(data, shape, Op::Matmul(self.clone(), rhs.clone()))
    }
}

/// Backward kernels returning `(grad_a, grad_b)` as flat data, each
/// computed only if its flag asks for it: a frozen operand (the shared
/// base weights) costs no gradient work.
pub(crate) fn matmul_backward(
    a: &Tensor,
    b: &Tensor,
    grad_out: &[f32],
    need_a: bool,
    need_b: bool,
) -> (Option<Vec<f32>>, Option<Vec<f32>>) {
    let d = matmul_dims(a.shape(), b.shape());
    let ga = need_a.then(|| {
        let db = b.storage().read();
        // Each matrix of B packed on its own, so batch offsets into the
        // packed copy match those into B.
        let bt: Vec<f32> = db
            .chunks((d.k * d.n).max(1))
            .flat_map(|bm| pack_bt(bm, d.k, d.n))
            .collect();
        let bt_len = d.k / L * L * d.n;
        let mut ga = vec![0.0; d.batch * d.m * d.k];
        // dA = dC @ B^T : [m,n] @ [k,n]^T -> [m,k], one batch at a time.
        for bi in 0..d.batch {
            let bm = if d.rhs_2d { 0 } else { bi };
            a_bt_rows(
                &grad_out[bi * d.m * d.n..(bi + 1) * d.m * d.n],
                &db[bm * d.k * d.n..(bm + 1) * d.k * d.n],
                &bt[bm * bt_len..(bm + 1) * bt_len],
                &mut ga[bi * d.m * d.k..(bi + 1) * d.m * d.k],
                d.n,
                d.k,
            );
        }
        ga
    });
    let gb = need_b.then(|| {
        let da = a.storage().read();
        let mut gb = vec![0.0; b.elem_count()];
        // dB = A^T @ dC : [m,k]^T @ [m,n] -> [k,n].
        if d.rhs_2d {
            // The shared rhs accumulates over the whole batch: one
            // [batch*m, k]^T @ [batch*m, n] product keeps the `i` loop
            // ascending across the batch.
            matmul_at_b_accum(&da, grad_out, &mut gb, d.batch * d.m, d.k, d.n);
        } else {
            let (a_len, o_len, g_len) = (d.m * d.k, d.m * d.n, d.k * d.n);
            for bi in 0..d.batch {
                matmul_at_b_accum(
                    &da[bi * a_len..(bi + 1) * a_len],
                    &grad_out[bi * o_len..(bi + 1) * o_len],
                    &mut gb[bi * g_len..(bi + 1) * g_len],
                    d.m,
                    d.k,
                    d.n,
                );
            }
        }
        gb
    });
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{bits, fill};
    use proptest::prelude::*;

    /// [`matmul_a_bt_accum`] with [`dot4`] for every element: the oracle of
    /// the register tiles.
    fn matmul_a_bt_dot(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize) {
        for (i, out_row) in out.chunks_exact_mut(k.max(1)).enumerate() {
            for (kk, o) in out_row.iter_mut().enumerate() {
                *o += dot4(&a[i * n..(i + 1) * n], &b[kk * n..(kk + 1) * n]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The register-tiled `dA = dC·Bᵀ` equals the dot-product oracle
        /// bit for bit, accumulating into a non-zero `out`: rows below
        /// and across `MR`, `k` below and across the lane width `L`, and
        /// every `n % 4`.
        #[test]
        fn a_bt_tiles_match_the_dot_oracle(
            rows in 0usize..11,
            n in 0usize..38,
            k in 0usize..41,
            seed in any::<u64>(),
        ) {
            let a = fill(seed, rows * n);
            let b = fill(seed ^ 0x1234, k * n);
            let init = fill(seed ^ 0x9876, rows * k);
            let (mut got, mut want) = (init.clone(), init);
            matmul_a_bt_accum(&a, &b, &mut got, rows, n, k);
            matmul_a_bt_dot(&a, &b, &mut want, n, k);
            prop_assert_eq!(bits(&got), bits(&want), "rows {} n {} k {}", rows, n, k);
        }
    }

    #[test]
    fn matmul_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched() {
        // Two independent 2x2 matmuls.
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], [2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn matmul_batched_with_2d_rhs() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 1, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        let y = x.matmul(&w);
        assert_eq!(y.dims(), &[2, 1, 2]);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "batch dimensions disagree")]
    fn mismatched_batch_dims_panic() {
        let a = Tensor::zeros([2, 2, 2]);
        let b = Tensor::zeros([3, 2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "at least 2-D")]
    fn rank1_lhs_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn backward_shapes_and_values_2d() {
        let a = Tensor::var_from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::var_from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let grad_out = vec![1.0, 1.0, 1.0, 1.0];
        let (ga, gb) = matmul_backward(&a, &b, &grad_out, true, true);
        let (ga, gb) = (ga.unwrap(), gb.unwrap());
        // dA = dC @ B^T with dC = ones: row sums of B columns.
        assert_eq!(ga, vec![11.0, 15.0, 11.0, 15.0]);
        // dB = A^T @ dC: column sums of A rows.
        assert_eq!(gb, vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn backward_accumulates_over_batch_for_2d_rhs() {
        let a = Tensor::var_from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 1, 2]);
        let w = Tensor::var_from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        let grad_out = vec![1.0, 1.0, 1.0, 1.0];
        let (ga, gw) = matmul_backward(&a, &w, &grad_out, false, true);
        assert!(ga.is_none(), "dA computed though not asked for");
        let gw = gw.unwrap();
        // Both batch elements contribute to the shared weight grad.
        assert_eq!(gw, vec![4.0, 4.0, 6.0, 6.0]);
    }

    /// Textbook triple loop used as the oracle for the tiled kernels.
    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    #[test]
    fn tiled_kernel_matches_naive_on_odd_sizes() {
        // Sizes straddling the KB/NB tile boundaries, including
        // remainders in every dimension.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (130, 129, 257), (17, 200, 300)] {
            let a = ramp(m * k, 0.05);
            let b = ramp(k * n, 0.03);
            let mut out = vec![0.0f32; m * n];
            matmul_2d_accum(&a, &b, &mut out, m, k, n);
            let want = naive_matmul(&a, &b, m, k, n);
            for (got, want) in out.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn backward_kernels_match_naive_on_odd_sizes() {
        let (m, k, n) = (13, 37, 41);
        let a = ramp(m * k, 0.05);
        let g = ramp(m * n, 0.03);
        // dB = A^T @ dC against a naive transpose-then-multiply.
        let mut gb = vec![0.0f32; k * n];
        matmul_at_b_accum(&a, &g, &mut gb, m, k, n);
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let want = naive_matmul(&at, &g, k, m, n);
        for (got, want) in gb.iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
        // dA = dC @ B^T against naive multiply by an explicit B^T.
        let b = ramp(k * n, 0.07);
        let mut ga = vec![0.0f32; m * k];
        matmul_a_bt_accum(&g, &b, &mut ga, m, n, k);
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let want = naive_matmul(&g, &bt, m, n, k);
        for (got, want) in ga.iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn zero_times_infinity_propagates_nan() {
        // The old kernels skipped a == 0.0 as a sparsity shortcut,
        // which silently dropped inf/NaN from the rhs. IEEE says
        // 0 * inf = NaN and that must reach the output.
        let a = Tensor::from_vec(vec![0.0, 0.0], [1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0, 2.0, 3.0], [2, 2]);
        let c = a.matmul(&b).to_vec();
        assert!(c[0].is_nan(), "0 * inf must produce NaN, got {}", c[0]);

        let mut out = vec![0.0f32; 2 * 2];
        matmul_at_b_accum(&[0.0, 0.0], &[f32::INFINITY, 1.0], &mut out, 1, 2, 2);
        assert!(out[0].is_nan(), "A^T B dropped 0 * inf: {out:?}");
    }
}
