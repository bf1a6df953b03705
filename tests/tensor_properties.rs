//! Property-based tests on the tensor engine and data pipeline: the
//! algebraic identities the transformer math relies on.

use proptest::prelude::*;

use menos::data::Vocab;
use menos::net::{decode_tensor, encode_tensor};
use menos::tensor::{put_f32s, ByteReadError, ByteReader, Tensor};

fn small_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..max_len)
}

proptest! {
    #[test]
    fn add_commutes_and_mul_distributes(a in small_vec(32)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 - 1.0).collect();
        let ta = Tensor::from_vec(a, [n]);
        let tb = Tensor::from_vec(b, [n]);
        prop_assert!(ta.add(&tb).max_abs_diff(&tb.add(&ta)) < 1e-6);
        // (a + b) * 2 == 2a + 2b
        let lhs = ta.add(&tb).mul_scalar(2.0);
        let rhs = ta.mul_scalar(2.0).add(&tb.mul_scalar(2.0));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn matmul_identity_and_associativity(data in prop::collection::vec(-2.0f32..2.0, 16)) {
        let a = Tensor::from_vec(data.clone(), [4, 4]);
        let mut eye = vec![0.0f32; 16];
        for i in 0..4 { eye[i * 4 + i] = 1.0; }
        let id = Tensor::from_vec(eye, [4, 4]);
        prop_assert!(a.matmul(&id).max_abs_diff(&a) < 1e-6);
        prop_assert!(id.matmul(&a).max_abs_diff(&a) < 1e-6);
        // (A·B)·C == A·(B·C) within fp tolerance.
        let b = Tensor::from_vec(data.iter().map(|x| x * 0.3).collect::<Vec<_>>(), [4, 4]);
        let c = Tensor::from_vec(data.iter().map(|x| 1.0 - x).collect::<Vec<_>>(), [4, 4]);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transpose_is_involutive(data in prop::collection::vec(-5.0f32..5.0, 12)) {
        let t = Tensor::from_vec(data, [3, 4]);
        prop_assert!(t.t().t().max_abs_diff(&t) < 1e-7);
    }

    #[test]
    fn softmax_rows_are_distributions(data in prop::collection::vec(-30.0f32..30.0, 24)) {
        let t = Tensor::from_vec(data, [4, 6]);
        let s = t.softmax_last();
        let v = s.to_vec();
        for r in 0..4 {
            let row = &v[r * 6..(r + 1) * 6];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(data in prop::collection::vec(-5.0f32..5.0, 8), shift in -50.0f32..50.0) {
        let a = Tensor::from_vec(data.clone(), [2, 4]);
        let b = Tensor::from_vec(data.iter().map(|x| x + shift).collect::<Vec<_>>(), [2, 4]);
        prop_assert!(a.softmax_last().max_abs_diff(&b.softmax_last()) < 1e-4);
    }

    #[test]
    fn rope_preserves_pair_norms(data in prop::collection::vec(-3.0f32..3.0, 16), offset in 0usize..64) {
        let x = Tensor::from_vec(data, [1, 1, 2, 8]);
        let y = x.rope(10_000.0, offset);
        let xv = x.to_vec();
        let yv = y.to_vec();
        for p in 0..8 {
            let nx = xv[2 * p].powi(2) + xv[2 * p + 1].powi(2);
            let ny = yv[2 * p].powi(2) + yv[2 * p + 1].powi(2);
            prop_assert!((nx - ny).abs() < 1e-3, "pair {p}: {nx} vs {ny}");
        }
    }

    #[test]
    fn reshape_concat_chunk_round_trip(data in prop::collection::vec(-5.0f32..5.0, 24)) {
        let t = Tensor::from_vec(data, [4, 6]);
        let halves = t.chunk(2, 1);
        let back = Tensor::concat(&halves, 1);
        prop_assert!(back.max_abs_diff(&t) < 1e-7);
        let r = t.reshape([6, 4]).reshape([4, 6]);
        prop_assert!(r.max_abs_diff(&t) < 1e-7);
    }

    #[test]
    fn gradient_of_sum_is_ones(data in prop::collection::vec(-5.0f32..5.0, 10)) {
        let n = data.len();
        let x = Tensor::var_from_vec(data, [n]);
        let grads = x.sum_all().backward();
        let g = grads.get(&x).unwrap().to_vec();
        prop_assert!(g.iter().all(|&v| (v - 1.0).abs() < 1e-7));
    }

    #[test]
    fn linearity_of_gradients(data in prop::collection::vec(-3.0f32..3.0, 8), k in -4.0f32..4.0) {
        // d/dx sum(k * x) = k everywhere.
        let n = data.len();
        let x = Tensor::var_from_vec(data, [n]);
        let grads = x.mul_scalar(k).sum_all().backward();
        let g = grads.get(&x).unwrap().to_vec();
        prop_assert!(g.iter().all(|&v| (v - k).abs() < 1e-5));
    }

    #[test]
    fn wire_codec_round_trips(data in prop::collection::vec(-1e6f32..1e6, 1..64), split in 1usize..8) {
        let n = data.len();
        // Arbitrary rank-2 factorization when divisible, else rank-1.
        let t = if n % split == 0 && n / split > 0 {
            Tensor::from_vec(data, [split, n / split])
        } else {
            Tensor::from_vec(data, [n])
        };
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        prop_assert_eq!(back.dims(), t.dims());
        prop_assert_eq!(back.to_vec(), t.to_vec());
    }

    /// `ByteReader` against a model that only counts: arbitrary bytes,
    /// arbitrary reads. A read succeeds exactly when its bytes are
    /// there, returns exactly those bytes, and a refused read — `f32s`
    /// above all, whenever `4·n` exceeds what is left — consumes
    /// nothing; `finish` reports what was never read.
    #[test]
    fn byte_reader_never_overruns(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        ops in prop::collection::vec((0u8..6, any::<u64>()), 0..24),
    ) {
        let mut r = ByteReader::new(&bytes);
        let mut pos = 0usize;
        for (op, arg) in ops {
            // Half the counts are small enough to fit, half are anything.
            let n = if arg & 1 == 0 { (arg >> 1) % 32 } else { arg };
            let width = [Some(n), Some(1), Some(4), Some(8), Some(4), n.checked_mul(4)][op as usize];
            let fits = width.is_some_and(|w| w <= (bytes.len() - pos) as u64);
            let read: Result<Vec<u8>, ByteReadError> = match op {
                0 => r.take(usize::try_from(n).unwrap_or(usize::MAX)).map(<[u8]>::to_vec),
                1 => r.u8().map(|v| vec![v]),
                2 => r.u32().map(|v| v.to_le_bytes().to_vec()),
                3 => r.u64().map(|v| v.to_le_bytes().to_vec()),
                4 => r.f32().map(|v| v.to_bits().to_le_bytes().to_vec()),
                _ => r.f32s(n).map(|v| v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()),
            };
            if fits {
                let w = width.unwrap() as usize;
                prop_assert_eq!(read, Ok(bytes[pos..pos + w].to_vec()), "op {} n {}", op, n);
                pos += w;
            } else {
                prop_assert_eq!(read, Err(ByteReadError::Short), "op {} n {}", op, n);
            }
            prop_assert_eq!(r.remaining(), bytes.len() - pos);
        }
        let expected = match bytes.len() - pos {
            0 => Ok(()),
            left => Err(ByteReadError::Trailing(left)),
        };
        prop_assert_eq!(r.finish(), expected);
    }

    /// `put_f32s` writes what an element-at-a-time encoder writes and
    /// `f32s` reads it back bit for bit — NaN payloads, signalling NaNs,
    /// negative zero and subnormals included.
    #[test]
    fn put_f32s_round_trips_every_bit_pattern(random in prop::collection::vec(any::<u32>(), 0..64)) {
        let mut bits = vec![0x7fc0_1234, 0xffa5_5a5a, 0x7f80_0001, 0x8000_0000, 0x0000_0001];
        bits.extend(random);
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut out = vec![0xAA];
        put_f32s(&mut out, &data);
        let naive: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        prop_assert_eq!(out[0], 0xAA);
        prop_assert_eq!(&out[1..], &naive[..]);
        let mut r = ByteReader::new(&out[1..]);
        let back = r.f32s(bits.len() as u64).unwrap();
        prop_assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
        prop_assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn vocab_round_trips_any_text(words in prop::collection::vec("[a-z ]{1,12}", 1..12)) {
        let text = words.join(" ");
        let vocab = Vocab::from_text(&text);
        prop_assert_eq!(vocab.decode(&vocab.encode(&text)), text);
    }

    #[test]
    fn shared_storage_views_stay_coherent(data in prop::collection::vec(-5.0f32..5.0, 8), idx in 0usize..8, val in -10.0f32..10.0) {
        let n = data.len();
        let a = Tensor::from_vec(data, [n]);
        let view = Tensor::from_shared_storage(a.storage().clone(), [n], true);
        view.storage().write()[idx % n] = val;
        prop_assert_eq!(a.to_vec(), view.to_vec());
    }
}

// ----------------------------------------------------------------------
// Thread-count invariance of the parallel compute backend
// ----------------------------------------------------------------------

/// Deterministic data fill (SplitMix64) so each proptest case only has
/// to draw one seed instead of hundreds of kilobytes of floats.
fn fill(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property of the parallel backend: every kernel —
    /// forward and backward, the broadcast and permute fast paths and
    /// the frozen-weight `dA` included — is **bitwise** identical at 1,
    /// 2, and 4 worker threads. Sizes are chosen above the parallelism
    /// threshold so the multi-threaded paths actually execute.
    #[test]
    fn kernels_bitwise_invariant_across_thread_counts(seed in any::<u64>()) {
        use menos::tensor::set_threads;
        // [batch, m, k] @ [k, n] with 2*b*m*k*n ≈ 7.9M scalar ops —
        // far above the backend's fan-out threshold.
        let (b, m, k, n) = (4usize, 48usize, 64usize, 160usize);
        let rows = b * m;
        let xs = fill(seed, b * m * k, 1.0);
        let ws = fill(seed ^ 0xabcd, k * n, 0.5);
        let targets: Vec<usize> =
            (0..rows).map(|r| (seed as usize).wrapping_mul(31).wrapping_add(r * 7) % n).collect();

        let restore = menos::tensor::threads();
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for &t in &[1usize, 2, 4] {
            set_threads(t);
            let x = Tensor::var_from_vec(xs.clone(), [b, m, k]);
            let w = Tensor::var_from_vec(ws.clone(), [k, n]);
            let y = x.matmul(&w);
            let gamma = Tensor::var_from_vec(fill(seed ^ 0x77, n, 1.0), [n]);
            let beta = Tensor::var_from_vec(fill(seed ^ 0x99, n, 0.1), [n]);
            let sm = y.softmax_last();
            let ln = y.layer_norm(&gamma, &beta, 1e-5);
            let rn = y.rms_norm(&gamma, 1e-5);
            let act = y.gelu();
            let loss = y.cross_entropy(&targets);
            let grads = loss.backward();
            // The served block's paths: a frozen weight (dA only, through
            // the register-tiled A·Bᵀ), a bias broadcast and its row-sum
            // gradient, a permute, and a causal mask over scores large
            // enough for the broadcast kernel to fan out.
            let w_frozen = Tensor::from_vec(ws.clone(), [k, n]);
            let bias = Tensor::var_from_vec(fill(seed ^ 0x33, n, 0.1), [n]);
            let biased = x.matmul(&w_frozen).add(&bias);
            let permuted = biased.permute(&[0, 2, 1]);
            let linear_grads = (&permuted * &permuted).sum_all().backward();
            let (sb, sh, ss) = (4usize, 8usize, 96usize);
            let scores = Tensor::var_from_vec(fill(seed ^ 0x5c, sb * sh * ss * ss, 2.0), [sb, sh, ss, ss]);
            let probs = scores.add(&Tensor::causal_mask(ss)).softmax_last();
            let score_grads = (&probs * &probs).sum_all().backward();
            prop_assert!(linear_grads.get(&w_frozen).is_none(), "a frozen weight got a gradient");
            let outs = vec![
                bits(&y.to_vec()),
                bits(&sm.to_vec()),
                bits(&ln.to_vec()),
                bits(&rn.to_vec()),
                bits(&act.to_vec()),
                bits(&loss.to_vec()),
                bits(&grads.get(&x).unwrap().to_vec()),
                bits(&grads.get(&w).unwrap().to_vec()),
                bits(&ln.sum_all().backward().get(&gamma).unwrap().to_vec()),
                bits(&biased.to_vec()),
                bits(&permuted.to_vec()),
                bits(&linear_grads.get(&x).unwrap().to_vec()),
                bits(&linear_grads.get(&bias).unwrap().to_vec()),
                bits(&probs.to_vec()),
                bits(&score_grads.get(&scores).unwrap().to_vec()),
            ];
            match &reference {
                None => reference = Some(outs),
                Some(r) => {
                    for (i, (got, want)) in outs.iter().zip(r.iter()).enumerate() {
                        prop_assert_eq!(got, want, "kernel output {} differs at {} threads", i, t);
                    }
                }
            }
        }
        set_threads(restore);
    }

    /// Rope and the batched-rhs matmul backward, same invariance.
    #[test]
    fn batched_and_rope_invariant_across_thread_counts(seed in any::<u64>()) {
        use menos::tensor::set_threads;
        let (b, h, s, d) = (4usize, 4usize, 64usize, 64usize);
        let xs = fill(seed, b * h * s * d, 1.0);
        let ks = fill(seed ^ 0x1234, b * h * d * s, 0.5);

        let restore = menos::tensor::threads();
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for &t in &[1usize, 2, 4] {
            set_threads(t);
            let q = Tensor::var_from_vec(xs.clone(), [b, h, s, d]);
            let kt = Tensor::var_from_vec(ks.clone(), [b, h, d, s]);
            let rot = q.rope(10_000.0, 3);
            let scores = rot.matmul(&kt); // batched rhs path
            let grads = scores.sum_all().backward();
            let outs = vec![
                bits(&rot.to_vec()),
                bits(&scores.to_vec()),
                bits(&grads.get(&q).unwrap().to_vec()),
                bits(&grads.get(&kt).unwrap().to_vec()),
            ];
            match &reference {
                None => reference = Some(outs),
                Some(r) => {
                    for (i, (got, want)) in outs.iter().zip(r.iter()).enumerate() {
                        prop_assert_eq!(got, want, "kernel output {} differs at {} threads", i, t);
                    }
                }
            }
        }
        set_threads(restore);
    }
}
