//! Low-precision wire conversions: f32 ↔ IEEE-754 binary16 ("f16") and
//! bfloat16 ("bf16"), plus magnitude top-k selection for sparsified
//! tensor compression.
//!
//! These are *wire* kernels: training state everywhere in the system
//! stays f32 (master weights are never quantized); the conversions
//! exist so `menos-net` can ship tensor bodies at 2 bytes per element
//! or as a sparse top-k set (see `PROTOCOL.md` §7). All conversions
//! round to nearest, ties to even, matching hardware convert
//! instructions, and are deterministic across platforms.

/// Shift `x` right by `shift` bits, rounding to nearest, ties to even.
///
/// `shift` must be in `1..=31`.
fn rne_shift(x: u32, shift: u32) -> u32 {
    let kept = x >> shift;
    let half = 1u32 << (shift - 1);
    let rem = x & ((1u32 << shift) - 1);
    kept + u32::from(rem > half || (rem == half && kept & 1 == 1))
}

/// Convert one `f32` to IEEE-754 binary16 bits (round to nearest even).
///
/// Out-of-range magnitudes saturate to ±Inf exactly as a hardware
/// `cvtps2ph` would; every NaN canonicalises to a quiet NaN with the
/// sign preserved.
fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        return if abs > 0x7f80_0000 {
            sign | 0x7e00 // NaN
        } else {
            sign | 0x7c00 // Inf
        };
    }
    let e32 = (abs >> 23) as i32; // biased f32 exponent
    if e32 > 142 {
        return sign | 0x7c00; // above the f16 range before rounding
    }
    if e32 >= 113 {
        // Normal range: rebias 127→15 and round the mantissa 23→10
        // bits. A rounding carry propagates into the exponent, which
        // also handles 65520.0 rounding up to Inf.
        let combined = (((e32 - 112) as u32) << 23) | (abs & 0x007f_ffff);
        return sign | rne_shift(combined, 13) as u16;
    }
    if e32 >= 102 {
        // Subnormal f16: shift the full 24-bit significand into place.
        let full = (abs & 0x007f_ffff) | 0x0080_0000;
        return sign | rne_shift(full, (126 - e32) as u32) as u16;
    }
    sign // magnitude below 2⁻²⁵ rounds to (signed) zero
}

/// Convert IEEE-754 binary16 bits to the exactly-representable `f32`.
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    let bits = match (exp, man) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: the value is m·2⁻²⁴; renormalise it.
            let p = 31 - m.leading_zeros(); // MSB position, 0..=9
            sign | ((p + 103) << 23) | ((m << (23 - p)) & 0x007f_ffff)
        }
        (31, 0) => sign | 0x7f80_0000,
        (31, m) => sign | 0x7f80_0000 | (m << 13),
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Convert one `f32` to bfloat16 bits (round to nearest even).
fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Truncation could turn a NaN with a low-half payload into
        // Inf; force a quiet bit instead.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let kept = bits >> 16;
    let rem = bits & 0xffff;
    (kept + u32::from(rem > 0x8000 || (rem == 0x8000 && kept & 1 == 1))) as u16
}

/// Convert bfloat16 bits to the exactly-representable `f32`.
fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Append the little-endian binary16 encoding of `src` to `dst`.
pub fn encode_f16_le(src: &[f32], dst: &mut Vec<u8>) {
    dst.reserve(src.len() * 2);
    for &x in src {
        dst.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
}

/// Append the f32 values of little-endian binary16 `src` to `dst`.
///
/// `src.len()` must be even.
pub fn decode_f16_le(src: &[u8], dst: &mut Vec<f32>) {
    assert!(
        src.len().is_multiple_of(2),
        "binary16 payload must be 2 bytes/elem"
    );
    dst.reserve(src.len() / 2);
    for c in src.chunks_exact(2) {
        dst.push(f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])));
    }
}

/// Append the little-endian bfloat16 encoding of `src` to `dst`.
pub fn encode_bf16_le(src: &[f32], dst: &mut Vec<u8>) {
    dst.reserve(src.len() * 2);
    for &x in src {
        dst.extend_from_slice(&f32_to_bf16_bits(x).to_le_bytes());
    }
}

/// Append the f32 values of little-endian bfloat16 `src` to `dst`.
///
/// `src.len()` must be even.
pub fn decode_bf16_le(src: &[u8], dst: &mut Vec<f32>) {
    assert!(
        src.len().is_multiple_of(2),
        "bfloat16 payload must be 2 bytes/elem"
    );
    dst.reserve(src.len() / 2);
    for c in src.chunks_exact(2) {
        dst.push(bf16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])));
    }
}

/// Indices of the `k` largest-magnitude entries of `vals`, ascending.
///
/// Ties break toward the lower index, so the selection is a pure
/// function of the input — both peers of a deterministic run pick the
/// same sparsity pattern. `k` is clamped to `vals.len()`.
pub fn top_k_by_magnitude(vals: &[f32], k: usize) -> Vec<u32> {
    assert!(
        vals.len() <= u32::MAX as usize,
        "top-k index space is u32 on the wire"
    );
    let k = k.min(vals.len());
    let mut idx: Vec<u32> = (0..vals.len() as u32).collect();
    let key = |i: &u32| {
        let mag = vals[*i as usize].to_bits() & 0x7fff_ffff;
        (core::cmp::Reverse(mag), *i)
    };
    if k > 0 && k < idx.len() {
        idx.select_nth_unstable_by_key(k - 1, key);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_every_pattern_roundtrips_through_f32() {
        for h in 0..=u16::MAX {
            let x = f16_bits_to_f32(h);
            if x.is_nan() {
                assert!(f16_bits_to_f32(f32_to_f16_bits(x)).is_nan());
            } else {
                assert_eq!(f32_to_f16_bits(x), h, "pattern {h:#06x} -> {x}");
            }
        }
    }

    #[test]
    fn bf16_every_pattern_roundtrips_through_f32() {
        for h in 0..=u16::MAX {
            let x = bf16_bits_to_f32(h);
            if x.is_nan() {
                assert!(bf16_bits_to_f32(f32_to_bf16_bits(x)).is_nan());
            } else {
                assert_eq!(f32_to_bf16_bits(x), h, "pattern {h:#06x} -> {x}");
            }
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1.0 + 2⁻¹¹ is exactly halfway between 1.0 and the next f16
        // (1.0 + 2⁻¹⁰); ties go to the even mantissa, which is 1.0.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_281_25), 0x3c00);
        // Just above the midpoint rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_4), 0x3c01);
        // Odd mantissa at the midpoint rounds up to even.
        let odd = f16_bits_to_f32(0x3c01); // 1.0 + 2⁻¹⁰
        assert_eq!(f32_to_f16_bits(odd + 0.000_488_281_25), 0x3c02);
    }

    #[test]
    fn f16_saturation_and_special_values() {
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16::MAX exact
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // rounds to Inf
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        // Smallest f16 subnormal is 2⁻²⁴; exactly half of it ties to 0.
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0x0000);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25) * 1.5), 0x0001);
    }

    #[test]
    fn f16_error_is_within_one_ulp_relative() {
        // 2⁻¹¹ relative error bound for round-to-nearest in the normal
        // range (10 explicit mantissa bits → half an ulp is 2⁻¹¹).
        let mut x = 1e-3f32;
        while x < 6e4 {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!((back - x).abs() <= x.abs() * (1.0 / 2048.0) + 1e-24);
            x *= 1.37;
        }
    }

    #[test]
    fn bulk_codecs_match_scalar() {
        let vals: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.37).collect();
        let mut f16 = Vec::new();
        encode_f16_le(&vals, &mut f16);
        assert_eq!(f16.len(), 2000);
        let mut back = Vec::new();
        decode_f16_le(&f16, &mut back);
        for (x, b) in vals.iter().zip(&back) {
            assert_eq!(f32_to_f16_bits(*x), f32_to_f16_bits(*b));
        }
        let mut bf = Vec::new();
        encode_bf16_le(&vals, &mut bf);
        let mut back = Vec::new();
        decode_bf16_le(&bf, &mut back);
        for (x, b) in vals.iter().zip(&back) {
            assert_eq!(f32_to_bf16_bits(*x), f32_to_bf16_bits(*b));
        }
    }

    #[test]
    fn top_k_picks_largest_magnitudes_deterministically() {
        let vals = [0.1, -5.0, 3.0, 0.0, -3.0, 4.0];
        assert_eq!(top_k_by_magnitude(&vals, 3), vec![1, 2, 5]);
        // Tie between |3.0| at index 2 and |-3.0| at index 4: lower
        // index wins.
        assert_eq!(top_k_by_magnitude(&vals, 4), vec![1, 2, 4, 5]);
        assert_eq!(top_k_by_magnitude(&vals, 0), Vec::<u32>::new());
        assert_eq!(top_k_by_magnitude(&vals, 99).len(), vals.len());
        assert_eq!(top_k_by_magnitude(&[], 4), Vec::<u32>::new());
    }
}
