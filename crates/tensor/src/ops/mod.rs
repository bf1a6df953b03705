//! Tensor operations, grouped by family.

pub(crate) mod binary;
pub(crate) mod matmul;
pub(crate) mod nn;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
pub(crate) mod unary;

/// Deterministic test data (SplitMix64) with the awkward values mixed
/// in — signed zeros, infinities, NaN, subnormals — so oracle tests
/// compare bits where rounding and sign rules actually bite.
#[cfg(test)]
pub(crate) fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match z % 64 {
                0 => -0.0,
                1 => 0.0,
                2 => f32::INFINITY,
                3 => f32::NAN,
                4 => f32::MIN_POSITIVE / 8.0,
                _ => ((z >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * 3.0,
            }
        })
        .collect()
}

/// The bits the oracle tests compare: every value exactly, signed zeros
/// and infinities included, except that all NaNs compare equal. Which
/// NaN operand an add propagates is not part of the arithmetic chain:
/// IEEE 754 leaves it open and the compiler commutes the operands of
/// `+` and `*` freely, so a NaN's sign can differ between two loops
/// that compute every other value identically.
#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    let canonical = |x: &f32| {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    v.iter().map(canonical).collect()
}
