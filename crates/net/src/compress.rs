//! Negotiated tensor-body compression (protocol v1.2).
//!
//! The raw tensor body (`"MNS1"`, [`crate::encode_tensor`]) stays
//! byte-for-byte what v1.0/v1.1 peers produce; compressed bodies use a
//! distinct magic (`"MNC1"`) plus a codec tag byte, so an un-upgraded
//! peer that is handed one rejects it as a typed [`WireError::BadMagic`]
//! instead of misreading it. Which codec a session may use is
//! negotiated at `Connect` time via feature-flag bits (see
//! `PROTOCOL.md` §7) and enforced on decode: a compressed body whose
//! tag was not negotiated is `Malformed`, never silently accepted.
//!
//! Three compressed schemes exist beyond the raw baseline:
//!
//! * [`Codec::F16`] / [`Codec::BF16`] — 2-byte scalar quantization of
//!   the body only. Master weights, optimizer moments, and every other
//!   piece of training state stay f32 on both ends.
//! * [`Codec::TopK8`] — top-⌈n/8⌉ magnitude sparsification with
//!   error-feedback residual accumulators held in [`TensorCodec`]:
//!   what a step fails to send is added into the next step's tensor
//!   before selection, in the spirit of DisTrO-style distributed
//!   training compressors. The residuals are session state and must
//!   ride server snapshots — see `DESIGN.md` §4.12.

use std::collections::BTreeMap;

use bytes::{Buf, Bytes};

use menos_tensor::{lowp, pool, put_f32s, ByteReader, Tensor};

use crate::wire::{
    decode_tensor, encode_tensor, wire_size, WireError, COMPRESSED_MAGIC, MAGIC, MAX_ELEMS,
};

/// Top-k density: `TopK8` sends the `⌈n / 8⌉` largest-magnitude
/// entries of each tensor.
const TOPK_DIVISOR: usize = 8;

/// Role tag for activation-direction tensors fed to
/// [`TensorCodec::encode`]; keeps the activation and gradient
/// error-feedback residuals separate.
pub const ROLE_ACTIVATIONS: u8 = 0;

/// Role tag for gradient-direction tensors fed to
/// [`TensorCodec::encode`].
pub const ROLE_GRADIENTS: u8 = 1;

/// A tensor-body compression scheme (protocol v1.2, `PROTOCOL.md` §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Codec {
    /// Raw little-endian f32 — the bit-identical v1.0/v1.1 baseline.
    F32Raw = 0,
    /// IEEE-754 binary16 quantization (2 bytes/element, lossy).
    F16 = 1,
    /// bfloat16 quantization (2 bytes/element, lossy).
    BF16 = 2,
    /// Top-⌈n/8⌉ magnitude sparsification with error feedback (lossy).
    TopK8 = 3,
}

impl Codec {
    /// Every codec this build speaks, in ascending tag order.
    pub const ALL: [Codec; 4] = [Codec::F32Raw, Codec::F16, Codec::BF16, Codec::TopK8];

    /// The wire tag byte for this codec.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// Canonical lowercase name (what `--codec` accepts).
    pub fn name(self) -> &'static str {
        match self {
            Codec::F32Raw => "f32-raw",
            Codec::F16 => "f16",
            Codec::BF16 => "bf16",
            Codec::TopK8 => "topk8",
        }
    }

    /// Parses a [`Codec::name`] string (`"raw"` is accepted as an
    /// alias for `"f32-raw"`).
    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "raw" => Some(Codec::F32Raw),
            _ => Codec::ALL.into_iter().find(|c| c.name() == s),
        }
    }

    /// The Connect feature-flag bit advertising this codec.
    pub fn flag(self) -> u64 {
        1u64 << self.tag()
    }

    /// Whether decoding inverts encoding exactly for every tensor.
    pub fn is_lossless(self) -> bool {
        matches!(self, Codec::F32Raw)
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bitmask advertising every codec this build supports.
pub fn supported_codec_mask() -> u64 {
    Codec::ALL.iter().map(|c| c.flag()).fold(0, |a, b| a | b)
}

/// Server-side codec selection: the highest-tag compressed codec both
/// masks contain, or [`Codec::F32Raw`] when the intersection holds no
/// compressed codec (including when either peer advertised nothing —
/// the v1.1 fallback rule). Unknown flag bits are reserved and
/// ignored.
pub fn negotiate(advertised: u64, supported: u64) -> Codec {
    let both = advertised & supported;
    Codec::ALL
        .into_iter()
        .rev()
        .find(|c| *c != Codec::F32Raw && both & c.flag() != 0)
        .unwrap_or(Codec::F32Raw)
}

/// The exact number of body bytes the given codec produces for a
/// tensor of the given shape — the codec-aware companion of
/// [`wire_size`], used by the analytic engine to charge links with
/// post-compression byte counts.
pub fn wire_size_with(codec: Codec, dims: &[usize]) -> u64 {
    let elems: usize = dims.iter().product();
    let head = 9 + 8 * dims.len() as u64;
    match codec {
        Codec::F32Raw => wire_size(dims),
        Codec::F16 | Codec::BF16 => head + 2 * elems as u64,
        Codec::TopK8 => head + 8 + 8 * elems.div_ceil(TOPK_DIVISOR) as u64,
    }
}

/// Decodes a tensor body of either layout, reporting which codec
/// produced it.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, unknown magic or codec tag,
/// implausible shapes, or a non-canonical top-k index set.
pub fn decode_tensor_any(bytes: &Bytes) -> Result<(Tensor, Codec), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    match magic {
        MAGIC => decode_tensor(bytes).map(|t| (t, Codec::F32Raw)),
        COMPRESSED_MAGIC => decode_compressed(bytes),
        other => Err(WireError::BadMagic(other)),
    }
}

/// Reads and validates the `rank, dims…` prefix shared by every
/// compressed body, returning the dims and element count.
fn decode_dims(buf: &mut Bytes) -> Result<(Vec<usize>, usize), WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let rank = buf.get_u32_le() as usize;
    if buf.remaining() < 8 * rank {
        return Err(WireError::Truncated);
    }
    let mut dims = Vec::with_capacity(rank);
    let mut elems: u64 = 1;
    for _ in 0..rank {
        let d = buf.get_u64_le();
        elems = elems.saturating_mul(d.max(1));
        if elems > MAX_ELEMS {
            return Err(WireError::Oversized(elems));
        }
        dims.push(d as usize);
    }
    let n: usize = dims.iter().product();
    Ok((dims, n))
}

fn decode_compressed(bytes: &Bytes) -> Result<(Tensor, Codec), WireError> {
    let mut buf = bytes.clone();
    if buf.remaining() < 5 {
        return Err(WireError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != COMPRESSED_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let tag = buf.get_u8();
    let codec = match Codec::from_tag(tag) {
        // Raw bodies use the "MNS1" layout; a raw tag inside the
        // compressed layout is non-canonical and rejected.
        None | Some(Codec::F32Raw) => {
            return Err(WireError::Malformed(format!("unknown codec tag {tag}")))
        }
        Some(c) => c,
    };
    let (dims, n) = decode_dims(&mut buf)?;
    match codec {
        Codec::F16 | Codec::BF16 => {
            if buf.remaining() < 2 * n {
                return Err(WireError::Truncated);
            }
            if buf.remaining() > 2 * n {
                return Err(WireError::Malformed(format!(
                    "{} trailing bytes after quantized payload",
                    buf.remaining() - 2 * n
                )));
            }
            let mut data = Vec::with_capacity(n);
            if codec == Codec::F16 {
                lowp::decode_f16_le(&buf[..2 * n], &mut data);
            } else {
                lowp::decode_bf16_le(&buf[..2 * n], &mut data);
            }
            pool::count_copied(2 * n);
            Ok((Tensor::from_vec(data, dims), codec))
        }
        Codec::TopK8 => {
            if buf.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            // §7: k is ⌈n/8⌉ exactly. Besides keeping one encoding per
            // tensor, this ties the dense size `n` allocated below to
            // the payload actually received (n ≤ 8k ≤ its bytes).
            let k = buf.get_u64_le();
            if k != n.div_ceil(TOPK_DIVISOR) as u64 {
                return Err(WireError::Malformed(format!(
                    "top-k count {k} is not ⌈n/8⌉ of {n} elements"
                )));
            }
            let k = k as usize;
            if buf.remaining() < 8 * k {
                return Err(WireError::Truncated);
            }
            if buf.remaining() > 8 * k {
                return Err(WireError::Malformed(format!(
                    "{} trailing bytes after sparse payload",
                    buf.remaining() - 8 * k
                )));
            }
            let mut idx = Vec::with_capacity(k);
            let mut prev: Option<u32> = None;
            for _ in 0..k {
                let i = buf.get_u32_le();
                if i as usize >= n || prev.is_some_and(|p| i <= p) {
                    return Err(WireError::Malformed(
                        "top-k indices must be strictly ascending and in range".into(),
                    ));
                }
                prev = Some(i);
                idx.push(i);
            }
            // Unsent coordinates decode to exactly 0.0.
            let mut data = vec![0.0; n];
            for &i in &idx {
                data[i as usize] = f32::from_bits(buf.get_u32_le());
            }
            pool::count_copied(8 * k);
            Ok((Tensor::from_vec(data, dims), codec))
        }
        Codec::F32Raw => unreachable!("rejected above"),
    }
}

/// Writes the shared `"MNC1", codec, rank, dims…` compressed-body
/// prefix into `buf`.
fn put_compressed_head(buf: &mut Vec<u8>, codec: Codec, dims: &[usize]) {
    buf.extend_from_slice(&COMPRESSED_MAGIC.to_le_bytes());
    buf.push(codec.tag());
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
}

fn encode_quantized(t: &Tensor, codec: Codec) -> Bytes {
    let dims = t.dims();
    let data = t.storage().read();
    let mut buf = Vec::with_capacity(9 + 8 * dims.len() + 2 * data.len());
    put_compressed_head(&mut buf, codec, dims);
    if codec == Codec::F16 {
        lowp::encode_f16_le(&data, &mut buf);
    } else {
        lowp::encode_bf16_le(&data, &mut buf);
    }
    pool::count_copied(2 * data.len());
    drop(data);
    Bytes::from(buf)
}

/// Per-peer codec state: the negotiated scheme plus the error-feedback
/// residual accumulators the sparsifying codec carries between steps.
///
/// Each endpoint owns one `TensorCodec` per session and encodes every
/// outgoing tensor body through it; residuals are keyed by role
/// ([`ROLE_ACTIVATIONS`] / [`ROLE_GRADIENTS`]) so the two tensor
/// streams a peer sends never share a compensation buffer. The whole
/// struct serializes via [`TensorCodec::to_state`] so server-side
/// residuals survive crash-restore with the lossy trajectory intact.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorCodec {
    codec: Codec,
    residuals: BTreeMap<u8, Vec<f32>>,
}

impl Default for TensorCodec {
    fn default() -> Self {
        TensorCodec::new(Codec::F32Raw)
    }
}

impl TensorCodec {
    /// A codec state for the given negotiated scheme, with empty
    /// residuals.
    pub fn new(codec: Codec) -> Self {
        TensorCodec {
            codec,
            residuals: BTreeMap::new(),
        }
    }

    /// The negotiated scheme.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Re-negotiates the scheme, dropping any accumulated residuals
    /// (they are meaningless under a different codec).
    pub fn set_codec(&mut self, codec: Codec) {
        if self.codec != codec {
            self.residuals.clear();
        }
        self.codec = codec;
    }

    /// Encodes a tensor body under the negotiated scheme. For
    /// [`Codec::TopK8`] this folds the role's residual into the tensor
    /// before selection and retains what was not sent (error
    /// feedback), so calls mutate compression state and must happen
    /// exactly once per transmitted tensor.
    pub fn encode(&mut self, role: u8, t: &Tensor) -> Bytes {
        match self.codec {
            Codec::F32Raw => encode_tensor(t),
            Codec::F16 | Codec::BF16 => encode_quantized(t, self.codec),
            Codec::TopK8 => self.encode_topk(role, t),
        }
    }

    /// Decodes a tensor body, enforcing the negotiation: raw bodies
    /// are always accepted (every peer speaks the baseline), a
    /// compressed body is accepted only if its codec is the negotiated
    /// one.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for a compressed body under a codec
    /// the session did not negotiate, plus every error
    /// [`decode_tensor_any`] reports.
    pub fn decode(&self, bytes: &Bytes) -> Result<Tensor, WireError> {
        let (t, codec) = decode_tensor_any(bytes)?;
        if codec != Codec::F32Raw && codec != self.codec {
            return Err(WireError::Malformed(format!(
                "body uses codec {codec} but the session negotiated {}",
                self.codec
            )));
        }
        Ok(t)
    }

    fn encode_topk(&mut self, role: u8, t: &Tensor) -> Bytes {
        let dims = t.dims().to_vec();
        let data = t.storage().read();
        let n = data.len();
        let residual = self.residuals.entry(role).or_default();
        if residual.len() != n {
            // Shape changed (or first step): stale compensation from a
            // different geometry cannot be carried over.
            residual.clear();
            residual.resize(n, 0.0);
        }
        for (r, &x) in residual.iter_mut().zip(data.iter()) {
            *r += x;
        }
        drop(data);
        let k = n.div_ceil(TOPK_DIVISOR);
        let idx = lowp::top_k_by_magnitude(residual, k);
        let mut buf = Vec::with_capacity(9 + 8 * dims.len() + 8 + 8 * idx.len());
        put_compressed_head(&mut buf, Codec::TopK8, &dims);
        buf.extend_from_slice(&(idx.len() as u64).to_le_bytes());
        for &i in &idx {
            buf.extend_from_slice(&i.to_le_bytes());
        }
        for &i in &idx {
            buf.extend_from_slice(&residual[i as usize].to_le_bytes());
        }
        // Sent coordinates leave the accumulator; unsent mass carries
        // forward into the next step's selection.
        for &i in &idx {
            residual[i as usize] = 0.0;
        }
        pool::count_copied(8 * idx.len());
        Bytes::from(buf)
    }

    /// Serializes the negotiated codec and residual accumulators for a
    /// durable snapshot.
    pub fn to_state(&self) -> Vec<u8> {
        let live: Vec<_> = self
            .residuals
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .collect();
        let mut out = vec![self.codec.tag(), live.len() as u8];
        for (role, r) in live {
            out.push(*role);
            out.extend_from_slice(&(r.len() as u64).to_le_bytes());
            put_f32s(&mut out, r);
        }
        out
    }

    /// Restores a [`TensorCodec::to_state`] snapshot.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, an unknown codec tag, or a
    /// residual length that disagrees with the payload.
    pub fn from_state(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        let codec = Codec::from_tag(tag)
            .ok_or_else(|| WireError::Malformed(format!("unknown codec tag {tag}")))?;
        let roles = r.u8()?;
        let mut residuals = BTreeMap::new();
        for _ in 0..roles {
            let role = r.u8()?;
            let len = r.u64()?;
            if residuals.insert(role, r.f32s(len)?).is_some() {
                return Err(WireError::Malformed(format!(
                    "duplicate residual role {role}"
                )));
            }
        }
        r.finish()?;
        Ok(TensorCodec { codec, residuals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tensor(n: usize) -> Tensor {
        Tensor::from_vec(
            (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f32 * 0.173 - 8.5)
                .collect(),
            [n],
        )
    }

    #[test]
    fn raw_codec_is_bit_identical_to_encode_tensor() {
        let t = test_tensor(64);
        let mut c = TensorCodec::new(Codec::F32Raw);
        assert_eq!(c.encode(ROLE_ACTIVATIONS, &t), encode_tensor(&t));
        let (back, codec) = decode_tensor_any(&encode_tensor(&t)).unwrap();
        assert_eq!(codec, Codec::F32Raw);
        assert_eq!(back.to_vec(), t.to_vec());
    }

    #[test]
    fn f16_and_bf16_round_trip_within_tolerance() {
        let t = test_tensor(333);
        for codec in [Codec::F16, Codec::BF16] {
            let mut c = TensorCodec::new(codec);
            let body = c.encode(ROLE_GRADIENTS, &t);
            assert_eq!(body.len() as u64, wire_size_with(codec, t.dims()));
            let back = c.decode(&body).unwrap();
            let rel = if codec == Codec::F16 {
                1.0 / 2048.0
            } else {
                1.0 / 256.0
            };
            for (x, y) in t.to_vec().iter().zip(back.to_vec()) {
                assert!((x - y).abs() <= x.abs() * rel + 1e-24, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn topk_sends_the_big_coordinates_and_banks_the_rest() {
        let mut vals = vec![0.01f32; 16];
        vals[3] = 5.0;
        vals[9] = -7.0;
        let t = Tensor::from_vec(vals.clone(), [16]);
        let mut enc = TensorCodec::new(Codec::TopK8);
        let body = enc.encode(ROLE_GRADIENTS, &t);
        assert_eq!(body.len() as u64, wire_size_with(Codec::TopK8, &[16]));
        let back = enc.decode(&body).unwrap().to_vec();
        // k = ceil(16/8) = 2: exactly the two spikes arrive.
        assert_eq!(back[3], 5.0);
        assert_eq!(back[9], -7.0);
        assert_eq!(back.iter().filter(|v| **v != 0.0).count(), 2);
        // Error feedback: the small coordinates accumulate and
        // eventually win selection.
        let zeros = Tensor::from_vec(vec![0.0; 16], [16]);
        let body2 = enc.encode(ROLE_GRADIENTS, &zeros);
        let back2 = enc.decode(&body2).unwrap().to_vec();
        assert_eq!(back2.iter().filter(|v| **v != 0.0).count(), 2);
        assert!(back2.iter().all(|v| *v == 0.0 || (*v - 0.01).abs() < 1e-7));
    }

    #[test]
    fn decode_enforces_the_negotiated_codec() {
        let t = test_tensor(8);
        let mut f16 = TensorCodec::new(Codec::F16);
        let body = f16.encode(ROLE_ACTIVATIONS, &t);
        // Raw is always accepted…
        let raw_session = TensorCodec::new(Codec::F32Raw);
        assert!(raw_session.decode(&encode_tensor(&t)).is_ok());
        // …but a compressed body under a non-negotiated codec is not.
        let err = raw_session.decode(&body).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
        let bf16_session = TensorCodec::new(Codec::BF16);
        assert!(matches!(
            bf16_session.decode(&body),
            Err(WireError::Malformed(_))
        ));
        assert!(TensorCodec::new(Codec::F16).decode(&body).is_ok());
    }

    #[test]
    fn compressed_decode_rejects_damage() {
        let t = test_tensor(24);
        let mut enc = TensorCodec::new(Codec::TopK8);
        let body = enc.encode(ROLE_ACTIVATIONS, &t);
        for cut in 0..body.len() {
            assert!(decode_tensor_any(&body.slice(..cut)).is_err(), "cut={cut}");
        }
        let mut raw = body.to_vec();
        raw.push(0);
        assert!(matches!(
            decode_tensor_any(&Bytes::from(raw)),
            Err(WireError::Malformed(_))
        ));
        // A raw tag inside the compressed layout is non-canonical.
        let mut raw = body.to_vec();
        raw[4] = Codec::F32Raw.tag();
        assert!(matches!(
            decode_tensor_any(&Bytes::from(raw)),
            Err(WireError::Malformed(_))
        ));
        // Unknown codec tag.
        let mut raw = body.to_vec();
        raw[4] = 250;
        assert!(matches!(
            decode_tensor_any(&Bytes::from(raw)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn topk_rejects_non_canonical_indices() {
        // Handcraft a body with out-of-order indices.
        let mut buf = Vec::new();
        put_compressed_head(&mut buf, Codec::TopK8, &[16]);
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // descending
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2.0f32.to_le_bytes());
        assert!(matches!(
            decode_tensor_any(&Bytes::from(buf)),
            Err(WireError::Malformed(_))
        ));
        // Index out of range.
        let mut buf = Vec::new();
        put_compressed_head(&mut buf, Codec::TopK8, &[4]);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(matches!(
            decode_tensor_any(&Bytes::from(buf)),
            Err(WireError::Malformed(_))
        ));
        // k is not ⌈n/8⌉: too many, and — 33 bytes that used to make
        // the decoder zero-fill 2^32 elements, aborting the process —
        // none at all for a tensor declared `[65536, 65536]`.
        for (dims, k) in [(vec![4], 5u64), (vec![65_536, 65_536], 0)] {
            let mut buf = Vec::new();
            put_compressed_head(&mut buf, Codec::TopK8, &dims);
            buf.extend_from_slice(&k.to_le_bytes());
            assert!(matches!(
                decode_tensor_any(&Bytes::from(buf)),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn negotiation_picks_best_common_and_falls_back_to_raw() {
        let all = supported_codec_mask();
        assert_eq!(negotiate(Codec::F16.flag(), all), Codec::F16);
        assert_eq!(
            negotiate(Codec::TopK8.flag() | Codec::F16.flag(), all),
            Codec::TopK8
        );
        // v1.1 peer: advertised nothing.
        assert_eq!(negotiate(0, all), Codec::F32Raw);
        // Mismatched sets.
        assert_eq!(
            negotiate(Codec::F16.flag(), Codec::BF16.flag()),
            Codec::F32Raw
        );
        // Unknown/reserved bits are ignored.
        assert_eq!(negotiate(1 << 40, all), Codec::F32Raw);
        assert_eq!(negotiate(Codec::BF16.flag() | (1 << 63), all), Codec::BF16);
        // Raw-only advertisement.
        assert_eq!(negotiate(Codec::F32Raw.flag(), all), Codec::F32Raw);
    }

    #[test]
    fn codec_names_round_trip() {
        for c in Codec::ALL {
            assert_eq!(Codec::parse(c.name()), Some(c));
            assert_eq!(Codec::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Codec::parse("raw"), Some(Codec::F32Raw));
        assert_eq!(Codec::parse("zstd"), None);
        assert_eq!(Codec::from_tag(9), None);
    }

    #[test]
    fn codec_state_round_trips_with_residuals() {
        let t = test_tensor(40);
        let mut enc = TensorCodec::new(Codec::TopK8);
        enc.encode(ROLE_ACTIVATIONS, &t);
        enc.encode(ROLE_GRADIENTS, &test_tensor(24));
        let state = enc.to_state();
        let back = TensorCodec::from_state(&state).unwrap();
        assert_eq!(back, enc);
        // Truncation at every prefix is a typed error.
        for cut in 0..state.len() {
            assert!(TensorCodec::from_state(&state[..cut]).is_err(), "cut={cut}");
        }
        // Empty-residual state round-trips too.
        let fresh = TensorCodec::new(Codec::F16);
        assert_eq!(TensorCodec::from_state(&fresh.to_state()).unwrap(), fresh);
    }

    #[test]
    fn set_codec_drops_residuals_on_change() {
        let mut enc = TensorCodec::new(Codec::TopK8);
        enc.encode(ROLE_ACTIVATIONS, &test_tensor(16));
        enc.set_codec(Codec::TopK8); // no-op keeps residuals
        assert!(!enc.residuals.is_empty());
        enc.set_codec(Codec::F16);
        assert!(enc.residuals.is_empty());
    }

    #[test]
    fn wire_size_with_matches_real_encodings() {
        for codec in Codec::ALL {
            let t = Tensor::from_vec((0..60).map(|i| i as f32).collect(), [3, 4, 5]);
            let mut enc = TensorCodec::new(codec);
            let body = enc.encode(ROLE_ACTIVATIONS, &t);
            assert_eq!(
                body.len() as u64,
                wire_size_with(codec, &[3, 4, 5]),
                "{codec}"
            );
        }
    }
}
