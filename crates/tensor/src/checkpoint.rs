//! Parameter checkpointing: serialize a [`ParamStore`] to bytes and
//! back, plus the tagged section container durable snapshots build on.
//!
//! Fine-tuning services checkpoint *adapters*, not base models — the
//! whole point of adapter-based methods is that a client's artifact is
//! megabytes. The format is self-contained and versioned:
//! `magic (u32) | version (u32) | count (u64)` then per parameter
//! `name_len (u32) | name | trainable (u8) | rank (u32) | dims (u64…) |
//! f32 data…`, all little-endian.
//!
//! Composite state (adapters + optimizer moments + counters + …) is
//! layered with [`SectionWriter`]/[`SectionReader`]: a tagged, versioned
//! container — `magic (u32) | version (u32) | count (u64)` then per
//! section `tag (u32) | len (u64) | bytes`, closed by a CRC-32 over
//! everything preceding it. The trailing checksum catches the payload
//! bit-flips that are structurally undetectable (any f32 is "valid").
//! A finished container is a [`Sealed`] value, and a writer nests one
//! without rescanning it, so sealing costs one CRC pass however deep
//! the containers nest; reading still checks every level.
//!
//! Every decoder of disk- or peer-supplied bytes — here and in the
//! crates above — reads through one [`ByteReader`]. Its
//! [`f32s`](ByteReader::f32s) is the only way to turn untrusted bytes
//! into a `Vec`, and it checks the declared count against the bytes
//! that are actually left *before* it allocates: no length field can
//! make a decoder reserve more memory than its input occupies.

use crate::param::ParamStore;
use crate::shape::Shape;
use crate::tensor::Tensor;

const MAGIC: u32 = 0x4d43_4b50; // "MCKP"
const VERSION: u32 = 1;

const SECTION_MAGIC: u32 = 0x4d53_4543; // "MSEC"
const SECTION_VERSION: u32 = 1;
/// Upper bound on sections per container — far above any real snapshot.
const MAX_SECTIONS: u64 = 1 << 16;

/// Errors reading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Byte stream ended early.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// A declared size is implausible.
    Corrupt(String),
    /// The trailing CRC-32 does not match the bytes it covers.
    ChecksumMismatch {
        /// Checksum stored in the byte stream.
        stored: u32,
        /// Checksum recomputed over the received bytes.
        actual: u32,
    },
    /// `restore_into` found a checkpoint entry absent from the target.
    MissingParam(String),
    /// `restore_into` found a same-named parameter with a different
    /// shape.
    ShapeMismatch {
        /// The mismatched parameter.
        name: String,
        /// Shape in the restore target.
        expected: Vec<usize>,
        /// Shape carried by the checkpoint.
        actual: Vec<usize>,
    },
    /// A required section tag is absent from a section container.
    MissingSection(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:#010x}"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::ChecksumMismatch { stored, actual } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ),
            CheckpointError::MissingParam(name) => {
                write!(f, "checkpoint parameter {name:?} not in restore target")
            }
            CheckpointError::ShapeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch for {name:?}: target expects {expected:?}, checkpoint has {actual:?}"
            ),
            CheckpointError::MissingSection(tag) => {
                write!(f, "required section tag {tag} missing")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a [`ByteReader`] call failed. Each decoder's own error type
/// converts from it (`CheckpointError`, `menos_net::WireError`), so
/// `?` works unadorned at every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteReadError {
    /// Fewer bytes were left than the read (or declared count) needs.
    Short,
    /// [`ByteReader::finish`] found this many unread bytes.
    Trailing(usize),
}

impl From<ByteReadError> for CheckpointError {
    fn from(e: ByteReadError) -> Self {
        match e {
            ByteReadError::Short => CheckpointError::Truncated,
            ByteReadError::Trailing(n) => CheckpointError::Corrupt(format!("{n} trailing bytes")),
        }
    }
}

/// A bounds-checked cursor over untrusted little-endian bytes.
///
/// # Examples
///
/// ```
/// use menos_tensor::{put_f32s, ByteReadError, ByteReader};
///
/// let mut bytes = 2u64.to_le_bytes().to_vec();
/// put_f32s(&mut bytes, &[1.5, -0.25]);
/// let mut r = ByteReader::new(&bytes);
/// let n = r.u64().unwrap();
/// assert_eq!(r.f32s(n).unwrap(), vec![1.5, -0.25]);
/// r.finish().unwrap();
///
/// // A count the input cannot back is refused before any allocation.
/// let hostile = u64::MAX.to_le_bytes();
/// let mut r = ByteReader::new(&hostile);
/// let n = r.u64().unwrap();
/// assert_eq!(r.f32s(n), Err(ByteReadError::Short));
/// ```
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the front of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`ByteReadError::Short`] if fewer than `n` bytes are left; every
    /// other read is built on this one and fails the same way.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ByteReadError> {
        if n > self.rest.len() {
            return Err(ByteReadError::Short);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteReadError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ByteReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ByteReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ByteReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, ByteReadError> {
        self.array().map(f32::from_le_bytes)
    }

    /// `n` little-endian `f32`s, `n` being a count as declared by the
    /// input. `4·n` is checked against [`remaining`](Self::remaining)
    /// before the `Vec` is allocated, then converted in bulk.
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, ByteReadError> {
        let bytes = n
            .checked_mul(4)
            .and_then(|b| usize::try_from(b).ok())
            .ok_or(ByteReadError::Short)?;
        let raw = self.take(bytes)?.chunks_exact(4);
        Ok(raw
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Ends the read: every byte must have been consumed.
    ///
    /// # Errors
    ///
    /// [`ByteReadError::Trailing`] with the number of unread bytes.
    pub fn finish(self) -> Result<(), ByteReadError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(ByteReadError::Trailing(n)),
        }
    }
}

/// Appends `data` as little-endian `f32`s — the writing counterpart of
/// [`ByteReader::f32s`]: one grow, then fixed 4-byte stores the
/// compiler vectorizes.
pub fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    let head = out.len();
    out.resize(head + 4 * data.len(), 0);
    for (dst, &v) in out[head..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

// CRC-32 (IEEE 802.3, reflected 0xEDB88320). Implemented locally: the
// workspace is offline and the guarantee we need is small — every
// single-bit flip in a snapshot is detected.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]`: the register after shifting byte `b` through it.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-16: `CRC_TABLES[k][b]` is `CRC_TABLE[b]` advanced over
/// `k` more zero bytes, so sixteen independent lookups fold a 16-byte
/// block where the byte-wise loop makes sixteen dependent ones.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [CRC_TABLE; 16];
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 of every finished container, trailer included: bytes
/// followed by their own little-endian CRC-32 always check to this
/// constant, whatever the bytes are.
const CRC_RESIDUE: u32 = 0x2144_DF1C;

/// CRC-32 (IEEE) of `bytes` — the checksum closing every section
/// container.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// `crc32(A‖bytes)` from `crc = crc32(A)`, sixteen bytes per step.
fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let (head, tail) = block.split_at(4);
        let head = c ^ u32::from_le_bytes(head.try_into().expect("4-byte head"));
        c = head
            .to_le_bytes()
            .iter()
            .chain(tail)
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    crc32_bytewise(!c, blocks.remainder())
}

/// `crc32(A‖bytes)` from `crc = crc32(A)`, one byte per step: the
/// sliced loop's tail, and its oracle.
fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `a·b mod P` over GF(2), both polynomials reflected (bit 31 is x⁰).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
        m >>= 1;
    }
    product
}

/// `X2N_TABLE[k]` is `x^(2^k) mod P`.
const X2N_TABLE: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// `crc32(A‖B)` from `crc32(A)`, `crc32(B)` and `|B|`, without reading
/// either: `crc(A)·x^(8|B|) ⊕ crc(B)` (zlib's `crc32_combine`), in
/// O(log |B|) multiplications.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // x^(8n) = Π x^(2^(k+3)) over the set bits k of n.
    let mut shift = 1u32 << 31; // x⁰
    let mut n = len_b as u64;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N_TABLE[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

/// A finished section container. Only [`SectionWriter::finish`] and a
/// validating [`Sealed::parse`] make one, so its CRC-32, trailer
/// included, is the fixed residue `0x2144DF1C` by construction: an
/// enclosing writer folds it in by CRC combination instead of scanning
/// it again. No caller can vouch for arbitrary bytes — a wrong vouch
/// would seal a container that fails its own check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed(Vec<u8>);

impl Sealed {
    /// Copies `bytes` after validating them exactly as
    /// [`SectionReader::parse`] does.
    ///
    /// # Errors
    ///
    /// Whatever [`SectionReader::parse`] reports.
    pub fn parse(bytes: &[u8]) -> Result<Sealed, CheckpointError> {
        SectionReader::parse(bytes)?;
        Ok(Sealed(bytes.to_vec()))
    }

    /// The container bytes, for writing out.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

impl std::ops::Deref for Sealed {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// One section body: bytes the writer must scan, or a container it
/// borrows and folds in unscanned.
#[derive(Debug)]
enum Body<'a> {
    Raw(Vec<u8>),
    Nested(&'a Sealed),
}

impl Body<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Body::Raw(bytes) => bytes,
            Body::Nested(sealed) => sealed,
        }
    }
}

/// Builds a tagged, versioned, CRC-closed section container.
///
/// Tags are caller-defined `u32`s; repeated tags are allowed and kept
/// in insertion order (readers iterate with [`SectionReader::sections`]).
///
/// # Examples
///
/// ```
/// use menos_tensor::{SectionReader, SectionWriter};
///
/// let mut inner = SectionWriter::new();
/// inner.section(3, vec![0u8; 8]);
/// let inner = inner.finish();
///
/// let mut w = SectionWriter::new();
/// w.section(1, b"meta".to_vec());
/// w.nested(2, &inner);
/// let bytes = w.finish();
/// let r = SectionReader::parse(&bytes).unwrap();
/// assert_eq!(r.find(1), Some(&b"meta"[..]));
/// assert_eq!(r.find(2), Some(&inner[..]));
/// ```
#[derive(Debug, Default)]
pub struct SectionWriter<'a> {
    sections: Vec<(u32, Body<'a>)>,
}

impl<'a> SectionWriter<'a> {
    /// Creates an empty container builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one tagged section.
    pub fn section(&mut self, tag: u32, bytes: Vec<u8>) -> &mut Self {
        self.sections.push((tag, Body::Raw(bytes)));
        self
    }

    /// Appends a finished container as one tagged section. Its bytes
    /// are copied once and never rescanned: see [`finish`](Self::finish).
    pub fn nested(&mut self, tag: u32, container: &'a Sealed) -> &mut Self {
        self.sections.push((tag, Body::Nested(container)));
        self
    }

    /// Serializes the container: header, sections, trailing CRC-32.
    ///
    /// One CRC pass over the bytes this level adds. A nested
    /// container's CRC is the fixed residue whatever its bytes, so it is
    /// folded in by CRC combination in O(log len) — however deep
    /// the nesting, every byte of the result is scanned once, by the
    /// writer of the innermost container holding it.
    #[must_use]
    pub fn finish(self) -> Sealed {
        let len = 16
            + self
                .sections
                .iter()
                .map(|(_, body)| 12 + body.bytes().len())
                .sum::<usize>()
            + 4;
        let mut out = Vec::with_capacity(len);
        out.extend(SECTION_MAGIC.to_le_bytes());
        out.extend(SECTION_VERSION.to_le_bytes());
        out.extend((self.sections.len() as u64).to_le_bytes());
        // `out[..scanned]` is folded into `crc`; the rest is not yet.
        let (mut crc, mut scanned) = (0, 0);
        for (tag, body) in &self.sections {
            out.extend(tag.to_le_bytes());
            out.extend((body.bytes().len() as u64).to_le_bytes());
            match body {
                Body::Raw(bytes) => out.extend_from_slice(bytes),
                Body::Nested(sealed) => {
                    crc = crc32_extend(crc, &out[scanned..]);
                    out.extend_from_slice(sealed);
                    crc = crc32_combine(crc, CRC_RESIDUE, sealed.len());
                    scanned = out.len();
                }
            }
        }
        let crc = crc32_extend(crc, &out[scanned..]);
        debug_assert_eq!(crc, crc32(&out), "combined CRC disagrees with a scan");
        out.extend(crc.to_le_bytes());
        debug_assert_eq!(out.len(), len);
        Sealed(out)
    }
}

/// Parses a [`SectionWriter`] container, validating structure and the
/// trailing CRC-32 before exposing any section.
#[derive(Debug)]
pub struct SectionReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SectionReader<'a> {
    /// Validates and indexes `bytes`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncation, bad magic/version, an
    /// implausible count or length, trailing garbage, or a checksum
    /// mismatch — never panics on untrusted input.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.u32()?;
        if magic != SECTION_MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version != SECTION_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        // What follows is the section list, then the CRC-32 of every
        // byte before it.
        let body_len = r
            .remaining()
            .checked_sub(4)
            .ok_or(CheckpointError::Truncated)?;
        let mut body = ByteReader::new(r.take(body_len)?);
        let stored = r.u32()?;
        let actual = crc32(&bytes[..bytes.len() - 4]);
        if stored != actual {
            return Err(CheckpointError::ChecksumMismatch { stored, actual });
        }
        let count = body.u64()?;
        if count > MAX_SECTIONS {
            return Err(CheckpointError::Corrupt(format!("{count} sections")));
        }
        let mut sections = Vec::new();
        for _ in 0..count {
            let tag = body.u32()?;
            let len = usize::try_from(body.u64()?).map_err(|_| CheckpointError::Truncated)?;
            sections.push((tag, body.take(len)?));
        }
        body.finish()?;
        Ok(Self { sections })
    }

    /// First section carrying `tag`, if any.
    #[must_use]
    pub fn find(&self, tag: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| *b)
    }

    /// Like [`find`](Self::find) but a missing tag is a typed error.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] when no section carries
    /// `tag`.
    pub fn require(&self, tag: u32) -> Result<&'a [u8], CheckpointError> {
        self.find(tag).ok_or(CheckpointError::MissingSection(tag))
    }

    /// All sections in container order (repeated tags preserved).
    pub fn sections(&self) -> impl Iterator<Item = (u32, &'a [u8])> + '_ {
        self.sections.iter().map(|&(t, b)| (t, b))
    }

    /// Number of sections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the container carries no sections.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }
}

/// Serializes every parameter (name order) to a checkpoint byte buffer.
///
/// # Examples
///
/// ```
/// use menos_tensor::{load_checkpoint, save_checkpoint, ParamStore, Tensor};
///
/// let mut ps = ParamStore::new();
/// ps.insert("lora.a", Tensor::var_from_vec(vec![1.0, 2.0], [2]));
/// let bytes = save_checkpoint(&ps);
/// let restored = load_checkpoint(&bytes).unwrap();
/// assert_eq!(restored.get("lora.a").unwrap().to_vec(), vec![1.0, 2.0]);
/// assert!(restored.get("lora.a").unwrap().requires_grad());
/// ```
pub fn save_checkpoint(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend(MAGIC.to_le_bytes());
    out.extend(VERSION.to_le_bytes());
    out.extend((store.len() as u64).to_le_bytes());
    for (name, t) in store.iter() {
        out.extend((name.len() as u32).to_le_bytes());
        out.extend(name.as_bytes());
        out.push(u8::from(t.requires_grad()));
        out.extend((t.rank() as u32).to_le_bytes());
        for &d in t.dims() {
            out.extend((d as u64).to_le_bytes());
        }
        put_f32s(&mut out, &t.storage().read());
    }
    out
}

/// Restores a [`ParamStore`] from checkpoint bytes.
///
/// # Errors
///
/// Returns [`CheckpointError`] on truncation, bad magic/version, or
/// implausible sizes — never panics on untrusted input.
pub fn load_checkpoint(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let count = r.u64()?;
    if count > 1 << 24 {
        return Err(CheckpointError::Corrupt(format!("{count} parameters")));
    }
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = r.u32()? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Corrupt(format!(
                "name of {name_len} bytes"
            )));
        }
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt("non-UTF8 name".into()))?;
        let trainable = r.u8()? != 0;
        let rank = r.u32()? as usize;
        if rank > 8 {
            return Err(CheckpointError::Corrupt(format!("rank {rank}")));
        }
        let mut dims = Vec::new();
        let mut elems: u64 = 1;
        for _ in 0..rank {
            let d = r.u64()?;
            elems = elems.saturating_mul(d.max(1));
            if elems > 1 << 32 {
                return Err(CheckpointError::Corrupt(format!("{elems} elements")));
            }
            dims.push(d as usize);
        }
        let n: usize = dims.iter().product();
        let data = r.f32s(n as u64)?;
        let t = if trainable {
            Tensor::var_from_vec(data, Shape::new(dims))
        } else {
            Tensor::from_vec(data, Shape::new(dims))
        };
        store.insert(name, t);
    }
    Ok(store)
}

/// Applies checkpointed values onto an existing store **in place**:
/// same-named parameters have their storage overwritten, so every
/// structure aliasing them (e.g. a bound model) sees the restored
/// weights immediately.
///
/// # Errors
///
/// Fails with [`CheckpointError::MissingParam`] naming the checkpoint
/// entry absent from `target`, or [`CheckpointError::ShapeMismatch`]
/// naming the parameter plus both shapes; `target` is unmodified on
/// error.
pub fn restore_into(target: &ParamStore, checkpoint: &ParamStore) -> Result<(), CheckpointError> {
    // Validate first so failure leaves the target untouched.
    for (name, src) in checkpoint.iter() {
        let dst = target
            .get(name)
            .ok_or_else(|| CheckpointError::MissingParam(name.clone()))?;
        if dst.shape() != src.shape() {
            return Err(CheckpointError::ShapeMismatch {
                name: name.clone(),
                expected: dst.dims().to_vec(),
                actual: src.dims().to_vec(),
            });
        }
    }
    for (name, src) in checkpoint.iter() {
        let dst = target.get(name).expect("validated");
        dst.storage().write().copy_from_slice(&src.storage().read());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.insert(
            "a.weight",
            Tensor::var_from_vec(vec![1.0, -2.0, 3.5, 0.0], [2, 2]),
        );
        ps.insert("b.bias", Tensor::from_vec(vec![0.25; 3], [3]));
        ps.insert("scalar", Tensor::var_from_vec(vec![7.0], Shape::scalar()));
        ps
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ps = sample();
        let restored = load_checkpoint(&save_checkpoint(&ps)).unwrap();
        assert_eq!(restored.len(), ps.len());
        for (name, t) in ps.iter() {
            let r = restored.get(name).unwrap();
            assert_eq!(r.dims(), t.dims(), "{name}");
            assert_eq!(r.to_vec(), t.to_vec(), "{name}");
            assert_eq!(r.requires_grad(), t.requires_grad(), "{name}");
        }
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        let bytes = save_checkpoint(&sample());
        for cut in [0, 3, 8, 16, bytes.len() - 1] {
            let err = load_checkpoint(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::BadMagic(_)
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = save_checkpoint(&sample());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            load_checkpoint(&bytes),
            Err(CheckpointError::BadMagic(_))
        ));
        let mut bytes = save_checkpoint(&sample());
        bytes[4] = 99;
        assert!(matches!(
            load_checkpoint(&bytes),
            Err(CheckpointError::BadVersion(99))
        ));
    }

    #[test]
    fn restore_into_updates_aliased_structures() {
        let ps = sample();
        // A "model" holding an alias of a.weight.
        let alias = Tensor::from_shared_storage(
            ps.get("a.weight").unwrap().storage().clone(),
            [2, 2],
            false,
        );
        // Train, checkpoint, perturb, restore.
        let checkpoint_bytes = save_checkpoint(&ps);
        ps.get("a.weight").unwrap().storage().write()[0] = 999.0;
        assert_eq!(alias.to_vec()[0], 999.0);
        let checkpoint = load_checkpoint(&checkpoint_bytes).unwrap();
        restore_into(&ps, &checkpoint).unwrap();
        assert_eq!(alias.to_vec()[0], 1.0, "alias sees restored weights");
    }

    #[test]
    fn restore_into_validates_before_writing() {
        let ps = sample();
        let mut bad = ParamStore::new();
        bad.insert("a.weight", Tensor::zeros([3, 3])); // wrong shape
        let before = ps.get("a.weight").unwrap().to_vec();
        assert!(restore_into(&ps, &bad).is_err());
        assert_eq!(ps.get("a.weight").unwrap().to_vec(), before);

        let mut missing = ParamStore::new();
        missing.insert("nope", Tensor::zeros([1]));
        assert!(restore_into(&ps, &missing).is_err());
    }

    #[test]
    fn restore_into_names_the_missing_parameter() {
        let ps = sample();
        let mut missing = ParamStore::new();
        missing.insert("nope", Tensor::zeros([1]));
        let err = restore_into(&ps, &missing).unwrap_err();
        assert_eq!(err, CheckpointError::MissingParam("nope".into()));
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn restore_into_reports_both_shapes() {
        let ps = sample();
        let mut bad = ParamStore::new();
        bad.insert("a.weight", Tensor::zeros([3, 3]));
        let err = restore_into(&ps, &bad).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ShapeMismatch {
                name: "a.weight".into(),
                expected: vec![2, 2],
                actual: vec![3, 3],
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("a.weight"), "{msg}");
        assert!(msg.contains("[2, 2]") && msg.contains("[3, 3]"), "{msg}");
    }

    #[test]
    fn restore_into_partial_failure_leaves_target_untouched() {
        // One good entry plus one mismatched: nothing may be written.
        let ps = sample();
        let mut mixed = ParamStore::new();
        mixed.insert("b.bias", Tensor::from_vec(vec![9.0; 3], [3]));
        mixed.insert("scalar", Tensor::zeros([5])); // wrong shape
        let before = ps.get("b.bias").unwrap().to_vec();
        assert!(matches!(
            restore_into(&ps, &mixed),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        assert_eq!(ps.get("b.bias").unwrap().to_vec(), before);
    }

    fn sample_container() -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.section(7, b"meta-bytes".to_vec());
        w.section(9, save_checkpoint(&sample()));
        w.section(7, b"again".to_vec());
        w.finish().into_bytes()
    }

    #[test]
    fn section_container_round_trips() {
        let bytes = sample_container();
        let r = SectionReader::parse(&bytes).unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.find(7), Some(&b"meta-bytes"[..]));
        assert_eq!(r.require(9).unwrap(), save_checkpoint(&sample()));
        let repeated: Vec<_> = r.sections().filter(|(t, _)| *t == 7).collect();
        assert_eq!(repeated.len(), 2);
        assert_eq!(repeated[1].1, b"again");
        assert_eq!(r.find(42), None);
        assert_eq!(r.require(42), Err(CheckpointError::MissingSection(42)));
    }

    #[test]
    fn empty_section_container_round_trips() {
        let bytes = SectionWriter::new().finish();
        let r = SectionReader::parse(&bytes).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn section_container_rejects_every_truncation() {
        let bytes = sample_container();
        for cut in 0..bytes.len() {
            let err = SectionReader::parse(&bytes[..cut]).map(|_| ()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic(_)
                        | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn section_container_rejects_every_single_bit_flip() {
        let bytes = sample_container();
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            let err = SectionReader::parse(&flipped).map(|_| ()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch { .. }
                        | CheckpointError::BadMagic(_)
                        | CheckpointError::BadVersion(_)
                ),
                "offset={offset}: {err:?}"
            );
        }
    }

    #[test]
    fn section_container_rejects_bad_magic_version_and_trailing_garbage() {
        let mut bytes = sample_container();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SectionReader::parse(&bytes),
            Err(CheckpointError::BadMagic(_))
        ));

        let mut bytes = sample_container();
        bytes[4] = 99;
        assert!(matches!(
            SectionReader::parse(&bytes),
            Err(CheckpointError::BadVersion(99))
        ));

        // Appending bytes (and re-sealing the CRC) must still fail:
        // the section count no longer accounts for the container body.
        let sealed = sample_container();
        let mut grown = sealed[..sealed.len() - 4].to_vec();
        grown.extend(b"junk");
        let crc = crc32(&grown);
        grown.extend(crc.to_le_bytes());
        assert!(matches!(
            SectionReader::parse(&grown),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn section_container_rejects_implausible_sizes() {
        // Count beyond the cap, CRC re-sealed so the structural check
        // (not the checksum) must reject it.
        let mut bytes = SectionWriter::new().finish().into_bytes();
        bytes.truncate(bytes.len() - 4);
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend(crc.to_le_bytes());
        assert!(matches!(
            SectionReader::parse(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_finished_container_checks_to_the_residue() {
        assert_eq!(crc32(&SectionWriter::new().finish()), CRC_RESIDUE);
        assert_eq!(crc32(&sample_container()), CRC_RESIDUE);
    }

    /// The container writer as it was before nested containers were
    /// folded in by combination: one byte-wise pass over everything.
    fn rescanning_finish(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(SECTION_MAGIC.to_le_bytes());
        out.extend(SECTION_VERSION.to_le_bytes());
        out.extend((sections.len() as u64).to_le_bytes());
        for (tag, bytes) in sections {
            out.extend(tag.to_le_bytes());
            out.extend((bytes.len() as u64).to_le_bytes());
            out.extend(bytes);
        }
        let crc = crc32_bytewise(0, &out);
        out.extend(crc.to_le_bytes());
        out
    }

    /// A random container tree at most `depth` levels deep — empty
    /// sections, empty containers and absent sections included —
    /// built once by [`SectionWriter`] and once by
    /// [`rescanning_finish`].
    fn random_tree(rng: &mut rand::rngs::StdRng, depth: u32) -> (Sealed, Vec<u8>) {
        use rand::Rng;
        enum Child {
            Raw(Vec<u8>),
            Nested(Sealed, Vec<u8>),
        }
        let children: Vec<(u32, Child)> = (0..rng.gen_range(0..5usize))
            .map(|_| {
                let tag = rng.gen_range(0..4u32);
                if depth > 0 && rng.gen_bool(0.4) {
                    let (sealed, rescanned) = random_tree(rng, depth - 1);
                    (tag, Child::Nested(sealed, rescanned))
                } else {
                    let len = rng.gen_range(0..48usize);
                    (
                        tag,
                        Child::Raw((0..len).map(|_| rng.gen::<u32>() as u8).collect()),
                    )
                }
            })
            .collect();
        let mut w = SectionWriter::new();
        let mut reference = Vec::new();
        for (tag, child) in &children {
            match child {
                Child::Raw(bytes) => {
                    w.section(*tag, bytes.clone());
                    reference.push((*tag, bytes.clone()));
                }
                Child::Nested(sealed, rescanned) => {
                    w.nested(*tag, sealed);
                    reference.push((*tag, rescanned.clone()));
                }
            }
        }
        (w.finish(), rescanning_finish(&reference))
    }

    mod crc_properties {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Every length 0–300 at every alignment mod 16, from an
            /// arbitrary running CRC: the sliced loop is the byte-wise
            /// one, bit for bit.
            #[test]
            fn sliced_crc_equals_the_bytewise_oracle(
                data in prop::collection::vec(any::<u8>(), 316),
                running in any::<u32>(),
            ) {
                for start in 0..16 {
                    for len in 0..=300 {
                        let bytes = &data[start..start + len];
                        prop_assert_eq!(crc32(bytes), crc32_bytewise(0, bytes));
                        prop_assert_eq!(
                            crc32_extend(running, bytes),
                            crc32_bytewise(running, bytes)
                        );
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn combine_equals_the_crc_of_the_concatenation(
                a in prop::collection::vec(any::<u8>(), 0..64),
                b_len in 0usize..5000,
                b_seed in any::<u8>(),
            ) {
                let b: Vec<u8> = (0..b_len).map(|i| (i as u8).wrapping_mul(31) ^ b_seed).collect();
                let joined: Vec<u8> = a.iter().chain(&b).copied().collect();
                prop_assert_eq!(
                    crc32_combine(crc32(&a), crc32(&b), b.len()),
                    crc32_bytewise(0, &joined)
                );
                prop_assert_eq!(crc32_combine(crc32(&a), crc32(&[]), 0), crc32(&a));
            }

            #[test]
            fn bytes_followed_by_their_crc_check_to_the_residue(
                data in prop::collection::vec(any::<u8>(), 0..200),
            ) {
                let mut sealed = data.clone();
                sealed.extend(crc32(&data).to_le_bytes());
                prop_assert_eq!(crc32_bytewise(0, &sealed), CRC_RESIDUE);
            }

            #[test]
            fn nested_containers_seal_to_the_rescanning_writers_bytes(seed in any::<u64>()) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (sealed, rescanned) = random_tree(&mut rng, 3);
                prop_assert_eq!(&sealed[..], &rescanned[..]);
                prop_assert!(SectionReader::parse(&sealed).is_ok());
                prop_assert_eq!(Sealed::parse(&sealed).expect("own bytes"), sealed);
            }
        }
    }

    #[test]
    fn sealed_parse_rejects_what_the_reader_rejects() {
        let bytes = sample_container();
        assert_eq!(&Sealed::parse(&bytes).unwrap()[..], &bytes[..]);
        let mut flipped = bytes.clone();
        flipped[20] ^= 1;
        assert!(matches!(
            Sealed::parse(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        assert_eq!(Sealed::parse(&[1, 2, 3]), Err(CheckpointError::Truncated));
    }

    #[test]
    fn empty_store_round_trips() {
        let restored = load_checkpoint(&save_checkpoint(&ParamStore::new())).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn error_display() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadVersion(2).to_string().contains('2'));
    }
}
