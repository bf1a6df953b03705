//! The split-protocol wire format: tensor payloads and versioned
//! protocol frames.
//!
//! Split learning exchanges real tensors (activations and gradients)
//! between client and server. Serializing them to an explicit byte
//! format keeps message sizes honest — the simulated link charges for
//! exactly the bytes a real deployment would move.
//!
//! Two layers live here:
//!
//! * **Tensor payloads** ([`encode_tensor`] / [`decode_tensor`]):
//!   `u32` magic, `u32` rank, `u64` dims…, `f32` data… (little-endian).
//! * **Protocol frames** ([`encode_frame`] / [`decode_frame`] /
//!   [`read_frame_bytes`]): a fixed 18-byte header — `u32` magic,
//!   `u8` version, `u8` message kind, `u64` client id, `u32` payload
//!   length — followed by the payload. The header is validated (and
//!   the declared length checked against a configurable cap) *before*
//!   any payload allocation, so a hostile length prefix cannot OOM a
//!   server.

use std::io;

use bytes::{BufMut, Bytes, BytesMut};

use menos_tensor::{pool, put_f32s, ByteReadError, ByteReader, Tensor};

pub(crate) const MAGIC: u32 = 0x4d4e_5331; // "MNS1"
pub(crate) const COMPRESSED_MAGIC: u32 = 0x4d4e_4331; // "MNC1" (§7 bodies)
pub(crate) const FRAME_MAGIC: u32 = 0x4d4e_5031; // "MNP1"

/// Version byte stamped into every protocol frame header.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of the fixed protocol frame header: magic (4), version (1),
/// kind (1), client id (8), payload length (4).
pub const FRAME_HEADER_BYTES: u64 = 18;

/// Default cap on a single frame's payload (64 MiB) — far above any
/// activation tensor the tiny real engine moves, far below an
/// allocation that could hurt the host.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Errors decoding a frame or tensor from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Message too short for the declared layout.
    Truncated,
    /// Magic number mismatch — not a tensor/protocol frame.
    BadMagic(u32),
    /// Declared shape is implausibly large.
    Oversized(u64),
    /// Frame version this codec does not speak.
    BadVersion(u8),
    /// Message kind byte not in the protocol.
    UnknownKind(u8),
    /// Declared payload length exceeds the configured cap.
    TooLarge {
        /// Length the peer declared.
        declared: u64,
        /// The configured maximum.
        max: u64,
    },
    /// A frame would stage more reassembly bytes than the per-session
    /// cap allows (anti-slow-drip bound; at most the frame cap).
    StagedOverflow {
        /// Header + payload bytes the frame would stage.
        needed: u64,
        /// The configured per-session staging cap.
        cap: u64,
    },
    /// Payload present but structurally invalid.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::Oversized(n) => write!(f, "declared element count {n} too large"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::TooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            WireError::StagedOverflow { needed, cap } => {
                write!(f, "frame stages {needed} bytes, per-session cap is {cap}")
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ByteReadError> for WireError {
    fn from(e: ByteReadError) -> Self {
        match e {
            ByteReadError::Short => WireError::Truncated,
            ByteReadError::Trailing(n) => {
                WireError::Malformed(format!("{n} trailing bytes after body"))
            }
        }
    }
}

/// Errors reading a frame from a byte stream: either the transport
/// failed ([`FrameError::Io`]) or the peer sent bytes that do not
/// decode ([`FrameError::Wire`]).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Wire(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Serializes just a protocol frame header. Exposed so fault-injection
/// tests can fabricate hostile headers (e.g. an absurd declared
/// length) without reimplementing the layout.
pub fn encode_frame_header(kind: u8, client: u64, payload_len: u32) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES as usize);
    buf.put_u32_le(FRAME_MAGIC);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(kind);
    buf.put_u64_le(client);
    buf.put_u32_le(payload_len);
    buf.freeze()
}

/// Serializes a complete protocol frame: header + payload.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (no real message
/// comes within orders of magnitude of that).
pub fn encode_frame(kind: u8, client: u64, payload: &[u8]) -> Bytes {
    let len = u32::try_from(payload.len()).expect("payload exceeds u32::MAX bytes");
    Bytes::from([&encode_frame_header(kind, client, len)[..], payload].concat())
}

/// Validates a complete frame header — magic, version, declared length
/// against `max_frame` — returning `(kind, client, payload_len)`. The
/// one header check every frame decoder and the blocking reader share.
fn parse_header(
    header: &[u8; FRAME_HEADER_BYTES as usize],
    max_frame: usize,
) -> Result<(u8, u64, usize), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header[4];
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = header[5];
    let client = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes")) as usize;
    if len > max_frame {
        return Err(WireError::TooLarge {
            declared: len as u64,
            max: max_frame as u64,
        });
    }
    Ok((kind, client, len))
}

/// Decodes a protocol frame delivered as separate header and body
/// buffers, returning `(kind, client, payload)` with the payload
/// shared by reference (no copy).
///
/// # Errors
///
/// Rejects a short header, bad magic/version, a declared length above
/// `max_frame`, and a body whose length disagrees with the header.
pub fn decode_frame_parts(
    header: &[u8],
    body: &Bytes,
    max_frame: usize,
) -> Result<(u8, u64, Bytes), WireError> {
    if header.len() > FRAME_HEADER_BYTES as usize {
        return Err(WireError::Malformed(format!(
            "{} extra header bytes",
            header.len() - FRAME_HEADER_BYTES as usize
        )));
    }
    let header = header.try_into().map_err(|_| WireError::Truncated)?;
    let (kind, client, len) = parse_header(header, max_frame)?;
    if body.len() < len {
        return Err(WireError::Truncated);
    }
    if body.len() > len {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after declared payload",
            body.len() - len
        )));
    }
    Ok((kind, client, body.clone()))
}

/// Writes a frame given as `[header, body]` slices with vectored I/O,
/// avoiding an intermediate contiguous copy. Retries short writes
/// until both slices are fully flushed.
///
/// # Errors
///
/// Propagates writer errors; a zero-length write surfaces as
/// [`io::ErrorKind::WriteZero`].
pub fn write_frame_vectored(w: &mut impl io::Write, header: &[u8], body: &[u8]) -> io::Result<()> {
    let mut head = header;
    let mut tail = body;
    while !head.is_empty() || !tail.is_empty() {
        let n = if head.is_empty() {
            w.write(tail)?
        } else if tail.is_empty() {
            w.write(head)?
        } else {
            w.write_vectored(&[io::IoSlice::new(head), io::IoSlice::new(tail)])?
        };
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        let from_head = n.min(head.len());
        head = &head[from_head..];
        tail = &tail[n - from_head..];
    }
    Ok(())
}

/// Decodes a complete protocol frame from a contiguous buffer,
/// returning `(kind, client, payload)`.
///
/// # Errors
///
/// Rejects truncation at any prefix, bad magic/version, a declared
/// payload length above `max_frame`, and trailing bytes past the
/// declared length.
pub fn decode_frame(bytes: &Bytes, max_frame: usize) -> Result<(u8, u64, Bytes), WireError> {
    let split = bytes.len().min(FRAME_HEADER_BYTES as usize);
    decode_frame_parts(&bytes[..split], &bytes.slice(split..), max_frame)
}

/// Reads one complete protocol frame (header + payload) from a byte
/// stream, returning the raw frame bytes ready for
/// [`decode_frame`]. The header is validated and the declared length
/// checked against `max_frame` **before** the payload buffer is
/// allocated — a hostile length prefix yields a typed error, not an
/// allocation.
///
/// # Errors
///
/// [`FrameError::Io`] on reader failure (including EOF mid-frame);
/// [`FrameError::Wire`] on bad magic/version or an oversize
/// declaration.
pub fn read_frame_bytes(r: &mut impl io::Read, max_frame: usize) -> Result<Bytes, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    r.read_exact(&mut header)?;
    let (_, _, len) = parse_header(&header, max_frame)?;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + len);
    frame.extend_from_slice(&header);
    frame.resize(FRAME_HEADER_BYTES as usize + len, 0);
    r.read_exact(&mut frame[FRAME_HEADER_BYTES as usize..])?;
    Ok(Bytes::from(frame))
}

/// Maximum element count a frame may declare (guards against corrupt
/// length prefixes).
pub(crate) const MAX_ELEMS: u64 = 1 << 32;

/// Serializes a tensor to its wire representation.
///
/// # Examples
///
/// ```
/// use menos_net::{decode_tensor, encode_tensor};
/// use menos_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let bytes = encode_tensor(&t);
/// let back = decode_tensor(&bytes).unwrap();
/// assert_eq!(back.dims(), t.dims());
/// assert_eq!(back.to_vec(), t.to_vec());
/// ```
pub fn encode_tensor(t: &Tensor) -> Bytes {
    let dims = t.dims();
    let data = t.storage().read();
    let mut buf = Vec::with_capacity(8 + 8 * dims.len() + 4 * data.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    put_f32s(&mut buf, &data);
    pool::count_copied(4 * data.len());
    drop(data);
    Bytes::from(buf)
}

/// Deserializes a tensor from its wire representation.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, magic mismatch, or an
/// implausible shape.
pub fn decode_tensor(bytes: &Bytes) -> Result<Tensor, WireError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let rank = r.u32()?;
    let mut dims = Vec::new();
    let mut elems: u64 = 1;
    for _ in 0..rank {
        let d = r.u64()?;
        elems = elems.saturating_mul(d.max(1));
        if elems > MAX_ELEMS {
            return Err(WireError::Oversized(elems));
        }
        dims.push(d as usize);
    }
    let n: usize = dims.iter().product();
    let data = r.f32s(n as u64)?;
    pool::count_copied(4 * n);
    Ok(Tensor::from_vec(data, dims))
}

/// The exact number of wire bytes [`encode_tensor`] produces for a
/// tensor of the given shape — used by the analytic engine to charge
/// the link without materializing data.
pub fn wire_size(dims: &[usize]) -> u64 {
    let elems: usize = dims.iter().product();
    8 + 8 * dims.len() as u64 + 4 * elems as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_shapes() {
        for dims in [vec![1], vec![3, 4], vec![2, 3, 4], vec![1, 2, 1, 2]] {
            let n: usize = dims.iter().product();
            let t = Tensor::from_vec((0..n).map(|i| i as f32 * 0.5 - 1.0).collect(), dims.clone());
            let b = encode_tensor(&t);
            assert_eq!(b.len() as u64, wire_size(&dims));
            let back = decode_tensor(&b).unwrap();
            assert_eq!(back.dims(), t.dims());
            assert_eq!(back.to_vec(), t.to_vec());
        }
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(42.0);
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        assert_eq!(back.to_scalar(), 42.0);
    }

    #[test]
    fn truncated_frames_rejected() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let full = encode_tensor(&t);
        for cut in [0, 4, 7, full.len() - 1] {
            let partial = full.slice(..cut);
            assert!(
                matches!(decode_tensor(&partial), Err(WireError::Truncated)),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u32_le(0);
        let err = decode_tensor(&buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::BadMagic(0xDEAD_BEEF)));
    }

    #[test]
    fn oversized_shape_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(2);
        buf.put_u64_le(u64::MAX / 2);
        buf.put_u64_le(u64::MAX / 2);
        let err = decode_tensor(&buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::Oversized(_)));
    }

    #[test]
    fn wire_size_matches_paper_transfer_sizes() {
        // OPT activations [16, 100, 2048] ≈ 13.1 MB.
        let opt = wire_size(&[16, 100, 2048]) as f64 / 1e6;
        assert!((12.5..13.5).contains(&opt), "OPT {opt} MB");
        // Llama activations [4, 100, 4096] ≈ 6.5 MB.
        let llama = wire_size(&[4, 100, 4096]) as f64 / 1e6;
        assert!((6.2..6.8).contains(&llama), "Llama {llama} MB");
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadMagic(1).to_string().contains("magic"));
        assert!(WireError::Oversized(9).to_string().contains("9"));
        assert!(WireError::BadVersion(9).to_string().contains("version 9"));
        assert!(WireError::UnknownKind(42).to_string().contains("42"));
        assert!(WireError::TooLarge {
            declared: 100,
            max: 10
        }
        .to_string()
        .contains("100"));
        assert!(WireError::Malformed("x".into()).to_string().contains("x"));
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(3, 77, b"hello payload");
        assert_eq!(frame.len() as u64, FRAME_HEADER_BYTES + 13);
        let (kind, client, payload) = decode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, 3);
        assert_eq!(client, 77);
        assert_eq!(&payload[..], b"hello payload");
    }

    #[test]
    fn frame_rejects_truncation_at_every_prefix() {
        let frame = encode_frame(1, 5, b"abcdef");
        for cut in 0..frame.len() {
            let partial = frame.slice(..cut);
            assert!(
                matches!(
                    decode_frame(&partial, DEFAULT_MAX_FRAME),
                    Err(WireError::Truncated)
                ),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn frame_rejects_bad_version_and_trailing_bytes() {
        let frame = encode_frame(1, 5, b"abc");
        let mut raw = frame.to_vec();
        raw[4] = 9; // version byte
        assert!(matches!(
            decode_frame(&Bytes::from(raw), DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion(9))
        ));
        let mut raw = frame.to_vec();
        raw.push(0);
        assert!(matches!(
            decode_frame(&Bytes::from(raw), DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frame_rejects_oversize_declaration_without_allocating() {
        // A hostile header declaring a u32::MAX-byte payload must be
        // rejected from the 18 header bytes alone.
        let header = encode_frame_header(2, 0, u32::MAX);
        let err = decode_frame(&header, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }));

        let mut reader = std::io::Cursor::new(header.to_vec());
        let err = read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Wire(WireError::TooLarge { .. })));
        // Nothing past the header was consumed.
        assert_eq!(reader.position(), FRAME_HEADER_BYTES);
    }

    #[test]
    fn frame_stream_round_trip() {
        let a = encode_frame(1, 1, b"first");
        let b = encode_frame(2, 2, &encode_tensor(&Tensor::zeros([2, 2])));
        let mut stream = a.to_vec();
        stream.extend_from_slice(&b);
        let mut reader = std::io::Cursor::new(stream);
        let got_a = read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        let got_b = read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
        // EOF surfaces as an I/O error, not a panic.
        let err = read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }
}
