//! Nonblocking frame I/O: incremental reassembly of protocol frames
//! from arbitrarily fragmented byte chunks, and a partial-write queue
//! for the mirror direction.
//!
//! The blocking path ([`crate::read_frame_bytes`]) owns a socket and
//! parks the thread until a whole frame arrives — one thread per
//! client. An event-driven server instead reads *whatever bytes are
//! available right now* from many nonblocking sockets on one thread,
//! so frames arrive in fragments: half a header now, the rest plus two
//! complete frames later. [`FrameAccumulator`] turns that fragment
//! stream back into the exact frames the blocking reader would have
//! produced, enforcing the same safety property: the 18-byte header is
//! validated (magic, version, declared length vs the cap) **before**
//! any payload buffer is reserved, and validation happens *as the
//! header bytes trickle in* — a hostile magic byte is rejected on byte
//! one, a hostile length on byte eighteen, never after a payload
//! allocation.
//!
//! [`WriteQueue`] is the outbound mirror: frames are queued whole, and
//! `write_to` pushes as many bytes as the peer will take, remembering
//! the offset mid-frame when the socket signals `WouldBlock`.

use std::collections::VecDeque;
use std::io;

use bytes::Bytes;

use crate::wire::{WireError, FRAME_HEADER_BYTES, FRAME_MAGIC, WIRE_VERSION};

const HEADER: usize = FRAME_HEADER_BYTES as usize;

/// Incremental protocol-frame reassembler for nonblocking reads.
///
/// Feed it byte chunks in arrival order via [`FrameAccumulator::push`];
/// it yields every frame completed by that chunk. The bytes of each
/// yielded frame are identical to what [`crate::read_frame_bytes`]
/// would return from the same stream.
///
/// # Examples
///
/// ```
/// use menos_net::{encode_frame, FrameAccumulator, DEFAULT_MAX_FRAME};
///
/// let frame = encode_frame(1, 7, b"payload");
/// let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
/// // Dribble the frame in one byte at a time.
/// let mut got = Vec::new();
/// for &b in frame.iter() {
///     got.extend(acc.push(&[b]).unwrap());
/// }
/// assert_eq!(got, vec![frame]);
/// ```
#[derive(Debug)]
pub struct FrameAccumulator {
    max_frame: usize,
    /// Upper bound on bytes this accumulator will ever stage for one
    /// in-progress frame (header + payload). Defaults to `max_frame`.
    staged_cap: usize,
    /// Bytes of the in-progress frame (header prefix + payload prefix).
    buf: Vec<u8>,
    /// Total size of the in-progress frame once the header is parsed
    /// (`None` while still inside the header).
    need: Option<usize>,
    /// How many header bytes have already passed validation.
    checked: usize,
    /// Size of the last completed frame — the staging-buffer capacity
    /// hint for the next one, so steady-state same-size frames are
    /// staged in one allocation instead of growing a `Vec` by doubling.
    hint: usize,
}

impl FrameAccumulator {
    /// Creates an accumulator that rejects frames whose declared
    /// payload exceeds `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameAccumulator {
        FrameAccumulator {
            max_frame,
            staged_cap: HEADER + max_frame,
            buf: Vec::new(),
            need: None,
            checked: 0,
            hint: HEADER,
        }
    }

    /// Caps the reassembly buffer at `staged_cap` bytes (header +
    /// payload), independently of the protocol-level frame cap.
    ///
    /// `max_frame` is a protocol constant ("no peer may *declare* more
    /// than this"); the staged cap is a deployment memory knob ("this
    /// server will not *hold* more than this per session while a frame
    /// trickles in"). A slow-drip client parks its partial frame in
    /// this buffer for as long as it stays connected, so an event
    /// server with many sessions sizes the cap to its largest
    /// legitimate frame, not to the defensive protocol maximum. A
    /// header declaring more than the cap is rejected with
    /// [`WireError::StagedOverflow`] before any payload capacity is
    /// reserved.
    pub fn with_staged_cap(mut self, staged_cap: usize) -> FrameAccumulator {
        self.staged_cap = staged_cap;
        self
    }

    /// Validates the header bytes received so far. Called after every
    /// header byte lands, so a bad magic or version is rejected at the
    /// earliest byte that proves it, and the declared length is checked
    /// against the cap before any payload capacity is reserved.
    fn check_header(&mut self) -> Result<(), WireError> {
        let magic = FRAME_MAGIC.to_le_bytes();
        while self.checked < self.buf.len().min(HEADER) {
            let i = self.checked;
            let b = self.buf[i];
            match i {
                0..=3 if b != magic[i] => {
                    let mut got = [0u8; 4];
                    got[..=i].copy_from_slice(&self.buf[..=i]);
                    return Err(WireError::BadMagic(u32::from_le_bytes(got)));
                }
                4 if b != WIRE_VERSION => {
                    return Err(WireError::BadVersion(b));
                }
                _ => {}
            }
            self.checked += 1;
        }
        if self.need.is_none() && self.buf.len() >= HEADER {
            let len = u32::from_le_bytes(self.buf[14..18].try_into().expect("4 bytes")) as usize;
            if len > self.max_frame {
                return Err(WireError::TooLarge {
                    declared: len as u64,
                    max: self.max_frame as u64,
                });
            }
            if HEADER + len > self.staged_cap {
                return Err(WireError::StagedOverflow {
                    needed: (HEADER + len) as u64,
                    cap: self.staged_cap as u64,
                });
            }
            // Only now — with the declared length validated — is the
            // payload buffer reserved.
            self.need = Some(HEADER + len);
            self.buf.reserve_exact(HEADER + len - self.buf.len());
        }
        Ok(())
    }

    /// Appends a chunk of received bytes, returning every frame the
    /// chunk completes (possibly none, possibly several).
    ///
    /// # Errors
    ///
    /// Returns the same [`WireError`]s as the blocking reader: bad
    /// magic, unsupported version, or an oversize length declaration.
    /// After an error the connection should be dropped; the
    /// accumulator's further behaviour is unspecified.
    pub fn push(&mut self, mut chunk: &[u8]) -> Result<Vec<Bytes>, WireError> {
        let mut out = Vec::new();
        while !chunk.is_empty() {
            if self.buf.capacity() == 0 {
                // Starting a new frame: stage into a buffer sized by
                // the previous frame (steady-state traffic repeats the
                // same tensor shapes). The staged cap still bounds
                // what this accumulator may hold.
                self.buf = Vec::with_capacity(self.hint.min(self.staged_cap));
            }
            let want = match self.need {
                Some(n) => n,
                None => HEADER,
            };
            let take = (want - self.buf.len()).min(chunk.len());
            self.buf.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.need.is_none() {
                self.check_header()?;
            }
            if let Some(n) = self.need {
                if self.buf.len() == n {
                    // Completed frames move into `Bytes` without a
                    // copy.
                    out.push(Bytes::from(std::mem::take(&mut self.buf)));
                    self.need = None;
                    self.checked = 0;
                    self.hint = n;
                }
            }
        }
        Ok(out)
    }
}

/// Outbound frame queue with partial-write support and vectored
/// writes.
///
/// Frames are enqueued as one or more byte segments in send order —
/// whole via [`WriteQueue::push`], or as `[header, body]` reference
/// pairs via [`WriteQueue::push_frame`] (no contiguous copy is built).
/// [`WriteQueue::write_to`] gathers the front segments into a single
/// `write_vectored` call and pushes bytes until the queue drains or
/// the writer signals `WouldBlock`, remembering the mid-segment offset
/// so the next call resumes exactly where the socket stopped — even
/// mid-header.
#[derive(Debug, Default)]
pub struct WriteQueue {
    queue: VecDeque<Bytes>,
    /// Bytes of the front segment already accepted by the writer.
    offset: usize,
}

/// Max segments gathered into one vectored write (two per frame, so
/// this batches several small frames per syscall).
const WRITE_BATCH_SEGMENTS: usize = 16;

impl WriteQueue {
    /// Creates an empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Enqueues an encoded frame for transmission.
    pub fn push(&mut self, frame: Bytes) {
        self.queue.push_back(frame);
    }

    /// Enqueues a frame given as separate header and body buffers.
    /// Both are shared by reference; the body of a tensor reply is
    /// typically the encoder's buffer, refcounted rather than copied.
    pub fn push_frame(&mut self, header: Bytes, body: Bytes) {
        self.queue.push_back(header);
        if !body.is_empty() {
            self.queue.push_back(body);
        }
    }

    /// True when every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes still waiting to be written (including the unwritten tail
    /// of a partially sent segment).
    pub fn queued_bytes(&self) -> usize {
        self.queue.iter().map(Bytes::len).sum::<usize>() - self.offset
    }

    /// Pops fully-written (or empty) front segments.
    fn pop_done(&mut self) {
        while let Some(front) = self.queue.front() {
            if self.offset < front.len() {
                break;
            }
            self.offset = 0;
            self.queue.pop_front();
        }
    }

    /// Writes as much queued data as the writer accepts, gathering the
    /// front segments into vectored writes. Returns `Ok(true)` when
    /// the queue drained, `Ok(false)` when the writer signalled
    /// `WouldBlock` mid-stream (call again on the next writability
    /// event).
    ///
    /// # Errors
    ///
    /// Propagates writer errors other than `WouldBlock`/`Interrupted`;
    /// a writer that accepts zero bytes yields `WriteZero`.
    pub fn write_to(&mut self, w: &mut impl io::Write) -> io::Result<bool> {
        self.pop_done();
        while !self.queue.is_empty() {
            let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(WRITE_BATCH_SEGMENTS);
            for (i, seg) in self.queue.iter().take(WRITE_BATCH_SEGMENTS).enumerate() {
                let off = if i == 0 { self.offset } else { 0 };
                slices.push(io::IoSlice::new(&seg[off..]));
            }
            match w.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(mut n) => {
                    // Advance across however many segments `n` covers.
                    while n > 0 {
                        let rem =
                            self.queue.front().expect("bytes imply a segment").len() - self.offset;
                        if n >= rem {
                            n -= rem;
                            self.offset = 0;
                            self.queue.pop_front();
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                    self.pop_done();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, encode_frame_header, read_frame_bytes, DEFAULT_MAX_FRAME};

    fn frames() -> Vec<Bytes> {
        vec![
            encode_frame(1, 3, b"alpha"),
            encode_frame(2, 3, &vec![0xAB; 300]),
            encode_frame(4, 3, b""),
        ]
    }

    /// Satellite requirement: dribbling a frame stream one byte at a
    /// time reassembles exactly the frames a blocking reader sees.
    #[test]
    fn one_byte_dribble_matches_blocking_reads() {
        let frames = frames();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_vec()).collect();

        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for &b in &stream {
            got.extend(acc.push(&[b]).expect("valid stream"));
        }
        assert!(acc.buf.is_empty());

        let mut reader = std::io::Cursor::new(stream);
        let blocking: Vec<Bytes> = (0..frames.len())
            .map(|_| read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).expect("blocking read"))
            .collect();
        assert_eq!(got, blocking);
        assert_eq!(got, frames);
    }

    #[test]
    fn bulk_push_yields_multiple_frames_and_keeps_partials() {
        let frames = frames();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_vec()).collect();
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
        // Everything except the final byte: first two frames complete,
        // third stays pending.
        let most = acc.push(&stream[..stream.len() - 1]).unwrap();
        assert_eq!(most, frames[..2]);
        assert!(!acc.buf.is_empty());
        assert_eq!(acc.buf.len(), frames[2].len() - 1);
        let last = acc.push(&stream[stream.len() - 1..]).unwrap();
        assert_eq!(last, frames[2..]);
        assert!(acc.buf.is_empty());
    }

    #[test]
    fn random_fragmentation_matches_whole_frames() {
        let frames = frames();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_vec()).collect();
        // Deterministic "random" chunk sizes cycling through awkward
        // boundaries (mid-magic, mid-length, mid-payload).
        for chunk_sizes in [&[1usize, 2, 3, 5, 7][..], &[17, 19][..], &[4, 14, 1][..]] {
            let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::new();
            let mut pos = 0;
            let mut i = 0;
            while pos < stream.len() {
                let n = chunk_sizes[i % chunk_sizes.len()].min(stream.len() - pos);
                got.extend(acc.push(&stream[pos..pos + n]).unwrap());
                pos += n;
                i += 1;
            }
            assert_eq!(got, frames, "chunks {chunk_sizes:?}");
        }
    }

    #[test]
    fn hostile_magic_rejected_on_first_bad_byte() {
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
        let err = acc.push(b"X").unwrap_err();
        assert!(matches!(err, WireError::BadMagic(_)), "{err}");
    }

    #[test]
    fn hostile_version_rejected_at_byte_five() {
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME);
        let good = encode_frame(1, 0, b"x");
        assert!(acc.push(&good[..4]).unwrap().is_empty());
        let err = acc.push(&[9]).unwrap_err();
        assert!(matches!(err, WireError::BadVersion(9)), "{err}");
    }

    #[test]
    fn hostile_length_rejected_before_payload_reservation() {
        let mut acc = FrameAccumulator::new(1 << 20);
        let header = encode_frame_header(2, 0, u32::MAX);
        let err = acc.push(&header).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }), "{err}");
        // No payload-sized buffer was ever reserved.
        assert!(acc.buf.capacity() < 4096, "capacity {}", acc.buf.capacity());
    }

    /// Satellite requirement: N sessions drip-feeding partial frames
    /// cannot grow server memory past `N * staged_cap` — a header
    /// declaring more than the cap is rejected before any payload
    /// capacity is reserved, and an accepted frame's buffer never
    /// exceeds the cap.
    #[test]
    fn slow_drip_sessions_stay_under_the_staged_cap() {
        const SESSIONS: usize = 64;
        const STAGED_CAP: usize = 4 << 10;
        let header = HEADER;

        // Hostile case: each session declares a 1 MiB payload (legal
        // under max_frame) and then stalls. The declaration itself must
        // be rejected at header completion.
        let mut hostile: Vec<FrameAccumulator> = (0..SESSIONS)
            .map(|_| FrameAccumulator::new(DEFAULT_MAX_FRAME).with_staged_cap(STAGED_CAP))
            .collect();
        let big = encode_frame_header(2, 0, 1 << 20);
        for acc in &mut hostile {
            // Drip the header one byte at a time; the overflow fires on
            // the final header byte, before any payload reservation.
            for &b in &big[..header - 1] {
                assert!(acc.push(&[b]).unwrap().is_empty());
            }
            let err = acc.push(&big[header - 1..header]).unwrap_err();
            assert!(matches!(err, WireError::StagedOverflow { .. }), "{err}");
        }
        let total: usize = hostile.iter().map(|a| a.buf.capacity()).sum();
        assert!(
            total <= SESSIONS * STAGED_CAP,
            "hostile sessions hold {total} bytes"
        );

        // Legitimate case: frames under the cap still reassemble from a
        // drip, and the buffer never exceeds the cap.
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME).with_staged_cap(STAGED_CAP);
        let frame = encode_frame(2, 9, &vec![0x5A; STAGED_CAP / 2]);
        let mut got = Vec::new();
        for chunk in frame.chunks(7) {
            got.extend(acc.push(chunk).unwrap());
            assert!(acc.buf.capacity() <= STAGED_CAP, "{}", acc.buf.capacity());
        }
        assert_eq!(got, vec![frame]);

        // A fresh accumulator whose size hint exceeds the cap stages
        // at most the cap.
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME).with_staged_cap(STAGED_CAP);
        acc.hint = 1 << 20;
        assert!(acc.push(&big[..1]).unwrap().is_empty());
        assert!(acc.buf.capacity() <= STAGED_CAP, "{}", acc.buf.capacity());
    }

    /// A writer that accepts at most `cap` bytes per call and signals
    /// `WouldBlock` on every other call — the worst-case nonblocking
    /// socket.
    struct Throttled {
        sink: Vec<u8>,
        cap: usize,
        starve: bool,
    }

    impl io::Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "try later"));
            }
            let n = buf.len().min(self.cap);
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Satellite requirement: writes split mid-header (1 byte at a
    /// time, interleaved with WouldBlock) still deliver a byte stream
    /// that blocking reads decode to the original frames.
    #[test]
    fn partial_writes_split_mid_header_still_decode() {
        let frames = frames();
        let mut q = WriteQueue::new();
        for f in &frames {
            q.push(f.clone());
        }
        let total: usize = frames.iter().map(|f| f.len()).sum();
        assert_eq!(q.queued_bytes(), total);

        let mut w = Throttled {
            sink: Vec::new(),
            cap: 1,
            starve: false,
        };
        let mut rounds = 0;
        while !q.write_to(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 10 * total, "no progress");
        }
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);

        let mut reader = std::io::Cursor::new(w.sink);
        for f in &frames {
            let got = read_frame_bytes(&mut reader, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(&got, f);
        }
    }

    /// Frames queued as `[header, body]` segment pairs must produce a
    /// byte stream identical to queuing the contiguous encoding —
    /// including under 1-byte throttled vectored writes.
    #[test]
    fn segmented_frames_match_contiguous_encoding() {
        use crate::wire::{encode_frame_header, encode_tensor};
        let body = encode_tensor(&menos_tensor::Tensor::from_vec(
            (0..64).map(|i| i as f32 * 0.5).collect(),
            [8, 8],
        ));
        let contiguous = encode_frame(2, 11, &body);
        let header = encode_frame_header(2, 11, body.len() as u32);

        let mut q = WriteQueue::new();
        q.push_frame(header.clone(), body.clone());
        q.push_frame(encode_frame_header(4, 11, 0), Bytes::new());
        assert_eq!(q.queued_bytes(), contiguous.len() + HEADER);
        let mut sink = Vec::new();
        assert!(q.write_to(&mut sink).unwrap());
        assert_eq!(&sink[..contiguous.len()], &contiguous[..]);

        // Same stream under the worst-case writer.
        let mut q = WriteQueue::new();
        q.push_frame(header, body);
        let mut w = Throttled {
            sink: Vec::new(),
            cap: 1,
            starve: false,
        };
        while !q.write_to(&mut w).unwrap() {}
        assert_eq!(w.sink, contiguous.to_vec());
    }

    #[test]
    fn write_zero_surfaces_as_error() {
        struct Dead;
        impl io::Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new();
        q.push(encode_frame(1, 0, b"x"));
        let err = q.write_to(&mut Dead).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
