//! Shared by the corruption suites (`snapshot_corruption.rs`,
//! `session_migration.rs`, `hostile_lengths.rs`): a map of every
//! length, count and dimension field inside a server snapshot or a
//! migration blob, a way to overwrite one and *re-seal* every CRC
//! around it, and the smallest blobs that used to abort the server.
//!
//! Truncations and bit flips die at the outermost CRC-32, which is not
//! keyed: anyone can recompute it. The decoders behind the checksum are
//! the real boundary, and the only way to test them is to hand them
//! bytes whose checksums are all valid.
//!
//! The walk follows the formats as written (`SectionWriter`, the
//! `Connect` config body, `save_checkpoint`, `OptimState::to_bytes`)
//! over bytes this process just produced, so it indexes freely; it is
//! a description of the layout, not a decoder.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use menos::tensor::crc32;

/// A 42-byte `save_checkpoint` image: one trainable rank-2 parameter
/// `"w"` of shape `[65536, 65536]` — 2^32 elements, the most the
/// element guard admits — and not one byte of data.
pub fn checkpoint_declaring_2_pow_32_elements() -> Vec<u8> {
    let mut blob = Vec::new();
    blob.extend(0x4d43_4b50u32.to_le_bytes()); // "MCKP"
    blob.extend(1u32.to_le_bytes()); // version
    blob.extend(1u64.to_le_bytes()); // parameters
    blob.extend(1u32.to_le_bytes()); // name length
    blob.extend([b'w', 1]); // name, trainable
    blob.extend(2u32.to_le_bytes()); // rank
    blob.extend(65_536u64.to_le_bytes());
    blob.extend(65_536u64.to_le_bytes());
    assert_eq!(blob.len(), 42);
    blob
}

/// A 25-byte optimizer-state image of the retired SGD kind: momentum
/// and one velocity buffer of 2^32 elements, likewise without data.
pub fn sgd_state_declaring_2_pow_32_elements() -> Vec<u8> {
    let mut blob = vec![0u8]; // kind: SGD
    blob.extend(0.1f32.to_le_bytes()); // lr
    blob.extend(0.9f32.to_le_bytes()); // momentum
    blob.extend(1u64.to_le_bytes()); // buffers
    blob.extend((1u64 << 32).to_le_bytes()); // elements in buffer 0
    assert_eq!(blob.len(), 25);
    blob
}

/// A 41-byte `OptimState::to_bytes` image: Adam with one first-moment
/// buffer of 2^32 elements, likewise without data.
pub fn adam_state_declaring_2_pow_32_elements() -> Vec<u8> {
    let mut blob = vec![1u8]; // kind: Adam
    for hyper in [3e-4f32, 0.9, 0.999, 1e-8] {
        blob.extend(hyper.to_le_bytes()); // lr, β1, β2, ε
    }
    blob.extend(1u64.to_le_bytes()); // t
    blob.extend(1u64.to_le_bytes()); // first-moment buffers
    blob.extend((1u64 << 32).to_le_bytes()); // elements in buffer 0
    assert_eq!(blob.len(), 41);
    blob
}

/// Hands `refuse` every way of overwriting one sizing field of `bytes`
/// (a snapshot or a migration blob) with `0`, `1<<31`, `1<<32` or
/// `u64::MAX` under valid checksums, with a label for failure messages.
/// No value but the written one can be valid, so `refuse` must see
/// each of them refused.
pub fn every_resealed_overwrite(bytes: &[u8], mut refuse: impl FnMut(&str, &[u8])) {
    let mut layout = Layout::default();
    layout.container(bytes, 0, bytes.len(), 0, "");
    for innermost in ["/adapters[0].dim[1]", "/optim/list[1][0].len", "/reply.len"] {
        let reached = layout.fields.iter().any(|f| f.what.ends_with(innermost));
        assert!(reached, "the walk never reached {innermost}");
    }
    for field in &layout.fields {
        for value in [0, 1 << 31, 1 << 32, u64::MAX] {
            if let Some(damaged) = layout.resealed(bytes, field, value) {
                refuse(&format!("{} = {value:#x}", field.what), &damaged);
            }
        }
    }
}

struct Field {
    /// Where it sits (`…/optim/list[1][3].len`).
    what: String,
    /// Byte offset from the start of the outermost container.
    at: usize,
    /// 1, 4 or 8 bytes, little-endian.
    width: usize,
}

/// Every sizing field, and the byte range of every (nested) container.
#[derive(Default)]
struct Layout {
    fields: Vec<Field>,
    /// `(start, end)` of each container, outermost first.
    containers: Vec<(usize, usize)>,
}

fn u32_at(b: &[u8], at: usize) -> usize {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(b: &[u8], at: usize) -> usize {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize
}

impl Layout {
    fn field(&mut self, what: String, at: usize, width: usize) {
        self.fields.push(Field { what, at, width });
    }

    /// `depth` 0 is the snapshot or blob, 1 a session record, 2 the
    /// `ServerSession::to_state` container inside it.
    fn container(&mut self, b: &[u8], start: usize, end: usize, depth: u8, path: &str) {
        self.containers.push((start, end));
        self.field(format!("{path}/sections"), start + 8, 8);
        let mut p = start + 16;
        for i in 0..u64_at(b, start + 8) {
            let (tag, len) = (u32_at(b, p), u64_at(b, p + 4));
            self.field(format!("{path}/section[{i}].len"), p + 4, 8);
            let (from, to) = (p + 12, p + 12 + len);
            match (depth, tag) {
                // A snapshot's meta is seed, mode, session count.
                (0, 1) if len == 17 => self.field(format!("{path}/declared"), from + 9, 8),
                (0, 2) => self.container(b, from, to, 1, &format!("{path}/record[{i}]")),
                (1, 2) => self.container(b, from, to, 2, &format!("{path}/session")),
                // A cached reply is a wire frame; its header ends with
                // the payload length.
                (1, 3) => self.field(format!("{path}/reply.len"), from + 14, 4),
                (2, 1) => self.field(format!("{path}/micro_step"), from + 32, 8),
                (2, 2) => self.config(b, from, &format!("{path}/config")),
                (2, 3) => self.checkpoint(b, from, &format!("{path}/adapters")),
                (2, 4) => self.optim(b, from, &format!("{path}/optim")),
                _ => {}
            }
            p = to;
        }
        assert_eq!(p + 4, end, "container {path:?} walked to its CRC");
    }

    /// A config: adapter kind (LoRA), rank, α, targets-per-block,
    /// target list, optimizer kind (Adam) and lr, then batch size,
    /// sequence length, accumulation factor (always 1) and cut layer.
    /// (Targets-per-block sizes nothing on the server: other values
    /// are legal.)
    fn config(&mut self, b: &[u8], from: usize, path: &str) {
        self.field(format!("{path}.rank"), from + 1, 8);
        self.field(format!("{path}.targets"), from + 21, 1);
        let sizes = from + 22 + b[from + 21] as usize + 5;
        self.field(format!("{path}.batch_size"), sizes, 8);
        self.field(format!("{path}.seq_len"), sizes + 8, 8);
        self.field(format!("{path}.accumulation"), sizes + 16, 8);
        self.field(format!("{path}.front_layers"), sizes + 24, 8);
    }

    fn checkpoint(&mut self, b: &[u8], from: usize, path: &str) {
        self.field(format!("{path}.params"), from + 8, 8);
        let mut p = from + 16;
        for i in 0..u64_at(b, from + 8) {
            self.field(format!("{path}[{i}].name_len"), p, 4);
            p += 4 + u32_at(b, p) + 1;
            self.field(format!("{path}[{i}].rank"), p, 4);
            let mut elems = 1;
            for d in 0..u32_at(b, p) {
                self.field(format!("{path}[{i}].dim[{d}]"), p + 4 + 8 * d, 8);
                elems *= u64_at(b, p + 4 + 8 * d);
            }
            p += 4 + 8 * u32_at(b, p) + 4 * elems;
        }
    }

    /// Kind (Adam), lr + β1 + β2 + ε + t, then two buffer lists.
    fn optim(&mut self, b: &[u8], from: usize, path: &str) {
        let mut p = from + 25;
        for list in 0..2 {
            self.field(format!("{path}/list[{list}].buffers"), p, 8);
            let n = u64_at(b, p);
            p += 8;
            for i in 0..n {
                self.field(format!("{path}/list[{list}][{i}].len"), p, 8);
                p += 8 + 4 * u64_at(b, p);
            }
        }
    }

    /// `bytes` with `field` set to `value` (cut to its width) and the
    /// CRC of every container around it recomputed, innermost first —
    /// or `None` if that is the value already there.
    fn resealed(&self, bytes: &[u8], field: &Field, value: u64) -> Option<Vec<u8>> {
        let (from, to) = (field.at, field.at + field.width);
        let mut out = bytes.to_vec();
        out[from..to].copy_from_slice(&value.to_le_bytes()[..field.width]);
        for &(start, end) in self.containers.iter().rev() {
            if (start..end).contains(&field.at) {
                let crc = crc32(&out[start..end - 4]);
                out[end - 4..end].copy_from_slice(&crc.to_le_bytes());
            }
        }
        (out != bytes).then_some(out)
    }
}
