//! Size-classed buffer pools for the tensor hot path.
//!
//! The split-learning step loop decodes a boundary tensor, runs the
//! server segment, and encodes a reply — every step, for every client.
//! Without pooling each of those stages allocates fresh storage that
//! lives for exactly one step. This module recycles that storage:
//! freed `Vec<f32>` tensor buffers and `Vec<u8>` frame buffers park in
//! per-thread, size-classed bins and are handed back to the next
//! allocation of a compatible size.
//!
//! # Bit-identity / poisoning argument
//!
//! A recycled buffer may still *physically* contain a previous
//! tensor's bytes, but safe code can never observe them:
//!
//! * [`take_f32`] / [`take_bytes`] return buffers with **length 0**
//!   (only capacity is recycled). The whole crate is
//!   `#![forbid(unsafe_code)]`, so the spare capacity beyond `len` is
//!   unreachable; callers grow the buffer exclusively by writing new
//!   data (`push` / `extend_from_slice` / `resize`).
//! * [`take_zeroed_f32`] returns a buffer fully overwritten with
//!   `0.0` before it is exposed.
//!
//! Either way every byte a caller can read was written after the
//! buffer left the pool, so pooled and non-pooled execution are
//! bitwise identical.
//!
//! # Threading
//!
//! Bins are thread-local (no locks on the hot path); the hit/miss
//! counters are global atomics so benchmarks can observe pool
//! behaviour across worker threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest `f32` buffer the pool recycles (in elements). Anything
/// below this is cheaper to malloc than to bin.
const MIN_POOL_F32: usize = 512;

/// Smallest byte buffer the pool recycles.
const MIN_POOL_BYTES: usize = 4096;

/// Largest buffer the pool will hold on to (bytes). Anything bigger
/// is returned to the allocator.
const MAX_POOL_BYTES: usize = 64 << 20;

/// Per-thread ceiling on parked bytes across all bins; recycling past
/// this drops the buffer instead. Kept tight: parked capacity is real
/// RSS, and a cap much larger than a step's working set turns the
/// pool into a leak-shaped plateau of never-reused size classes.
const HELD_BYTES_CAP: usize = 48 << 20;

/// Max parked buffers per size class per thread.
const PER_CLASS_CAP: usize = 8;

const NUM_CLASSES: usize = 64;

// Global counters (shared by the f32 and byte pools).
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

struct Bins<T> {
    classes: Vec<Vec<Vec<T>>>,
    held_bytes: usize,
}

impl<T> Bins<T> {
    fn new() -> Self {
        Bins {
            classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            held_bytes: 0,
        }
    }
}

struct LocalPool {
    f32s: Bins<f32>,
    bytes: Bins<u8>,
}

thread_local! {
    static POOL: RefCell<LocalPool> = RefCell::new(LocalPool {
        f32s: Bins::new(),
        bytes: Bins::new(),
    });
}

/// Class index a request of `len` elements draws from: the smallest
/// power of two ≥ `len`, so every parked buffer in that class has
/// enough capacity.
fn class_for_request(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// Class index a buffer of `cap` capacity parks in: the largest power
/// of two ≤ `cap`, so its capacity covers any request routed there.
fn class_for_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

fn take<T>(bins: &mut Bins<T>, len: usize, elem_size: usize) -> Option<Vec<T>> {
    let first = class_for_request(len);
    // A request may also be satisfied by the next class up; checking
    // one extra bin keeps odd sizes from permanently missing.
    for class in first..(first + 2).min(NUM_CLASSES) {
        if let Some(buf) = bins.classes[class].pop() {
            bins.held_bytes -= buf.capacity() * elem_size;
            HITS.fetch_add(1, Ordering::Relaxed);
            return Some(buf);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    None
}

fn park<T>(bins: &mut Bins<T>, buf: Vec<T>, elem_size: usize) {
    let cap_bytes = buf.capacity() * elem_size;
    let class = class_for_capacity(buf.capacity());
    if class >= NUM_CLASSES
        || bins.classes[class].len() >= PER_CLASS_CAP
        || bins.held_bytes + cap_bytes > HELD_BYTES_CAP
    {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    bins.held_bytes += cap_bytes;
    bins.classes[class].push(buf);
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

/// Takes an **empty** `f32` buffer with capacity ≥ `len` from the
/// pool (or the allocator on a miss). The returned vector has length
/// zero: callers fill it with `push`/`extend` and never observe
/// recycled contents.
pub fn take_f32(len: usize) -> Vec<f32> {
    if len < MIN_POOL_F32 {
        return Vec::with_capacity(len);
    }
    let pooled = POOL
        .try_with(|p| take(&mut p.borrow_mut().f32s, len, 4))
        .ok()
        .flatten();
    match pooled {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// Takes a zero-filled `f32` buffer of exactly `len` elements.
pub fn take_zeroed_f32(len: usize) -> Vec<f32> {
    let mut buf = take_f32(len);
    buf.resize(len, 0.0);
    buf
}

/// Returns an `f32` buffer to the pool. Small or oversized buffers
/// (and overflow past the per-thread cap) go back to the allocator.
pub fn recycle_f32(buf: Vec<f32>) {
    if buf.capacity() < MIN_POOL_F32 || buf.capacity() * 4 > MAX_POOL_BYTES {
        return;
    }
    let _ = POOL.try_with(|p| park(&mut p.borrow_mut().f32s, buf, 4));
}

/// Takes an **empty** byte buffer with capacity ≥ `len` (length 0;
/// see the module docs for why recycled contents stay unreachable).
pub fn take_bytes(len: usize) -> Vec<u8> {
    if len < MIN_POOL_BYTES {
        return Vec::with_capacity(len);
    }
    let pooled = POOL
        .try_with(|p| take(&mut p.borrow_mut().bytes, len, 1))
        .ok()
        .flatten();
    match pooled {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// Returns a byte buffer to the pool.
pub fn recycle_bytes(buf: Vec<u8>) {
    if buf.capacity() < MIN_POOL_BYTES || buf.capacity() > MAX_POOL_BYTES {
        return;
    }
    let _ = POOL.try_with(|p| park(&mut p.borrow_mut().bytes, buf, 1));
}

/// Adds `n` bytes to the global copied-bytes counter. The wire codec
/// and the concat/narrow kernels call this on every bulk copy so
/// benchmarks can report bytes moved per step.
pub fn count_copied(n: usize) {
    BYTES_COPIED.fetch_add(n as u64, Ordering::Relaxed);
}

/// A snapshot of the global pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes satisfied from a bin.
    pub hits: u64,
    /// Takes that fell through to the allocator.
    pub misses: u64,
    /// Buffers parked for reuse.
    pub recycled: u64,
    /// Buffers dropped at recycle time (bin full / over cap).
    pub dropped: u64,
    /// Bytes moved through instrumented bulk copies.
    pub bytes_copied: u64,
}

impl PoolStats {
    /// Hit fraction over all pool-eligible takes (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the global pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
    }
}

/// Resets the global pool counters (benchmark warm-up boundary).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    BYTES_COPIED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_routing_guarantees_capacity() {
        for len in [1usize, 2, 3, 511, 512, 513, 1000, 1024, 1 << 20] {
            let req = class_for_request(len);
            assert!(1usize << req >= len);
        }
        for cap in [512usize, 513, 1023, 1024, 4096, 1 << 20] {
            let cls = class_for_capacity(cap);
            assert!(1usize << cls <= cap);
        }
    }

    #[test]
    fn recycled_buffer_is_reused_and_empty() {
        let mut v = take_f32(2048);
        v.extend(std::iter::repeat(7.5f32).take(2048));
        let cap = v.capacity();
        recycle_f32(v);
        let v2 = take_f32(2048);
        assert_eq!(v2.len(), 0, "recycled take must be empty");
        assert!(v2.capacity() >= 2048);
        // Same thread, compatible class: expect the parked buffer back.
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn zeroed_take_is_all_zero_after_recycle() {
        let mut v = take_f32(4096);
        v.extend(std::iter::repeat(f32::NAN).take(4096));
        recycle_f32(v);
        let z = take_zeroed_f32(4096);
        assert_eq!(z.len(), 4096);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        // Park a big buffer, then make a tiny request: the bypass path
        // must not hand the big pooled buffer to a sub-threshold take.
        let mut big = take_f32(1 << 16);
        big.push(1.0);
        recycle_f32(big);
        let v = take_f32(4);
        assert!(v.capacity() < MIN_POOL_F32);
    }

    #[test]
    fn byte_pool_round_trip() {
        let mut b = take_bytes(8192);
        b.extend_from_slice(&[0xAB; 8192]);
        recycle_bytes(b);
        let b2 = take_bytes(5000);
        assert_eq!(b2.len(), 0);
        assert!(b2.capacity() >= 5000);
    }
}
