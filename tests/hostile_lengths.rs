//! A length field is not an allocation request.
//!
//! `load_checkpoint` and `OptimState::from_bytes` sit behind
//! `ImportSession`, which any peer may send, so their inputs are
//! hostile. Two blobs of 42 and 25 bytes (`tests/common`) made the
//! previous parsers reserve 16 GiB before reading a byte of payload —
//! on most hosts a failed allocation, i.e. a process abort taking
//! every tenant's session with it. Through `ByteReader::f32s` the
//! checkpoint and a 41-byte Adam image are `Truncated`; the 25-byte
//! image is of the retired SGD kind and is refused at its kind tag.
//! This file's allocator checks the stronger claim: while decoding, no
//! single allocation is larger than the input.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use menos::adapters::OptimState;
use menos::tensor::{load_checkpoint, CheckpointError};

thread_local! {
    /// Largest single allocation this thread has requested since it was
    /// last reset. Const-initialized and without a destructor, so the
    /// allocator may touch it at any point of a thread's life.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, watched.
struct Watched;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds `GlobalAlloc`'s contract (`realloc` and `alloc_zeroed` are the
// trait's defaults, built on `alloc`); the only addition is a store to
// a const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watched = Watched;

/// Runs `decode` and returns its result with the largest single
/// allocation it made on this thread.
fn watched<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = decode();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn declared_sizes_never_allocate_beyond_the_input() {
    let checkpoint = common::checkpoint_declaring_2_pow_32_elements();
    let (result, largest) = watched(|| load_checkpoint(&checkpoint).map(|_| ()));
    assert_eq!(result, Err(CheckpointError::Truncated));
    assert!(largest <= checkpoint.len(), "allocated {largest} bytes");

    let adam = common::adam_state_declaring_2_pow_32_elements();
    let (result, largest) = watched(|| OptimState::from_bytes(&adam).map(|_| ()));
    assert_eq!(result, Err(CheckpointError::Truncated));
    assert!(largest <= adam.len(), "allocated {largest} bytes");

    let sgd = common::sgd_state_declaring_2_pow_32_elements();
    let (result, largest) = watched(|| OptimState::from_bytes(&sgd).map(|_| ()));
    assert!(
        matches!(&result, Err(CheckpointError::Corrupt(why)) if why.contains("SGD")),
        "{result:?}"
    );
    assert!(largest <= sgd.len(), "allocated {largest} bytes");

    // The watch itself works: it sees an allocation that does happen.
    let (_, largest) = watched(|| vec![0u8; 4096]);
    assert_eq!(largest, 4096);
}
