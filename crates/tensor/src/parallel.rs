//! Shared compute backend: deterministic multi-threaded fan-out for
//! tensor kernels.
//!
//! Every data-parallel kernel in this crate funnels through the helpers
//! here. The design invariant is **bitwise reproducibility at any
//! thread count**: each output element is computed by exactly one
//! worker running the same scalar code in the same order, and
//! reductions are accumulated over *fixed-size* blocks combined in
//! block order, so the partition never changes a result — only how
//! long it takes.
//!
//! The pool size is resolved lazily from `MENOS_THREADS` (falling back
//! to [`std::thread::available_parallelism`]) and can be overridden at
//! runtime with [`set_threads`]. A size of 1 short-circuits every
//! helper into plain serial execution, as does any region whose
//! estimated work falls below [`PAR_MIN_WORK`].
//!
//! Workers are spawned per parallel region with [`std::thread::scope`]
//! rather than parked in a persistent pool: the crate forbids `unsafe`
//! code, and lending `&mut` output slices to long-lived threads cannot
//! be expressed without it. Scoped spawns cost a few tens of
//! microseconds, which [`PAR_MIN_WORK`] keeps well under the kernel
//! runtime they amortize against.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolved pool size; 0 means "not yet resolved".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the pool size (a safety clamp, not a tuning knob).
const MAX_THREADS: usize = 256;

/// Minimum estimated scalar operations before a region fans out.
/// Below this, scoped-spawn overhead would eat the speedup.
pub(crate) const PAR_MIN_WORK: usize = 400_000;

fn default_threads() -> usize {
    std::env::var("MENOS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The number of worker threads tensor kernels currently fan out to.
///
/// Resolved on first use from the `MENOS_THREADS` environment variable,
/// else the machine's available parallelism. `1` means fully serial.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    // Concurrent first calls agree: default_threads() is stable.
    let t = default_threads().clamp(1, MAX_THREADS);
    THREADS.store(t, Ordering::Relaxed);
    t
}

/// Overrides the worker-thread count for all subsequent tensor kernels.
///
/// `n` is clamped to at least 1; `set_threads(1)` restores serial
/// execution. Results are bitwise identical at every setting — this
/// only trades wall-clock time, never numerics.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Effective fan-out for a region estimated to cost `work` scalar ops.
fn fanout(work: usize) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        threads()
    }
}

/// Splits `out` into at most `fanout(work)` contiguous chunks, each a
/// multiple of `unit` elements, and runs `f(start_elem, chunk)` on
/// each — in parallel when more than one worker is configured.
///
/// `f` must compute each element of its chunk independently of the
/// partition (pure per-element / per-`unit`-row work); under that
/// contract the result is bitwise identical at any thread count.
pub(crate) fn par_chunks_mut<F>(out: &mut [f32], unit: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    debug_assert!(
        unit > 0 && out.len().is_multiple_of(unit),
        "chunk unit must tile out"
    );
    let units = out.len() / unit;
    let t = fanout(work).min(units);
    if t <= 1 {
        f(0, out);
        return;
    }
    let base = units / t;
    let extra = units % t;
    std::thread::scope(|s| {
        let fr = &f;
        let mut rest = out;
        let mut start = 0usize;
        for w in 0..t {
            let take = (base + usize::from(w < extra)) * unit;
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let first = start;
            start += take;
            if w + 1 == t {
                // Run the final chunk on the calling thread.
                fr(first, head);
            } else {
                s.spawn(move || fr(first, head));
            }
        }
    });
}

/// Computes `blocks` independent values in parallel and returns them in
/// block order. Because the blocks are fixed by the caller (not by the
/// thread count), folding the returned vector in order yields the same
/// reduction at any pool size.
pub(crate) fn par_blocks<T, F>(blocks: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if blocks == 0 {
        return Vec::new();
    }
    let t = fanout(work).min(blocks);
    if t <= 1 {
        return (0..blocks).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..blocks).map(|_| None).collect();
    let base = blocks / t;
    let extra = blocks % t;
    std::thread::scope(|s| {
        let fr = &f;
        let mut rest = out.as_mut_slice();
        let mut b0 = 0usize;
        for w in 0..t {
            let take = base + usize::from(w < extra);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let first = b0;
            b0 += take;
            let mut job = move || {
                for (i, slot) in head.iter_mut().enumerate() {
                    *slot = Some(fr(first + i));
                }
            };
            if w + 1 == t {
                job();
            } else {
                s.spawn(job);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every block is assigned to exactly one worker"))
        .collect()
}

/// Like [`par_chunks_mut`], but partitions `out` into *fixed-size*
/// blocks of `block_elems` (the last may be short) and additionally
/// collects one `T` per block, returned in block order. The fixed
/// block grid makes both the written elements and any reduction over
/// the returned partials independent of the thread count.
pub(crate) fn par_blocks_mut<T, F>(out: &mut [f32], block_elems: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut [f32]) -> T + Sync,
{
    if out.is_empty() {
        return Vec::new();
    }
    debug_assert!(block_elems > 0);
    let blocks = out.len().div_ceil(block_elems);
    let t = fanout(work).min(blocks);
    if t <= 1 {
        return out
            .chunks_mut(block_elems)
            .enumerate()
            .map(|(b, chunk)| f(b, chunk))
            .collect();
    }
    let mut partials: Vec<Option<T>> = (0..blocks).map(|_| None).collect();
    let base = blocks / t;
    let extra = blocks % t;
    std::thread::scope(|s| {
        let fr = &f;
        let mut rest_out = out;
        let mut rest_partials = partials.as_mut_slice();
        let mut b0 = 0usize;
        for w in 0..t {
            let take = base + usize::from(w < extra);
            let elems = (take * block_elems).min(rest_out.len());
            let (head_out, tail_out) = std::mem::take(&mut rest_out).split_at_mut(elems);
            rest_out = tail_out;
            let (head_p, tail_p) = std::mem::take(&mut rest_partials).split_at_mut(take);
            rest_partials = tail_p;
            let first = b0;
            b0 += take;
            let mut job = move || {
                for (i, (chunk, slot)) in head_out
                    .chunks_mut(block_elems)
                    .zip(head_p.iter_mut())
                    .enumerate()
                {
                    *slot = Some(fr(first + i, chunk));
                }
            };
            if w + 1 == t {
                job();
            } else {
                s.spawn(job);
            }
        }
    });
    partials
        .into_iter()
        .map(|o| o.expect("every block is assigned to exactly one worker"))
        .collect()
}

/// Element-wise map into a fresh buffer, fanned out over the pool.
/// `work_per_elem` scales the parallelism threshold to the cost of `f`.
pub(crate) fn par_map<F>(src: &[f32], work_per_elem: usize, f: F) -> Vec<f32>
where
    F: Fn(f32) -> f32 + Sync,
{
    let mut out = vec![0.0; src.len()];
    par_chunks_mut(&mut out, 1, src.len() * work_per_elem, |start, chunk| {
        let end = start + chunk.len();
        for (o, &x) in chunk.iter_mut().zip(&src[start..end]) {
            *o = f(x);
        }
    });
    out
}

/// Element-wise zip-map of two equal-length buffers into a fresh one.
pub(crate) fn par_map2<F>(a: &[f32], b: &[f32], work_per_elem: usize, f: F) -> Vec<f32>
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0.0; a.len()];
    par_chunks_mut(&mut out, 1, a.len() * work_per_elem, |start, chunk| {
        let end = start + chunk.len();
        for ((o, &x), &y) in chunk.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
            *o = f(x, y);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_resolves_and_overrides() {
        let before = threads();
        assert!(before >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0); // clamped
        assert_eq!(threads(), 1);
        set_threads(before);
    }

    #[test]
    fn chunks_cover_every_element_once() {
        let before = threads();
        for t in [1usize, 2, 5] {
            set_threads(t);
            let mut out = vec![0.0f32; 1003 * 7];
            // Force the parallel path regardless of size.
            par_chunks_mut(&mut out, 7, PAR_MIN_WORK, |start, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o += (start + i) as f32;
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as f32, "element {i} at {t} threads");
            }
        }
        set_threads(before);
    }

    #[test]
    fn blocks_return_in_order_at_any_width() {
        let before = threads();
        let serial: Vec<usize> = (0..23).map(|b| b * b).collect();
        for t in [1usize, 2, 4, 16] {
            set_threads(t);
            let got = par_blocks(23, PAR_MIN_WORK, |b| b * b);
            assert_eq!(got, serial, "at {t} threads");
        }
        set_threads(before);
    }

    #[test]
    fn blocks_mut_partition_is_fixed() {
        let before = threads();
        let mut reference: Option<(Vec<f32>, Vec<f32>)> = None;
        for t in [1usize, 2, 3, 8] {
            set_threads(t);
            let mut out = vec![1.0f32; 250];
            let partials = par_blocks_mut(&mut out, 64, PAR_MIN_WORK, |b, chunk| {
                for o in chunk.iter_mut() {
                    *o += b as f32;
                }
                chunk.iter().sum::<f32>()
            });
            assert_eq!(partials.len(), 4); // ceil(250/64)
            match &reference {
                None => reference = Some((out, partials)),
                Some((r_out, r_p)) => {
                    assert_eq!(&out, r_out, "at {t} threads");
                    assert_eq!(&partials, r_p, "at {t} threads");
                }
            }
        }
        set_threads(before);
    }

    #[test]
    fn small_work_stays_serial() {
        // Work below the threshold must not spawn; verify by observing
        // a single contiguous chunk (start == 0, full length).
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 64];
        par_chunks_mut(&mut out, 1, 64, |start, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 64);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_map_matches_serial() {
        let before = threads();
        let src: Vec<f32> = (0..5000).map(|i| i as f32 * 0.25).collect();
        let serial: Vec<f32> = src.iter().map(|&x| x.sqrt() + 1.0).collect();
        set_threads(4);
        let par = par_map(&src, PAR_MIN_WORK, |x| x.sqrt() + 1.0);
        assert_eq!(par, serial);
        let par2 = par_map2(&src, &src, PAR_MIN_WORK, |x, y| x * y);
        let serial2: Vec<f32> = src.iter().map(|&x| x * x).collect();
        assert_eq!(par2, serial2);
        set_threads(before);
    }
}
