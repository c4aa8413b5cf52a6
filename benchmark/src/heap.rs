//! Live heap: the bytes the process — the server, the load generator and
//! the benchmark's inputs — has allocated and not yet freed, and how high
//! it ran.
//!
//! The peak resident set (`VmHWM`) does not repeat between identical
//! runs. On `serve_explore` it grew in steps of about 8 MiB at random
//! moments and never shrank: the allocator keeps the pages of freed
//! blocks that were not at the top of a heap, so the resident set
//! follows the highest address each heap reached, which depends on the
//! order of allocations across threads. Over twenty runs it settled on
//! 43.6, 51.5 or 61 MiB.
//!
//! The live bytes beneath it move with what the program keeps (retained
//! epochs, frozen problems, buffers), which is what a change to the
//! program can alter. Their single highest moment does not repeat
//! either: it catches one more retained epoch in some runs and not in
//! others (on `serve_reads` 27.4 or 32.0 MiB, on `serve_updates` 257 to
//! 317 MiB). So every allocation also records, in a histogram of 64 KiB
//! buckets, the live bytes it found, and a high percentile of that
//! record is the figure: on six runs each, the 99th percentile stayed
//! within 1 % on `serve_reads` and 8 % on `serve_updates`.
//!
//! Every allocation passes through [`Counting`], which adds three atomic
//! updates to the system allocator's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting live bytes.
#[derive(Debug)]
pub struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Width of a histogram bucket: 64 KiB of live bytes.
const BUCKET_SHIFT: u32 = 16;
/// Buckets, up to 4 GiB live; more lands in the last.
const BUCKETS: usize = 1 << 16;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations that found the live heap in each bucket.
static SEEN: [AtomicU64; BUCKETS] = [const { AtomicU64::new(0) }; BUCKETS];

fn grew(bytes: usize) {
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: a byte counter; it publishes no other data, and every update is one atomic read-modify-write
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: the peak is a running maximum of the counter and publishes no other data
    PEAK.fetch_max(live, Ordering::Relaxed);
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: an event count that publishes no other data
    SEEN[(live >> BUCKET_SHIFT).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: a byte counter; it publishes no other data
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so the allocator contract holds as it does for `System`; the
// counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator, which forwards to it.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds the rest of
        // `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Starts a new record: the peak at the bytes live now, the histogram
/// empty.
pub fn reset() {
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: counters only; a concurrent update may land on either side of the reset, which moves the record by that one allocation
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    for bucket in &SEEN {
        // pinocchio-lint: allow(atomic-ordering) -- Relaxed: as above
        bucket.store(0, Ordering::Relaxed);
    }
}

/// The highest live heap since the start or the last [`reset`], MiB.
pub fn peak_mib() -> f64 {
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: reads a counter that publishes no other data
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The nearest-rank `p`th percentile, over the allocations since the
/// start or the last [`reset`], of the live heap each found, MiB: the
/// middle of its 64 KiB bucket. `None` before any allocation.
pub fn percentile_mib(p: f64) -> Option<f64> {
    // pinocchio-lint: allow(atomic-ordering) -- Relaxed: reads event counts that publish no other data
    let counts: Vec<u64> = SEEN.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    let bucket = crate::stats::nearest_rank_bucket(&counts, p)?;
    Some((bucket as f64 + 0.5) * f64::from(1u32 << BUCKET_SHIFT) / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_counts_live_blocks() {
        // Other tests allocate concurrently, so only bounds hold.
        reset();
        let before = peak_mib();
        let block = vec![0u8; 64 << 20];
        assert!(peak_mib() >= before + 63.9);
        // Allocations made while the block lives find it live.
        let small: Vec<Vec<u8>> = (0..1_000).map(|_| vec![1u8; 16]).collect();
        assert!(percentile_mib(100.0).is_some_and(|p| p >= 63.9));
        drop((block, small));
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        v.resize(32 << 20, 1);
        assert!(peak_mib() >= before + 31.9);
        drop(v);
    }
}
