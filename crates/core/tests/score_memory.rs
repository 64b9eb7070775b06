//! Scoring-memory gate: `SeqDetector::score_batch` must not hold a
//! group-wide window set. A counting global allocator measures the live
//! heap and the allocations of one batched call over a 40-stream group;
//! the peak may exceed the call's own output only by a bounded margin,
//! and the count may not grow with the number of windows.
//!
//! This file holds one test so that no other test thread allocates
//! while it measures.

use nfv_detect::detector::{AnomalyDetector, ScoredEvent};
use nfv_detect::seq_detector::{LstmDetector, LstmDetectorConfig};
use nfv_syslog::{LogRecord, LogStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and live bytes, and
/// tracking the live-byte high-water mark. Relaxed orderings: the
/// counters publish no other data.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// updates atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const VOCAB: usize = 24;

fn stream(len: usize, seed: u64) -> LogStream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut time = 0u64;
    let records = (0..len)
        .map(|_| {
            time += rng.gen_range(1..600);
            LogRecord { time, template: rng.gen_range(0..VOCAB) }
        })
        .collect();
    LogStream::from_records(records)
}

#[test]
fn score_batch_holds_no_group_wide_window_set() {
    let det = LstmDetector::new(LstmDetectorConfig {
        vocab: VOCAB,
        window: 6,
        hidden: 16,
        threads: 1,
        ..Default::default()
    });
    let streams: Vec<LogStream> = (0..40).map(|s| stream(1_000, s)).collect();
    let refs: Vec<&LogStream> = streams.iter().collect();
    // Warm-up: the thread's scoring scratch grows to a full chunk here.
    let warm = det.score_batch(&refs, 0, u64::MAX, 1);
    drop(warm);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let scored = det.score_batch(&refs, 0, u64::MAX, 1);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;

    let events: usize = scored.iter().map(Vec::len).sum();
    assert_eq!(events, 40 * (1_000 - 6));
    let output = events * std::mem::size_of::<ScoredEvent>();
    let bound = 3 * output + (1 << 20);
    eprintln!("score_batch: {events} windows, peak {peak} B over {output} B of output, {allocs} allocations");
    assert!(peak < bound, "peak live heap {peak} B exceeds {bound} B ({output} B of output)");
    assert!(allocs < 1_000, "{allocs} allocations for {events} windows");
}
