//! The disabled-tracing fast path must cost one atomic load per call site:
//! no allocation, no lock, no registration. Verified under a counting
//! global allocator — this test runs in its own process (integration test
//! binary) so nothing else can enable tracing or allocate concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static HOT_COUNTER: sufsat_obs::Counter = sufsat_obs::Counter::new("test.hot_counter");
static HOT_HIST: sufsat_obs::Histogram = sufsat_obs::Histogram::new("test.hot_hist");

#[test]
fn disabled_instrumentation_never_allocates() {
    assert!(!sufsat_obs::enabled());

    // Warm up thread-locals (the lazy thread-id init may allocate once in
    // the std runtime) before taking the baseline.
    let _ = sufsat_obs::span("warmup");
    sufsat_obs::event!("warmup", n = 0u64);
    HOT_COUNTER.add(1);

    // The allocation counter is process-global, and the std runtime keeps
    // threads of its own (libtest's harness) that may allocate at any
    // moment. The claim under test is per-iteration, so measure several
    // windows and judge the *minimum*: a fast path that allocates shows a
    // nonzero count in every window, while unrelated background noise
    // cannot land in all of them.
    let mut min_delta = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for i in 0..100_000u64 {
            HOT_COUNTER.add(i);
            HOT_HIST.record(i);
            let span = sufsat_obs::span_with!("test.span", iteration = i);
            assert!(!span.is_recording());
            sufsat_obs::event!("test.event", iteration = i, label = "disabled");
            drop(span);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_delta = min_delta.min(after - before);
    }
    assert_eq!(
        min_delta, 0,
        "disabled tracing fast path allocated {min_delta} times per 100k-call window"
    );

    // Nothing registered either: the metrics registry stayed empty and the
    // counter never left zero.
    assert_eq!(HOT_COUNTER.value(), 0);
    assert_eq!(HOT_HIST.snapshot().count(), 0);
    assert!(sufsat_obs::metrics_snapshot().is_empty());
}
