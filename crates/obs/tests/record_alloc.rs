//! The record path allocates nothing.
//!
//! Counters, gauges, histogram records and span timers are advertised as
//! safe for any hot path — that claim only holds if recording touches no
//! allocator. Pinned with a counting global allocator, same discipline as
//! the NN/DSL steady-state allocation tests.
//!
//! (Kept as its own integration-test binary so the global allocator does
//! not interfere with unrelated tests.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. Per thread, so the test
    /// harness running sibling tests in parallel cannot leak their
    /// allocations into a measured region. A `const`-initialised `Cell`
    /// needs no lazy set-up or destructor, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` only fails during thread teardown, which no test measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_is_allocation_free() {
    let registry = nada_obs::MetricsRegistry::new();
    // Registration may allocate (names, handles) — do it up front.
    let counter = registry.counter("hot_total");
    let gauge = registry.gauge("hot_depth");
    let histogram = registry.histogram("hot_duration_ns", &nada_obs::DEFAULT_LATENCY_BOUNDS_NS);
    // Warm the span path once: `Instant::now` has no heap footprint, but
    // run one full cycle anyway before the measured region.
    drop(histogram.start_span());

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.inc();
        gauge.dec();
        histogram.record(i * 997);
        let _span = histogram.start_span();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metric recording must not touch the allocator"
    );
    assert_eq!(counter.get(), 10_000 + (0..10_000u64).sum::<u64>());
    // 10k records + 10k spans + the warm-up span.
    assert_eq!(histogram.count(), 20_001);
}
