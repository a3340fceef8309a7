//! Off-mode contract: while telemetry has never been enabled, an
//! instrumented site costs one relaxed load — no registrations and no
//! heap allocations. Lives in its own integration-test binary so no
//! neighbouring test can have enabled telemetry in this process.

use omcf_telemetry::{
    registered_len, root_span, span, Class, Counter, Gauge, Histogram, OwnedCounter,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static OFF_COUNTER: Counter = Counter::new("off.test.counter", Class::Count);
static OFF_GAUGE: Gauge = Gauge::new("off.test.gauge", Class::Wall);
static OFF_HISTOGRAM: Histogram = Histogram::new("off.test.histogram", Class::Wall);

#[test]
fn disabled_sites_register_nothing_and_allocate_nothing() {
    assert!(!omcf_telemetry::enabled(), "this binary must never enable telemetry");
    let owned = OwnedCounter::new(&OFF_COUNTER);

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1000 {
        OFF_COUNTER.add(3);
        OFF_GAUGE.set(i);
        OFF_GAUGE.add(1);
        OFF_HISTOGRAM.observe(i as u64);
        owned.inc();
        let _outer = span("off.outer");
        let _root = root_span("off.root");
        let _inner = span("off.inner");
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(after - before, 0, "disabled telemetry must not allocate");
    assert_eq!(registered_len(), 0, "disabled telemetry must not register metrics");
    assert_eq!(OFF_COUNTER.value(), 0, "disabled counters must not count");
    assert_eq!(OFF_HISTOGRAM.count(), 0);
    // The owned counter's *local* cell still counts — it replaces the
    // per-instance atomics the oracle caches always carried.
    assert_eq!(owned.get(), 1000);

    let snap = omcf_telemetry::snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    assert!(snap.spans.is_empty(), "disabled spans must not record");
}
