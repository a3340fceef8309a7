//! Hierarchical scoped-span profiling.
//!
//! A [`SpanGuard`] marks a region (`phase` → `oracle call` → `fan-out` →
//! `queue ops`); nesting builds a `/`-separated path from the calling
//! thread's span stack. Each thread accumulates `(count, ns)` per path
//! in a thread-local map and flushes it into the global tree when its
//! outermost span closes — so the global mutex is taken once per
//! top-level span, not once per guard, and pool workers (which never
//! exit) still publish everything they measured.
//!
//! Determinism: span *counts* are Class::Count (the call tree is part of
//! the algorithm's schedule-independent behaviour); span *times* are
//! wall-clock. The merged tree is path-sorted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
}

static GLOBAL: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<BTreeMap<String, SpanStat>> = const { RefCell::new(BTreeMap::new()) };
}

/// One merged span: full path (`repro/sweep/cell`), how many times it
/// ran, and total wall time inside it (children included).
#[derive(Clone, Debug)]
pub struct SpanSample {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
}

/// An RAII span. Created by [`span`]; records on drop. Inert (and
/// allocation-free) when telemetry is disabled at creation.
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Open a span named `name` under whatever span the calling thread
/// currently has open. One relaxed load when telemetry is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard { start: Some(Instant::now()) }
}

/// Open a span named `name` at the root of the span tree, setting aside
/// whatever spans the calling thread has open until it closes. For pool
/// work units: a worker blocked on a join inside one unit's span may run
/// another unit (work stealing), and that unit's span path must not
/// depend on which thread happened to run it. One relaxed load when
/// telemetry is off.
#[inline]
pub fn root_span(name: &'static str) -> RootSpanGuard {
    if !crate::enabled() {
        return RootSpanGuard { span: SpanGuard { start: None }, outer: None };
    }
    let outer = STACK.with(|s| std::mem::take(&mut *s.borrow_mut()));
    RootSpanGuard { span: span(name), outer: Some(outer) }
}

/// An RAII root span, created by [`root_span`]: closes its span, then
/// reinstates the spans the calling thread had open.
pub struct RootSpanGuard {
    span: SpanGuard,
    outer: Option<Vec<&'static str>>,
}

impl Drop for RootSpanGuard {
    fn drop(&mut self) {
        drop(std::mem::replace(&mut self.span, SpanGuard { start: None }));
        if let Some(outer) = self.outer.take() {
            STACK.with(|s| *s.borrow_mut() = outer);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        let depth = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            LOCAL.with(|l| {
                let mut local = l.borrow_mut();
                let e = local.entry(path).or_default();
                e.count += 1;
                e.total_ns += elapsed;
            });
            stack.len()
        });
        if depth == 0 {
            flush_local();
        }
    }
}

/// Publish this thread's accumulated span stats into the global tree.
fn flush_local() {
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        if local.is_empty() {
            return;
        }
        let drained = std::mem::take(&mut *local);
        let mut global = GLOBAL.lock().unwrap();
        for (path, st) in drained {
            let e = global.entry(path).or_default();
            e.count += st.count;
            e.total_ns += st.total_ns;
        }
    });
}

/// The merged, path-sorted span tree (flushes the calling thread first).
pub(crate) fn merged() -> Vec<SpanSample> {
    flush_local();
    GLOBAL
        .lock()
        .unwrap()
        .iter()
        .map(|(path, st)| SpanSample { path: path.clone(), count: st.count, total_ns: st.total_ns })
        .collect()
}

pub(crate) fn clear() {
    flush_local();
    GLOBAL.lock().unwrap().clear();
}
