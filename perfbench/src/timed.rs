//! A transparent timing decorator around a [`TreeOracle`].
//!
//! [`TimedOracle`] forwards every call to the oracle it wraps, unchanged,
//! and records how long the calls took and how many trees they returned.
//! It adds no arithmetic and keeps no cache of its own, so a solve through
//! it produces the same bits as a solve through the inner oracle (pinned by
//! `tests/transparent.rs`).

use omcf_overlay::{LengthView, OverlayTree, SessionSet, TreeOracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps an oracle and times every tree query made through it.
pub struct TimedOracle<'a> {
    inner: &'a dyn TreeOracle,
    nanos: AtomicU64,
    calls: AtomicU64,
    trees: AtomicU64,
}

impl<'a> TimedOracle<'a> {
    /// Wraps `inner` with zeroed timers.
    #[must_use]
    pub fn new(inner: &'a dyn TreeOracle) -> Self {
        Self { inner, nanos: AtomicU64::new(0), calls: AtomicU64::new(0), trees: AtomicU64::new(0) }
    }

    /// Seconds spent inside the inner oracle's tree queries.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Tree queries made (one batched `min_trees_view` counts once).
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Trees returned across all queries.
    #[must_use]
    pub fn trees(&self) -> u64 {
        self.trees.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, trees: u64, query: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = query();
        self.nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.trees.fetch_add(trees, Ordering::Relaxed);
        out
    }
}

impl TreeOracle for TimedOracle<'_> {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.timed(1, || self.inner.min_tree(session_idx, lengths))
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        self.timed(1, || self.inner.min_tree_view(session_idx, view))
    }

    fn min_trees_view(&self, session_ids: &[usize], view: LengthView<'_>) -> Vec<OverlayTree> {
        self.timed(session_ids.len() as u64, || self.inner.min_trees_view(session_ids, view))
    }

    fn sessions(&self) -> &SessionSet {
        self.inner.sessions()
    }

    fn max_route_hops(&self) -> usize {
        self.inner.max_route_hops()
    }
}
