//! The minimum overlay spanning tree oracle.
//!
//! Both FPTAS algorithms and the online algorithm are parameterized over a
//! [`TreeOracle`]: given live per-physical-edge lengths, return the
//! minimum-length overlay spanning tree of one session. Two implementations
//! mirror the paper's two routing regimes (§II vs §V). Both build the tree
//! with one lazy dense Prim that *pulls* a member's weight row only when
//! that member attaches, and never the last member's.
//!
//! ## Prim-ordered member fans
//!
//! Under dynamic routing a row is a member's shortest-path fan, so pulling
//! rows lazily skips work outright: a query of an `m`-member session runs
//! at most `m − 1` Dijkstras (the full metric closure needs `m`), each an
//! early-exit run from the attaching member. Settled targets of such a run
//! carry exactly a full run's distances and parents, so the trees are
//! bit-identical to eager per-member recomputation. A query runs
//! sequentially; there are no shared lanes and no cross-session batching.
//!
//! ## Epoch-aware caching
//!
//! The solver engine (`omcf-core::engine`) passes a [`LengthView`] carrying
//! an [`EdgeEpochs`] touch clock alongside the lengths. Because the engine
//! only ever *grows* lengths, an oracle may keep its last answer and serve
//! it again whenever no edge its cached routes traverse has been touched
//! since — the cached answer is provably the one a fresh computation would
//! produce (see `docs/ENGINE.md`). [`DynamicOracle`] caches per session
//! *member*: one shortest-path fan (distances + paths to the other members)
//! per source, looked up only when Prim requests that member's fan and
//! recomputed only if its routes crossed a touched edge. [`FixedIpOracle`]'s
//! routes are frozen, so it caches the finished tree per session and
//! revalidates against the session's covered edge set. Plain
//! [`TreeOracle::min_tree`] calls (no epochs) always recompute.

use crate::epoch::{EdgeEpochs, LengthView};
use crate::session::SessionSet;
use crate::tree::{OverlayHop, OverlayTree};
use omcf_routing::{DijkstraWorkspace, FixedRoutes, Path, WorkspacePool};
use omcf_telemetry::{stats, OwnedCounter};
use omcf_topology::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Baseline for the cache auto-bypass: consecutive epoch-path misses
/// (with zero hits ever) after which an oracle stops probing its cache
/// entirely. On instances where hits are structurally impossible — e.g. a
/// near-tree graph where every augmentation touches every session's fan —
/// the probe-and-maintain overhead is pure loss; once the threshold is
/// reached without a single hit the oracle routes epoch-backed queries
/// straight to the fresh-compute path. The first query round is cold by
/// construction (hits are only possible from the second round onward), so
/// each oracle's effective threshold is the larger of this constant and
/// **twice its total cacheable-entry count** — a large instance cannot
/// trip the gauge before its caches had a full round to prove themselves.
/// The gauge is sticky per oracle (results are unaffected either way: a
/// bypassed query computes exactly what a missed probe would), and any
/// hit before the threshold disarms it for good.
const CACHE_BYPASS_MISSES: u64 = 256;

/// Miss-streak tracker backing the cache auto-bypass.
#[derive(Debug)]
struct BypassGauge {
    threshold: u64,
    consecutive_misses: AtomicU64,
    tripped: AtomicBool,
    disarmed: AtomicBool,
}

impl BypassGauge {
    /// A gauge for an oracle with `entries` cacheable entries (member fans
    /// for the dynamic oracle, sessions for the fixed one).
    fn sized_for(entries: usize) -> Self {
        Self {
            threshold: CACHE_BYPASS_MISSES.max(2 * entries as u64),
            consecutive_misses: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            disarmed: AtomicBool::new(false),
        }
    }

    fn on_hit(&self) {
        self.consecutive_misses.store(0, Ordering::Relaxed);
        self.disarmed.store(true, Ordering::Relaxed);
    }

    fn on_miss(&self) {
        let streak = self.consecutive_misses.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.threshold && !self.disarmed.load(Ordering::Relaxed) {
            self.tripped.store(true, Ordering::Relaxed);
        }
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// Total member count across sessions — the dynamic oracle's
/// cacheable-fan count (one cached fan per member).
fn total_fans(sessions: &SessionSet) -> usize {
    sessions.sessions().iter().map(crate::session::Session::size).sum()
}

/// Oracle interface used by the solvers.
pub trait TreeOracle {
    /// Minimum overlay spanning tree of session `session_idx` under
    /// `lengths` (indexed by `EdgeId`). Always computes from scratch.
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree;

    /// Like [`Self::min_tree`], but the view may carry an epoch clock that
    /// allows the oracle to serve exact cached results. The default
    /// implementation ignores the clock and recomputes.
    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        self.min_tree(session_idx, view.lengths)
    }

    /// Batched form of [`Self::min_tree_view`]: one tree per entry of
    /// `session_ids`, in order, all under the same view — the engine
    /// queries whole schedule rounds through this entry point. Results
    /// and cache accounting are identical to calling
    /// [`Self::min_tree_view`] once per id, which is exactly what this
    /// default does (a repeated id finds the cache entries its first
    /// occurrence refreshed).
    fn min_trees_view(&self, session_ids: &[usize], view: LengthView<'_>) -> Vec<OverlayTree> {
        session_ids.iter().map(|&i| self.min_tree_view(i, view)).collect()
    }

    /// The sessions this oracle serves.
    fn sessions(&self) -> &SessionSet;

    /// Upper bound on the hop length of any unicast route the oracle may
    /// use — the paper's `U`, which parameterizes the FPTAS's δ.
    fn max_route_hops(&self) -> usize;
}

/// Dijkstra-level cache statistics of an epoch-aware oracle: how many
/// per-source (dynamic) or per-session (fixed) recomputations were avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a still-valid cache entry.
    pub hits: u64,
    /// Queries that had to recompute (including all uncached-path calls).
    pub misses: u64,
}

/// Dense Prim MST over `m` overlay nodes that pulls weight rows lazily:
/// `row(a, in_tree, out)` must fill `out[j]` with the weight of overlay
/// link `a–j` for every `j` with `!in_tree[j]` (other entries are never
/// read). It is called once per attached vertex, when it attaches —
/// vertex 0 first — and never for the last vertex to attach, which is
/// exactly the part of the metric closure Prim reads. Deterministic:
/// among equal-weight candidates the lowest-index vertex attaches first,
/// and a fringe vertex only moves to a strictly cheaper link. Returns
/// `(parent, child)` edges in attach order. Degenerate inputs (`m < 2`)
/// have no overlay links: returns no edges and pulls no row.
fn prim_dense(m: usize, mut row: impl FnMut(usize, &[bool], &mut [f64])) -> Vec<(usize, usize)> {
    if m < 2 {
        // A single-member (or empty) overlay has an empty spanning tree;
        // returning early keeps release builds from underflowing `m - 1`.
        return Vec::new();
    }
    let mut in_tree = vec![false; m];
    // One buffer for the fringe's best link weights and the pulled row.
    let mut scratch = vec![f64::INFINITY; 2 * m];
    let (best, weights) = scratch.split_at_mut(m);
    let mut parent = vec![0usize; m];
    let mut edges = Vec::with_capacity(m - 1);
    let mut last = 0;
    in_tree[0] = true;
    for _ in 1..m {
        row(last, &in_tree, weights);
        for j in 0..m {
            if !in_tree[j] && weights[j] < best[j] {
                best[j] = weights[j];
                parent[j] = last;
            }
        }
        // Pick the cheapest fringe vertex (lowest index wins ties).
        let mut pick = usize::MAX;
        for j in 0..m {
            if !in_tree[j] && (pick == usize::MAX || best[j] < best[pick]) {
                pick = j;
            }
        }
        assert!(best[pick].is_finite(), "overlay graph must be complete/connected");
        in_tree[pick] = true;
        edges.push((parent[pick], pick));
        last = pick;
    }
    edges
}

/// Cached finished tree of one fixed-routing session.
#[derive(Debug)]
struct FixedCache {
    run_id: u64,
    epoch: u64,
    tree: OverlayTree,
}

#[derive(Debug, Default)]
struct FixedState {
    entries: Vec<Option<FixedCache>>,
}

/// Oracle under **fixed IP routing**: every member pair communicates over
/// its frozen hop-count shortest path; the overlay edge weight is the sum
/// of live lengths along that frozen path.
#[derive(Debug)]
pub struct FixedIpOracle {
    sessions: SessionSet,
    routes: Vec<FixedRoutes>,
    /// Per session: sorted physical edges its routes cover (invalidation
    /// key for the cached tree).
    covered: Vec<Vec<u32>>,
    caching: bool,
    state: Mutex<FixedState>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
}

impl Clone for FixedIpOracle {
    fn clone(&self) -> Self {
        Self {
            sessions: self.sessions.clone(),
            routes: self.routes.clone(),
            covered: self.covered.clone(),
            caching: self.caching,
            state: Mutex::new(FixedState {
                entries: (0..self.sessions.len()).map(|_| None).collect(),
            }),
            hits: OwnedCounter::new(&stats::ORACLE_FIXED_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_FIXED_MISSES),
            bypass: BypassGauge::sized_for(self.sessions.len()),
        }
    }
}

impl FixedIpOracle {
    /// Precomputes the pairwise IP routes of every session.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        let routes: Vec<FixedRoutes> =
            sessions.sessions().iter().map(|s| FixedRoutes::new(g, &s.members)).collect();
        let covered =
            routes.iter().map(|r| r.covered_edges().iter().map(|e| e.0).collect()).collect();
        let state = Mutex::new(FixedState { entries: (0..sessions.len()).map(|_| None).collect() });
        Self {
            sessions: sessions.clone(),
            routes,
            covered,
            caching: true,
            state,
            hits: OwnedCounter::new(&stats::ORACLE_FIXED_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_FIXED_MISSES),
            bypass: BypassGauge::sized_for(sessions.len()),
        }
    }

    /// Like [`Self::new`] but with the per-session tree cache disabled:
    /// every epoch-backed query rebuilds the overlay weight matrix.
    /// Benchmark / verification aid.
    #[must_use]
    pub fn uncached(g: &Graph, sessions: &SessionSet) -> Self {
        Self { caching: false, ..Self::new(g, sessions) }
    }

    /// The frozen routes of session `i`.
    #[must_use]
    pub fn routes(&self, i: usize) -> &FixedRoutes {
        &self.routes[i]
    }

    /// Physical edges covered by at least one session route (the paper's
    /// "52 physical links" statistic in §III-E).
    #[must_use]
    pub fn covered_edges(&self) -> Vec<omcf_topology::EdgeId> {
        let mut all: Vec<omcf_topology::EdgeId> =
            self.routes.iter().flat_map(|r| r.covered_edges()).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Cache hit/miss counts since construction. Thin forwarding shim:
    /// the counts live in telemetry [`OwnedCounter`]s, which also mirror
    /// into the process-wide `oracle.fixed.cache.*` aggregates whenever
    /// telemetry is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// True once the auto-bypass tripped: epoch-backed queries skip the
    /// cache probe because `CACHE_BYPASS_MISSES` (256) consecutive misses
    /// accumulated without a single hit.
    #[must_use]
    pub fn cache_bypassed(&self) -> bool {
        self.bypass.tripped()
    }

    fn compute_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        let session = self.sessions.session(session_idx);
        let routes = &self.routes[session_idx];
        let members = &session.members;
        let m = members.len();
        // Materialize the m×m overlay weight matrix once (paths are reused
        // by reference afterwards).
        let mut w = vec![0.0f64; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let len = routes.route(members[i], members[j]).length(lengths);
                w[i * m + j] = len;
                w[j * m + i] = len;
            }
        }
        let edges = prim_dense(m, |a, _, row| row.copy_from_slice(&w[a * m..(a + 1) * m]));
        let hops = edges
            .into_iter()
            .map(|(a, b)| OverlayHop { a, b, path: routes.route(members[a], members[b]).clone() })
            .collect();
        OverlayTree { session: session_idx, hops }
    }
}

impl TreeOracle for FixedIpOracle {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.misses.inc();
        self.compute_tree(session_idx, lengths)
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        let Some(epochs) = view.epochs.filter(|_| self.caching && !self.bypass.tripped()) else {
            if view.epochs.is_some() && self.caching {
                stats::ORACLE_BYPASSED.inc();
            }
            return self.min_tree(session_idx, view.lengths);
        };
        // Contended (another solver run shares this oracle, e.g. a rayon
        // ratio sweep): compute lock-free instead of serializing on the
        // cache — the pre-engine baseline cost, never worse.
        let Ok(mut st) = self.state.try_lock() else {
            return self.min_tree(session_idx, view.lengths);
        };
        let valid = st.entries[session_idx].as_ref().is_some_and(|c| {
            c.run_id == epochs.run_id()
                && epochs.none_touched_since(&self.covered[session_idx], c.epoch)
        });
        if valid {
            self.hits.inc();
            self.bypass.on_hit();
            return st.entries[session_idx].as_ref().expect("validated above").tree.clone();
        }
        self.misses.inc();
        self.bypass.on_miss();
        let tree = self.compute_tree(session_idx, view.lengths);
        st.entries[session_idx] = Some(FixedCache {
            run_id: epochs.run_id(),
            epoch: epochs.current(),
            tree: tree.clone(),
        });
        tree
    }

    fn sessions(&self) -> &SessionSet {
        &self.sessions
    }

    fn max_route_hops(&self) -> usize {
        self.routes.iter().map(FixedRoutes::max_route_hops).max().unwrap_or(0)
    }
}

/// One session member's cached shortest-path fan: exactly the member-level
/// data the oracle ever reads back — distances and paths to the member's
/// co-members (indexed by member position) — plus the physical edges those
/// paths traverse (the invalidation key). Storing the extracted fan
/// instead of a whole retained Dijkstra workspace keeps entries compact
/// and lets one pooled workspace serve every recompute.
#[derive(Debug, Default)]
struct FanCache {
    /// 0 = never filled (real run ids start at 1).
    run_id: u64,
    epoch: u64,
    fan_edges: Vec<u32>,
    /// `dists[b]` = shortest-path distance to member `b` of the session.
    dists: Vec<f64>,
    /// `paths[b]` = the realizing path (diagonal entry is the trivial
    /// self-path, never used by Prim).
    paths: Vec<Path>,
}

#[derive(Debug, Default)]
struct DynState {
    /// `fans[session][member]`, allocated lazily on first epoch-backed use.
    fans: Vec<Vec<Option<FanCache>>>,
}

impl DynState {
    fn new(sessions: &SessionSet) -> Self {
        Self {
            fans: sessions
                .sessions()
                .iter()
                .map(|s| (0..s.size()).map(|_| None).collect())
                .collect(),
        }
    }
}

/// Oracle under **arbitrary dynamic routing** (§V): overlay edges follow the
/// shortest path under the *current* lengths. Prim over the members'
/// metric closure *pulls* member fans: member `a`'s shortest-path fan is
/// needed only when `a` attaches to the tree, and never for the last
/// member to attach, so a query of an `m`-member session requests `m − 1`
/// fans. A requested fan comes from a still-valid epoch-cached entry
/// (exact under monotone length growth: its routes avoid every edge
/// touched since it was computed) or from one early-exit
/// [`DijkstraWorkspace`] run from `a`, leased from the oracle's pool — to
/// all members when the fan is cached for reuse, to the members not yet
/// attached otherwise. Settled targets of an early-exit run carry the same
/// distances and parents as a full run, so every query path returns the
/// trees of full per-member recomputation bit for bit. A query runs
/// sequentially, and batched [`TreeOracle::min_trees_view`] queries answer
/// their sessions one by one, in order. All Dijkstras run the CSR core
/// and its packed-key heap.
#[derive(Debug)]
pub struct DynamicOracle {
    g: Graph,
    sessions: SessionSet,
    caching: bool,
    state: Mutex<DynState>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
    /// Dijkstra workspaces are leased from here for every fan run. Oracles
    /// built via [`Self::with_pool`] share the sweep driver's
    /// cross-instance pool; otherwise the oracle owns a private one so
    /// scratch still persists across calls.
    pool: Arc<WorkspacePool>,
}

impl Clone for DynamicOracle {
    fn clone(&self) -> Self {
        Self {
            g: self.g.clone(),
            sessions: self.sessions.clone(),
            caching: self.caching,
            state: Mutex::new(DynState::new(&self.sessions)),
            hits: OwnedCounter::new(&stats::ORACLE_DYNAMIC_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_DYNAMIC_MISSES),
            bypass: BypassGauge::sized_for(total_fans(&self.sessions)),
            pool: Arc::clone(&self.pool),
        }
    }
}

impl DynamicOracle {
    fn build(
        g: &Graph,
        sessions: &SessionSet,
        caching: bool,
        pool: Option<Arc<WorkspacePool>>,
    ) -> Self {
        Self {
            g: g.clone(),
            sessions: sessions.clone(),
            caching,
            state: Mutex::new(DynState::new(sessions)),
            hits: OwnedCounter::new(&stats::ORACLE_DYNAMIC_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_DYNAMIC_MISSES),
            bypass: BypassGauge::sized_for(total_fans(sessions)),
            pool: pool.unwrap_or_else(|| Arc::new(WorkspacePool::new())),
        }
    }

    /// Creates the oracle over a clone of the physical graph, with the
    /// epoch-cached, workspace-reusing query path enabled.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, true, None)
    }

    /// Like [`Self::new`], but Dijkstra workspaces are leased from `pool`
    /// (and handed back after every query) instead of a private pool.
    /// Drivers that solve many instances over same-sized graphs (the
    /// scenario sweep) share one pool so the dense Dijkstra buffers are
    /// recycled across cells.
    #[must_use]
    pub fn with_pool(g: &Graph, sessions: &SessionSet, pool: Arc<WorkspacePool>) -> Self {
        Self::build(g, sessions, true, Some(pool))
    }

    /// Like [`Self::new`] but with the epoch path disabled: every query
    /// recomputes each fan Prim requests, exactly like the plain
    /// [`TreeOracle::min_tree`] interface. Fits oracles that answer a
    /// single query (nothing to reuse) and serves as the benchmark /
    /// verification baseline.
    #[must_use]
    pub fn uncached(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, false, None)
    }

    /// Cache hit/miss counts (one per member fan Prim requests, so `m − 1`
    /// per tree of an `m`-member session) since construction. Every miss
    /// is exactly one Dijkstra run; plain-interface queries count as
    /// misses. Thin forwarding shim: the counts live in telemetry
    /// [`OwnedCounter`]s, which also mirror into the process-wide
    /// `oracle.dynamic.cache.*` aggregates whenever telemetry is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// True once the auto-bypass tripped (see [`FixedIpOracle::cache_bypassed`]).
    #[must_use]
    pub fn cache_bypassed(&self) -> bool {
        self.bypass.tripped()
    }

    /// The one query loop behind every path: Prim over session `s`'s
    /// members, pulling member `a`'s fan only when `a` attaches. With
    /// `cache` (the epoch path, state lock held) a fan is served from its
    /// still-valid entry or recomputed to all members and stored; a stale
    /// fan Prim never requests stays stale until a later query needs it.
    /// Without `cache` (uncached oracle, bypass, contended lock, plain
    /// [`TreeOracle::min_tree`]) each fan is an early-exit run to the
    /// members not yet attached, kept until its tree hops are extracted.
    fn query(
        &self,
        s: usize,
        lengths: &[f64],
        mut cache: Option<(&mut [Option<FanCache>], &EdgeEpochs)>,
    ) -> OverlayTree {
        let members = &self.sessions.session(s).members;
        let n = self.g.node_count();
        let mut runs: Vec<Option<DijkstraWorkspace>> = Vec::new();
        if cache.is_none() {
            runs.resize_with(members.len(), || None);
        }
        let mut open: Vec<NodeId> = Vec::new();
        let edges = prim_dense(members.len(), |a, in_tree, row| {
            if let Some((fans, epochs)) = cache.as_mut() {
                let fan = self.cached_fan(&mut fans[a], members[a], members, lengths, epochs);
                row.copy_from_slice(&fan.dists);
                return;
            }
            self.misses.inc();
            open.clear();
            open.extend(members.iter().zip(in_tree).filter(|(_, &t)| !t).map(|(&v, _)| v));
            let mut ws = self.pool.lease(n);
            ws.run_targets(&self.g, members[a], lengths, &open);
            for (w, &v) in row.iter_mut().zip(members) {
                *w = ws.dist(v);
            }
            runs[a] = Some(ws);
        });
        let hops = edges
            .into_iter()
            .map(|(a, b)| {
                let path = match &cache {
                    Some((fans, _)) => {
                        fans[a].as_ref().expect("requested by Prim").paths[b].clone()
                    }
                    None => runs[a]
                        .as_ref()
                        .expect("requested by Prim")
                        .path_to(members[b])
                        .expect("connected graph: member must be reachable"),
                };
                OverlayHop { a, b, path }
            })
            .collect();
        for ws in runs.into_iter().flatten() {
            self.pool.give_back(ws);
        }
        OverlayTree { session: s, hops }
    }

    /// Member `src`'s fan from its cache entry: served as is while the
    /// entry is from this run and none of its edges was touched since it
    /// was stamped (a hit), otherwise recomputed to all `members` and
    /// restamped (a miss). Feeds the bypass gauge either way.
    fn cached_fan<'c>(
        &self,
        entry: &'c mut Option<FanCache>,
        src: NodeId,
        members: &[NodeId],
        lengths: &[f64],
        epochs: &EdgeEpochs,
    ) -> &'c FanCache {
        let valid = entry.as_ref().is_some_and(|c| {
            c.run_id == epochs.run_id() && epochs.none_touched_since(&c.fan_edges, c.epoch)
        });
        if valid {
            self.hits.inc();
            self.bypass.on_hit();
            return entry.as_ref().expect("validated above");
        }
        self.misses.inc();
        self.bypass.on_miss();
        let mut ws = self.pool.lease(self.g.node_count());
        ws.run_targets(&self.g, src, lengths, members);
        let fan = entry.get_or_insert_with(FanCache::default);
        fan.dists.clear();
        fan.paths.clear();
        fan.fan_edges.clear();
        for &t in members {
            fan.dists.push(ws.dist(t));
            let reached = ws.path_edges_into(t, &mut fan.fan_edges);
            assert!(reached, "connected graph: member must be reachable");
            fan.paths.push(ws.path_to(t).expect("reached above"));
        }
        self.pool.give_back(ws);
        fan.fan_edges.sort_unstable();
        fan.fan_edges.dedup();
        fan.run_id = epochs.run_id();
        fan.epoch = epochs.current();
        fan
    }
}

impl TreeOracle for DynamicOracle {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.query(session_idx, lengths, None)
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        let Some(epochs) = view.epochs.filter(|_| self.caching && !self.bypass.tripped()) else {
            if view.epochs.is_some() && self.caching {
                stats::ORACLE_BYPASSED.inc();
            }
            return self.query(session_idx, view.lengths, None);
        };
        // Contended (another solver run shares this oracle, e.g. a rayon
        // ratio sweep): compute lock-free instead of serializing on the
        // cache — the pre-engine baseline cost, never worse.
        let Ok(mut st) = self.state.try_lock() else {
            return self.query(session_idx, view.lengths, None);
        };
        self.query(session_idx, view.lengths, Some((&mut st.fans[session_idx], epochs)))
    }

    fn sessions(&self) -> &SessionSet {
        &self.sessions
    }

    fn max_route_hops(&self) -> usize {
        // Dynamic routes can wander: the only safe bound is |V| − 1. The
        // FPTAS only needs an upper bound on route length; looser U costs
        // a constant factor in iteration count, not correctness.
        self.g.node_count() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use omcf_topology::{canned, NodeId};

    fn unit_lengths(g: &Graph) -> Vec<f64> {
        vec![1.0; g.edge_count()]
    }

    #[test]
    fn fixed_oracle_builds_valid_tree() {
        let g = canned::grid(3, 3, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4), NodeId(8)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let t = oracle.min_tree(0, &unit_lengths(&g));
        t.validate(sessions.session(0), &g);
        assert_eq!(t.session, 0);
        // MST over 0-4 (2 hops), 4-8 (2 hops), 0-8 (4 hops): picks the two
        // 2-hop overlay edges ⇒ total length 4.
        assert_eq!(t.length(&unit_lengths(&g)), 4.0);
    }

    #[test]
    fn fixed_oracle_reacts_to_lengths() {
        // Theta graph, session {0, 4}: single overlay edge, but its fixed
        // route never changes even if lengths change.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let t1 = oracle.min_tree(0, &unit_lengths(&g));
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let t2 = oracle.min_tree(0, &expensive);
        assert_eq!(t1.canonical_key(), t2.canonical_key(), "fixed routes must not change");
    }

    #[test]
    fn dynamic_oracle_reroutes_under_lengths() {
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let t1 = oracle.min_tree(0, &unit_lengths(&g));
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let t2 = oracle.min_tree(0, &expensive);
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "dynamic routing must detour");
        t2.validate(sessions.session(0), &g);
    }

    #[test]
    fn oracles_agree_on_unit_lengths() {
        let g = canned::grid(4, 4, 5.0);
        let sessions = SessionSet::new(vec![Session::new(
            vec![NodeId(0), NodeId(5), NodeId(10), NodeId(15)],
            1.0,
        )]);
        let fixed = FixedIpOracle::new(&g, &sessions);
        let dynamic = DynamicOracle::new(&g, &sessions);
        let lu = unit_lengths(&g);
        let tf = fixed.min_tree(0, &lu);
        let td = dynamic.min_tree(0, &lu);
        assert_eq!(tf.length(&lu), td.length(&lu), "same MST weight on fresh lengths");
    }

    #[test]
    fn min_tree_is_minimal_among_spanning_trees() {
        // Brute force over all 3 spanning trees of a 3-member session.
        let g = canned::ring(6, 1.0);
        let members = vec![NodeId(0), NodeId(2), NodeId(4)];
        let sessions = SessionSet::new(vec![Session::new(members, 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        lengths[0] = 3.0; // perturb
        let t = oracle.min_tree(0, &lengths);
        let tree_len = t.length(&lengths);
        // All spanning trees over 3 nodes: pairs {01,02},{01,12},{02,12}.
        let routes = oracle.routes(0);
        let m = sessions.session(0).members.clone();
        let w = |i: usize, j: usize| routes.route(m[i], m[j]).length(&lengths);
        let candidates = [w(0, 1) + w(0, 2), w(0, 1) + w(1, 2), w(0, 2) + w(1, 2)];
        let best = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((tree_len - best).abs() < 1e-12, "oracle {tree_len} vs brute {best}");
    }

    #[test]
    fn max_route_hops_exposed() {
        let g = canned::path(5, 1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let fixed = FixedIpOracle::new(&g, &sessions);
        assert_eq!(fixed.max_route_hops(), 4);
        let dynamic = DynamicOracle::new(&g, &sessions);
        assert_eq!(dynamic.max_route_hops(), 4);
    }

    #[test]
    fn prim_dense_handles_degenerate_member_counts() {
        let unit = |_: usize, _: &[bool], row: &mut [f64]| row.fill(1.0);
        assert!(prim_dense(0, unit).is_empty());
        assert!(prim_dense(1, unit).is_empty());
        assert_eq!(prim_dense(2, unit), vec![(0, 1)]);
    }

    #[test]
    fn prim_dense_pulls_each_row_once_when_its_vertex_attaches() {
        // Path metric on a line: 0–3 is the only cheap link from 0, then
        // 3–1, then 1–2. Rows come in attach order and the last vertex's
        // row is never pulled.
        let pos = [0.0, 5.0, 7.0, 1.0];
        let mut pulled = Vec::new();
        let edges = prim_dense(4, |a, in_tree, row| {
            assert!(in_tree[a], "a row is pulled only once its vertex is attached");
            pulled.push(a);
            for (j, w) in row.iter_mut().enumerate() {
                *w = f64::abs(pos[a] - pos[j]);
            }
        });
        assert_eq!(edges, vec![(0, 3), (3, 1), (1, 2)]);
        assert_eq!(pulled, vec![0, 3, 1]);
    }

    #[test]
    fn dynamic_cache_hits_on_untouched_requeries() {
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        let view = LengthView::with_epochs(&lengths, &epochs);
        let t1 = oracle.min_tree_view(0, view);
        let t2 = oracle.min_tree_view(0, view);
        assert_eq!(t1, t2);
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 2, "first query: one Dijkstra per fan Prim requests");
        assert_eq!(stats.hits, 2, "second query: both requested fans served from cache");
    }

    #[test]
    fn dynamic_cache_invalidates_touched_sources_only() {
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        // Grow the chosen route's edges (monotone update + touch).
        epochs.advance();
        for e in &t1.hops[0].path.edges {
            lengths[e.idx()] *= 100.0;
            epochs.touch(e.idx());
        }
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "grown route must be abandoned");
        // Cross-check against an uncached oracle on identical lengths.
        let reference = DynamicOracle::uncached(&g, &sessions);
        let fresh = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t2, fresh);
    }

    #[test]
    fn fixed_cache_serves_tree_until_covered_edge_touched() {
        let g = canned::grid(3, 3, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4), NodeId(8)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t1, t2);
        assert_eq!(oracle.cache_stats(), CacheStats { hits: 1, misses: 1 });
        // Touch an edge on the cached tree: next query recomputes.
        epochs.advance();
        let e = t1.hops[0].path.edges[0];
        lengths[e.idx()] *= 10.0;
        epochs.touch(e.idx());
        let t3 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        t3.validate(sessions.session(0), &g);
        assert_eq!(oracle.cache_stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn auto_bypass_trips_on_hitless_miss_streak_without_changing_results() {
        // Theta graph, one 2-member session: every augmentation touches the
        // chosen route, so the fan cache can never hit — the Scenario-A
        // pathology in miniature.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let reference = DynamicOracle::uncached(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        // A 2-member query requests one fan, so the streak needs more
        // queries than the 256-miss threshold.
        for step in 0..300 {
            let view = LengthView::with_epochs(&lengths, &epochs);
            let t = oracle.min_tree_view(0, view);
            let fresh = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(t, fresh, "bypass must not change results (step {step})");
            // Grow the chosen route (monotone) and stamp the clock.
            epochs.advance();
            for e in t.edge_multiplicities() {
                lengths[e.0.idx()] *= 1.01;
                epochs.touch(e.0.idx());
            }
        }
        // 300 queries × 1 fan = 300 misses > threshold, zero hits.
        assert!(oracle.cache_bypassed(), "hitless streak must trip the bypass");
        assert_eq!(oracle.cache_stats().hits, 0);
        // Bypassed queries still count their fan as a miss on the plain path.
        assert_eq!(oracle.cache_stats().misses, 300);
        assert!(oracle.cache_stats().misses > super::CACHE_BYPASS_MISSES);
    }

    #[test]
    fn auto_bypass_disarmed_by_an_early_hit() {
        // Re-query without touching anything: the second query hits, which
        // permanently disarms the gauge no matter how many misses follow.
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert!(oracle.cache_stats().hits > 0);
        // Now force a long miss streak by touching the whole graph.
        for _ in 0..200 {
            epochs.advance();
            for (e, len) in lengths.iter_mut().enumerate() {
                *len *= 1.001;
                epochs.touch(e);
            }
            let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        }
        assert!(!oracle.cache_bypassed(), "a hit before the threshold disarms the bypass");
        drop(t);
    }

    #[test]
    fn auto_bypass_threshold_scales_with_instance_size() {
        // 100 sessions × 3 members = 300 fans, so the threshold is 600: the
        // cold first query round (2 requested fans per tree) alone must NOT
        // trip the gauge — hits only become possible from the second
        // round, and they must still disarm it.
        let g = canned::grid(6, 6, 10.0);
        let sessions = SessionSet::new(
            (0..100)
                .map(|i| {
                    Session::new(
                        vec![NodeId(i % 36), NodeId((i + 7) % 36), NodeId((i + 19) % 36)],
                        1.0,
                    )
                })
                .collect(),
        );
        let oracle = DynamicOracle::new(&g, &sessions);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        for i in 0..sessions.len() {
            let _ = oracle.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
        }
        assert_eq!(oracle.cache_stats().misses, 200, "cold round misses every requested fan");
        assert!(
            !oracle.cache_bypassed(),
            "the unavoidable cold round must not trip the bypass on a large instance"
        );
        // Second round: untouched clock ⇒ all hits; gauge disarmed forever.
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(oracle.cache_stats().hits, 2);
        assert!(!oracle.cache_bypassed());
    }

    #[test]
    fn pooled_oracle_recycles_workspaces() {
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let pool = Arc::new(WorkspacePool::new());
        let epochs = EdgeEpochs::new(g.edge_count());
        let lengths = unit_lengths(&g);
        let oracle = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let t = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        t.validate(sessions.session(0), &g);
        // The cached path extracts each fan before the next run, so its two
        // fan runs share one workspace, back in the shared pool afterwards.
        assert_eq!(pool.idle(), 1, "the cold query's workspace is back in the shared pool");
        // The plain path keeps both fan runs until the hops are extracted:
        // it reuses the pooled workspace and allocates one more.
        let _ = oracle.min_tree(0, &lengths);
        assert_eq!(pool.idle(), 2, "plain path returns both workspaces");
        // A second pooled oracle reuses the pool and computes the same tree.
        let oracle2 = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let reference = DynamicOracle::new(&g, &sessions);
        let t2 = oracle2.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let tr = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t2, tr);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn batched_min_trees_view_matches_sequential_queries_and_counts() {
        // Two oracles over the same instance: one queried through the
        // batched entry point, one through per-session calls. Trees and
        // hit/miss accounting must be identical, across a cold round, a
        // warm round, and a partially-invalidated round.
        let g = canned::grid(4, 4, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
            Session::new(vec![NodeId(1), NodeId(6), NodeId(11), NodeId(14)], 1.0),
        ]);
        let batched = DynamicOracle::new(&g, &sessions);
        let sequential = DynamicOracle::new(&g, &sessions);
        let ids = [0usize, 1, 2];
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        for round in 0..3 {
            let view = LengthView::with_epochs(&lengths, &epochs);
            let trees = batched.min_trees_view(&ids, view);
            let refs: Vec<OverlayTree> =
                ids.iter().map(|&i| sequential.min_tree_view(i, view)).collect();
            assert_eq!(trees, refs, "round {round}");
            assert_eq!(batched.cache_stats(), sequential.cache_stats(), "round {round}");
            if round == 0 {
                // Leave the clock untouched: round 1 is the warm round.
                continue;
            }
            if round == 1 {
                // 2 + 1 + 3 requested fans, all served from the cache.
                assert_eq!(batched.cache_stats().hits, 6, "the warm round hits every fan");
            }
            // Invalidate session 0's tree edges for the next round.
            epochs.advance();
            for e in trees[0].edge_multiplicities() {
                lengths[e.0.idx()] *= 2.0;
                epochs.touch(e.0.idx());
            }
        }
        assert!(batched.cache_stats().hits > 0, "warm rounds must hit");
    }

    #[test]
    fn stale_run_ids_never_validate() {
        // A cache from one run must not leak into a new run even when the
        // new run's clock has not touched anything.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let cheap = unit_lengths(&g);
        let run1 = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&cheap, &run1));
        // New run, completely different lengths, untouched clock.
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let run2 = EdgeEpochs::new(g.edge_count());
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&expensive, &run2));
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "run-id check must force recompute");
    }
}
