//! Batched multi-source Dijkstra: K source trees per CSR pass.
//!
//! Every oracle call of the FPTAS fans one Dijkstra per session member
//! — K runs that all read the *same* CSR arrays and the *same* length
//! table, back to back. Run separately, each pass re-streams the
//! offsets/heads/weights arrays from cold cache. [`BatchDijkstra`] runs
//! all K frontiers in one pass instead: per-node state is *lane
//! structured* (struct-of-arrays with K distance/parent/stamp lanes,
//! node-major so one node's K slots are contiguous), and a single shared
//! priority queue keyed by `(dist, lane, node)` — the lane and node
//! packed into one `u64` payload — interleaves the frontiers so each arc
//! scan of a node serves whichever lane reached it.
//!
//! ## Bit-identity
//!
//! The per-lane restriction of the shared pop order is `(dist, node)`
//! ascending — exactly the single-source order — and every relaxation is
//! lane-local (lane `i` reads and writes only lane-`i` slots). So each
//! lane performs the same relaxations in the same order as its own
//! single-source run, and distances, parents, paths and trees are
//! **bit-identical** to the per-source [`DijkstraWorkspace`] loop no
//! matter how sources are grouped into batches (`tests/batch_prop.rs`
//! pins this across graphs × seeds × K). Early exit
//! mirrors the single-source contract per lane: when a lane's last
//! target settles, the lane stops relaxing (its remaining queue entries
//! are skipped), leaving even its tentative values identical to the
//! early-exited single-source run.
//!
//! The shared queue is the crate's one heap ([`DijkstraHeap`]) with
//! the packed `(lane, node)` word as its payload: its `u128` key
//! `(dist bits << 64) | payload` orders exactly like `(dist, lane,
//! node)`, so the lane order costs no extra comparison.
//!
//! ## When batching degrades — measured
//!
//! Lane sharing trades one amortized CSR stream against K× wider
//! per-node state and a K× deeper shared queue, and on the hardware
//! this repo is calibrated on the trade **loses at every scale and
//! shape measured**: frontiers interleave by distance, so lanes pop the
//! same node at different queue moments and the arc scans are never
//! actually shared, while every heap operation pays the deeper queue.
//! Concretely (binary heap, 2000 reps of a 24-job early-exit fan on a
//! 100-node Waxman graph): width 1 ≈ 433 ms vs width 8 ≈ 700–750 ms;
//! a 2048-node full 16-source fan: 161 vs 197 ms; a 16384-node full
//! fan, where the CSR is far out of L2 and batching should shine:
//! 166 vs 238 ms. [`fan_width`] encodes the calibrated production
//! choice (currently per-source), and a specialized K=1 inner loop
//! drops the lane indirection entirely, so the single-lane path costs
//! the same as the dedicated [`DijkstraWorkspace`]. Its callers are
//! [`crate::fanout_trees_batched`] and [`crate::FixedRoutes::new`]; the
//! dynamic-routing oracle runs its member fans one at a time through a
//! [`DijkstraWorkspace`].
//!
//! [`DijkstraWorkspace`]: crate::DijkstraWorkspace
//! [`DijkstraHeap`]: crate::queue::DijkstraHeap

use crate::dijkstra::ShortestPathTree;
use crate::path::Path;
use crate::queue::DijkstraHeap;
use crate::slots::{ArcMirror, ArcWeights, EdgeIndexed, NodeSlot, NO_PARENT};
use crate::workspace::ShortestPath;
use omcf_telemetry::stats;
use omcf_topology::{Graph, NodeId};

/// Default lane-chunk width for batched fan-outs: sources are grouped
/// into batches of this many lanes, so one node's lane row (8 × `f64`
/// distances) fills one cache line and the SoA state stays resident
/// while the CSR streams past. Also the unit the [`Parallelism`]
/// policy splits across workers — one chunk per task.
///
/// [`Parallelism`]: omcf_numerics::Parallelism
pub const LANE_CHUNK: usize = 8;

/// Calibrated lane width for *production* fan execution on graphs of
/// `_nodes` nodes: how many sources [`crate::fanout_trees_batched`] and
/// [`crate::FixedRoutes::new`] actually pack into one engine run.
/// Chunk width never changes results (pinned by `tests/batch_prop.rs`),
/// only wall-clock time — so this is a pure tuning knob, and the
/// measurements (see the module docs) say per-source wins at every
/// scale tried, from 100-node session graphs to a 16384-node CSR:
/// the shared queue's extra depth costs more than the CSR stream
/// amortization recovers. [`LANE_CHUNK`] remains the *maximum* lane
/// count (what the state layout and property tests are sized for) and
/// the parallel split granularity, not the execution width.
#[inline]
#[must_use]
pub fn fan_width(_nodes: usize) -> usize {
    1
}

/// `state` bit 0: node is an early-exit target of the current run.
const STATE_TARGET: u32 = 1;
/// `state` bit 1: node is settled (popped) in the current run.
const STATE_DONE: u32 = 2;
/// Per-run generation stride (leaves the two flag bits clear).
const GEN_STRIDE: u32 = 4;

/// Packs a `(lane, node)` pair into the shared queue's `u64` payload.
/// Lane in the high half: payload ties order `(lane, node)`, realizing
/// the documented `(dist, lane, node)` total order.
#[inline]
fn pack(lane: usize, node: NodeId) -> u64 {
    ((lane as u64) << 32) | u64::from(node.0)
}

#[inline]
fn unpack(payload: u64) -> (usize, NodeId) {
    ((payload >> 32) as usize, NodeId(payload as u32))
}

/// Which targets each lane early-exits on.
enum LaneTargets<'a> {
    /// Full run: settle every reachable node in every lane.
    None,
    /// All lanes stop on the same target set.
    Shared(&'a [NodeId]),
    /// Lane `i` stops on `targets[i]`.
    PerLane(&'a [&'a [NodeId]]),
}

impl LaneTargets<'_> {
    fn is_none(&self) -> bool {
        matches!(self, LaneTargets::None)
    }

    fn for_lane(&self, lane: usize) -> &[NodeId] {
        match self {
            LaneTargets::None => &[],
            LaneTargets::Shared(t) => t,
            LaneTargets::PerLane(t) => t[lane],
        }
    }
}

/// Pre-allocated K-source shortest-path state: K lanes of packed
/// `NodeSlot` records (distance, parent link and state word in one
/// 24-byte struct), node-major (`slot = node * k + lane`), one shared
/// queue. Reusable across runs like [`DijkstraWorkspace`] — generation
/// stamps make resets O(1) — and across lane counts (changing K between
/// runs just re-shapes the lanes).
///
/// [`DijkstraWorkspace`]: crate::DijkstraWorkspace
#[derive(Debug)]
pub struct BatchDijkstra {
    n: usize,
    /// Lane count of the last run (0 before any run).
    k: usize,
    sources: Vec<NodeId>,
    /// `n * k` packed relaxation records (see `NodeSlot`): one
    /// location per relaxation where three parallel lane arrays used to
    /// cost three cache lines.
    slots: Vec<NodeSlot>,
    gen: u32,
    queue: DijkstraHeap,
    /// Per-lane early-exit bookkeeping, kept allocated across runs.
    pending: Vec<usize>,
    lane_done: Vec<bool>,
}

impl BatchDijkstra {
    /// Creates a batch engine for graphs of `n` nodes. Lane storage is
    /// allocated lazily on first run.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            k: 0,
            sources: Vec::new(),
            slots: Vec::new(),
            gen: 0,
            queue: DijkstraHeap::new(),
            pending: Vec::new(),
            lane_done: Vec::new(),
        }
    }

    /// Number of nodes the engine is sized for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Lane count of the last run.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.k
    }

    #[inline]
    fn slot(&self, v: usize, lane: usize) -> usize {
        v * self.k + lane
    }

    fn begin(&mut self, sources: &[NodeId]) {
        let k = sources.len();
        assert!(k > 0, "batch run needs at least one source");
        debug_assert!(sources.iter().all(|s| s.idx() < self.n), "source outside graph");
        if k != self.k {
            // Re-shape the lanes. The slot mapping changes, so stale
            // stamps land at arbitrary slots — harmless, they are all
            // `< gen` after the bump below and read as untouched.
            self.k = k;
            self.slots.clear();
            self.slots.resize(self.n * k, NodeSlot::UNREACHED);
        }
        if self.gen > u32::MAX - GEN_STRIDE {
            // Stamp wrap: hard-reset so stale stamps can never alias.
            for s in &mut self.slots {
                s.state = 0;
            }
            self.gen = 0;
        }
        self.gen += GEN_STRIDE;
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        for (lane, &s) in sources.iter().enumerate() {
            let slot = &mut self.slots[s.idx() * k + lane];
            slot.dist = 0.0;
            slot.clear_parent();
            slot.state = self.gen;
        }
        self.pending.clear();
        self.pending.resize(k, 0);
        self.lane_done.clear();
        self.lane_done.resize(k, false);
    }

    #[inline]
    fn tentative(&self, lane: usize, v: usize) -> f64 {
        let s = &self.slots[v * self.k + lane];
        if s.state >= self.gen {
            s.dist
        } else {
            f64::INFINITY
        }
    }

    /// Runs K-source Dijkstra, lane `i` from `sources[i]`, settling
    /// every reachable node in every lane. Lane `i`'s results are
    /// bit-identical to a single-source run from `sources[i]`.
    pub fn run(&mut self, g: &Graph, sources: &[NodeId], lengths: &[f64]) {
        self.run_inner(g, sources, lengths, EdgeIndexed(lengths), &LaneTargets::None);
    }

    /// [`Self::run`] with a pre-gathered arc-order weight mirror
    /// (`arcs[a] = lengths[arc_edges[a]]`, see
    /// [`CsrGraph::fill_arc_lengths`]): the relax loop streams the
    /// contiguous mirror instead of gathering through the edge-id table.
    /// Same weights, bit-identical results; the mirror is worth building
    /// only when several runs share one length assignment.
    ///
    /// [`CsrGraph::fill_arc_lengths`]: omcf_topology::CsrGraph::fill_arc_lengths
    pub(crate) fn run_arcs(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        lengths: &[f64],
        arcs: &[f64],
    ) {
        debug_assert_eq!(arcs.len(), g.csr().arc_count(), "arc mirror size mismatch");
        self.run_inner(g, sources, lengths, ArcMirror(arcs), &LaneTargets::None);
    }

    /// Like [`Self::run`] but every lane stops as soon as all of
    /// `targets` are settled in that lane. Targets' distances, parents
    /// and paths are identical to a full run.
    pub fn run_targets(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        lengths: &[f64],
        targets: &[NodeId],
    ) {
        debug_assert!(!targets.is_empty(), "run_targets needs at least one target");
        self.run_inner(g, sources, lengths, EdgeIndexed(lengths), &LaneTargets::Shared(targets));
    }

    /// Like [`Self::run_targets`] but lane `i` stops on its own set
    /// `targets[i]` (the cross-session sweep shape: each session fans to
    /// its own members). An empty lane set means that lane runs to
    /// completion.
    pub fn run_lane_targets(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        lengths: &[f64],
        targets: &[&[NodeId]],
    ) {
        assert_eq!(targets.len(), sources.len(), "one target set per lane");
        self.run_inner(g, sources, lengths, EdgeIndexed(lengths), &LaneTargets::PerLane(targets));
    }

    fn run_inner<W: ArcWeights>(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        lengths: &[f64],
        weights: W,
        targets: &LaneTargets<'_>,
    ) {
        assert_eq!(lengths.len(), g.edge_count(), "length table size mismatch");
        assert_eq!(self.n, g.node_count(), "batch engine sized for a different graph");
        debug_assert!(lengths.iter().all(|l| *l >= 0.0 && l.is_finite()));
        self.begin(sources);
        // Same as the single-source workspace: run on a local heap
        // (moved out and back, allocation kept), cleared of any entries
        // an early exit left behind.
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        if self.k == 1 {
            // Single lane: `pack(0, node)` is just the node id, so the
            // shared-queue order degenerates to plain `(dist, node)` and
            // the lane arithmetic is pure overhead — run the
            // specialized loop instead (identical results, ~15% less
            // constant factor; see the module docs).
            self.run_loop_single(g, weights, targets, &mut queue);
        } else {
            self.run_loop(g, weights, targets, &mut queue);
        }
        self.queue = queue;
    }

    /// The K=1 twin of [`Self::run_loop`]: slot index is the node index,
    /// the queue payload is the bare node id (`pack(0, v) == v.0`), and
    /// the per-lane bookkeeping collapses to two locals. Pop order,
    /// relaxation order and the early-exit point are exactly the
    /// generic loop's lane-0 behaviour, so results stay bit-identical —
    /// this only removes the lane indirection from the hot loop.
    fn run_loop_single<W: ArcWeights>(
        &mut self,
        g: &Graph,
        weights: W,
        targets: &LaneTargets<'_>,
        queue: &mut DijkstraHeap,
    ) {
        // Same batching as the workspace loop: events in locals, one
        // flush, one relaxed load when disabled.
        let telemetry = omcf_telemetry::enabled();
        let mut pops = 0u64;
        let mut pushes = 0u64;
        let mut scans = 0u64;
        let gen = self.gen;
        let has_targets = !targets.is_none();
        let mut pending = 0usize;
        for &t in targets.for_lane(0) {
            let slot = &mut self.slots[t.idx()];
            let s = slot.state;
            if s < gen {
                slot.state = gen | STATE_TARGET;
                slot.dist = f64::INFINITY;
                slot.clear_parent();
                pending += 1;
            } else if s & STATE_TARGET == 0 {
                slot.state = s | STATE_TARGET;
                pending += 1;
            }
        }
        queue.push(0.0, u64::from(self.sources[0].0));
        pushes += 1;
        let csr = g.csr();
        while let Some((d, payload)) = queue.pop() {
            pops += 1;
            let u = NodeId(payload as u32);
            let su = self.slots[u.idx()].state;
            if su >= gen + STATE_DONE {
                continue;
            }
            self.slots[u.idx()].state = su | STATE_DONE;
            if has_targets && su & STATE_TARGET != 0 {
                pending -= 1;
                if pending == 0 {
                    // Last target settles but its arcs are NOT relaxed —
                    // the same early exit as the generic loop's lane 0.
                    break;
                }
            }
            let (arc_edges, heads) = csr.arc_slices(u);
            scans += arc_edges.len() as u64;
            let base = csr.arc_range(u).start;
            for (k, (&e, &v)) in arc_edges.iter().zip(heads).enumerate() {
                let nd = d + weights.weight(base + k, e);
                let slot = &mut self.slots[v.idx()];
                let sv = slot.state;
                if sv >= gen + STATE_DONE {
                    continue;
                }
                let cur = if sv >= gen { slot.dist } else { f64::INFINITY };
                let better = nd < cur
                    // Same deterministic tie-break as every other loop
                    // (the sentinel check keeps "no parent" out of it).
                    || (nd == cur && slot.parent_node != NO_PARENT && u.0 < slot.parent_node);
                if better {
                    slot.dist = nd;
                    slot.parent_edge = e.0;
                    slot.parent_node = u.0;
                    if sv < gen {
                        slot.state = gen;
                    }
                    queue.push(nd, u64::from(v.0));
                    pushes += 1;
                }
            }
        }
        if telemetry {
            stats::ROUTING_DIJKSTRA_RUNS.record(1);
            stats::ROUTING_HEAP_PUSHES.record(pushes);
            stats::ROUTING_HEAP_POPS.record(pops);
            stats::ROUTING_RELAXATIONS.record(scans);
        }
    }

    fn run_loop<W: ArcWeights>(
        &mut self,
        g: &Graph,
        weights: W,
        targets: &LaneTargets<'_>,
        queue: &mut DijkstraHeap,
    ) {
        let telemetry = omcf_telemetry::enabled();
        let mut pops = 0u64;
        let mut pushes = 0u64;
        let mut scans = 0u64;
        let gen = self.gen;
        let k = self.k;
        let has_targets = !targets.is_none();
        // A lane with no targets of its own runs to completion; it is
        // "done" for early-exit accounting only when its queue drains.
        let mut active = k;
        for lane in 0..k {
            for &t in targets.for_lane(lane) {
                let slot = &mut self.slots[t.idx() * k + lane];
                let s = slot.state;
                if s < gen {
                    // Stamp as target; pre-set the unreached defaults so
                    // the stamp alone makes dist/parent readable.
                    slot.state = gen | STATE_TARGET;
                    slot.dist = f64::INFINITY;
                    slot.clear_parent();
                    self.pending[lane] += 1;
                } else if s & STATE_TARGET == 0 {
                    // Already seen this run (the lane's source): flag only.
                    slot.state = s | STATE_TARGET;
                    self.pending[lane] += 1;
                }
            }
        }
        for (lane, &src) in self.sources.iter().enumerate() {
            queue.push(0.0, pack(lane, src));
            pushes += 1;
        }
        // One CSR stream serves all K frontiers: each pop carries its
        // lane, the arc scan relaxes that lane's slots only. The
        // per-lane pop order is (dist, node) ascending — the
        // single-source order — so every lane's relaxation sequence, and
        // therefore its results, are bit-identical to its own
        // single-source run.
        let csr = g.csr();
        while let Some((d, payload)) = queue.pop() {
            pops += 1;
            let (lane, u) = unpack(payload);
            if has_targets && self.lane_done[lane] {
                // The lane early-exited; drain its leftovers unrelaxed
                // (the single-source run never pops them at all).
                continue;
            }
            let iu = u.idx() * k + lane;
            let su = self.slots[iu].state;
            if su >= gen + STATE_DONE {
                continue;
            }
            self.slots[iu].state = su | STATE_DONE;
            if has_targets && su & STATE_TARGET != 0 {
                self.pending[lane] -= 1;
                if self.pending[lane] == 0 {
                    // Mirror the single-source early exit exactly: the
                    // final target settles but its arcs are NOT relaxed.
                    self.lane_done[lane] = true;
                    active -= 1;
                    if active == 0 {
                        break;
                    }
                    continue;
                }
            }
            let (arc_edges, heads) = csr.arc_slices(u);
            scans += arc_edges.len() as u64;
            let base = csr.arc_range(u).start;
            for (a, (&e, &v)) in arc_edges.iter().zip(heads).enumerate() {
                let nd = d + weights.weight(base + a, e);
                let slot = &mut self.slots[v.idx() * k + lane];
                let sv = slot.state;
                if sv >= gen + STATE_DONE {
                    continue;
                }
                let cur = if sv >= gen { slot.dist } else { f64::INFINITY };
                let better = nd < cur
                    // Deterministic tie-break: prefer the lower-id
                    // predecessor (identical rule to the single-source
                    // loop and the adjacency reference; the sentinel
                    // check keeps "no parent" out of it).
                    || (nd == cur && slot.parent_node != NO_PARENT && u.0 < slot.parent_node);
                if better {
                    slot.dist = nd;
                    slot.parent_edge = e.0;
                    slot.parent_node = u.0;
                    if sv < gen {
                        slot.state = gen;
                    }
                    queue.push(nd, pack(lane, v));
                    pushes += 1;
                }
            }
        }
        if telemetry {
            // One "run" per lane: totals line up with the equivalent
            // single-source runs the batch replaces.
            stats::ROUTING_DIJKSTRA_RUNS.record(k as u64);
            stats::ROUTING_HEAP_PUSHES.record(pushes);
            stats::ROUTING_HEAP_POPS.record(pops);
            stats::ROUTING_RELAXATIONS.record(scans);
        }
    }

    /// The source of `lane` in the last run.
    #[must_use]
    pub fn source(&self, lane: usize) -> NodeId {
        self.sources[lane]
    }

    /// Distance from lane `lane`'s source to `n` (`f64::INFINITY` if
    /// unreached). After an early-exited run, only settled nodes carry
    /// final values — query the targets.
    #[must_use]
    pub fn dist(&self, lane: usize, n: NodeId) -> f64 {
        assert!(lane < self.k, "lane out of range");
        self.tentative(lane, n.idx())
    }

    /// Appends the edge ids of lane `lane`'s shortest path to `dst` onto
    /// `out` in reverse (`dst` → source) order; returns `false` if
    /// unreached. The allocation-free twin of [`Self::path_to`].
    pub fn path_edges_into(&self, lane: usize, dst: NodeId, out: &mut Vec<u32>) -> bool {
        if !self.dist(lane, dst).is_finite() {
            return false;
        }
        let mut cur = dst;
        while cur != self.sources[lane] {
            let (e, prev) = self.slots[self.slot(cur.idx(), lane)]
                .parent()
                .expect("reachable non-source has a parent");
            out.push(e.0);
            cur = prev;
        }
        true
    }

    /// Extracts lane `lane`'s shortest path to `dst`, or `None` if
    /// unreached. After an early-exited run, query settled targets only.
    #[must_use]
    pub fn path_to(&self, lane: usize, dst: NodeId) -> Option<Path> {
        if !self.dist(lane, dst).is_finite() {
            return None;
        }
        let src = self.sources[lane];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (e, prev) = self.slots[self.slot(cur.idx(), lane)]
                .parent()
                .expect("reachable non-source has a parent");
            edges.push(e);
            cur = prev;
        }
        edges.reverse();
        Some(Path { src, dst, edges: edges.into_boxed_slice() })
    }

    /// Materializes lane `lane` of the last (full) run as an owned
    /// [`ShortestPathTree`] — bit-identical to the tree of the matching
    /// single-source run.
    #[must_use]
    pub fn to_tree(&self, lane: usize) -> ShortestPathTree {
        assert!(lane < self.k, "lane out of range");
        let dist = (0..self.n).map(|v| self.tentative(lane, v)).collect();
        let parent = (0..self.n)
            .map(|v| {
                let s = &self.slots[v * self.k + lane];
                if s.state >= self.gen {
                    s.parent()
                } else {
                    None
                }
            })
            .collect();
        ShortestPathTree::from_parts(self.sources[lane], dist, parent)
    }
}

/// The K=1 view of the batch engine: lane 0 behind the single-source
/// [`ShortestPath`] seam, so the whole bit-exactness conformance suite
/// in `tests/prop.rs` applies to the batched loop verbatim.
impl ShortestPath for BatchDijkstra {
    fn node_count(&self) -> usize {
        self.n
    }

    fn run(&mut self, g: &Graph, src: NodeId, lengths: &[f64]) {
        BatchDijkstra::run(self, g, &[src], lengths);
    }

    fn run_targets(&mut self, g: &Graph, src: NodeId, lengths: &[f64], targets: &[NodeId]) {
        BatchDijkstra::run_targets(self, g, &[src], lengths, targets);
    }

    fn source(&self) -> NodeId {
        BatchDijkstra::source(self, 0)
    }

    fn dist(&self, n: NodeId) -> f64 {
        BatchDijkstra::dist(self, 0, n)
    }

    fn path_to(&self, n: NodeId) -> Option<Path> {
        BatchDijkstra::path_to(self, 0, n)
    }

    fn to_tree(&self) -> ShortestPathTree {
        BatchDijkstra::to_tree(self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use omcf_topology::canned;

    #[test]
    fn lanes_match_single_source_runs_on_a_grid() {
        let g = canned::grid(5, 5, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 0.5 + (e % 4) as f64).collect();
        let sources = [NodeId(0), NodeId(7), NodeId(24), NodeId(12)];
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run(&g, &sources, &lengths);
        for (lane, &src) in sources.iter().enumerate() {
            let fresh = dijkstra(&g, src, &lengths);
            assert_eq!(batch.source(lane), src);
            for v in g.nodes() {
                assert_eq!(batch.dist(lane, v).to_bits(), fresh.dist(v).to_bits());
                assert_eq!(batch.path_to(lane, v), fresh.path_to(v));
            }
            assert_eq!(batch.to_tree(lane), fresh);
        }
    }

    #[test]
    fn duplicate_sources_get_independent_identical_lanes() {
        let g = canned::grid(4, 4, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 1.0 + (e % 3) as f64).collect();
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run(&g, &[NodeId(5), NodeId(5)], &lengths);
        for v in g.nodes() {
            assert_eq!(batch.dist(0, v).to_bits(), batch.dist(1, v).to_bits());
            assert_eq!(batch.path_to(0, v), batch.path_to(1, v));
        }
    }

    #[test]
    fn early_exit_settles_targets_identically_per_lane() {
        let g = canned::grid(6, 6, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 0.25 + (e % 5) as f64).collect();
        let sources = [NodeId(0), NodeId(35), NodeId(17)];
        let targets = [NodeId(3), NodeId(20), NodeId(30)];
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run_targets(&g, &sources, &lengths, &targets);
        for (lane, &src) in sources.iter().enumerate() {
            let fresh = dijkstra(&g, src, &lengths);
            for &t in &targets {
                assert_eq!(batch.dist(lane, t).to_bits(), fresh.dist(t).to_bits());
                assert_eq!(batch.path_to(lane, t), fresh.path_to(t));
            }
        }
    }

    #[test]
    fn per_lane_targets_stop_each_lane_on_its_own_set() {
        let g = canned::grid(5, 5, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 1.0 + (e % 2) as f64).collect();
        let sources = [NodeId(0), NodeId(24)];
        let t0 = [NodeId(4), NodeId(20)];
        let t1 = [NodeId(2)];
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run_lane_targets(&g, &sources, &lengths, &[&t0, &t1]);
        let f0 = dijkstra(&g, sources[0], &lengths);
        let f1 = dijkstra(&g, sources[1], &lengths);
        for &t in &t0 {
            assert_eq!(batch.dist(0, t).to_bits(), f0.dist(t).to_bits());
            assert_eq!(batch.path_to(0, t), f0.path_to(t));
        }
        for &t in &t1 {
            assert_eq!(batch.dist(1, t).to_bits(), f1.dist(t).to_bits());
            assert_eq!(batch.path_to(1, t), f1.path_to(t));
        }
    }

    #[test]
    fn lane_count_can_change_between_runs() {
        let g = canned::ring(10, 1.0);
        let unit = vec![1.0; g.edge_count()];
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run(&g, &[NodeId(0), NodeId(3), NodeId(6)], &unit);
        assert_eq!(batch.lanes(), 3);
        let d_before = batch.dist(1, NodeId(5));
        batch.run(&g, &[NodeId(3)], &unit);
        assert_eq!(batch.lanes(), 1);
        assert_eq!(batch.dist(0, NodeId(5)), d_before);
        // Grow again: stale stamps from the 3-lane run must not leak.
        batch.run(&g, &[NodeId(9), NodeId(1)], &unit);
        let fresh = dijkstra(&g, NodeId(9), &unit);
        for v in g.nodes() {
            assert_eq!(batch.dist(0, v).to_bits(), fresh.dist(v).to_bits());
        }
    }

    #[test]
    fn unreachable_nodes_stay_unreached_per_lane() {
        use omcf_topology::GraphBuilder;
        // Two components: {0,1} and {2,3}.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        let g = b.finish();
        let unit = vec![1.0; g.edge_count()];
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run(&g, &[NodeId(0), NodeId(2)], &unit);
        assert!(!batch.dist(0, NodeId(3)).is_finite());
        assert!(batch.path_to(0, NodeId(3)).is_none());
        assert!(!batch.dist(1, NodeId(1)).is_finite());
        assert_eq!(batch.dist(1, NodeId(3)), 1.0);
    }
}
