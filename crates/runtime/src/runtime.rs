//! The long-running session runtime.
//!
//! [`Runtime`] owns live solver state — the [`EngineState`] of
//! `omcf-core` (exponential lengths at the Table VI initialization
//! `d_e = 1/c_e`, per-edge load table, accumulated [`TreeStore`], epoch
//! clock, counters) — and mutates it **incrementally** as events arrive,
//! instead of re-solving the population from scratch per event:
//!
//! * [`Runtime::join`] wraps the persistent state in a short-lived
//!   [`Engine`] (the warm-start hooks `Engine::resume`/`suspend`) with a
//!   fresh single-session oracle, routes the arrival on its minimum
//!   overlay spanning tree and charges the links — one oracle call per
//!   event, exactly the Table VI arrival step.
//! * [`Runtime::leave`] rolls the departed session's contribution back
//!   *exactly* via [`EngineState::rollback`]: affected edges are replayed
//!   from `1/c_e` over the surviving contributions in admission order, so
//!   the restored lengths/loads are bit-identical to a trajectory that
//!   only ever admitted the survivors with the same trees. A per-edge
//!   index of live contributions hands each replay exactly the sessions
//!   crossing that edge, so a departure never scans the admission log.
//! * [`Runtime::rescale_capacities`] applies link reconfiguration: trees
//!   stay pinned while affected edges' base lengths and per-session
//!   charges are re-derived exactly from the new capacities.
//!
//! Because the arithmetic is the same float-op sequence the batch
//! [`omcf_core::solver::SolverKind::Online`] replay executes, a full-trace
//! replay's final rates are bit-identical to the cold batch run — pinned
//! by `crates/sim/tests/replay.rs`.

use crate::event::Event;
use omcf_core::engine::{Contribution, Engine, EngineState, LengthGrowth};
use omcf_core::solver::RoutingMode;
use omcf_core::ScaledLengths;
use omcf_overlay::{
    DynamicOracle, FixedIpOracle, OverlayTree, Session, SessionSet, TreeOracle, TreeStore,
};
use omcf_telemetry::stats;
use omcf_topology::{EdgeId, Graph, GraphBuilder};
use std::sync::Arc;

/// Construction parameters of a [`Runtime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Online step size ρ (Table VI).
    pub rho: f64,
    /// Routing regime for arrivals.
    pub routing: RoutingMode,
}

impl RuntimeConfig {
    /// Config with explicit parameters.
    #[must_use]
    pub fn new(rho: f64, routing: RoutingMode) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "step size must be positive");
        Self { rho, routing }
    }
}

/// One admitted session and everything needed to roll it back.
#[derive(Clone, Debug)]
pub(crate) struct Admitted {
    pub(crate) session: Session,
    pub(crate) tree: OverlayTree,
    pub(crate) contribution: Contribution,
    pub(crate) alive: bool,
}

/// Per edge, the `(join index, multiplicity)` pairs of the live sessions
/// whose trees cross it, in admission order — the replay input of
/// [`EngineState::rollback`] and [`EngineState::replay_edges`]. Derived
/// from the admission log: [`Runtime::join`] appends, [`Runtime::leave`]
/// removes, a snapshot restore rebuilds it, and it is never serialized.
#[derive(Debug)]
pub(crate) struct EdgeIndex(Vec<Vec<(u32, u32)>>);

impl EdgeIndex {
    /// The index of the live sessions in `admitted` over `edge_count` edges.
    pub(crate) fn build(edge_count: usize, admitted: &[Admitted]) -> Self {
        let mut index = Self(vec![Vec::new(); edge_count]);
        for (j, a) in admitted.iter().enumerate().filter(|(_, a)| a.alive) {
            index.insert(j, &a.contribution);
        }
        index
    }

    /// Appends join `j`, which must be newer than every indexed join.
    fn insert(&mut self, j: usize, c: &Contribution) {
        let j = u32::try_from(j).expect("join index fits in u32");
        for &(e, n) in &c.edges {
            self.0[e.idx()].push((j, n));
        }
    }

    /// Removes join `j` from every edge its contribution crosses.
    fn remove(&mut self, j: usize, c: &Contribution) {
        let j = u32::try_from(j).expect("join index fits in u32");
        for &(e, _) in &c.edges {
            let list = &mut self.0[e.idx()];
            let k = list.binary_search_by_key(&j, |p| p.0).expect("live session is indexed");
            list.remove(k);
        }
    }

    /// Edge `e`'s live contributions as replay input: `(n_e, amount)` in
    /// admission order.
    fn crossing<'a>(
        &'a self,
        admitted: &'a [Admitted],
        e: EdgeId,
    ) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.0[e.idx()].iter().map(move |&(j, n)| (n, admitted[j as usize].contribution.amount))
    }

    /// Whether every edge in `edges` lists exactly what a scan of the
    /// admission log finds — the debug-build check before each replay.
    fn matches_scan(&self, admitted: &[Admitted], mut edges: impl Iterator<Item = EdgeId>) -> bool {
        edges.all(|e| {
            let scan = admitted.iter().enumerate().filter(|(_, a)| a.alive).filter_map(|(j, a)| {
                let n = a.contribution.multiplicity(e);
                (n > 0).then_some((j, n))
            });
            self.0[e.idx()].iter().map(|&(j, n)| (j as usize, n)).eq(scan)
        })
    }
}

/// A population snapshot taken at a [`Event::Reoptimize`] checkpoint,
/// consumed by the [`Reoptimizer`](crate::Reoptimizer). Checkpoints are
/// deliberately detached from the runtime (they share the graph by `Arc`
/// and clone the live sessions), so batch re-solves can run later — and
/// in parallel — without blocking or perturbing the event loop.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// 1-based index of the checkpoint event within the processed stream.
    pub event_index: u64,
    /// The physical topology at checkpoint time (capacity changes swap
    /// the `Arc`, so a checkpoint pins the graph it was taken under).
    pub graph: Arc<Graph>,
    /// Live sessions in admission order, keyed by join index.
    pub population: Vec<(usize, Session)>,
    /// The runtime's congestion at full demands, `max_e load_e`.
    pub runtime_congestion: f64,
}

/// A continuously running overlay system processing an ordered event
/// stream against warm solver state. See the module docs for the
/// contract of each event.
#[derive(Debug)]
pub struct Runtime {
    pub(crate) graph: Arc<Graph>,
    pub(crate) rho: f64,
    pub(crate) routing: RoutingMode,
    pub(crate) state: EngineState,
    pub(crate) admitted: Vec<Admitted>,
    pub(crate) index: EdgeIndex,
    pub(crate) events_processed: u64,
}

impl Runtime {
    /// An empty runtime over `g`.
    #[must_use]
    pub fn new(g: impl Into<Arc<Graph>>, cfg: RuntimeConfig) -> Self {
        assert!(cfg.rho > 0.0 && cfg.rho.is_finite(), "step size must be positive");
        let graph = g.into();
        let state = EngineState::online(&graph);
        let index = EdgeIndex::build(graph.edge_count(), &[]);
        Self {
            graph,
            rho: cfg.rho,
            routing: cfg.routing,
            state,
            admitted: Vec::new(),
            index,
            events_processed: 0,
        }
    }

    /// Applies one event. Returns the population [`Checkpoint`] for
    /// [`Event::Reoptimize`], `None` for the state-mutating events.
    /// Panics on a `Leave` of an unknown or already-departed session and
    /// on non-positive capacity factors — an event stream is validated
    /// input, not user data.
    pub fn apply(&mut self, ev: &Event) -> Option<Checkpoint> {
        self.events_processed += 1;
        // Per-kind telemetry: one span + counter, and the apply latency
        // into that kind's wall-clock histogram. Timing is gated so the
        // disabled cost stays one relaxed load.
        let (span_name, counter, latency): (
            _,
            &'static omcf_telemetry::Counter,
            &'static omcf_telemetry::Histogram,
        ) = match ev {
            Event::Join(_) => {
                ("runtime.event.join", &stats::RUNTIME_EVENTS_JOIN, &stats::RUNTIME_EVENT_JOIN_US)
            }
            Event::Leave(_) => (
                "runtime.event.leave",
                &stats::RUNTIME_EVENTS_LEAVE,
                &stats::RUNTIME_EVENT_LEAVE_US,
            ),
            Event::CapacityChange(_) => (
                "runtime.event.capacity",
                &stats::RUNTIME_EVENTS_CAPACITY,
                &stats::RUNTIME_EVENT_CAPACITY_US,
            ),
            Event::Reoptimize => (
                "runtime.event.reopt",
                &stats::RUNTIME_EVENTS_REOPT,
                &stats::RUNTIME_EVENT_REOPT_US,
            ),
        };
        let _span = omcf_telemetry::span(span_name);
        counter.inc();
        let t0 = omcf_telemetry::enabled().then(std::time::Instant::now);
        let out = match ev {
            Event::Join(s) => {
                self.join(s.clone());
                None
            }
            Event::Leave(i) => {
                assert!(self.leave(*i), "Leave({i}) does not match a live session");
                None
            }
            Event::CapacityChange(factors) => {
                self.rescale_capacities(factors);
                None
            }
            Event::Reoptimize => Some(self.checkpoint()),
        };
        if let Some(t0) = t0 {
            latency.observe_duration(t0.elapsed());
        }
        out
    }

    /// Admits a session: one oracle query under the live lengths, one
    /// augmentation charging its tree. Returns the session's join index.
    pub fn join(&mut self, session: Session) -> usize {
        let slot = self.state.store.push_session();
        debug_assert_eq!(slot, self.admitted.len(), "store slots track admissions");
        let set = SessionSet::new(vec![session.clone()]);
        let oracle: Box<dyn TreeOracle> = match self.routing {
            RoutingMode::FixedIp => Box::new(FixedIpOracle::new(&self.graph, &set)),
            // One query per oracle: the epoch cache could never hit, so
            // Prim's fans run straight to the members not yet attached.
            RoutingMode::Arbitrary => Box::new(DynamicOracle::uncached(&self.graph, &set)),
        };
        let state = std::mem::replace(&mut self.state, placeholder_state());
        let mut engine = Engine::resume(
            &self.graph,
            oracle.as_ref(),
            LengthGrowth::Online { rho: self.rho },
            state,
        );
        let mut tree = engine.min_tree(0);
        tree.session = slot;
        let edges = engine.augment(tree.clone(), session.demand);
        self.state = engine.suspend();
        let contribution = Contribution { edges, amount: session.demand };
        self.index.insert(slot, &contribution);
        self.admitted.push(Admitted { session, tree, contribution, alive: true });
        slot
    }

    /// Removes the session admitted as join `join_idx`, rolling its
    /// contribution back exactly. Returns `false` if the index is unknown
    /// or the session already left.
    pub fn leave(&mut self, join_idx: usize) -> bool {
        match self.admitted.get(join_idx) {
            Some(a) if a.alive => {}
            _ => return false,
        }
        self.admitted[join_idx].alive = false;
        let departed = &self.admitted[join_idx].contribution;
        self.index.remove(join_idx, departed);
        debug_assert!(self
            .index
            .matches_scan(&self.admitted, departed.edges.iter().map(|&(e, _)| e)));
        stats::RUNTIME_ROLLBACK_EDGES.add(departed.edges.len() as u64);
        self.state.rollback(&self.graph, self.rho, join_idx, departed, |e| {
            self.index.crossing(&self.admitted, e)
        });
        true
    }

    /// Multiplies each listed edge's capacity by its factor and re-derives
    /// the affected lengths and loads exactly from the new capacities —
    /// live trees stay pinned (sessions are not re-routed mid-flight; a
    /// subsequent [`Event::Reoptimize`] measures what that pinning costs).
    /// Duplicate edges compose multiplicatively. Because a capacity
    /// increase *shrinks* `1/c_e`, the epoch clock is fully invalidated.
    pub fn rescale_capacities(&mut self, factors: &[(EdgeId, f64)]) {
        if factors.is_empty() {
            return;
        }
        let mut caps: Vec<f64> = self.graph.edge_ids().map(|e| self.graph.capacity(e)).collect();
        for &(e, f) in factors {
            assert!(f > 0.0 && f.is_finite(), "capacity factor must be positive");
            caps[e.idx()] *= f;
        }
        let mut b = GraphBuilder::new(self.graph.node_count());
        for node in self.graph.nodes() {
            let (x, y) = self.graph.position(node);
            b.set_position(node, x, y);
        }
        for e in self.graph.edge_ids() {
            let edge = self.graph.edge(e);
            b.add_edge(edge.u, edge.v, caps[e.idx()]);
        }
        self.graph = Arc::new(b.finish());

        let mut edges: Vec<EdgeId> = factors.iter().map(|&(e, _)| e).collect();
        edges.sort_unstable();
        edges.dedup();
        debug_assert!(self.index.matches_scan(&self.admitted, edges.iter().copied()));
        stats::RUNTIME_ROLLBACK_EDGES.add(edges.len() as u64);
        self.state
            .replay_edges(&self.graph, self.rho, edges, |e| self.index.crossing(&self.admitted, e));
        self.state.epochs.invalidate_all();
    }

    /// Snapshots the live population for offline re-solving.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            event_index: self.events_processed,
            graph: Arc::clone(&self.graph),
            population: self
                .admitted
                .iter()
                .enumerate()
                .filter(|(_, a)| a.alive)
                .map(|(i, a)| (i, a.session.clone()))
                .collect(),
            runtime_congestion: self.max_load(),
        }
    }

    /// Number of live sessions.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.admitted.iter().filter(|a| a.alive).count()
    }

    /// Join indices of the live sessions, in admission order.
    #[must_use]
    pub fn live_joins(&self) -> Vec<usize> {
        self.admitted.iter().enumerate().filter(|(_, a)| a.alive).map(|(i, _)| i).collect()
    }

    /// Capacity-saturating rates `dem / l_max^i` per live session
    /// (Table VI scaling), keyed by join index, in admission order.
    #[must_use]
    pub fn saturating_rates(&self) -> Vec<(usize, f64)> {
        self.admitted
            .iter()
            .enumerate()
            .filter(|(_, a)| a.alive)
            .map(|(i, a)| {
                let lm = self.l_max_of(a);
                let rate = if lm > 0.0 { a.session.demand / lm } else { a.session.demand };
                (i, rate)
            })
            .collect()
    }

    /// Demand-capped feasible rates `dem / max(1, l_max^i)` per live
    /// session (a live system grants no more than what was asked).
    #[must_use]
    pub fn rates(&self) -> Vec<(usize, f64)> {
        self.admitted
            .iter()
            .enumerate()
            .filter(|(_, a)| a.alive)
            .map(|(i, a)| (i, a.session.demand / self.l_max_of(a).max(1.0)))
            .collect()
    }

    fn l_max_of(&self, a: &Admitted) -> f64 {
        a.contribution.edges.iter().map(|&(e, _)| self.state.load[e.idx()]).fold(0.0, f64::max)
    }

    /// The runtime's congestion at full demands, `max_e load_e` (0 when
    /// idle).
    #[must_use]
    pub fn max_load(&self) -> f64 {
        self.state.load.iter().copied().fold(0.0, f64::max)
    }

    /// The live session's current tree, if it is live.
    #[must_use]
    pub fn tree_of(&self, join_idx: usize) -> Option<&OverlayTree> {
        self.admitted.get(join_idx).filter(|a| a.alive).map(|a| &a.tree)
    }

    /// The feasible scaled allocation of the live population: one store
    /// slot per live session in admission order, each holding its tree at
    /// its saturating rate — the same shape the batch online solver
    /// reports for a churn trace's survivors.
    #[must_use]
    pub fn scaled_store(&self) -> TreeStore {
        let rates = self.saturating_rates();
        let mut store = TreeStore::new(rates.len());
        for (slot, &(join_idx, rate)) in rates.iter().enumerate() {
            let mut tree = self.admitted[join_idx].tree.clone();
            tree.session = slot;
            store.add(tree, rate);
        }
        store
    }

    /// Live per-edge lengths.
    #[must_use]
    pub fn lengths(&self) -> &[f64] {
        self.state.lengths.stored()
    }

    /// Live per-edge load (congestion at full demands).
    #[must_use]
    pub fn load(&self) -> &[f64] {
        &self.state.load
    }

    /// The current physical topology (capacity changes swap the `Arc`).
    #[must_use]
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Online step size ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Routing regime for arrivals.
    #[must_use]
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// Oracle calls so far (one per join).
    #[must_use]
    pub fn mst_ops(&self) -> u64 {
        self.state.mst_ops
    }

    /// Events consumed through [`Self::apply`].
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Sessions ever admitted (live or departed).
    #[must_use]
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }
}

/// A zero-cost stand-in for the `mem::replace` dance that lends the
/// persistent state to a short-lived [`Engine`] (which takes it by
/// value). Never resumed against a real graph.
fn placeholder_state() -> EngineState {
    EngineState::fresh(ScaledLengths::raw(&[1.0]), 1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::{canned, NodeId};

    fn two(a: u32, b: u32) -> Session {
        Session::new(vec![NodeId(a), NodeId(b)], 1.0)
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new(25.0, RoutingMode::FixedIp)
    }

    #[test]
    fn join_charges_and_leave_restores() {
        let g = canned::grid(4, 4, 10.0);
        let mut rt = Runtime::new(g, cfg());
        let initial = rt.lengths().to_vec();
        let id = rt.join(two(0, 15));
        assert_eq!(rt.live_count(), 1);
        assert_ne!(rt.lengths(), initial.as_slice());
        assert!(rt.max_load() > 0.0);
        assert!(rt.leave(id));
        assert_eq!(rt.live_count(), 0);
        for (a, b) in rt.lengths().iter().zip(&initial) {
            assert_eq!(a.to_bits(), b.to_bits(), "length not restored: {a} vs {b}");
        }
        assert!(rt.load().iter().all(|l| *l == 0.0));
        assert!(!rt.leave(id), "second leave reports failure");
    }

    #[test]
    fn apply_drives_events_and_checkpoints() {
        let g = canned::grid(4, 4, 10.0);
        let mut rt = Runtime::new(g, cfg());
        assert!(rt.apply(&Event::Join(two(0, 15))).is_none());
        assert!(rt.apply(&Event::Join(two(3, 12))).is_none());
        let cp = rt.apply(&Event::Reoptimize).expect("checkpoint");
        assert_eq!(cp.event_index, 3);
        assert_eq!(cp.population.len(), 2);
        assert!(cp.runtime_congestion > 0.0);
        assert!(rt.apply(&Event::Leave(0)).is_none());
        assert_eq!(rt.live_joins(), vec![1]);
        assert_eq!(rt.events_processed(), 4);
        assert_eq!(rt.mst_ops(), 2, "one oracle call per join");
    }

    #[test]
    #[should_panic(expected = "does not match a live session")]
    fn apply_rejects_leave_of_unknown_session() {
        let g = canned::path(3, 10.0);
        let mut rt = Runtime::new(g, cfg());
        rt.apply(&Event::Leave(7));
    }

    #[test]
    fn capacity_change_rederives_affected_edges_exactly() {
        // A session on a path, then double the capacity of its first edge:
        // load and length on that edge must equal a fresh run against the
        // rescaled graph (same pinned route), bit for bit.
        let g = canned::path(3, 10.0);
        let mut rt = Runtime::new(g.clone(), cfg());
        let _ = rt.join(two(0, 2));
        rt.rescale_capacities(&[(EdgeId(0), 2.0)]);
        assert_eq!(rt.graph().capacity(EdgeId(0)), 20.0);
        assert_eq!(rt.graph().capacity(EdgeId(1)), 10.0);

        let scaled = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(NodeId(0), NodeId(1), 20.0);
            b.add_edge(NodeId(1), NodeId(2), 10.0);
            b.finish()
        };
        let mut fresh = Runtime::new(scaled, cfg());
        let _ = fresh.join(two(0, 2));
        for (a, b) in rt.lengths().iter().zip(fresh.lengths()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in rt.load().iter().zip(fresh.load()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The untouched edge is now the bottleneck: saturating rate = 10.
        let rates = rt.saturating_rates();
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 10.0).abs() < 1e-9, "rate {}", rates[0].1);
    }

    #[test]
    fn scaled_store_is_feasible_under_contention() {
        let g = canned::grid(5, 5, 5.0);
        let mut rt = Runtime::new(g.clone(), RuntimeConfig::new(30.0, RoutingMode::FixedIp));
        let mut ids = Vec::new();
        for round in 0..20u32 {
            let a = round % 25;
            let b = (round * 7 + 3) % 25;
            if a != b {
                ids.push(rt.join(two(a, b)));
            }
            if round % 3 == 2 {
                assert!(rt.leave(ids.remove(0)));
            }
        }
        let store = rt.scaled_store();
        store.assert_feasible(&g, 1e-9);
        assert_eq!(store.session_count(), rt.live_count());
        assert!(rt.lengths().iter().all(|l| *l > 0.0 && l.is_finite()));
    }
}
