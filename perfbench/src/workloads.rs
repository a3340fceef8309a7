//! The four workloads and their seeded input generators.
//!
//! Every generator is a pure function of `(spec, seed)`: the same seed
//! gives the same graphs, sessions and event streams, and different seeds
//! give different ones. Seeds fork through `SplitMix64::derive_seed` with
//! one label per input component, the convention `omcf-sim`'s scenario
//! registry uses.

use omcf_core::solver::{Instance, RoutingMode, SolverKind};
use omcf_numerics::{Rng64, SplitMix64, Xoshiro256pp};
use omcf_overlay::{random_churn, random_sessions, ChurnEvent};
use omcf_runtime::Event;
use omcf_topology::{barabasi, BarabasiParams, EdgeId, Graph};
use std::time::{Duration, Instant};

/// The seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 2004;

/// The seed held out for performance claims (see `README.md`).
pub const HELD_OUT_SEED: u64 = 7;

/// Seed-stream labels, one per input component.
mod label {
    pub const TOPOLOGY: u64 = 1;
    pub const SESSIONS: u64 = 2;
    pub const CHURN: u64 = 3;
    pub const CAPACITY: u64 = 4;
}

/// A batch of independent solves: `instances` seed-derived instances of
/// one shape, each solved once per measured pass. Every graph is
/// Barabási–Albert with two edges per arriving node: a fixed edge count
/// and a minimum degree of 2 keep the work of a batch steady from seed to
/// seed (see `README.md`).
#[derive(Clone, Copy, Debug)]
pub struct SolveSpec {
    /// Routing regime the oracle enforces.
    pub routing: RoutingMode,
    /// Solver run on every instance.
    pub solver: SolverKind,
    /// Nodes per graph.
    pub nodes: usize,
    /// Sessions per instance.
    pub sessions: usize,
    /// Members per session.
    pub members: usize,
    /// FPTAS ε.
    pub eps: f64,
    /// Instances in the batch.
    pub instances: usize,
}

/// A sharded service run: one seed-derived graph and event stream per
/// shard, ingested round-robin by one closed-loop client.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Shards (independent overlays).
    pub shards: usize,
    /// Nodes per shard graph (Barabási–Albert, dynamic-routing joins).
    pub nodes: usize,
    /// Members per joining session.
    pub members: usize,
    /// Probability that a join is followed by a leave.
    pub leave_prob: f64,
    /// Events per shard stream (the stream is cut to exactly this length).
    pub events_per_shard: usize,
    /// A `CapacityChange` follows every this many churn events.
    pub capacity_every: usize,
    /// Edges rescaled by each `CapacityChange`.
    pub capacity_edges: usize,
    /// The client drives after this many submissions.
    pub drive_every: usize,
    /// Per-shard queue bound.
    pub queue_capacity: usize,
    /// The client snapshots after this many submissions.
    pub snapshot_every: usize,
    /// Online step size ρ of every shard runtime.
    pub rho: f64,
}

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// A batch of solves.
    Solve(SolveSpec),
    /// A fleet event stream.
    Fleet(FleetSpec),
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub shape: Shape,
    /// About the seconds one untraced pass takes on the 2-vCPU host the
    /// benchmark was sized on. It sets the pass count of a run (see
    /// [`Workload::passes`]) and nothing else.
    pub pass_s: f64,
    /// Set-ups an untraced run times, in rounds spread over the run: more
    /// for cheap set-ups, whose smallest time needs more samples to settle.
    pub setups: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mcf-dynamic",
        shape: Shape::Solve(SolveSpec {
            routing: RoutingMode::Arbitrary,
            solver: SolverKind::M2,
            nodes: 512,
            sessions: 2,
            members: 4,
            eps: 0.6,
            instances: 22,
        }),
        pass_s: 5.0,
        setups: 101,
    },
    Workload {
        name: "maxflow-dynamic",
        shape: Shape::Solve(SolveSpec {
            routing: RoutingMode::Arbitrary,
            solver: SolverKind::M1,
            nodes: 1024,
            sessions: 8,
            members: 3,
            eps: 0.6,
            instances: 12,
        }),
        pass_s: 6.5,
        setups: 101,
    },
    Workload {
        name: "mcf-fixed",
        shape: Shape::Solve(SolveSpec {
            routing: RoutingMode::FixedIp,
            solver: SolverKind::M2,
            nodes: 1024,
            sessions: 4,
            members: 3,
            eps: 0.1,
            instances: 40,
        }),
        pass_s: 4.0,
        setups: 21,
    },
    Workload {
        name: "fleet-churn",
        shape: Shape::Fleet(FleetSpec {
            shards: 8,
            nodes: 256,
            members: 4,
            leave_prob: 0.8,
            events_per_shard: 5625,
            capacity_every: 25,
            capacity_edges: 8,
            drive_every: 16,
            queue_capacity: 64,
            snapshot_every: 4096,
            rho: 10.0,
        }),
        pass_s: 5.0,
        setups: 41,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The passes an untraced run with a `seconds` window makes:
    /// `seconds / pass_s`, at least one. The count depends on the
    /// arguments only, never on how fast the program runs, so two
    /// programs' per-solve minima are taken over the same number of samples.
    #[must_use]
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.pass_s) as usize).max(1)
    }

    /// The same workload cut to a size that runs in well under a second
    /// (used by the benchmark's own tests).
    #[must_use]
    pub fn shortened(self) -> Self {
        let shape = match self.shape {
            Shape::Solve(s) => Shape::Solve(SolveSpec {
                nodes: s.nodes.min(128),
                sessions: s.sessions.min(4),
                instances: s.instances.min(2),
                eps: s.eps.max(0.5),
                ..s
            }),
            Shape::Fleet(f) => Shape::Fleet(FleetSpec {
                shards: 3,
                nodes: 64,
                events_per_shard: 300,
                snapshot_every: 256,
                ..f
            }),
        };
        Self { shape, ..self }
    }
}

/// A Barabási–Albert graph with `nodes` nodes, two edges per arriving node.
#[must_use]
fn graph(nodes: usize, seed: u64) -> Graph {
    let params = BarabasiParams { n: nodes, m: 2, ..BarabasiParams::default() };
    barabasi::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// The seed of instance (or shard) `k` under master seed `seed`.
fn member_seed(seed: u64, k: usize) -> SplitMix64 {
    SplitMix64::new(SplitMix64::new(seed).derive_seed(k as u64))
}

/// Instance `k` of the batch of `spec` at `seed`. Time spent generating
/// its graph is added to `generate`.
#[must_use]
pub fn solve_instance(spec: &SolveSpec, seed: u64, k: usize, generate: &mut Duration) -> Instance {
    let root = member_seed(seed, k);
    let t0 = Instant::now();
    let g = graph(spec.nodes, root.derive_seed(label::TOPOLOGY));
    *generate += t0.elapsed();
    let sessions = random_sessions(
        &g,
        spec.sessions,
        spec.members,
        1.0,
        &mut Xoshiro256pp::new(root.derive_seed(label::SESSIONS)),
    );
    Instance::new(format!("instance-{k}"), g, sessions, spec.routing).with_eps(spec.eps)
}

/// One shard's input: its graph and its event stream.
#[derive(Clone, Debug)]
pub struct ShardInput {
    /// The shard's physical topology.
    pub graph: Graph,
    /// The shard's events, in submission order.
    pub events: Vec<Event>,
}

/// The shard inputs of `spec` at `seed`. Time spent generating graphs is
/// added to `generate`.
#[must_use]
pub fn fleet_inputs(spec: &FleetSpec, seed: u64, generate: &mut Duration) -> Vec<ShardInput> {
    (0..spec.shards)
        .map(|k| {
            let root = member_seed(seed, k);
            let t0 = Instant::now();
            let graph = graph(spec.nodes, root.derive_seed(label::TOPOLOGY));
            *generate += t0.elapsed();
            let events = shard_stream(spec, &graph, &root);
            ShardInput { graph, events }
        })
        .collect()
}

/// A `random_churn` trace with a `CapacityChange` after every
/// `capacity_every` churn events, cut to exactly `events_per_shard`
/// events. Each change restores the links the previous one rescaled and
/// rescales `capacity_edges` fresh random links by factors in `[0.5, 2)`.
/// Cutting keeps the stream valid: a leave only ever names an earlier join.
fn shard_stream(spec: &FleetSpec, g: &Graph, root: &SplitMix64) -> Vec<Event> {
    // A join contributes 1 + leave_prob events on average; draw enough
    // joins that the cut always falls inside the trace.
    let churn_events = spec.events_per_shard - spec.events_per_shard / (spec.capacity_every + 1);
    let joins = (churn_events as f64 / (1.0 + spec.leave_prob) * 1.2) as usize + 16;
    let churn = random_churn(
        g,
        joins,
        spec.members,
        1.0,
        spec.leave_prob,
        &mut Xoshiro256pp::new(root.derive_seed(label::CHURN)),
    );
    let mut cap_rng = Xoshiro256pp::new(root.derive_seed(label::CAPACITY));
    let mut events = Vec::with_capacity(spec.events_per_shard);
    let mut rescaled: Vec<(EdgeId, f64)> = Vec::new();
    for (i, ev) in churn.events().iter().enumerate() {
        events.push(match ev {
            ChurnEvent::Join(s) => Event::Join(s.clone()),
            ChurnEvent::Leave(j) => Event::Leave(*j),
        });
        if (i + 1) % spec.capacity_every == 0 {
            // Restore the links the previous change rescaled, then rescale
            // fresh ones: capacities stay within [0.5, 2) of their base.
            let fresh: Vec<(EdgeId, f64)> = (0..spec.capacity_edges)
                .map(|_| {
                    let e = EdgeId(cap_rng.index(g.edge_count()) as u32);
                    (e, 2f64.powf(cap_rng.range_f64(-1.0, 1.0)))
                })
                .collect();
            let mut factors: Vec<(EdgeId, f64)> =
                rescaled.iter().map(|&(e, f)| (e, 1.0 / f)).collect();
            factors.extend_from_slice(&fresh);
            rescaled = fresh;
            events.push(Event::CapacityChange(factors));
        }
        if events.len() >= spec.events_per_shard {
            break;
        }
    }
    assert!(events.len() >= spec.events_per_shard, "churn trace too short for the cut");
    events.truncate(spec.events_per_shard);
    events
}
