//! The solve workloads: set-up, measured passes and output checks.

use crate::reference::Reference;
use crate::timed::TimedOracle;
use crate::workloads::{self, SolveSpec};
use omcf_core::solver::{Instance, RoutingMode, SolverKind, SolverOutcome};
use omcf_overlay::{CacheStats, DynamicOracle, FixedIpOracle, TreeOracle};
use std::time::{Duration, Instant};

/// Slack on the feasibility check `max_congestion ≤ 1` and on
/// `objective ≤ dual_bound`, for float rounding in the final scaling.
const TOLERANCE: f64 = 1e-9;

/// The oracle an instance's routing regime calls for, kept concrete so its
/// cache statistics stay readable.
#[derive(Clone, Debug)]
pub enum BuiltOracle {
    /// Dynamic routing: live Dijkstra fans per session member.
    Dynamic(DynamicOracle),
    /// Fixed IP routing: frozen hop-count routes.
    Fixed(FixedIpOracle),
}

impl BuiltOracle {
    /// Builds the instance's oracle (fixed-IP routes are computed here).
    #[must_use]
    pub fn build(inst: &Instance) -> Self {
        match inst.routing {
            RoutingMode::Arbitrary => {
                Self::Dynamic(DynamicOracle::new(&inst.graph, &inst.sessions))
            }
            RoutingMode::FixedIp => Self::Fixed(FixedIpOracle::new(&inst.graph, &inst.sessions)),
        }
    }

    /// The oracle as the solvers take it.
    #[must_use]
    pub fn as_dyn(&self) -> &dyn TreeOracle {
        match self {
            Self::Dynamic(o) => o,
            Self::Fixed(o) => o,
        }
    }

    /// Cache hits and misses since construction.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Self::Dynamic(o) => o.cache_stats(),
            Self::Fixed(o) => o.cache_stats(),
        }
    }
}

/// Generated instances with their freshly built oracles.
pub struct SolveSetup {
    /// The batch, in seed order.
    pub instances: Vec<Instance>,
    /// One unused oracle per instance.
    pub oracles: Vec<BuiltOracle>,
    /// Time spent generating graphs.
    pub generate_s: f64,
    /// Time spent building oracles.
    pub build_s: f64,
}

/// Generates the batch and builds its oracles.
#[must_use]
pub fn setup(spec: &SolveSpec, seed: u64) -> SolveSetup {
    let mut generate = Duration::ZERO;
    let instances: Vec<Instance> = (0..spec.instances)
        .map(|k| workloads::solve_instance(spec, seed, k, &mut generate))
        .collect();
    let t0 = Instant::now();
    let oracles = instances.iter().map(BuiltOracle::build).collect();
    SolveSetup {
        instances,
        oracles,
        generate_s: generate.as_secs_f64(),
        build_s: t0.elapsed().as_secs_f64(),
    }
}

/// What the decorator and the outcomes saw during a traced pass.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    /// Seconds inside oracle queries.
    pub oracle_s: f64,
    /// Oracle queries (a batched query counts once).
    pub oracle_calls: u64,
    /// Trees the queries returned.
    pub trees: u64,
    /// Oracle cache statistics, summed over the batch.
    pub cache: CacheStats,
    /// Σ `mst_ops`.
    pub mst_ops: u64,
    /// Σ `mst_ops_prepass`.
    pub mst_ops_prepass: u64,
    /// Σ `iterations`.
    pub iterations: u64,
}

/// One measured pass over the batch.
#[derive(Clone, Debug)]
pub struct SolvePass {
    /// Σ of `Solver::solve` wall times.
    pub pass_s: f64,
    /// Each solve's wall time (ms), in batch order.
    pub solve_ms: Vec<f64>,
    /// The reference kernel's time (ms) just before each solve.
    pub reference_ms: Vec<f64>,
    /// Σ objective.
    pub objective: f64,
    /// Each solve's `objective.to_bits()`, in batch order.
    pub objective_bits: Vec<u64>,
    /// Solves whose output failed a check.
    pub failed: u64,
    /// Present for traced passes.
    pub trace: Option<SolveTrace>,
}

/// Solves every instance once through a fresh copy of its oracle, wrapped
/// in a [`TimedOracle`] when `traced`, and times `reference` before each
/// solve.
#[must_use]
pub fn pass(
    spec: &SolveSpec,
    setup: &SolveSetup,
    reference: &Reference,
    traced: bool,
) -> SolvePass {
    let oracles: Vec<BuiltOracle> = setup.oracles.clone();
    let solver = spec.solver.solver();
    let mut out = SolvePass {
        pass_s: 0.0,
        solve_ms: Vec::with_capacity(oracles.len()),
        reference_ms: Vec::with_capacity(oracles.len()),
        objective: 0.0,
        objective_bits: Vec::with_capacity(oracles.len()),
        failed: 0,
        trace: traced.then(SolveTrace::default),
    };
    for (inst, oracle) in setup.instances.iter().zip(&oracles) {
        out.reference_ms.push(reference.seconds() * 1e3);
        let (outcome, seconds) = if let Some(trace) = out.trace.as_mut() {
            let timed = TimedOracle::new(oracle.as_dyn());
            let t0 = Instant::now();
            let outcome = solver.solve(inst, &timed);
            let seconds = t0.elapsed().as_secs_f64();
            trace.oracle_s += timed.seconds();
            trace.oracle_calls += timed.calls();
            trace.trees += timed.trees();
            let cache = oracle.cache_stats();
            trace.cache.hits += cache.hits;
            trace.cache.misses += cache.misses;
            trace.mst_ops += outcome.mst_ops;
            trace.mst_ops_prepass += outcome.mst_ops_prepass;
            trace.iterations += outcome.iterations;
            (outcome, seconds)
        } else {
            let t0 = Instant::now();
            let outcome = solver.solve(inst, oracle.as_dyn());
            (outcome, t0.elapsed().as_secs_f64())
        };
        out.pass_s += seconds;
        out.solve_ms.push(seconds * 1e3);
        out.objective += outcome.objective;
        out.objective_bits.push(outcome.objective.to_bits());
        if !check(spec.solver, &outcome) {
            out.failed += 1;
        }
    }
    out
}

/// The output checks every solve must pass: the scaled flow is feasible,
/// the objective is finite and positive, and an M1 objective does not
/// exceed its own weak-duality bound.
#[must_use]
fn check(kind: SolverKind, out: &SolverOutcome) -> bool {
    let feasible = out.summary.max_congestion <= 1.0 + TOLERANCE;
    let positive = out.objective.is_finite() && out.objective > 0.0;
    let bounded = match (kind, out.dual_bound) {
        (SolverKind::M1, Some(bound)) => out.objective <= bound * (1.0 + TOLERANCE),
        (SolverKind::M1, None) => false,
        _ => true,
    };
    feasible && positive && bounded
}
