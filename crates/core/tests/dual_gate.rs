//! The engine's dual bracket is a pure skip: every decision it settles
//! without the O(E) sum — M2's stop test `D ≥ 1` and `observe_alpha`'s
//! "can `D/α` improve the bound?" — must come out exactly as a full
//! evaluation of `D = Σ c_e·d_e` at that point would have.
//!
//! Each test drives two engines through the same schedule. The reference
//! engine is written against the public API the way the solvers used to
//! be: `dual_objective_stored() >= stored_one()` at every bottleneck
//! step, `D/α` evaluated in full on every iteration. The gated engine
//! calls `dual_reached_one()` / `observe_alpha()`. Every artifact the
//! loops produce — stored lengths, iteration and oracle-call counts,
//! per-tree store rates, and the dual bound — must match to the bit,
//! across both oracles, four ε values and both augment modes.

use omcf_core::ratio::{ln_delta_m1, ln_delta_m2};
use omcf_core::{AugmentMode, Engine, EngineRun, LengthGrowth, ScaledLengths};
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{
    random_sessions, DynamicOracle, FixedIpOracle, Session, SessionSet, TreeOracle,
};
use omcf_telemetry::stats;
use omcf_topology::graph::GraphBuilder;
use omcf_topology::{Graph, NodeId};
use std::sync::Mutex;

/// Serializes the tests: the counter check reads process-global
/// telemetry, which concurrent solves in this binary would also bump.
static LOCK: Mutex<()> = Mutex::new(());

const EPS: [f64; 4] = [0.05, 0.1, 0.3, 0.6];
const MODES: [AugmentMode; 2] = [AugmentMode::Batched, AugmentMode::PerEdge];

/// A connected 12-node graph — a ring plus random chords — with
/// capacities spread over an order of magnitude, so the `c_e·d_e` terms
/// of the dual objective differ edge by edge.
fn graph(seed: u64) -> Graph {
    let mut rng = Xoshiro256pp::new(seed);
    let n = 12;
    let mut b = GraphBuilder::new(n);
    let node = |i: usize| NodeId(i as u32);
    for i in 0..n {
        b.add_edge(node(i), node((i + 1) % n), rng.range_f64(5.0, 50.0));
    }
    let mut chords = 0;
    while chords < 8 {
        let (u, v) = (rng.index(n), rng.index(n));
        if u != v && !b.has_edge(node(u), node(v)) {
            b.add_edge(node(u), node(v), rng.range_f64(5.0, 50.0));
            chords += 1;
        }
    }
    b.finish()
}

/// Three 3-member sessions with unequal demands.
fn sessions(g: &Graph, seed: u64) -> SessionSet {
    let mut rng = Xoshiro256pp::new(seed ^ 0x5E55);
    let drawn = random_sessions(g, 3, 3, 1.0, &mut rng);
    SessionSet::new(
        drawn
            .sessions()
            .iter()
            .enumerate()
            .map(|(i, s)| Session::new(s.members.clone(), 1.0 + i as f64))
            .collect(),
    )
}

/// Runs `f` once per oracle kind over the same instance.
/// Each engine gets its own oracle, so neither sees the other's cache.
fn for_each_oracle(seed: u64, mut f: impl FnMut(&str, &Graph, &dyn TreeOracle, &dyn TreeOracle)) {
    let g = graph(seed);
    let set = sessions(&g, seed);
    f("fixed-ip", &g, &FixedIpOracle::new(&g, &set), &FixedIpOracle::new(&g, &set));
    f("dynamic", &g, &DynamicOracle::new(&g, &set), &DynamicOracle::new(&g, &set));
}

/// M2's demand-phase schedule (Table III) with the stop test abstracted:
/// bottleneck steps per session until `reached` says `D ≥ 1`, demands
/// doubled every other phase so small ε values still finish quickly.
fn m2_loop(
    g: &Graph,
    engine: &mut Engine<'_, dyn TreeOracle + '_>,
    mut reached: impl FnMut(&mut Engine<'_, dyn TreeOracle + '_>) -> bool,
) {
    let mut dem: Vec<f64> = engine.sessions().sessions().iter().map(|s| s.demand).collect();
    let mut phases = 0u32;
    'outer: loop {
        phases += 1;
        for (i, &d) in dem.iter().enumerate() {
            let mut rem = d;
            while rem > 0.0 {
                if reached(engine) {
                    break 'outer;
                }
                let tree = engine.min_tree(i);
                let c = rem.min(tree.bottleneck(g));
                rem -= c;
                engine.augment(tree, c);
            }
        }
        if reached(engine) {
            break;
        }
        if phases.is_multiple_of(2) {
            dem.iter_mut().for_each(|d| *d *= 2.0);
        }
    }
}

fn m2_engine<'a>(
    g: &'a Graph,
    oracle: &'a dyn TreeOracle,
    eps: f64,
    mode: AugmentMode,
) -> Engine<'a, dyn TreeOracle + 'a> {
    let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let ln_top = ((1.0 + eps) / g.min_capacity()).ln() + 2.0;
    let lengths = ScaledLengths::new(&inv_caps, ln_delta_m2(eps, g.edge_count()), ln_top);
    Engine::new(g, oracle, lengths, LengthGrowth::Fptas { eps }).with_augment_mode(mode)
}

/// M1's global-minimum schedule (Table I) with the weak-duality bound
/// either observed through the engine (`gated`) or computed in full by
/// the loop itself; returns the loop-computed bound (`∞` when gated).
fn m1_loop(g: &Graph, engine: &mut Engine<'_, dyn TreeOracle + '_>, gated: bool) -> f64 {
    let sessions = engine.sessions();
    let all: Vec<usize> = (0..sessions.len()).collect();
    let smax = sessions.max_size();
    let norm = |i: usize| (smax as f64 - 1.0) / sessions.session(i).receivers() as f64;
    let mut bound = f64::INFINITY;
    loop {
        let (alpha, tree) = engine.best_normalized_tree(&all, norm);
        if gated {
            engine.observe_alpha(alpha);
        } else {
            let candidate = engine.dual_objective_stored() / alpha;
            if candidate < bound {
                bound = candidate;
            }
        }
        if alpha >= engine.stored_one() {
            return bound;
        }
        let c = tree.bottleneck(g);
        engine.augment(tree, c);
    }
}

fn m1_engine<'a>(
    g: &'a Graph,
    oracle: &'a dyn TreeOracle,
    eps: f64,
    mode: AugmentMode,
) -> Engine<'a, dyn TreeOracle + 'a> {
    let smax = oracle.sessions().max_size();
    let u = oracle.max_route_hops().max(1);
    let ln_top = ((1.0 + eps) * (smax as f64 - 1.0) * u as f64).ln() + 2.0;
    let lengths = ScaledLengths::new(&vec![1.0; g.edge_count()], ln_delta_m1(eps, smax, u), ln_top);
    Engine::new(g, oracle, lengths, LengthGrowth::Fptas { eps }).with_augment_mode(mode)
}

fn assert_runs_bit_identical(what: &str, reference: &EngineRun, gated: &EngineRun) {
    assert_eq!(reference.iterations, gated.iterations, "{what}: iterations moved");
    assert_eq!(reference.mst_ops, gated.mst_ops, "{what}: mst_ops moved");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(reference.lengths.stored()),
        bits(gated.lengths.stored()),
        "{what}: stored lengths moved"
    );
    assert_eq!(reference.store.session_count(), gated.store.session_count());
    for i in 0..reference.store.session_count() {
        assert_eq!(
            bits(&reference.store.session_rates(i)),
            bits(&gated.store.session_rates(i)),
            "{what}: session {i} store rates moved"
        );
    }
}

#[test]
fn gated_stop_test_matches_full_sum_every_step() {
    let _guard = LOCK.lock().unwrap();
    for seed in [1u64, 2] {
        for_each_oracle(seed, |oracle, g, oracle_ref, oracle_gated| {
            for eps in EPS {
                for mode in MODES {
                    let what = format!("m2 seed {seed} {oracle} eps {eps} {mode:?}");
                    let mut reference = m2_engine(g, oracle_ref, eps, mode);
                    m2_loop(g, &mut reference, |e| e.dual_objective_stored() >= e.stored_one());
                    let mut gated = m2_engine(g, oracle_gated, eps, mode);
                    m2_loop(g, &mut gated, |e| e.dual_reached_one());
                    assert_runs_bit_identical(&what, &reference.finish(), &gated.finish());
                }
            }
        });
    }
}

#[test]
fn gated_observe_alpha_matches_full_sum_every_iteration() {
    let _guard = LOCK.lock().unwrap();
    for seed in [3u64, 4] {
        for_each_oracle(seed, |oracle, g, oracle_ref, oracle_gated| {
            for eps in EPS {
                for mode in MODES {
                    let what = format!("m1 seed {seed} {oracle} eps {eps} {mode:?}");
                    let mut reference = m1_engine(g, oracle_ref, eps, mode);
                    let bound = m1_loop(g, &mut reference, false);
                    let mut gated = m1_engine(g, oracle_gated, eps, mode);
                    m1_loop(g, &mut gated, true);
                    let (reference, gated) = (reference.finish(), gated.finish());
                    assert_runs_bit_identical(&what, &reference, &gated);
                    assert!(bound.is_finite(), "{what}: no bound observed");
                    assert_eq!(
                        bound.to_bits(),
                        gated.dual_bound.to_bits(),
                        "{what}: dual bound moved ({bound} vs {})",
                        gated.dual_bound
                    );
                }
            }
        });
    }
}

/// Runs `f` with telemetry freshly enabled; returns the
/// `(engine.dual.sums, engine.dual.skips)` it recorded.
fn dual_counts(f: impl FnOnce()) -> (u64, u64) {
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    f();
    let counts = (stats::ENGINE_DUAL_SUMS.value(), stats::ENGINE_DUAL_SKIPS.value());
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
    counts
}

/// The bracket must actually settle most decisions — otherwise the gate
/// is dead code — and every decision is either settled or summed.
#[test]
fn bracket_settles_most_decisions() {
    let _guard = LOCK.lock().unwrap();
    let g = graph(5);
    let set = sessions(&g, 5);

    let oracle = FixedIpOracle::new(&g, &set);
    let mut tests = 0u64;
    let (sums, skips) = dual_counts(|| {
        let mut engine = m2_engine(&g, &oracle, 0.1, AugmentMode::Batched);
        m2_loop(&g, &mut engine, |e| {
            tests += 1;
            e.dual_reached_one()
        });
    });
    assert_eq!(sums + skips, tests, "every stop test is either summed or skipped");
    assert!(skips > 10 * sums, "bracket settled only {skips} of {tests} stop tests");

    let oracle = FixedIpOracle::new(&g, &set);
    let mut iterations = 0;
    let (sums, skips) = dual_counts(|| {
        let mut engine = m1_engine(&g, &oracle, 0.1, AugmentMode::Batched);
        m1_loop(&g, &mut engine, true);
        iterations = engine.iterations();
    });
    assert_eq!(sums + skips, iterations + 1, "one observation per iteration plus the last");
    assert!(skips > sums, "bracket settled only {skips} of {} observations", iterations + 1);
}
