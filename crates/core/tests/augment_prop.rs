//! Property-based tests pinning the batched augment pipeline to the
//! per-edge reference: the [`AugmentMode`] is a pure *when-to-write*
//! choice, never a *what*.
//!
//! In batched mode the engine defers a phase's length-growth factors and
//! applies them in one sweep at the next length read; the per-edge mode
//! writes each factor immediately (the pre-batching behaviour). Growth
//! factors are computed at augment time from state the per-edge path
//! would see (loads update immediately; lengths never feed back into a
//! factor before a read barrier), and the sweep multiplies each edge by
//! exactly the factor the pointwise path would have used — so every
//! artifact must be `to_bits`-identical between the modes, across random
//! instances, all four solvers and both routing regimes. These tests
//! fail on the first bit that moves.

use omcf_core::solver::{Instance, RoutingMode, SolverKind, SolverOutcome};
use omcf_core::{AugmentMode, Engine, LengthGrowth, ScaledLengths};
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{random_sessions, FixedIpOracle};
use omcf_topology::{canned, Graph};
use proptest::prelude::*;
use std::sync::Mutex;

/// Guards the process-wide augment default: proptest cases within one
/// test run sequentially, but distinct `#[test]` fns in this binary run
/// concurrently, and the A/B below is only meaningful when each leg
/// really executes under the mode it set.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// A connected random instance: random-dimension grid, two 3-member
/// sessions sampled uniformly, moderate ε so debug-mode solves stay
/// quick without changing the code paths exercised.
fn random_instance(seed: u64, routing: RoutingMode) -> Instance {
    let mut rng = Xoshiro256pp::new(seed);
    let rows = 3 + rng.index(2);
    let cols = 3 + rng.index(3);
    let g = canned::grid(rows, cols, 10.0 + rng.range_f64(0.0, 40.0));
    let sessions = random_sessions(&g, 2, 3, 1.0, &mut rng);
    Instance::new("augment-prop", g, sessions, routing).with_eps(0.5).with_rho(10.0)
}

fn solve(inst: &Instance, kind: SolverKind) -> SolverOutcome {
    kind.solver().solve(inst, inst.oracle().as_ref())
}

fn assert_bit_identical(kind: SolverKind, per_edge: &SolverOutcome, batched: &SolverOutcome) {
    assert_eq!(per_edge.mst_ops, batched.mst_ops, "{kind:?}: oracle call count moved");
    assert_eq!(per_edge.iterations, batched.iterations, "{kind:?}: iteration count moved");
    assert_eq!(
        per_edge.objective.to_bits(),
        batched.objective.to_bits(),
        "{kind:?}: objective bits moved ({} vs {})",
        per_edge.objective,
        batched.objective
    );
    assert_eq!(per_edge.summary.session_rates.len(), batched.summary.session_rates.len());
    for (i, (a, b)) in
        per_edge.summary.session_rates.iter().zip(&batched.summary.session_rates).enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: session {i} rate bits moved ({a} vs {b})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every solver, both routing regimes: flipping the process-wide
    /// augment default between the two legs changes no artifact bit.
    #[test]
    fn augment_mode_bit_invisible_across_solvers(seed in any::<u64>()) {
        let _guard = MODE_LOCK.lock().expect("mode lock");
        for routing in [RoutingMode::FixedIp, RoutingMode::Arbitrary] {
            let inst = random_instance(seed, routing);
            for kind in SolverKind::ALL {
                AugmentMode::set_process_default(AugmentMode::PerEdge);
                let per_edge = solve(&inst, kind);
                AugmentMode::set_process_default(AugmentMode::Batched);
                let batched = solve(&inst, kind);
                assert_bit_identical(kind, &per_edge, &batched);
            }
        }
    }
}

/// Lockstep engine-level A/B: two engines over the same oracle schedule,
/// one per mode, with length reads interleaved at different points —
/// including reads landing mid-batch, which force a flush on the batched
/// engine only. Final stored lengths (the artifact the modes actually
/// reorder writes to) must match bit-for-bit after every read and at the
/// end, for both growth laws.
#[test]
fn engine_final_lengths_bit_identical_across_modes() {
    type InitLengths = fn(&Graph) -> Vec<f64>;
    let g = canned::grid(4, 4, 25.0);
    let mut rng = Xoshiro256pp::new(0xA06);
    let sessions = random_sessions(&g, 2, 3, 1.0, &mut rng);
    let cases: [(LengthGrowth, InitLengths); 2] = [
        (LengthGrowth::Fptas { eps: 0.3 }, |g| vec![1.0; g.edge_count()]),
        (LengthGrowth::Online { rho: 10.0 }, |g| {
            g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect()
        }),
    ];
    for (growth, init) in cases {
        let oracle_a = FixedIpOracle::new(&g, &sessions);
        let oracle_b = FixedIpOracle::new(&g, &sessions);
        let mut a = Engine::new(&g, &oracle_a, ScaledLengths::raw(&init(&g)), growth)
            .with_augment_mode(AugmentMode::PerEdge);
        let mut b = Engine::new(&g, &oracle_b, ScaledLengths::raw(&init(&g)), growth)
            .with_augment_mode(AugmentMode::Batched);
        assert_eq!(a.augment_mode(), AugmentMode::PerEdge);
        assert_eq!(b.augment_mode(), AugmentMode::Batched);
        for round in 0..8u32 {
            let i = (round % 2) as usize;
            let ta = a.min_tree(i);
            let tb = b.min_tree(i);
            assert_eq!(ta.hops, tb.hops, "schedules diverged before augment {round}");
            let amount = ta.bottleneck(&g).min(1.0);
            let ma = a.augment(ta, amount);
            let mb = b.augment(tb, amount);
            assert_eq!(ma, mb, "growth multipliers diverged at augment {round}");
            // Interleave reads: some rounds flush the batched engine
            // immediately, others let the batch span several augments.
            if round % 3 == 0 {
                let la = a.stored_lengths().to_vec();
                assert_eq!(
                    la.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    b.stored_lengths().iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    "length bits diverged at read after augment {round}"
                );
            }
        }
        let run_a = a.finish();
        let run_b = b.finish();
        assert_eq!(
            run_a.lengths.stored().iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            run_b.lengths.stored().iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "final length bits diverged"
        );
        assert_eq!(
            run_a.load.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            run_b.load.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "final load bits diverged"
        );
    }
}
