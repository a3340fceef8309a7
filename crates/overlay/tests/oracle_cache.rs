//! Property tests for the epoch-cached oracles: across randomized
//! monotone length-update sequences, a cached oracle must return exactly
//! the trees an uncached oracle computes from scratch. This pins the
//! caching contract the solver engine relies on (`docs/ENGINE.md`): under
//! grow-only updates, an untouched cached route stays the deterministic
//! shortest-path / minimum-spanning-tree winner.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{
    random_sessions, DynamicOracle, EdgeEpochs, FixedIpOracle, LengthView, TreeOracle,
};
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::Graph;
use proptest::prelude::*;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// Simulates the engine's interaction pattern: query every session, then
/// grow the edges of one returned tree (plus occasionally a few random
/// edges) through the epoch clock, and repeat.
fn drive<O: TreeOracle, R: TreeOracle>(
    g: &Graph,
    cached: &O,
    reference: &R,
    rounds: usize,
    rng: &mut Xoshiro256pp,
) {
    let k = cached.sessions().len();
    let mut lengths = vec![1.0f64; g.edge_count()];
    let mut epochs = EdgeEpochs::new(g.edge_count());
    for _ in 0..rounds {
        let mut grow_edges: Vec<usize> = Vec::new();
        for i in 0..k {
            let a = cached.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
            let b = reference.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(a, b, "cached and uncached oracles diverged on session {i}");
            if rng.next_f64() < 0.6 {
                grow_edges.extend(a.hops.iter().flat_map(|h| h.path.edges.iter().map(|e| e.idx())));
            }
        }
        // Occasionally touch unrelated edges too (a competing session's
        // augmentation from the solvers' perspective).
        for _ in 0..rng.index(4) {
            grow_edges.push(rng.index(g.edge_count()));
        }
        epochs.advance();
        for e in grow_edges {
            // Monotone growth only — the contract the cache relies on.
            lengths[e] *= 1.0 + rng.range_f64(0.01, 0.8);
            epochs.touch(e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Epoch-cached dynamic oracle ≡ uncached dynamic oracle over random
    /// Waxman graphs and randomized grow-only length sequences.
    #[test]
    fn dynamic_cached_matches_uncached(seed in any::<u64>(), n in 12usize..32) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xCAFE);
        let sessions = random_sessions(&g, 2, 4.min(n), 1.0, &mut rng);
        let cached = DynamicOracle::new(&g, &sessions);
        let reference = DynamicOracle::uncached(&g, &sessions);
        drive(&g, &cached, &reference, 20, &mut rng);
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * 3 * 20,
            "every fan Prim requests (m − 1 per tree) is a hit or a miss");
    }

    /// Epoch-cached fixed-IP oracle ≡ fresh recomputation through the
    /// plain interface on the same length sequence.
    #[test]
    fn fixed_cached_matches_fresh(seed in any::<u64>(), n in 12usize..32) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xBEEF);
        let sessions = random_sessions(&g, 2, 5.min(n), 1.0, &mut rng);
        let cached = FixedIpOracle::new(&g, &sessions);
        // `Fresh` wrapper: same oracle type, but queried without epochs so
        // every call recomputes.
        struct Fresh(FixedIpOracle);
        impl TreeOracle for Fresh {
            fn min_tree(&self, i: usize, lengths: &[f64]) -> omcf_overlay::OverlayTree {
                self.0.min_tree(i, lengths)
            }
            fn min_tree_view(
                &self,
                i: usize,
                view: LengthView<'_>,
            ) -> omcf_overlay::OverlayTree {
                self.0.min_tree(i, view.lengths)
            }
            fn sessions(&self) -> &omcf_overlay::SessionSet {
                self.0.sessions()
            }
            fn max_route_hops(&self) -> usize {
                self.0.max_route_hops()
            }
        }
        let reference = Fresh(FixedIpOracle::new(&g, &sessions));
        drive(&g, &cached, &reference, 20, &mut rng);
    }
}
