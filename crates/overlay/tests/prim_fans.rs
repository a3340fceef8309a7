//! Exactness of the Prim-ordered member fans: whichever path a dynamic
//! oracle answers a query on — the epoch cache, the uncached oracle, or a
//! cache whose auto-bypass has tripped — its tree must equal the one a
//! reference builds from scratch: the frozen adjacency-list Dijkstra
//! (`omcf_routing::reference`) from *every* member, then an eager dense
//! Prim over the full member distance matrix (lowest index wins ties,
//! strict `<` updates). Trees compare with `OverlayTree ==`, so every hop
//! path must match edge for edge. The accounting is pinned too: a tree of
//! an `m`-member session requests exactly `m − 1` fans, so an uncached
//! query costs exactly `m − 1` misses and a cached one at most that.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{
    CacheStats, DynamicOracle, EdgeEpochs, LengthView, OverlayHop, OverlayTree, Session,
    SessionSet, TreeOracle,
};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// `k` sessions of 1–6 distinct members each; session 0 has at least two,
/// so there is always a fan to request.
fn sessions(n: usize, k: usize, rng: &mut Xoshiro256pp) -> SessionSet {
    let all: Vec<Session> = (0..k)
        .map(|i| {
            let size = if i == 0 { 2 + rng.index(5) } else { 1 + rng.index(6) };
            let mut members: Vec<NodeId> = Vec::with_capacity(size);
            while members.len() < size {
                let v = NodeId(rng.index(n) as u32);
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            // Built directly: `Session::new` rejects single-member
            // sessions, but the oracle must still answer them (no hops).
            Session { members, demand: 1.0 }
        })
        .collect();
    SessionSet::new(all)
}

/// The eagerly computed reference tree of session `s`.
fn reference_tree(g: &Graph, set: &SessionSet, s: usize, lengths: &[f64]) -> OverlayTree {
    let members = &set.session(s).members;
    let m = members.len();
    let spts: Vec<_> = members.iter().map(|&v| dijkstra_adjacency(g, v, lengths)).collect();
    let w = |a: usize, b: usize| spts[a].dist(members[b]);
    let mut hops = Vec::new();
    if m >= 2 {
        let mut in_tree = vec![false; m];
        let mut best: Vec<f64> = (0..m).map(|j| w(0, j)).collect();
        let mut parent = vec![0usize; m];
        in_tree[0] = true;
        for _ in 1..m {
            let pick = (0..m)
                .filter(|&j| !in_tree[j])
                .reduce(|p, j| if best[j] < best[p] { j } else { p })
                .expect("a fringe vertex remains");
            in_tree[pick] = true;
            let a = parent[pick];
            let path = spts[a].path_to(members[pick]).expect("connected graph");
            hops.push(OverlayHop { a, b: pick, path });
            for j in 0..m {
                if !in_tree[j] && w(pick, j) < best[j] {
                    best[j] = w(pick, j);
                    parent[j] = pick;
                }
            }
        }
    }
    OverlayTree { session: s, hops }
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats { hits: after.hits - before.hits, misses: after.misses - before.misses }
}

/// Trips `oracle`'s auto-bypass: every query runs under a fresh epoch
/// clock (a new run id never validates a cached fan), so the miss streak
/// grows without a single hit.
fn trip_bypass(g: &Graph, oracle: &DynamicOracle, lengths: &[f64]) {
    for _ in 0..1000 {
        if oracle.cache_bypassed() {
            return;
        }
        let epochs = EdgeEpochs::new(g.edge_count());
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(lengths, &epochs));
    }
    panic!("a hitless miss streak must trip the bypass");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached, uncached and bypassed oracles ≡ the eager reference under
    /// a sequence of monotone length growths with epoch touches, and each
    /// tree costs `m − 1` fan requests.
    #[test]
    fn lazy_fans_match_eager_reference(seed in any::<u64>(), n in 8usize..28, k in 1usize..4) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0x9F1);
        let set = sessions(n, k, &mut rng);
        let cached = DynamicOracle::new(&g, &set);
        let uncached = DynamicOracle::uncached(&g, &set);
        let bypassed = DynamicOracle::new(&g, &set);
        let mut lengths = vec![1.0f64; g.edge_count()];
        trip_bypass(&g, &bypassed, &lengths);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        for step in 0..12 {
            let mut grow: Vec<usize> = Vec::new();
            for s in 0..set.len() {
                let m = set.session(s).size();
                let fans = m.saturating_sub(1) as u64;
                let view = LengthView::with_epochs(&lengths, &epochs);
                let want = reference_tree(&g, &set, s, &lengths);

                let before = cached.cache_stats();
                let tree = cached.min_tree_view(s, view);
                let spent = delta(cached.cache_stats(), before);
                prop_assert_eq!(&tree, &want, "cached, session {} step {}", s, step);
                prop_assert_eq!(spent.hits + spent.misses, fans, "cached requests m − 1 fans");
                prop_assert!(spent.misses <= fans);

                let before = uncached.cache_stats();
                let tree = if step % 2 == 0 {
                    uncached.min_tree_view(s, view)
                } else {
                    uncached.min_tree(s, &lengths)
                };
                let spent = delta(uncached.cache_stats(), before);
                prop_assert_eq!(&tree, &want, "uncached, session {} step {}", s, step);
                prop_assert_eq!(spent, CacheStats { hits: 0, misses: fans });

                let before = bypassed.cache_stats();
                let tree = bypassed.min_tree_view(s, view);
                let spent = delta(bypassed.cache_stats(), before);
                prop_assert_eq!(&tree, &want, "bypassed, session {} step {}", s, step);
                prop_assert_eq!(spent, CacheStats { hits: 0, misses: fans });

                if rng.next_f64() < 0.5 {
                    grow.extend(tree.hops.iter().flat_map(|h| h.path.edges.iter().map(|e| e.idx())));
                }
            }
            for _ in 0..rng.index(3) {
                grow.push(rng.index(g.edge_count()));
            }
            epochs.advance();
            for e in grow {
                // Monotone growth only; a factor of exactly 2 keeps ties alive.
                lengths[e] *= if rng.next_f64() < 0.3 { 2.0 } else { 1.0 + rng.range_f64(0.01, 0.8) };
                epochs.touch(e);
            }
        }
        prop_assert!(bypassed.cache_bypassed());
    }
}
