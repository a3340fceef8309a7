//! Property-based tests pinning the packed-slot relaxation state and the
//! arc-mirrored weight path to the frozen adjacency-list reference.
//!
//! Since the packed-state refactor, `DijkstraWorkspace` and every
//! `BatchDijkstra` lane keep their per-node relaxation state (distance,
//! parent edge, parent node, generation word) in one cache-line-friendly
//! SoA-of-structs slab, and the parallel fan entry points gather the live
//! lengths into arc order once per fan so the relax loop streams a
//! contiguous weight array. Neither change may move a single bit: every
//! test below compares `to_bits` on distances and exact path equality
//! against `reference::dijkstra_adjacency` — the pre-refactor
//! adjacency-list implementation kept frozen precisely to pin layouts
//! like this one — across random graphs, tie-heavy, smooth and
//! FPTAS-scaled length profiles, and real multi-threaded pools.

use omcf_numerics::{Parallelism, Rng64, Xoshiro256pp};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{fanout_trees_batched_with, fanout_trees_with, WorkspacePool};
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// Number of length profiles [`random_lengths`] cycles through.
const PROFILES: u32 = 3;

/// Random lengths in one of three profiles, chosen by `round` (the same
/// split as `tests/prop.rs`): tie-heavy (integer-ish lengths provoke
/// equal-distance pop ties — where a packed-slot tie-break bug would
/// surface as a different parent), smooth (fractional), or FPTAS-scaled —
/// stored lengths `2^-960 · 1.1^k` as the Garg–Könemann engine keeps
/// them, spread so far that some relaxations are absorbed (`d + w == d`
/// in floats), which turns into exact distance ties.
fn random_lengths(g: &Graph, rng: &mut Xoshiro256pp, round: u32) -> Vec<f64> {
    (0..g.edge_count())
        .map(|_| match round % PROFILES {
            0 => rng.index(3) as f64 + 1.0,
            1 => rng.range_f64(0.1, 3.0),
            _ => 2f64.powi(-960) * 1.1f64.powi(rng.index(1000) as i32),
        })
        .collect()
}

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(std::num::NonZeroUsize::new(n).expect("nonzero"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-source parallel fan-out — which mirrors the lengths into
    /// arc order once and streams it from every worker — is bit-identical
    /// to the adjacency reference on every length profile, at multiple
    /// thread counts.
    #[test]
    fn mirrored_fanout_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA1);
        let members: Vec<NodeId> =
            (0..6.min(n)).map(|_| NodeId(rng.index(n) as u32)).collect();
        let pool = WorkspacePool::new();
        for round in 0..PROFILES {
            let lengths = random_lengths(&g, &mut rng, round);
            for t in [2usize, 4] {
                let trees = fanout_trees_with(&g, &members, &lengths, &pool, threads(t));
                for (i, &src) in members.iter().enumerate() {
                    let reference = dijkstra_adjacency(&g, src, &lengths);
                    for v in g.nodes() {
                        prop_assert_eq!(
                            trees[i].dist(v).to_bits(),
                            reference.dist(v).to_bits(),
                            "mirrored fan-out distance bits diverged (profile {}, {} threads)",
                            round, t
                        );
                        prop_assert_eq!(trees[i].path_to(v), reference.path_to(v));
                    }
                }
            }
        }
    }

    /// The lane-batched fan-out (packed multi-lane slots + arc mirror) is
    /// bit-identical to the adjacency reference on every length profile,
    /// serial and threaded.
    #[test]
    fn mirrored_batched_fanout_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA2);
        let members: Vec<NodeId> =
            (0..7.min(n)).map(|_| NodeId(rng.index(n) as u32)).collect();
        let pool = WorkspacePool::new();
        for round in 0..PROFILES {
            let lengths = random_lengths(&g, &mut rng, round);
            for policy in [Parallelism::Serial, threads(4)] {
                let trees = fanout_trees_batched_with(&g, &members, &lengths, &pool, policy);
                for (i, &src) in members.iter().enumerate() {
                    let reference = dijkstra_adjacency(&g, src, &lengths);
                    for v in g.nodes() {
                        prop_assert_eq!(
                            trees[i].dist(v).to_bits(),
                            reference.dist(v).to_bits(),
                            "batched fan-out distance bits diverged (profile {})",
                            round
                        );
                        prop_assert_eq!(trees[i].path_to(v), reference.path_to(v));
                    }
                }
            }
        }
    }
}
