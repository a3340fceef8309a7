//! Property-based tests pinning the batched multi-source Dijkstra
//! ([`BatchDijkstra`]) to the per-source reference: every lane of a
//! batched run must be **bit-identical** (`to_bits` on distances, exact
//! path equality) to an independent single-source run, across random
//! graphs, seeds, length profiles, lane counts spanning chunk
//! boundaries, early-exit target sets, and execution policies.

use omcf_numerics::{Parallelism, Rng64, Xoshiro256pp};
use omcf_routing::dijkstra::dijkstra;
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{
    fanout_trees, fanout_trees_batched, fanout_trees_batched_with, BatchDijkstra,
    DijkstraWorkspace, WorkspacePool,
};
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
/// equal-distance pop ties), smooth (fractional), or FPTAS-scaled —
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

/// Lane counts exercised everywhere below: 1 (per-source degradation),
/// small partial chunks, one exactly-full chunk, and a 3-chunk batch
/// with a ragged tail.
const LANE_COUNTS: [usize; 5] = [1, 2, 3, 8, 17];

/// `k` sources sampled with replacement (duplicate lanes are legal and
/// must behave like independent runs).
fn sample_sources(rng: &mut Xoshiro256pp, n: usize, k: usize) -> Vec<NodeId> {
    (0..k).map(|_| NodeId(rng.index(n) as u32)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full batched runs: every lane's distances are `to_bits`-equal to a
    /// fresh single-source Dijkstra and to the frozen adjacency reference,
    /// and every path is identical, for all lane counts and length
    /// profiles, reusing one engine across lane-count changes.
    #[test]
    fn batch_lanes_bit_identical_to_per_source(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xB1);
        let mut batch = BatchDijkstra::new(g.node_count());
        for (round, &k) in LANE_COUNTS.iter().enumerate() {
            let lengths = random_lengths(&g, &mut rng, round as u32);
            let sources = sample_sources(&mut rng, n, k);
            batch.run(&g, &sources, &lengths);
            for (lane, &src) in sources.iter().enumerate() {
                let fresh = dijkstra(&g, src, &lengths);
                let reference = dijkstra_adjacency(&g, src, &lengths);
                for v in g.nodes() {
                    prop_assert_eq!(
                        batch.dist(lane, v).to_bits(),
                        fresh.dist(v).to_bits(),
                        "distance bits diverged (k {}, lane {}, node {:?})",
                        k, lane, v
                    );
                    prop_assert_eq!(fresh.dist(v).to_bits(), reference.dist(v).to_bits());
                    prop_assert_eq!(batch.path_to(lane, v), fresh.path_to(v));
                    prop_assert_eq!(fresh.path_to(v), reference.path_to(v));
                }
            }
        }
    }

    /// Early-exit batched runs: settled targets carry exactly the
    /// distances and paths of a single-source early-exit run (which is
    /// itself pinned to the full run by `tests/prop.rs`), for all lane
    /// counts and length profiles.
    #[test]
    fn batch_early_exit_bit_identical_to_per_source(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xB2);
        let targets: Vec<NodeId> =
            rng.sample_indices(n, 4.min(n)).into_iter().map(|i| NodeId(i as u32)).collect();
        let mut batch = BatchDijkstra::new(g.node_count());
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for round in 0..PROFILES {
            let lengths = random_lengths(&g, &mut rng, round);
            for &k in &LANE_COUNTS {
                let sources = sample_sources(&mut rng, n, k);
                batch.run_targets(&g, &sources, &lengths, &targets);
                for (lane, &src) in sources.iter().enumerate() {
                    ws.run_targets(&g, src, &lengths, &targets);
                    for &t in &targets {
                        prop_assert_eq!(
                            batch.dist(lane, t).to_bits(),
                            ws.dist(t).to_bits(),
                            "early-exit distance diverged (profile {}, k {}, lane {})",
                            round, k, lane
                        );
                        prop_assert_eq!(batch.path_to(lane, t), ws.path_to(t));
                    }
                }
            }
        }
    }

    /// Per-lane target sets (the cross-session oracle shape): each lane
    /// stops on its own set and still reproduces its single-source twin
    /// bit-for-bit on that set.
    #[test]
    fn batch_per_lane_targets_bit_identical(seed in any::<u64>(), n in 10usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xB3);
        let lengths = random_lengths(&g, &mut rng, 0);
        let k = 5usize;
        let sources = sample_sources(&mut rng, n, k);
        let target_sets: Vec<Vec<NodeId>> = (0..k)
            .map(|_| {
                rng.sample_indices(n, 3.min(n)).into_iter().map(|i| NodeId(i as u32)).collect()
            })
            .collect();
        let lane_targets: Vec<&[NodeId]> = target_sets.iter().map(Vec::as_slice).collect();
        let mut batch = BatchDijkstra::new(g.node_count());
        batch.run_lane_targets(&g, &sources, &lengths, &lane_targets);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for (lane, &src) in sources.iter().enumerate() {
            ws.run_targets(&g, src, &lengths, &target_sets[lane]);
            for &t in &target_sets[lane] {
                prop_assert_eq!(batch.dist(lane, t).to_bits(), ws.dist(t).to_bits());
                prop_assert_eq!(batch.path_to(lane, t), ws.path_to(t));
            }
        }
    }

    /// The batched fan-out entry point returns exactly the trees of the
    /// per-source fan-out — same order, same bits — for every length
    /// profile, every tested lane count, serially and under a real
    /// 4-worker pool (chunk splits and stealing must be invisible).
    #[test]
    fn batched_fanout_byte_identical_to_per_source(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xB4);
        let pool = WorkspacePool::new();
        let threads4 = Parallelism::Threads(std::num::NonZeroUsize::new(4).expect("nonzero"));
        for round in 0..PROFILES {
            let lengths = random_lengths(&g, &mut rng, round);
            for &k in &LANE_COUNTS {
                let sources = sample_sources(&mut rng, n, k);
                let reference = fanout_trees(&g, &sources, &lengths, &pool);
                let batched = fanout_trees_batched(&g, &sources, &lengths, &pool);
                prop_assert_eq!(
                    &batched, &reference,
                    "batched fan-out diverged (profile {}, k {})", round, k
                );
                let pooled = fanout_trees_batched_with(&g, &sources, &lengths, &pool, threads4);
                prop_assert_eq!(
                    &pooled, &reference,
                    "batched fan-out diverged at 4 threads (profile {}, k {})", round, k
                );
            }
        }
    }
}
