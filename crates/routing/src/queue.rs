//! The Dijkstra priority queue: one `std` binary heap over packed
//! `u128` keys.
//!
//! Every Dijkstra in the crate pops the minimum `(dist, node)` pair —
//! distances ascending, ties broken toward the smaller node id. The heap
//! realizes that order with a single integer compare: each entry is the
//! key `(dist.to_bits() << 64) | node`. Dijkstra distances are
//! non-negative finite sums of non-negative lengths (`0.0 + x` never
//! yields `-0.0`), and for such floats the IEEE-754 bit pattern orders
//! exactly like the value, with equal values having equal bits. So the
//! high half compares like the distance, the low half breaks ties by the
//! node id, and the pop order — hence every relaxation and tie-break — is
//! the same as a lexicographic `(dist, node)` comparison (pinned
//! against a sorted model in the tests below and against the frozen
//! [`crate::reference`] Dijkstra in `tests/prop.rs`).
//!
//! See `docs/PERF.md` ("The heap") for measured numbers and the
//! alternatives that lost to it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap of `(dist, node)` entries keyed by one packed `u128`.
#[derive(Debug, Default)]
pub struct DijkstraHeap {
    heap: BinaryHeap<Reverse<u128>>,
}

impl DijkstraHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a `(dist, node)` entry. `dist` must be finite and not
    /// negative (`-0.0` included): outside that range the bit pattern no
    /// longer orders like the value.
    #[inline]
    pub fn push(&mut self, dist: f64, node: u32) {
        debug_assert!(
            dist.is_finite() && dist.is_sign_positive(),
            "heap distance {dist} outside the bit-ordered range"
        );
        self.heap.push(Reverse((u128::from(dist.to_bits()) << 64) | u128::from(node)));
    }

    /// Removes and returns the minimum `(dist, node)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|Reverse(key)| (f64::from_bits((key >> 64) as u64), key as u32))
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::{Rng64, Xoshiro256pp};

    /// The reference model's order: `(dist.total_cmp, node)`.
    fn sort_by_dist_then_node(items: &mut [(f64, u32)]) {
        items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    /// A pop sequence as `(dist bits, node)`.
    type Pops = Vec<(u64, u32)>;

    fn bits(items: &[(f64, u32)]) -> Pops {
        items.iter().map(|&(d, p)| (d.to_bits(), p)).collect()
    }

    /// Feeds `rounds` Dijkstra-style through the heap and through a
    /// sorted-list model side by side — each round pops one entry, then
    /// pushes entries no smaller than it — and returns both pop
    /// sequences as `(dist bits, node)`. The model pops the first
    /// entry of its contents sorted by `(dist.total_cmp, node)`.
    fn drain_monotone(rounds: &[Vec<(f64, u32)>]) -> (Pops, Pops) {
        let mut q = DijkstraHeap::new();
        let mut model: Vec<(f64, u32)> = Vec::new();
        let (mut popped, mut expected) = (Vec::new(), Vec::new());
        let model_pop = |model: &mut Vec<(f64, u32)>, expected: &mut Vec<(f64, u32)>| {
            sort_by_dist_then_node(model);
            expected.push(model.remove(0));
        };
        let mut floor = 0.0f64;
        for round in rounds {
            if let Some(top) = q.pop() {
                floor = top.0;
                popped.push(top);
                model_pop(&mut model, &mut expected);
            }
            for &(delta, p) in round {
                // Relaxations land at or above the last popped distance.
                let d = floor + delta;
                q.push(d, p);
                model.push((d, p));
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        while !model.is_empty() {
            model_pop(&mut model, &mut expected);
        }
        (bits(&popped), bits(&expected))
    }

    /// Random monotone push/pop streams with many equal distances pop
    /// exactly like the sorted model: every pop is the first entry of the
    /// current contents sorted by `(dist.total_cmp, node)`.
    #[test]
    fn monotone_streams_drain_in_sorted_order() {
        let mut rng = Xoshiro256pp::new(42);
        for _ in 0..200 {
            let rounds: Vec<Vec<(f64, u32)>> = (0..1 + rng.index(40))
                .map(|_| {
                    (0..rng.index(5))
                        // Coarse increments provoke ties; ids break them.
                        .map(|_| (rng.index(4) as f64 * 0.5, rng.index(16) as u32))
                        .collect()
                })
                .collect();
            let (popped, expected) = drain_monotone(&rounds);
            assert_eq!(popped, expected);
        }
    }

    /// `0.0` and distances across the engine's stored range (2^-960 to
    /// 2^990, both ends included) order exactly.
    #[test]
    fn zero_and_extreme_distances_order_exactly() {
        let mut rng = Xoshiro256pp::new(7);
        let mut q = DijkstraHeap::new();
        let mut items: Vec<(f64, u32)> = vec![(0.0, 3), (0.0, 1)];
        for _ in 0..500 {
            let exp = rng.index(1951) as i32 - 960;
            let mantissa = 1.0 + rng.index(4) as f64 * 0.25;
            items.push((mantissa * 2f64.powi(exp), rng.index(8) as u32));
        }
        items.push((2f64.powi(-960), 0));
        items.push((2f64.powi(990), 0));
        for &(d, p) in &items {
            q.push(d, p);
        }
        let popped: Vec<(f64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        sort_by_dist_then_node(&mut items);
        assert_eq!(bits(&popped), bits(&items));
        assert_eq!(popped[0], (0.0, 1), "node breaks the zero tie");
    }

    /// Node ids use the whole low half of the key: ties order by id up to
    /// `u32::MAX`.
    #[test]
    fn full_width_node_ids_order_by_dist_then_id() {
        let mut rng = Xoshiro256pp::new(2004);
        for _ in 0..100 {
            let rounds: Vec<Vec<(f64, u32)>> = (0..1 + rng.index(30))
                .map(|_| {
                    (0..rng.index(6))
                        .map(|_| (rng.index(3) as f64 * 0.25, rng.next_u64() as u32))
                        .collect()
                })
                .collect();
            let (popped, expected) = drain_monotone(&rounds);
            assert_eq!(popped, expected);
        }
        let mut q = DijkstraHeap::new();
        q.push(0.5, 1 << 31);
        q.push(0.5, 7);
        q.push(0.5, 3);
        q.push(0.2, 9);
        q.push(0.5, u32::MAX);
        let order: Vec<(f64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0.2, 9), (0.5, 3), (0.5, 7), (0.5, 1 << 31), (0.5, u32::MAX)]);
    }

    #[test]
    fn clear_empties_the_heap() {
        let mut q = DijkstraHeap::new();
        q.push(1.0, 0);
        q.push(2.0, 1);
        q.clear();
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bit-ordered range")]
    fn negative_zero_is_rejected() {
        DijkstraHeap::new().push(-0.0, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bit-ordered range")]
    fn nan_is_rejected() {
        DijkstraHeap::new().push(f64::NAN, 0);
    }
}
