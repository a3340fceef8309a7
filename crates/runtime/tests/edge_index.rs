//! Property test for the runtime's per-edge index of live contributions.
//!
//! `Leave` and `CapacityChange` replay only the edges they touch, each
//! over the live sessions the index lists for it. The index is derived
//! state: joins append to it, leaves remove from it, and a snapshot
//! restore rebuilds it from the admission log. If it ever lists a
//! departed session, misses a live one or breaks admission order, some
//! replayed edge folds different adds than a run that never used it.
//!
//! The reference here is a test-local full scan: every edge replayed from
//! `1/c_e` through [`replay_edge`] over *all* live sessions in admission
//! order. After every event of a random stream (joins under both routing
//! regimes with 2–4 members, leaves of random live sessions, capacity
//! changes), the runtime's lengths and loads must equal that scan bit for
//! bit — also after a restore through the v1 text and the v2 binary
//! snapshot at a random split, whose continuations must end bit-identical
//! to the uninterrupted run.

use omcf_core::replay_edge;
use omcf_core::solver::RoutingMode;
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::Session;
use omcf_runtime::{Event, Runtime, RuntimeConfig};
use omcf_topology::{canned, EdgeId, NodeId};
use proptest::prelude::*;

const NODES: usize = 25;

/// A random event against the live population of `rt`: mostly joins,
/// then leaves of a random live session and capacity changes on 1–3
/// random edges.
fn next_event(rng: &mut Xoshiro256pp, rt: &Runtime) -> Event {
    let live = rt.live_joins();
    let roll = rng.index(10);
    if roll < 2 {
        let edges = rt.graph().edge_count();
        let factors = (0..1 + rng.index(3))
            .map(|_| (EdgeId(rng.index(edges) as u32), 0.5 + 1.5 * rng.next_f64()))
            .collect();
        return Event::CapacityChange(factors);
    }
    if roll < 5 && !live.is_empty() {
        return Event::Leave(live[rng.index(live.len())]);
    }
    let size = 2 + rng.index(3);
    let mut members: Vec<NodeId> = Vec::with_capacity(size);
    while members.len() < size {
        let node = NodeId(rng.index(NODES) as u32);
        if !members.contains(&node) {
            members.push(node);
        }
    }
    Event::Join(Session::new(members, 1.0 + rng.next_f64()))
}

/// Asserts that every edge's length and load equal a replay from `1/c_e`
/// over all live sessions crossing it, in admission order.
fn assert_matches_full_scan(rt: &Runtime, what: &str) {
    let g = rt.graph();
    let live: Vec<(Vec<(EdgeId, u32)>, f64)> = rt
        .checkpoint()
        .population
        .into_iter()
        .map(|(j, s)| (rt.tree_of(j).expect("live tree").edge_multiplicities(), s.demand))
        .collect();
    for e in g.edge_ids() {
        let cap = g.capacity(e);
        let adds = live.iter().filter_map(|(edges, demand)| {
            let k = edges.binary_search_by_key(&e, |p| p.0).ok()?;
            Some(f64::from(edges[k].1) * demand / cap)
        });
        let (load, length) = replay_edge(1.0 / cap, rt.rho(), adds);
        let i = e.idx();
        assert_eq!(rt.load()[i].to_bits(), load.to_bits(), "{what}: load[{i}]");
        assert_eq!(rt.lengths()[i].to_bits(), length.to_bits(), "{what}: length[{i}]");
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_replay_matches_full_scan_across_restores(
        seed in any::<u64>(),
        len in 8usize..40,
        split_pick in any::<usize>(),
        arbitrary_routing in any::<bool>(),
    ) {
        let routing =
            if arbitrary_routing { RoutingMode::Arbitrary } else { RoutingMode::FixedIp };
        let mut rt = Runtime::new(canned::grid(5, 5, 10.0), RuntimeConfig::new(25.0, routing));
        let mut rng = Xoshiro256pp::new(seed);
        let split = split_pick % len;

        for step in 0..split {
            let ev = next_event(&mut rng, &rt);
            rt.apply(&ev);
            assert_matches_full_scan(&rt, &format!("event {step} ({})", ev.label()));
        }
        let mut from_v1 = Runtime::restore(&rt.snapshot()).expect("v1 restore");
        let mut from_v2 = Runtime::restore_v2(&rt.snapshot_v2()).expect("v2 restore");
        assert_matches_full_scan(&from_v1, "v1 restore");
        assert_matches_full_scan(&from_v2, "v2 restore");

        for step in split..len {
            let ev = next_event(&mut rng, &rt);
            for (run, name) in [(&mut rt, "whole"), (&mut from_v1, "v1"), (&mut from_v2, "v2")] {
                run.apply(&ev);
                assert_matches_full_scan(run, &format!("{name}: event {step} ({})", ev.label()));
            }
        }
        for (run, name) in [(&from_v1, "v1"), (&from_v2, "v2")] {
            assert_bits_eq(run.lengths(), rt.lengths(), &format!("{name} lengths"));
            assert_bits_eq(run.load(), rt.load(), &format!("{name} loads"));
            prop_assert_eq!(run.live_joins(), rt.live_joins());
            prop_assert_eq!(run.snapshot_v2(), rt.snapshot_v2());
        }
    }
}
