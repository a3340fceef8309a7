//! Every workload's inputs are a pure function of the seed, and the
//! default seed and the held-out seed give different inputs.

use omcf_perfbench::workloads::{
    fleet_inputs, solve_instance, Shape, Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS,
};
use omcf_runtime::Event;
use omcf_topology::{EdgeId, Graph};
use std::time::Duration;

/// Everything that defines one workload's inputs, as comparable data.
#[derive(Debug, PartialEq)]
struct Inputs {
    graphs: Vec<Vec<(u32, u32, u64)>>,
    sessions: Vec<Vec<(Vec<u32>, u64)>>,
    events: Vec<Vec<Event>>,
}

fn edges(g: &Graph) -> Vec<(u32, u32, u64)> {
    g.edge_ids()
        .map(|e| {
            let edge = g.edge(e);
            (edge.u.0, edge.v.0, g.capacity(e).to_bits())
        })
        .collect()
}

fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut out = Inputs { graphs: Vec::new(), sessions: Vec::new(), events: Vec::new() };
    match workload.shape {
        Shape::Solve(spec) => {
            for k in 0..spec.instances {
                let inst = solve_instance(&spec, seed, k, &mut Duration::default());
                out.graphs.push(edges(&inst.graph));
                out.sessions.push(
                    inst.sessions
                        .sessions()
                        .iter()
                        .map(|s| (s.members.iter().map(|m| m.0).collect(), s.demand.to_bits()))
                        .collect(),
                );
            }
        }
        Shape::Fleet(spec) => {
            for shard in fleet_inputs(&spec, seed, &mut Duration::default()) {
                out.graphs.push(edges(&shard.graph));
                out.events.push(shard.events);
            }
        }
    }
    out
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for workload in WORKLOADS {
        let a = inputs(workload, DEFAULT_SEED);
        assert_eq!(a, inputs(workload, DEFAULT_SEED), "{}", workload.name);
        assert_ne!(a, inputs(workload, HELD_OUT_SEED), "{}", workload.name);
        assert_ne!(a.graphs[0], a.graphs[1], "{}: batch members share a graph", workload.name);
    }
}

#[test]
fn fleet_streams_have_the_specified_shape() {
    for workload in WORKLOADS {
        let Shape::Fleet(spec) = workload.shape else { continue };
        for shard in fleet_inputs(&spec, DEFAULT_SEED, &mut Duration::default()) {
            assert_eq!(shard.events.len(), spec.events_per_shard);
            let capacity =
                shard.events.iter().filter(|e| matches!(e, Event::CapacityChange(_))).count();
            assert_eq!(capacity, spec.events_per_shard / (spec.capacity_every + 1));
            // Every leave names an earlier, still-live join, and every
            // capacity change restores the links the previous one rescaled.
            let mut live = Vec::new();
            let mut rescaled: &[(EdgeId, f64)] = &[];
            for ev in &shard.events {
                match ev {
                    Event::Join(s) => {
                        assert_eq!(s.members.len(), spec.members);
                        live.push(true);
                    }
                    Event::Leave(j) => {
                        assert!(std::mem::replace(&mut live[*j], false), "leave of dead {j}");
                    }
                    Event::CapacityChange(f) => {
                        let (restore, fresh) = f.split_at(rescaled.len());
                        let undo: Vec<_> = rescaled.iter().map(|&(e, x)| (e, 1.0 / x)).collect();
                        assert_eq!(restore, &undo[..]);
                        assert_eq!(fresh.len(), spec.capacity_edges);
                        assert!(fresh.iter().all(|&(_, x)| (0.5..2.0).contains(&x)));
                        rescaled = fresh;
                    }
                    Event::Reoptimize => panic!("the stream holds no reoptimize events"),
                }
            }
        }
    }
}
