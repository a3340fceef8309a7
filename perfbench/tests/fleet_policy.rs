//! The fleet's final state does not depend on the drive policy.

use omcf_core::Parallelism;
use omcf_perfbench::fleet::{pass, replay_solo, setup};
use omcf_perfbench::reference::Reference;
use omcf_perfbench::workloads::{find, Shape, DEFAULT_SEED};
use std::num::NonZeroUsize;

#[test]
fn serial_and_threaded_drives_reach_the_same_state() {
    let Shape::Fleet(spec) = find("fleet-churn").unwrap().shortened().shape else {
        panic!("fleet-churn is a fleet workload");
    };
    let serial = setup(&spec, DEFAULT_SEED, Parallelism::Serial);
    let threads = Parallelism::Threads(NonZeroUsize::new(2).unwrap());
    let threaded = setup(&spec, DEFAULT_SEED, threads);
    let reference = Reference::default();
    let a = pass(&spec, &serial, &reference, false);
    let b = threads.install(|| pass(&spec, &threaded, &reference, true));
    assert_eq!(a.failed, 0);
    assert_eq!(b.failed, 0);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(a.events, (spec.shards * spec.events_per_shard) as u64);
    // A solo runtime fed each shard's stream ends in the same state too.
    assert_eq!(replay_solo(&serial).digest, a.digest);
}
