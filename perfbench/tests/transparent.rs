//! The timing decorator is transparent: solving through it gives the same
//! bits, work counts and cache statistics as solving without it.

use omcf_perfbench::solve::BuiltOracle;
use omcf_perfbench::timed::TimedOracle;
use omcf_perfbench::workloads::{solve_instance, Shape, WORKLOADS};
use std::time::Duration;

#[test]
fn solving_through_the_timed_oracle_changes_nothing() {
    for workload in WORKLOADS {
        let Shape::Solve(spec) = workload.shortened().shape else { continue };
        let inst = solve_instance(&spec, 2004, 0, &mut Duration::default());
        let solver = spec.solver.solver();

        let plain = BuiltOracle::build(&inst);
        let bare = solver.solve(&inst, plain.as_dyn());

        let wrapped = BuiltOracle::build(&inst);
        let timed = TimedOracle::new(wrapped.as_dyn());
        let through = solver.solve(&inst, &timed);

        let name = workload.name;
        assert_eq!(bare.objective.to_bits(), through.objective.to_bits(), "{name}");
        assert_eq!(bare.mst_ops, through.mst_ops, "{name}");
        assert_eq!(bare.mst_ops_prepass, through.mst_ops_prepass, "{name}");
        assert_eq!(bare.iterations, through.iterations, "{name}");
        assert_eq!(
            bare.summary.max_congestion.to_bits(),
            through.summary.max_congestion.to_bits(),
            "{name}"
        );
        assert_eq!(plain.cache_stats(), wrapped.cache_stats(), "{name}");
        assert!(timed.calls() > 0 && timed.trees() >= timed.calls(), "{name}");
        assert!(timed.seconds() > 0.0, "{name}");
    }
}
