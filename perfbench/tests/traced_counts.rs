//! Two traced passes at one seed report every exact-compare per-layer
//! metric identically, and every run reports every metric it declares.
//!
//! Telemetry counters are process-global, so this file holds one test:
//! its runs must not overlap with any other traced run.

use omcf_perfbench::report::{END_TO_END, PER_LAYER};
use omcf_perfbench::workloads::WORKLOADS;
use omcf_perfbench::{run, RunConfig};

#[test]
fn exact_metrics_repeat_and_every_metric_is_reported() {
    for workload in WORKLOADS {
        let cfg =
            RunConfig { workload: workload.shortened(), seed: 2004, seconds: 0.01, trace: true };
        let first = run(&cfg);
        let second = run(&cfg);
        let name = workload.name;
        assert_eq!(first.failed, 0, "{name}");
        assert_eq!(second.failed, 0, "{name}");
        for def in PER_LAYER {
            let a = first.metrics.get(def.name).unwrap_or_else(|| panic!("{name}: {}", def.name));
            let b = second.metrics.get(def.name).unwrap();
            assert!(a.is_finite() && a >= 0.0, "{name}: {} = {a}", def.name);
            if def.exact {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: {} moved", def.name);
            }
        }
        let untraced = run(&RunConfig { trace: false, ..cfg });
        assert_eq!(untraced.failed, 0, "{name}");
        for def in END_TO_END {
            let v =
                untraced.metrics.get(def.name).unwrap_or_else(|| panic!("{name}: {}", def.name));
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", def.name);
        }
    }
}
