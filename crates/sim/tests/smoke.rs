//! End-to-end smoke test: drive the `repro` binary's Scenario-A path at
//! reduced scale and check the solver produces a sane throughput, so CI
//! exercises argument parsing, scenario construction, the M1 FPTAS sweep,
//! and CSV emission in one shot.

use std::path::PathBuf;
use std::process::Command;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omcf-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The "Overall Throughput" row of the rendered Table II, parsed back out
/// of the binary's stdout.
fn throughput_row(stdout: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("Overall Throughput"))
        .expect("repro stdout is missing the Overall Throughput row");
    let vals: Vec<f64> =
        line.split_whitespace().filter_map(|tok| tok.parse::<f64>().ok()).collect();
    assert!(!vals.is_empty(), "no numeric cells in: {line}");
    vals
}

#[test]
fn repro_scenario_a_table2_reports_sane_throughput() {
    let out = out_dir("table2");
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seed", "2004", "--out"])
        .arg(&out)
        .arg("table2")
        .output()
        .expect("failed to spawn the repro binary");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        result.status.success(),
        "repro exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        result.status,
        String::from_utf8_lossy(&result.stderr)
    );

    // Scenario A (reduced scale): two sessions of demand 100 on a 60-node
    // Waxman graph of uniform capacity 100. The paper's Table II sweeps
    // approximation ratios 0.90..0.95; throughput must be positive, bounded
    // by what the topology could ever carry, and non-decreasing in the
    // ratio (a better approximation never loses throughput on this sweep).
    let thr = throughput_row(&stdout);
    assert_eq!(thr.len(), 3, "expected one throughput per swept ratio: {thr:?}");
    for &t in &thr {
        assert!(t > 50.0, "throughput implausibly low: {t}");
        assert!(t < 5000.0, "throughput implausibly high: {t}");
    }
    assert!(
        thr.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "throughput should not degrade as the ratio improves: {thr:?}"
    );

    let csv = out.join("table2.csv");
    assert!(csv.is_file(), "repro did not write {}", csv.display());
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(body.contains("0.9"), "CSV is missing the ratio axis:\n{body}");

    // The determinism contract: the same seed gives the same bytes, on any
    // thread count and across changes that keep the arithmetic (queue,
    // layout, batching). The golden file is `repro --seed 2004 table2`
    // output; regenerate it only for a change that means to move results.
    let golden = include_str!("data/table2_seed2004.csv");
    assert!(body == golden, "table2.csv drifted from the seed-2004 golden file:\n{body}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn repro_rejects_unknown_flags() {
    // The routing core has one heap, so there is no `--queue` to select
    // one: it fails like any other unknown flag.
    for args in [&["--definitely-not-a-flag"][..], &["--queue", "binary", "table2"]] {
        let result = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("failed to spawn the repro binary");
        assert!(!result.status.success(), "{args:?} must be rejected");
    }
}

#[test]
fn repro_rejects_unknown_artifacts_listing_valid_ones() {
    // A typo'd artifact must abort the run up front (historically it was
    // silently carried and could no-op the whole invocation) and the error
    // must teach the valid vocabulary.
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--micro", "table2", "tabel3"])
        .output()
        .expect("failed to spawn the repro binary");
    assert_eq!(result.status.code(), Some(2), "unknown artifact must exit 2");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("unknown artifact `tabel3`"), "stderr:\n{stderr}");
    for known in ["table2", "sweep", "replay", "all"] {
        assert!(stderr.contains(known), "error must list `{known}`:\n{stderr}");
    }
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(!stdout.contains("Overall Throughput"), "no artifact may run after a typo");
}

#[test]
fn repro_rejects_unknown_solvers_listing_valid_ones() {
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--micro", "--solvers", "m1,turbo", "sweep"])
        .output()
        .expect("failed to spawn the repro binary");
    assert_eq!(result.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("unknown solver `turbo`"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("m1, m1-fleischer, m2, online"),
        "error must list the valid solver names:\n{stderr}"
    );
}

#[test]
fn repro_replay_writes_nonempty_drift_series() {
    let out = out_dir("replay");
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--micro", "--seed", "2004", "--out"])
        .arg(&out)
        .arg("replay")
        .output()
        .expect("failed to spawn the repro binary");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        result.status.success(),
        "repro replay exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        result.status,
        String::from_utf8_lossy(&result.stderr)
    );
    let drift = std::fs::read_to_string(out.join("replay_drift.csv")).expect("drift csv");
    assert!(drift.starts_with("scenario,seed,event_index"), "header:\n{drift}");
    assert!(drift.lines().count() > 3, "expected drift rows for every churn scenario:\n{drift}");
    let summary = std::fs::read_to_string(out.join("replay.csv")).expect("summary csv");
    for scenario in ["churn", "churn-dynamic", "churn-hotspot"] {
        assert!(summary.contains(scenario), "summary missing {scenario}:\n{summary}");
    }
    let _ = std::fs::remove_dir_all(&out);
}
