//! Metric names, summary statistics and the one-line JSON result.

/// An end-to-end or per-layer metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Deterministic: two runs at one seed must report the same value to
    /// the bit (Count-class work counters and byte sizes).
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower", exact: true }
}

/// End-to-end metrics, measured with telemetry off (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("pass_ref", "ref", "lower"),
    def("objective", "rate", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, measured by the traced pass (`--trace 1`). The
/// exact-compare counts come first, the timed metrics after them.
pub const PER_LAYER: [MetricDef; 39] = [
    exact("routing.dijkstra_runs", "count"),
    exact("routing.heap_pops", "count"),
    exact("routing.relaxations", "count"),
    exact("routing.relaxations_per_run", "count"),
    exact("overlay.oracle_calls", "count"),
    exact("overlay.trees", "count"),
    exact("core.mst_ops", "count"),
    exact("core.mst_ops_prepass", "count"),
    exact("core.iterations", "count"),
    exact("core.augments", "count"),
    exact("core.flush_edges", "count"),
    exact("runtime.rollback_edges", "count"),
    exact("fleet.drives", "count"),
    exact("fleet.snapshot_bytes", "bytes"),
    exact("fleet.wal_bytes_per_event", "bytes"),
    def("topology.generate_s", "s", "lower"),
    def("overlay.build_s", "s", "lower"),
    def("overlay.oracle_s", "s", "lower"),
    def("overlay.ms_per_tree", "ms", "lower"),
    def("overlay.cache_hit_ratio", "ratio", "higher"),
    def("core.solve_s", "s", "lower"),
    def("core.engine_self_s", "s", "lower"),
    def("runtime.join_ms_p50", "ms", "lower"),
    def("runtime.join_ms_p99", "ms", "lower"),
    def("runtime.leave_ms_p50", "ms", "lower"),
    def("runtime.leave_ms_p99", "ms", "lower"),
    def("runtime.capacity_ms_p50", "ms", "lower"),
    def("fleet.submit_us_p50", "us", "lower"),
    def("fleet.drive_s", "s", "lower"),
    def("fleet.deferred_ratio", "ratio", "lower"),
    def("fleet.snapshot_s", "s", "lower"),
    def("fleet.events_per_s", "1/s", "higher"),
    def("fleet.event_p50_ms", "ms", "lower"),
    def("fleet.event_p99_ms", "ms", "lower"),
    def("fleet.recover_s", "s", "lower"),
    def("fleet.recover_events_per_s", "1/s", "higher"),
    def("telemetry.overhead", "ratio", "lower"),
    def("overlay.oracle_share", "ratio", "lower"),
    def("core.engine_share", "ratio", "lower"),
];

/// Metric values keyed by name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records (or overwrites) one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
#[must_use]
pub(crate) fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p ∈ [0, 100]` of `xs`; 0 if empty.
#[must_use]
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders the result line: `correct`, `attempted`, `failed`, and the
/// listed metrics with their units. Every listed metric must be present.
/// Values print in Rust's shortest round-trip form, which is valid JSON
/// and keeps every digit.
#[must_use]
pub fn render_result(attempted: u64, failed: u64, defs: &[MetricDef], metrics: &Metrics) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = metrics.get(d.name).unwrap_or_else(|| panic!("metric {} not measured", d.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", d.name, v, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
