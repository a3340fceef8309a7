//! End-to-end and per-layer benchmark of the overlay multicommodity-flow
//! workspace. See `README.md` for the workloads, the metrics and how to
//! run the untraced and traced passes.

pub mod fleet;
pub mod reference;
pub mod report;
pub mod solve;
pub mod timed;
pub mod workloads;

use omcf_core::Parallelism;
use omcf_telemetry::stats;
use reference::Reference;
use report::{median, percentile, Metrics};
use std::time::Instant;
use workloads::{FleetSpec, Shape, SolveSpec, Workload};

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Master seed of every generated input.
    pub seed: u64,
    /// Measurement window: an untraced run makes
    /// [`Workload::passes`]`(seconds)` passes.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// What one invocation measured and checked.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Operations attempted: solves, or events plus recoveries.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// The pool size the benchmark runs with. One thread, because the
/// reference kernel that cancels the host's speed is single-threaded: with
/// two threads the dynamic-routing solves spread 9% across seeds instead of
/// 2% (see `README.md`).
pub const THREADS: usize = 1;

/// Runs one invocation on the worker of a pool of [`THREADS`] threads, so
/// parallel sections run on it directly instead of being handed over from
/// the calling thread. The fleet drives its shards serially on that worker.
#[must_use]
pub fn run(cfg: &RunConfig) -> RunResult {
    omcf_telemetry::set_enabled(false);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("building a thread pool cannot fail");
    pool.install(|| match (cfg.workload.shape, cfg.trace) {
        (Shape::Solve(spec), false) => solve_untraced(&spec, cfg),
        (Shape::Solve(spec), true) => solve_traced(&spec, cfg),
        (Shape::Fleet(spec), false) => fleet_untraced(&spec, cfg),
        (Shape::Fleet(spec), true) => fleet_traced(&spec, cfg),
    })
}

/// The untraced measurement: [`Workload::passes`] passes over one set-up, with
/// rounds of timed set-ups before, between and after them. Returns the
/// passes and `setup_s`. `peak_rss_mb` is recorded after the first pass:
/// later passes only reuse its memory.
///
/// Every set-up follows one run of the reference kernel. The host switches
/// between faster and slower states lasting up to seconds, and the slower
/// ones slow the allocation-heavy set-up more than the kernel, so no ratio
/// of the two cancels them. Outside load only ever adds time, though, so
/// the smallest set-up time and the smallest kernel time both come from
/// the fastest state the run saw, and set-ups spread over the whole run
/// are more likely to see it than set-ups packed at its start. `setup_s`
/// is their ratio in seconds at the reference speed
/// ([`reference::NOMINAL_S`] per kernel run).
fn measure<S, P>(
    workload: &Workload,
    seconds: f64,
    reference: &Reference,
    metrics: &mut Metrics,
    mut build: impl FnMut() -> S,
    mut pass: impl FnMut(&S) -> P,
) -> (Vec<P>, f64) {
    let count = workload.passes(seconds);
    let per_round = workload.setups.div_ceil(count + 1);
    let (mut setup_s, mut kernel_s) = (f64::INFINITY, f64::INFINITY);
    let mut round = || {
        let mut made = None;
        for _ in 0..per_round {
            // One set-up alive at a time, for `peak_rss_mb`.
            drop(made.take());
            kernel_s = kernel_s.min(reference.seconds());
            let t0 = Instant::now();
            made = Some(build());
            setup_s = setup_s.min(t0.elapsed().as_secs_f64());
        }
        made.expect("every round sets up at least once")
    };
    let kept = round();
    let mut done = Vec::with_capacity(count);
    for _ in 0..count {
        done.push(pass(&kept));
        if done.len() == 1 {
            let rss = report::peak_rss_mb().expect("/proc/self/status reports VmHWM");
            metrics.set("peak_rss_mb", rss);
        }
        drop(round());
    }
    (done, setup_s / kernel_s * reference::NOMINAL_S)
}

fn solve_untraced(spec: &SolveSpec, cfg: &RunConfig) -> RunResult {
    let reference = Reference::default();
    let mut metrics = Metrics::default();
    let (runs, setup_s) = measure(
        &cfg.workload,
        cfg.seconds,
        &reference,
        &mut metrics,
        || solve::setup(spec, cfg.seed),
        |setup| solve::pass(spec, setup, &reference, false),
    );
    // Each solve in reference-kernel runs; outside load only ever adds
    // time, so each solve's smallest ratio over the passes is its best
    // estimate, and the batch total sums those.
    let per_solve: f64 = (0..spec.instances)
        .map(|k| min(runs.iter().map(|p| p.solve_ms[k] / p.reference_ms[k])))
        .sum();
    metrics.set("setup_s", setup_s);
    metrics.set("pass_ref", per_solve);
    metrics.set("objective", runs[0].objective);
    // Same inputs, same bits: a pass that disagrees with the first one
    // failed every solve it disagrees on.
    let mut failed: u64 = runs.iter().map(|p| p.failed).sum();
    for p in &runs[1..] {
        let diverged = p.objective_bits.iter().zip(&runs[0].objective_bits);
        failed += diverged.filter(|(a, b)| a != b).count() as u64;
    }
    RunResult { attempted: (runs.len() * spec.instances) as u64, failed, metrics }
}

fn solve_traced(spec: &SolveSpec, cfg: &RunConfig) -> RunResult {
    let plain = solve::setup(spec, cfg.seed);
    let reference = Reference::default();
    let (untraced, mut traced) = traced_pairs(
        || solve::pass(spec, &plain, &reference, false),
        || {
            let setup = solve::setup(spec, cfg.seed);
            let pass = solve::pass(spec, &setup, &reference, true);
            (setup, pass)
        },
        || {
            let mut metrics = Metrics::default();
            routing_counts(&mut metrics);
            metrics
        },
    );
    let overhead = ratio(
        min(traced.iter().map(|((_, p), _)| p.pass_s)),
        min(untraced.iter().map(|p| p.pass_s)),
    );
    let mut failed = 0;
    let first = &untraced[0].objective_bits;
    for p in untraced.iter().chain(traced.iter().map(|((_, p), _)| p)) {
        failed +=
            p.failed + p.objective_bits.iter().zip(first).filter(|(a, b)| a != b).count() as u64;
    }
    let attempted = ((untraced.len() + traced.len()) * spec.instances) as u64;

    let ((setup, pass), mut metrics) = traced.pop().expect("at least one traced pass");
    let t = pass.trace.as_ref().expect("traced pass carries a trace");
    let solve_s = pass.pass_s;
    let lookups = t.cache.hits + t.cache.misses;
    metrics.set("overlay.oracle_calls", t.oracle_calls as f64);
    metrics.set("overlay.trees", t.trees as f64);
    metrics.set("core.mst_ops", t.mst_ops as f64);
    metrics.set("core.mst_ops_prepass", t.mst_ops_prepass as f64);
    metrics.set("core.iterations", t.iterations as f64);
    metrics.set("topology.generate_s", setup.generate_s);
    metrics.set("overlay.build_s", setup.build_s);
    metrics.set("overlay.oracle_s", t.oracle_s);
    metrics.set("overlay.ms_per_tree", ratio(t.oracle_s * 1e3, t.trees as f64));
    metrics.set("overlay.cache_hit_ratio", ratio(t.cache.hits as f64, lookups as f64));
    metrics.set("core.solve_s", solve_s);
    metrics.set("core.engine_self_s", solve_s - t.oracle_s);
    metrics.set("overlay.oracle_share", ratio(t.oracle_s, solve_s));
    metrics.set("core.engine_share", ratio(solve_s - t.oracle_s, solve_s));
    metrics.set("telemetry.overhead", overhead);
    zero_fleet_layers(&mut metrics);
    RunResult { attempted, failed, metrics }
}

fn fleet_untraced(spec: &FleetSpec, cfg: &RunConfig) -> RunResult {
    let reference = Reference::default();
    let mut metrics = Metrics::default();
    let (runs, setup_s) = measure(
        &cfg.workload,
        cfg.seconds,
        &reference,
        &mut metrics,
        || {
            let setup = fleet::setup(spec, cfg.seed, Parallelism::Serial);
            drop(fleet::build(&setup));
            setup
        },
        |setup| fleet::pass(spec, setup, &reference, false),
    );
    metrics.set("setup_s", setup_s);
    // As for the solves: each segment's smallest ratio, summed.
    let segments = runs[0].segment_s.len();
    let per_segment: f64 = (0..segments)
        .map(|k| min(runs.iter().map(|p| p.segment_s[k] / p.segment_reference_s[k])))
        .sum();
    metrics.set("pass_ref", per_segment);
    metrics.set("objective", runs[0].objective);
    let mut failed: u64 = runs.iter().map(|p| p.failed).sum();
    failed += runs.iter().filter(|p| p.digest != runs[0].digest).count() as u64;
    let attempted = runs.iter().map(|p| p.events + 1).sum();
    RunResult { attempted, failed, metrics }
}

fn fleet_traced(spec: &FleetSpec, cfg: &RunConfig) -> RunResult {
    let plain = fleet::setup(spec, cfg.seed, Parallelism::Serial);
    let reference = Reference::default();
    let (untraced, mut traced) = traced_pairs(
        || fleet::pass(spec, &plain, &reference, false),
        || {
            let setup = fleet::setup(spec, cfg.seed, Parallelism::Serial);
            let pass = fleet::pass(spec, &setup, &reference, true);
            (setup, pass)
        },
        || {
            let mut metrics = Metrics::default();
            routing_counts(&mut metrics);
            metrics.set("core.mst_ops", stats::ENGINE_ORACLE_CALLS.value() as f64);
            metrics.set("runtime.rollback_edges", stats::RUNTIME_ROLLBACK_EDGES.value() as f64);
            let accepted = stats::FLEET_EVENTS_ACCEPTED.value() as f64;
            let wal_bytes = stats::FLEET_WAL_BYTES.value() as f64;
            metrics.set("fleet.wal_bytes_per_event", ratio(wal_bytes, accepted));
            let hits = stats::ORACLE_DYNAMIC_HITS.value() as f64;
            let lookups = hits + stats::ORACLE_DYNAMIC_MISSES.value() as f64;
            metrics.set("overlay.cache_hit_ratio", ratio(hits, lookups));
            metrics
        },
    );
    let overhead = ratio(
        min(traced.iter().map(|((_, p), _)| p.pass_s)),
        min(untraced.iter().map(|p| p.pass_s)),
    );
    let mut failed = 0;
    let mut attempted = 0;
    for p in untraced.iter().chain(traced.iter().map(|((_, p), _)| p)) {
        failed += p.failed + u64::from(p.digest != untraced[0].digest);
        attempted += p.events + 1;
    }
    let fastest = untraced.iter().min_by(|a, b| a.pass_s.total_cmp(&b.pass_s)).expect("a pass");

    let ((setup, traced), mut metrics) = traced.pop().expect("at least one traced pass");
    let replay = fleet::replay_solo(&setup);
    failed += u64::from(replay.digest != traced.digest);
    attempted += 1;

    let t = traced.trace.as_ref().expect("traced pass carries a trace");
    for name in [
        "overlay.oracle_calls",
        "overlay.trees",
        "core.mst_ops_prepass",
        "core.iterations",
        "overlay.build_s",
        "overlay.oracle_s",
        "overlay.ms_per_tree",
        "core.solve_s",
        "core.engine_self_s",
        "overlay.oracle_share",
        "core.engine_share",
    ] {
        metrics.set(name, 0.0);
    }
    metrics.set("topology.generate_s", setup.generate_s);
    metrics.set("fleet.drives", t.drives as f64);
    metrics.set("fleet.snapshot_bytes", ratio(t.snapshot_bytes as f64, t.snapshots as f64));
    metrics.set("runtime.join_ms_p50", median(&replay.join_ms));
    metrics.set("runtime.join_ms_p99", percentile(&replay.join_ms, 99.0));
    metrics.set("runtime.leave_ms_p50", median(&replay.leave_ms));
    metrics.set("runtime.leave_ms_p99", percentile(&replay.leave_ms, 99.0));
    metrics.set("runtime.capacity_ms_p50", median(&replay.capacity_ms));
    metrics.set("fleet.submit_us_p50", median(&t.submit_us));
    metrics.set("fleet.drive_s", t.drive_s);
    metrics.set("fleet.deferred_ratio", ratio(t.deferred as f64, t.submit_us.len() as f64));
    metrics.set("fleet.snapshot_s", t.snapshot_s);
    metrics.set("fleet.events_per_s", ratio(fastest.events as f64, fastest.pass_s));
    metrics.set("fleet.event_p50_ms", median(&fastest.latency_ms));
    metrics.set("fleet.event_p99_ms", percentile(&fastest.latency_ms, 99.0));
    metrics.set("fleet.recover_s", t.recover_s);
    metrics.set("fleet.recover_events_per_s", ratio(t.recovered_events as f64, t.recover_s));
    metrics.set("telemetry.overhead", overhead);
    RunResult { attempted, failed, metrics }
}

/// Untraced and traced passes alternated per traced run; the overhead
/// compares the fastest of each.
const TRACED_PAIRS: usize = 2;

/// Alternates `TRACED_PAIRS` untraced and traced passes. Telemetry is reset
/// and on only around each traced one, and `read` takes the counters
/// before it goes off again.
fn traced_pairs<U, T, C>(
    mut untraced: impl FnMut() -> U,
    mut traced: impl FnMut() -> T,
    read: impl Fn() -> C,
) -> (Vec<U>, Vec<(T, C)>) {
    let mut plain = Vec::with_capacity(TRACED_PAIRS);
    let mut seen = Vec::with_capacity(TRACED_PAIRS);
    for _ in 0..TRACED_PAIRS {
        plain.push(untraced());
        omcf_telemetry::reset();
        omcf_telemetry::set_enabled(true);
        let pass = traced();
        let counters = read();
        omcf_telemetry::set_enabled(false);
        seen.push((pass, counters));
    }
    (plain, seen)
}

fn min(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// The Count-class routing counters, read while telemetry is on.
fn routing_counts(metrics: &mut Metrics) {
    let runs = stats::ROUTING_DIJKSTRA_RUNS.value() as f64;
    let relaxations = stats::ROUTING_RELAXATIONS.value() as f64;
    metrics.set("routing.dijkstra_runs", runs);
    metrics.set("routing.heap_pops", stats::ROUTING_HEAP_POPS.value() as f64);
    metrics.set("routing.relaxations", relaxations);
    metrics.set("routing.relaxations_per_run", ratio(relaxations, runs));
    metrics.set("core.augments", stats::ENGINE_AUGMENTS.value() as f64);
    metrics.set("core.flush_edges", stats::ENGINE_FLUSH_EDGES.value() as f64);
}

/// The runtime and fleet layers do no work in a solve workload.
fn zero_fleet_layers(metrics: &mut Metrics) {
    for def in report::PER_LAYER {
        if def.name.starts_with("runtime.") || def.name.starts_with("fleet.") {
            metrics.set(def.name, 0.0);
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
