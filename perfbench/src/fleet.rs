//! The fleet workload: a closed-loop client over a sharded [`Fleet`],
//! crash recovery, and a solo-runtime replay of the same streams.

use crate::reference::Reference;
use crate::workloads::{self, FleetSpec, ShardInput};
use omcf_core::solver::RoutingMode;
use omcf_core::Parallelism;
use omcf_runtime::{Admission, Event, Fleet, FleetConfig, Runtime, ShardId};
use std::time::{Duration, Instant};

/// Generated shard inputs plus the fleet configuration that serves them.
pub struct FleetSetup {
    /// One graph and stream per shard.
    pub inputs: Vec<ShardInput>,
    /// Fleet parameters (queue bound, drive policy, ρ, routing).
    pub cfg: FleetConfig,
    /// Time spent generating graphs.
    pub generate_s: f64,
}

/// Generates the shard inputs and the fleet configuration.
#[must_use]
pub fn setup(spec: &FleetSpec, seed: u64, parallelism: Parallelism) -> FleetSetup {
    let mut generate = Duration::ZERO;
    let inputs = workloads::fleet_inputs(spec, seed, &mut generate);
    let cfg = FleetConfig::new(spec.rho, RoutingMode::Arbitrary)
        .with_queue_capacity(spec.queue_capacity)
        .with_parallelism(parallelism);
    FleetSetup { inputs, cfg, generate_s: generate.as_secs_f64() }
}

/// An empty fleet with one shard per input.
#[must_use]
pub(crate) fn build(setup: &FleetSetup) -> Fleet {
    let mut fleet = Fleet::new(setup.cfg);
    for input in &setup.inputs {
        fleet.add_shard(input.graph.clone());
    }
    fleet
}

/// Timers around the fleet's public calls during a traced pass.
#[derive(Clone, Debug, Default)]
pub struct FleetTrace {
    /// Each `Fleet::submit` call's wall time (µs).
    pub submit_us: Vec<f64>,
    /// Σ `Fleet::drive` wall time.
    pub drive_s: f64,
    /// `Fleet::drive` calls made by the client.
    pub drives: u64,
    /// Submissions answered `Deferred`.
    pub deferred: u64,
    /// Σ `Fleet::snapshot` wall time.
    pub snapshot_s: f64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Σ snapshot container bytes.
    pub snapshot_bytes: u64,
    /// `Fleet::recover` wall time.
    pub recover_s: f64,
    /// WAL records replayed by the recovery.
    pub recovered_events: u64,
}

/// One measured pass: the whole stream ingested, then a crash recovery.
#[derive(Clone, Debug)]
pub struct FleetPass {
    /// Wall time of the ingest (submissions, drives and snapshots).
    pub pass_s: f64,
    /// The ingest split at every snapshot: each segment's wall time.
    pub segment_s: Vec<f64>,
    /// The reference kernel's time just before each segment.
    pub segment_reference_s: Vec<f64>,
    /// Per-event latency from submit to applied (ms).
    pub latency_ms: Vec<f64>,
    /// Events submitted.
    pub events: u64,
    /// Σ saturating rates of the sessions alive at the end.
    pub objective: f64,
    /// Digest of the final state of every shard.
    pub digest: u64,
    /// Failed checks: events never applied, recovery mismatches.
    pub failed: u64,
    /// Present for traced passes.
    pub trace: Option<FleetTrace>,
}

/// Ingests every shard's stream round-robin with the client protocol of
/// `spec`, then crashes and recovers from the last snapshot plus the WAL.
/// `reference` is timed before each segment of the ingest (a segment ends
/// at a snapshot, when no event is pending).
#[must_use]
pub fn pass(
    spec: &FleetSpec,
    setup: &FleetSetup,
    reference: &Reference,
    traced: bool,
) -> FleetPass {
    let mut fleet = build(setup);
    // The empty fleet's snapshot is the recovery base until the first
    // periodic snapshot replaces it.
    let mut last_snapshot = fleet.snapshot();
    let mut stream = Vec::with_capacity(spec.events_per_shard * setup.inputs.len());
    for i in 0..spec.events_per_shard {
        for (s, input) in setup.inputs.iter().enumerate() {
            stream.push((ShardId(s as u32), input.events[i].clone()));
        }
    }
    let events = stream.len() as u64;
    let mut trace = traced.then(FleetTrace::default);
    let mut latency_ms = Vec::with_capacity(stream.len());
    let mut pending: Vec<Instant> = Vec::with_capacity(spec.queue_capacity * setup.inputs.len());

    let mut segment_s = Vec::new();
    let mut segment_reference_s = vec![reference.seconds()];
    let mut segment = Instant::now();
    for (n, (shard, event)) in stream.into_iter().enumerate() {
        let submitted_at = Instant::now();
        let mut admission = submit(&mut fleet, shard, &event, trace.as_mut());
        if matches!(admission, Admission::Deferred { .. }) {
            if let Some(t) = trace.as_mut() {
                t.deferred += 1;
            }
            drive(&mut fleet, trace.as_mut());
            settle(&mut pending, &mut latency_ms);
            admission = submit(&mut fleet, shard, &event, trace.as_mut());
        }
        assert!(admission.is_accepted(), "{shard} refused an event after a drive: {admission:?}");
        pending.push(submitted_at);
        let submitted = n + 1;
        if submitted % spec.snapshot_every == 0 {
            let t0 = Instant::now();
            last_snapshot = fleet.snapshot();
            if let Some(t) = trace.as_mut() {
                t.snapshot_s += t0.elapsed().as_secs_f64();
                t.snapshots += 1;
                t.snapshot_bytes += last_snapshot.len() as u64;
            }
            settle(&mut pending, &mut latency_ms);
            segment_s.push(segment.elapsed().as_secs_f64());
            segment_reference_s.push(reference.seconds());
            segment = Instant::now();
        } else if submitted % spec.drive_every == 0 {
            drive(&mut fleet, trace.as_mut());
            settle(&mut pending, &mut latency_ms);
        }
    }
    drive(&mut fleet, trace.as_mut());
    settle(&mut pending, &mut latency_ms);
    segment_s.push(segment.elapsed().as_secs_f64());
    let pass_s = segment_s.iter().sum();

    let mut failed = 0;
    for (id, input) in fleet.shard_ids().zip(&setup.inputs) {
        let applied = fleet.shard(id).map_or(0, Runtime::events_processed);
        failed += (input.events.len() as u64).saturating_sub(applied);
    }
    let digest = fleet_digest(&fleet);

    let wal = fleet.wal_bytes().to_vec();
    let t0 = Instant::now();
    // A runtime panics on a replayed event it cannot apply; that is a
    // failed recovery, not the end of the run.
    let recovered = std::panic::catch_unwind(|| Fleet::recover(&last_snapshot, &wal, setup.cfg));
    let recover_s = t0.elapsed().as_secs_f64();
    match recovered {
        Ok(Ok((rec, report)))
            if report.torn_tail.is_none()
                && report.replayed_events == fleet.wal_record_count()
                && fleet_digest(&rec) == digest =>
        {
            if let Some(t) = trace.as_mut() {
                t.recover_s = recover_s;
                t.recovered_events = report.replayed_events as u64;
            }
        }
        _ => failed += 1,
    }

    let objective = fleet
        .shard_ids()
        .filter_map(|id| fleet.shard(id))
        .flat_map(Runtime::saturating_rates)
        .map(|(_, rate)| rate)
        .sum();
    FleetPass {
        pass_s,
        segment_s,
        segment_reference_s,
        latency_ms,
        events,
        objective,
        digest,
        failed,
        trace,
    }
}

fn submit(
    fleet: &mut Fleet,
    shard: ShardId,
    event: &Event,
    trace: Option<&mut FleetTrace>,
) -> Admission {
    let t0 = Instant::now();
    let admission = fleet.submit(shard, event.clone());
    if let Some(t) = trace {
        t.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    admission
}

fn drive(fleet: &mut Fleet, trace: Option<&mut FleetTrace>) {
    let t0 = Instant::now();
    fleet.drive();
    if let Some(t) = trace {
        t.drive_s += t0.elapsed().as_secs_f64();
        t.drives += 1;
    }
}

/// Every pending event was applied by the drive that just returned.
fn settle(pending: &mut Vec<Instant>, latency_ms: &mut Vec<f64>) {
    let now = Instant::now();
    latency_ms.extend(pending.drain(..).map(|t| (now - t).as_secs_f64() * 1e3));
}

/// Per-event-kind apply latencies of a solo replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayTimes {
    /// `Join` apply times (ms).
    pub join_ms: Vec<f64>,
    /// `Leave` apply times (ms).
    pub leave_ms: Vec<f64>,
    /// `CapacityChange` apply times (ms).
    pub capacity_ms: Vec<f64>,
    /// Digest of every solo runtime's final state, combined in shard order.
    pub digest: u64,
}

/// Feeds each shard's stream to a solo [`Runtime`] and times every
/// `Runtime::apply` by event kind.
#[must_use]
pub fn replay_solo(setup: &FleetSetup) -> ReplayTimes {
    let mut times = ReplayTimes::default();
    let mut digests = Vec::with_capacity(setup.inputs.len());
    for input in &setup.inputs {
        let mut rt = Runtime::new(input.graph.clone(), setup.cfg.runtime);
        for ev in &input.events {
            let t0 = Instant::now();
            rt.apply(ev);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match ev {
                Event::Join(_) => times.join_ms.push(ms),
                Event::Leave(_) => times.leave_ms.push(ms),
                Event::CapacityChange(_) => times.capacity_ms.push(ms),
                Event::Reoptimize => {}
            }
        }
        digests.push(runtime_digest(&rt));
    }
    times.digest = combine(&digests);
    times
}

/// Digest of every shard's final state, combined in shard order.
#[must_use]
fn fleet_digest(fleet: &Fleet) -> u64 {
    let digests: Vec<u64> =
        fleet.shard_ids().filter_map(|id| fleet.shard(id)).map(runtime_digest).collect();
    combine(&digests)
}

/// FNV-1a over a runtime's event count, live sessions, saturating rates,
/// lengths and loads, every float by `to_bits`.
#[must_use]
fn runtime_digest(rt: &Runtime) -> u64 {
    let mut words = vec![rt.events_processed(), rt.live_count() as u64, rt.max_load().to_bits()];
    for (join, rate) in rt.saturating_rates() {
        words.push(join as u64);
        words.push(rate.to_bits());
    }
    words.extend(rt.lengths().iter().map(|x| x.to_bits()));
    words.extend(rt.load().iter().map(|x| x.to_bits()));
    combine(&words)
}

fn combine(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
