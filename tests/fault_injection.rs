//! Acceptance: deterministic fault injection and integrity scenarios.
//!
//! The failure-model contract (DESIGN.md §7) in executable form. The
//! load-bearing property everywhere: faults are *timing-level* events,
//! and chunk identity is computed in the functional pass before the
//! timing simulation runs — so no fault schedule may ever change a
//! surviving session's chunks or digests. The scenarios:
//!
//! 1. GPU device death mid-buffer: in-flight work requeues to survivors,
//!    every session still completes bit-identically.
//! 2. Straggler device: `LeastLoaded` placement provably routes load
//!    around the slow device, again without touching chunk identity.
//! 3. Segment-log bit-flips: caught by the digest-verified `scrub` pass
//!    as a typed `StoreError::ScrubFailed`.
//! 4. Torn final log write: `recover()` truncates to the durable prefix
//!    and re-shipped chunks restore bit-identically.
//! 5. Brownout: `capacity_search` over a degraded pool finds a lower
//!    sustained rate, with shedding and p99 still gated by the SLO.
//!
//! 6. Node death in a sharded fleet: requests in flight on the dead
//!    node are reported lost, every surviving request's chunks stay
//!    bit-identical, bounded admission sheds are reported, and the
//!    node's segments repair from `R = 2` replicas when it rejoins.
//!
//! Plus the regression pinning the zero-overhead rule: an *empty*
//! `FaultPlan` is bit-identical — chunks, digests, and timings — to a
//! run with no fault config at all.

use shredder::core::{
    capacity_search, AdmissionControl, ChunkRequest, EngineOutcome, FaultPlan, MemorySource,
    ShredderConfig, ShredderEngine, SliceSource, TelemetryConfig, Workload,
};
use shredder::des::Dur;
use shredder::hash::{sha256, Digest};
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::store::{ChunkStore, StoreError};
use shredder::telemetry::Json;
use shredder::workloads;

use proptest::prelude::*;

const GPUS: usize = 3;
const STREAMS: usize = 6;
const STREAM_BYTES: usize = 2 << 20;

/// A pool provisioned so the devices — not the SAN reader — set the
/// pace, with enough admission slots to keep every device fed.
fn pool_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_buffer_size(256 << 10)
        .with_reader_bandwidth(32e9)
        .with_gpus(GPUS)
        .with_pipeline_depth(4 * GPUS)
}

fn tenant_streams() -> Vec<Vec<u8>> {
    (0..STREAMS)
        .map(|t| workloads::random_bytes(STREAM_BYTES, 0xfa17 + t as u64))
        .collect()
}

fn run_with(streams: &[Vec<u8>], config: ShredderConfig) -> EngineOutcome {
    let mut engine = ShredderEngine::new(config);
    for (t, data) in streams.iter().enumerate() {
        engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
    }
    engine.run(&Workload::Batch).expect("engine run failed")
}

fn digests_of(outcome: &EngineOutcome, streams: &[Vec<u8>]) -> Vec<Vec<Digest>> {
    outcome
        .completed()
        .zip(streams)
        .map(|(s, data)| s.chunks.iter().map(|c| sha256(c.slice(data))).collect())
        .collect()
}

/// Asserts the fault-injected run's sessions are bit-identical to the
/// fault-free baseline: same chunk boundaries, same digests, and both
/// equal to a sequential CPU scan of each stream alone.
fn assert_sessions_identical(base: &EngineOutcome, faulted: &EngineOutcome, streams: &[Vec<u8>]) {
    let params = ChunkParams::paper();
    assert_eq!(faulted.completed().count(), streams.len());
    for ((a, b), data) in base.completed().zip(faulted.completed()).zip(streams) {
        assert_eq!(a.chunks, b.chunks, "{} diverged under faults", a.name);
        assert_eq!(b.chunks, chunk_all(data, &params), "{}", b.name);
    }
    assert_eq!(digests_of(base, streams), digests_of(faulted, streams));
}

// ----- Scenario 1: device death mid-buffer -----

#[test]
fn device_death_mid_run_requeues_and_keeps_chunks_bit_identical() {
    let streams = tenant_streams();
    let base = run_with(&streams, pool_config());
    assert_eq!(base.report.faults, Default::default());

    // Kill device 1 a third of the way through the fault-free makespan:
    // buffers are in flight, sessions are mid-stream.
    let at = Dur::from_secs_f64(base.report.makespan.as_secs_f64() / 3.0);
    let plan = FaultPlan::new().device_death(at, 1);
    let faulted = run_with(&streams, pool_config().with_faults(plan));

    assert_sessions_identical(&base, &faulted, &streams);

    let faults = &faulted.report.faults;
    assert_eq!(faults.injected, 1);
    assert_eq!(faults.device_deaths, 1);
    assert_eq!(faults.dead_devices, vec![1]);
    assert!(
        faults.replaced_sessions > 0,
        "mid-run death re-placed no sessions: {faults:?}"
    );
    assert!(
        faults.requeued_buffers > 0,
        "mid-run death caught no buffers in flight: {faults:?}"
    );
    // Losing a device costs throughput, never correctness.
    assert!(faulted.report.makespan >= base.report.makespan);

    // Deterministic: the identical fault schedule replays identically.
    let again = run_with(
        &streams,
        pool_config().with_faults(FaultPlan::new().device_death(at, 1)),
    );
    assert_eq!(faulted.report, again.report);
    assert_eq!(faulted.sessions, again.sessions);
}

// ----- Scenario 2: straggler device -----

#[test]
fn least_loaded_placement_routes_around_a_straggler() {
    let streams = tenant_streams();
    let base = run_with(&streams, pool_config());

    // Device 0 runs kernels 4x slow from t=0; LeastLoaded placement
    // weighs load by the slowdown factor, so the straggler should carry
    // measurably fewer bytes than each healthy device.
    let plan = FaultPlan::new().straggler(Dur::ZERO, 0, 4.0);
    let faulted = run_with(&streams, pool_config().with_faults(plan));

    assert_sessions_identical(&base, &faulted, &streams);

    let faults = &faulted.report.faults;
    assert_eq!(faults.stragglers, 1);
    assert_eq!(faults.slowdowns, vec![(0, 4.0)]);
    assert!(faults.dead_devices.is_empty());

    let bytes: Vec<u64> = faulted.report.devices.iter().map(|d| d.bytes).collect();
    for (d, &b) in bytes.iter().enumerate().skip(1) {
        assert!(
            bytes[0] < b,
            "straggler device 0 ({} bytes) not routed around vs device {d} ({b} bytes)",
            bytes[0]
        );
    }
}

// ----- Scenario 3: segment-log corruption caught by scrub -----

#[test]
fn scrub_catches_bit_flips_in_chunked_stream() {
    let data = workloads::random_bytes(1 << 20, 0xc0de);
    let chunks = chunk_all(&data, &ChunkParams::paper());
    let mut store = ChunkStore::new();
    let digests: Vec<Digest> = chunks
        .iter()
        .map(|c| store.put(c.slice(&data).to_vec().into()))
        .collect();
    assert!(digests.len() > 3, "stream produced too few chunks to test");

    // A clean store scrubs clean, and the pass is deterministic.
    let clean = store.scrub().expect("clean store must scrub clean");
    assert_eq!(clean.chunks_scanned, store.chunk_count());
    assert_eq!(store.scrub().unwrap(), clean);

    // Flip one bit in the middle chunk: scrub returns the typed error
    // naming exactly that digest.
    let victim = digests[digests.len() / 2];
    assert!(store.corrupt_chunk(&victim, 9));
    match store.scrub() {
        Err(StoreError::ScrubFailed(r)) => {
            assert_eq!(r.corrupt, vec![victim]);
            assert_eq!(r.chunks_scanned, clean.chunks_scanned);
        }
        other => panic!("expected ScrubFailed, got {other:?}"),
    }
}

// ----- Scenario 4: crash-consistent recovery of a torn log tail -----

#[test]
fn torn_log_tail_recovers_and_reshipped_chunks_restore_bit_identically() {
    let data = workloads::random_bytes(1 << 20, 0x7012);
    let chunks = chunk_all(&data, &ChunkParams::paper());
    let mut store = ChunkStore::new();
    let mut recipe = Vec::new();
    for c in &chunks {
        let payload = c.slice(&data);
        recipe.push((store.put(payload.to_vec().into()), payload.len()));
    }
    let gen = store.commit_snapshot("vm", &recipe).unwrap();
    assert_eq!(store.restore("vm", gen).unwrap(), data);

    // Crash: the final segment write tears mid-chunk.
    let torn = store.tear_log_tail(10_000);
    assert!(torn > 0);

    // Reopen: recovery truncates to the durable prefix…
    let rec = store.recover();
    assert!(
        !rec.dropped_digests.is_empty(),
        "tearing 10kB dropped nothing: {rec:?}"
    );
    assert_eq!(rec.chunks_checked, recipe.len());
    // …after which the store is internally consistent again…
    store.scrub().expect("recovered store must scrub clean");
    // …and re-shipping the lost chunks (content-addressed, so the
    // re-put lands on the same digests) restores bit-identically.
    for c in &chunks {
        store.put(c.slice(&data).to_vec().into());
    }
    assert_eq!(store.restore("vm", gen).unwrap(), data);
}

// ----- Scenario 5: brownout capacity under a degraded pool -----

const REQUESTS: usize = 16;
const REQ_BYTES: usize = 1 << 20;

fn service_run(
    faults: FaultPlan,
    workload: &Workload,
) -> Result<shredder::core::ServiceReport, shredder::core::ChunkError> {
    // A fast SAN fabric and kernel-heavy requests so the device pool —
    // the thing the brownout degrades — sets the service's capacity.
    let cfg = ShredderConfig::gpu_streams_memory()
        .with_buffer_size(256 << 10)
        .with_reader_bandwidth(32e9)
        .with_gpus(2)
        .with_pipeline_depth(8)
        .with_faults(faults);
    let mut engine = ShredderEngine::new(cfg)
        .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(Dur::from_millis(1)));
    for t in 0..REQUESTS as u64 {
        engine.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
    }
    Ok(engine.run(workload)?.report.service)
}

#[test]
fn brownout_capacity_search_finds_lower_sustained_rate_with_p99_gated() {
    let mu = service_run(FaultPlan::new(), &Workload::Batch)
        .unwrap()
        .achieved_rps;
    let slo = Dur::from_millis(2);

    let search = |faults: fn() -> FaultPlan| {
        capacity_search(slo, 0.05 * mu, 2.0 * mu, 6, |rate| {
            service_run(faults(), &Workload::poisson(rate, 4242))
        })
        .expect("capacity search failed")
    };

    let healthy = search(FaultPlan::new);
    // Brownout: one of the two devices is dead from t=0.
    let degraded = search(|| FaultPlan::new().device_death(Dur::ZERO, 1));

    assert!(healthy.sustained_rps > 0.0, "healthy: {healthy:?}");
    assert!(degraded.sustained_rps > 0.0, "degraded: {degraded:?}");
    assert!(
        degraded.sustained_rps < healthy.sustained_rps,
        "losing half the pool must cost capacity: degraded {} !< healthy {}",
        degraded.sustained_rps,
        healthy.sustained_rps
    );
    // The sustained operating points still meet the latency SLO.
    for report in [&healthy, &degraded] {
        let p99 = report.p99_at_sustained.expect("passing trial records p99");
        assert!(p99 <= slo, "{p99} > {slo}");
    }
    // And the brownout pool genuinely sheds under a burst well past the
    // healthy pool's pace.
    let overloaded = service_run(
        FaultPlan::new().device_death(Dur::ZERO, 1),
        &Workload::poisson(4.0 * mu, 4242),
    )
    .unwrap();
    assert!(
        overloaded.shed > 0,
        "degraded pool at 4x healthy capacity never shed"
    );
    assert_eq!(overloaded.completed + overloaded.shed, REQUESTS);
}

// ----- Scenario 6: node death in a sharded fleet -----

use shredder::cluster::{FleetConfig, FleetOutcome, FleetRequest, MembershipPlan, ShredderFleet};

const FLEET_STREAMS: usize = 20;
const FLEET_STREAM_BYTES: usize = 256 << 10;

fn fleet_streams() -> Vec<Vec<u8>> {
    (0..FLEET_STREAMS)
        .map(|t| workloads::random_bytes(FLEET_STREAM_BYTES, 0xf1ee7 + t as u64))
        .collect()
}

/// A two-node fleet with serialized per-node pipelines and a bounded
/// admission queue, so a batch overloads each node deterministically
/// (sheds) and a mid-backlog death catches requests in flight (losses).
fn fleet_config() -> FleetConfig {
    FleetConfig::new(
        2,
        ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10),
    )
    .with_admission(AdmissionControl::fifo(1).with_queue_depth(6))
    .with_replication(2)
}

fn run_fleet(streams: &[Vec<u8>], config: FleetConfig) -> FleetOutcome {
    let mut fleet = ShredderFleet::new(config);
    for (t, data) in streams.iter().enumerate() {
        fleet.submit(
            FleetRequest::new(format!("tenant-{t}"), SliceSource::new(data))
                .named(format!("tenant-{t}")),
        );
    }
    fleet.run(&Workload::Batch).expect("fleet run failed")
}

#[test]
fn fleet_node_death_sheds_loses_in_flight_and_repairs_on_rejoin() {
    let streams = fleet_streams();
    let base = run_fleet(&streams, fleet_config());
    assert!(
        base.report.shed > 0,
        "bounded admission never shed under the batch: {:?}",
        base.report
    );
    assert_eq!(base.report.lost, 0);
    assert_eq!(
        base.report.completed + base.report.shed,
        FLEET_STREAMS,
        "fault-free fleet neither completes nor sheds some request"
    );

    // Kill node 0 a third of the way through its backlog, rejoin it
    // after everything else has drained.
    let full = base.report.makespan;
    let death_at = Dur::from_nanos(full.as_nanos() / 3);
    let rejoin_at = Dur::from_nanos(full.as_nanos() * 2);
    let faulted = run_fleet(
        &streams,
        fleet_config()
            .with_faults(FaultPlan::new().device_death(death_at, 0))
            .with_membership(MembershipPlan::new().join(rejoin_at, 0)),
    );
    let report = &faulted.report;

    // The death converts part of node 0's backlog into reported
    // losses; batch arrivals mean the shed set cannot change.
    assert!(
        report.lost > 0,
        "mid-backlog death caught nothing in flight"
    );
    assert_eq!(
        report.shed, base.report.shed,
        "sheds are pre-death admission decisions"
    );
    assert_eq!(report.completed + report.shed + report.lost, FLEET_STREAMS);
    assert_eq!(
        report.node(0).unwrap().lost,
        report.lost,
        "only the dead node loses"
    );

    // Surviving requests — on both nodes — are bit-identical to the
    // fault-free run, digests included.
    let mut survivors = 0;
    for ((faulted_req, base_req), data) in faulted.requests.iter().zip(&base.requests).zip(&streams)
    {
        if let Some(session) = faulted_req.outcome.completed() {
            let base_session = base_req
                .outcome
                .completed()
                .expect("faulted completion implies baseline completion under batch arrivals");
            assert_eq!(
                session, base_session,
                "{} diverged under the death",
                faulted_req.name
            );
            let d1: Vec<Digest> = session
                .chunks
                .iter()
                .map(|c| sha256(c.slice(data)))
                .collect();
            let d2: Vec<Digest> = base_session
                .chunks
                .iter()
                .map(|c| sha256(c.slice(data)))
                .collect();
            assert_eq!(d1, d2);
            survivors += 1;
        }
    }
    assert_eq!(survivors, report.completed);

    // On rejoin, replicas repair the dead node's segments: every
    // generation the fleet still holds lands back on node 0's fresh
    // store and restores digest-verified.
    assert_eq!(report.repair.events, 1);
    assert!(
        report.repair.snapshots_installed > 0,
        "rejoin repaired nothing: {:?}",
        report.repair
    );
    let repaired = faulted.store(0).expect("node 0 exists");
    let repaired = repaired.borrow();
    repaired.scrub().expect("repaired store must scrub clean");
    let mut restored = 0;
    for (req, data) in faulted.requests.iter().zip(&streams) {
        for generation in repaired.generations(&req.store_stream) {
            let bytes = repaired
                .restore(&req.store_stream, generation)
                .expect("repaired generation failed digest-verified restore");
            assert_eq!(
                sha256(&bytes),
                sha256(data),
                "{} corrupt after repair",
                req.store_stream
            );
            restored += 1;
        }
    }
    assert!(restored > 0, "node 0 holds nothing after repair");

    // Determinism: the same death/rejoin schedule replays identically.
    let again = run_fleet(
        &streams,
        fleet_config()
            .with_faults(FaultPlan::new().device_death(death_at, 0))
            .with_membership(MembershipPlan::new().join(rejoin_at, 0)),
    );
    assert_eq!(again.report, faulted.report);
}

/// Dumps the fleet node-death scenario's headline numbers as JSON to
/// the path named by `SHREDDER_FLEET_JSON` (no-op when unset). The CI
/// fault-matrix job uploads the dump next to the per-seed device-level
/// fault reports, so every run leaves an auditable record of the
/// cluster failure model: losses, sheds, repair traffic, replication
/// amplification.
#[test]
fn fleet_fault_matrix_dump() {
    if std::env::var("SHREDDER_FLEET_JSON").map_or(true, |p| p.is_empty()) {
        return;
    }
    let streams = fleet_streams();
    let base = run_fleet(&streams, fleet_config());
    let full = base.report.makespan;
    let faulted = run_fleet(
        &streams,
        fleet_config()
            .with_faults(FaultPlan::new().device_death(Dur::from_nanos(full.as_nanos() / 3), 0))
            .with_membership(MembershipPlan::new().join(Dur::from_nanos(full.as_nanos() * 2), 0)),
    );
    let r = &faulted.report;
    let json = Json::object()
        .field("nodes", 2u64)
        .field("replication", r.replication.factor)
        .field("completed", r.completed)
        .field("shed", r.shed)
        .field("lost", r.lost)
        .field("repair_snapshots", r.repair.snapshots_installed)
        .field("repair_bytes", r.repair.bytes_copied)
        .field("replication_logical_bytes", r.replication.logical_bytes)
        .field("replication_physical_bytes", r.replication.physical_bytes)
        .field("replication_amplification", r.replication_amplification())
        .field("rebalance_bytes", r.rebalance.bytes_moved)
        .field("makespan_ms", r.makespan.as_millis_f64())
        .field("baseline_makespan_ms", base.report.makespan.as_millis_f64());
    if let Some(path) = shredder::telemetry::dump_json("SHREDDER_FLEET_JSON", &json) {
        println!("fleet fault report written to {path}");
    }
}

// ----- Regression: the empty plan is the zero-overhead no-op -----

#[test]
fn empty_fault_plan_is_bit_identical_to_no_fault_config() {
    let streams = tenant_streams();
    let plain = run_with(&streams, pool_config());
    let empty = run_with(&streams, pool_config().with_faults(FaultPlan::new()));

    // Not just the chunks: the *entire* report — timings, utilization,
    // queue waits, device accounting — must match bit-for-bit.
    assert_eq!(plain.sessions, empty.sessions);
    assert_eq!(plain.report, empty.report);
    assert_eq!(empty.report.faults, Default::default());
}

// ----- Property: no fault schedule changes surviving sessions -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random seeded fault schedules — deaths and stragglers at random
    /// instants — never change any surviving session's chunks or
    /// digests. (`FaultPlan::random` never kills the last device, and
    /// death requeues rather than kills, so *every* session survives.)
    #[test]
    fn random_fault_schedules_never_change_surviving_sessions(seed in 0u64..1024) {
        let streams: Vec<Vec<u8>> = (0..3)
            .map(|t| workloads::random_bytes(1 << 20, 0x9e37 + t as u64))
            .collect();
        let base = run_with(&streams, pool_config());
        let horizon = base.report.makespan;
        let plan = FaultPlan::random(seed, GPUS, horizon);
        prop_assert!(!plan.is_empty());

        let faulted = run_with(&streams, pool_config().with_faults(plan.clone()));
        prop_assert_eq!(faulted.completed().count(), streams.len());
        for ((a, b), data) in base.completed().zip(faulted.completed()).zip(&streams) {
            prop_assert_eq!(&a.chunks, &b.chunks, "{} diverged under {:?}", a.name, plan);
            let d1: Vec<Digest> = a.chunks.iter().map(|c| sha256(c.slice(data))).collect();
            let d2: Vec<Digest> = b.chunks.iter().map(|c| sha256(c.slice(data))).collect();
            prop_assert_eq!(d1, d2);
        }
        prop_assert_eq!(faulted.report.faults.injected, plan.len());
    }
}

// ----- CI fault-matrix artifact -----

/// Runs one seeded fault schedule end to end and dumps the fault report
/// as JSON to the path named by `SHREDDER_FAULT_JSON` (no-op when
/// unset). `SHREDDER_FAULT_SEED` selects the schedule; the CI
/// fault-matrix job runs this under several seeds and uploads the
/// dumps as artifacts. When `SHREDDER_TRACE_JSON` also names a path,
/// the same schedule reruns with telemetry on and its Chrome trace is
/// dumped there too.
#[test]
fn fault_matrix_report_dump() {
    let seed: u64 = std::env::var("SHREDDER_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let streams = tenant_streams();
    let base = run_with(&streams, pool_config());
    let plan = FaultPlan::random(seed, GPUS, base.report.makespan);
    let faulted = run_with(&streams, pool_config().with_faults(plan.clone()));
    assert_sessions_identical(&base, &faulted, &streams);

    let f = &faulted.report.faults;
    let slowdowns = f.slowdowns.iter().map(|&(device, slowdown)| {
        Json::object()
            .field("device", device)
            .field("slowdown", slowdown)
    });
    let json = Json::object()
        .field("seed", seed)
        .field("injected", f.injected)
        .field("device_deaths", f.device_deaths)
        .field("deaths_skipped", f.deaths_skipped)
        .field("stragglers", f.stragglers)
        .field("requeued_buffers", f.requeued_buffers)
        .field("replaced_sessions", f.replaced_sessions)
        .field(
            "dead_devices",
            f.dead_devices.iter().copied().collect::<Json>(),
        )
        .field("slowdowns", slowdowns.collect::<Json>())
        .field("makespan_ms", faulted.report.makespan.as_millis_f64())
        .field("baseline_makespan_ms", base.report.makespan.as_millis_f64())
        .field("sessions_bit_identical", true);
    if let Some(path) = shredder::telemetry::dump_json("SHREDDER_FAULT_JSON", &json) {
        println!("fault report written to {path}");
    }

    if std::env::var("SHREDDER_TRACE_JSON").is_ok_and(|p| !p.is_empty()) {
        let traced = run_with(
            &streams,
            pool_config()
                .with_faults(plan)
                .with_telemetry(TelemetryConfig::enabled()),
        );
        let telemetry = traced
            .report
            .telemetry
            .expect("telemetry-on run carries a report");
        if let Some(path) =
            shredder::telemetry::dump_json("SHREDDER_TRACE_JSON", telemetry.to_chrome_json())
        {
            println!("chrome trace written to {path}");
        }
    }
}
