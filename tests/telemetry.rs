//! Acceptance: the telemetry contract (DESIGN.md §8).
//!
//! Two properties carry the whole subsystem:
//!
//! 1. **Zero overhead off** — a disabled `TelemetryConfig` allocates no
//!    recorder and the `EngineReport` is bit-identical to a run whose
//!    config never mentioned telemetry; an *enabled* config changes
//!    what is remembered, never what happens, so every non-telemetry
//!    report field stays bit-identical too.
//! 2. **Determinism** — the same run produces byte-identical trace
//!    JSON, Prometheus text and metric snapshots every time, including
//!    under random seeded fault schedules (proptest).
//!
//! Plus the "reports are views" checks: the latency histogram and
//! per-request trace spans must agree with `ServiceReport`, and a
//! sink-carrying service run must cover every lane category
//! (request, device-engine, sink-stage, control).

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use shredder::core::{
    AdmissionControl, ChunkRequest, DedupSink, DedupSinkConfig, EngineOutcome, FaultPlan,
    MemorySource, ShredderConfig, ShredderEngine, SliceSource, TelemetryConfig, Workload,
};
use shredder::des::Dur;
use shredder::telemetry::{validate_chrome_trace, Lane, LaneEngine};
use shredder::workloads;

use proptest::prelude::*;

const GPUS: usize = 3;
const STREAMS: usize = 4;
const STREAM_BYTES: usize = 1 << 20;

/// Same shape as the fault-injection scenarios: devices set the pace,
/// admission keeps them fed.
fn pool_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_buffer_size(256 << 10)
        .with_reader_bandwidth(32e9)
        .with_gpus(GPUS)
        .with_pipeline_depth(4 * GPUS)
}

fn tenant_streams() -> Vec<Vec<u8>> {
    (0..STREAMS)
        .map(|t| workloads::random_bytes(STREAM_BYTES, 0x7e1e + t as u64))
        .collect()
}

fn run_with(streams: &[Vec<u8>], config: ShredderConfig) -> EngineOutcome {
    let mut engine = ShredderEngine::new(config);
    for (t, data) in streams.iter().enumerate() {
        engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
    }
    engine.run(&Workload::Batch).expect("engine run failed")
}

// ----- Zero overhead off -----

#[test]
fn telemetry_off_is_bit_identical_to_no_telemetry_config() {
    let streams = tenant_streams();
    let plain = run_with(&streams, pool_config());
    let off = run_with(
        &streams,
        pool_config().with_telemetry(TelemetryConfig::disabled()),
    );

    // No recorder was allocated on either side…
    assert!(plain.report.telemetry.is_none());
    assert!(off.report.telemetry.is_none());
    // …and the *entire* report — timings, utilization, queue waits,
    // device accounting — matches bit-for-bit, like the empty FaultPlan.
    assert_eq!(plain.sessions, off.sessions);
    assert_eq!(plain.report, off.report);
}

#[test]
fn telemetry_on_leaves_every_other_report_field_bit_identical() {
    let streams = tenant_streams();
    let plain = run_with(&streams, pool_config());
    let on = run_with(
        &streams,
        pool_config().with_telemetry(TelemetryConfig::enabled()),
    );

    // Recording is passive: no event is ever scheduled by the recorder,
    // so the run it observed is the run that would have happened anyway.
    assert_eq!(plain.sessions, on.sessions);
    let mut on_report = on.report.clone();
    let telemetry = on_report
        .telemetry
        .take()
        .expect("telemetry-on run carries a report");
    assert_eq!(plain.report, on_report);

    // And it did observe something.
    assert!(telemetry.spans() > 0, "no spans recorded");
    assert!(!telemetry.metrics.is_empty(), "no metrics recorded");
    assert_eq!(telemetry.dropped, 0, "default capacity evicted records");
}

// ----- Determinism -----

#[test]
fn repeated_runs_emit_byte_identical_exports() {
    let streams = tenant_streams();
    let config = || pool_config().with_telemetry(TelemetryConfig::enabled());
    let a = run_with(&streams, config())
        .report
        .telemetry
        .expect("telemetry-on run carries a report");
    let b = run_with(&streams, config())
        .report
        .telemetry
        .expect("telemetry-on run carries a report");

    // Identical records (ids, ordering, timestamps) and identical bytes
    // out of every export path.
    assert_eq!(a, b);
    assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    assert_eq!(a.prometheus_text(), b.prometheus_text());
    assert_eq!(a.metrics_json(), b.metrics_json());

    // Ids are strictly monotonic in recording order.
    let ids: Vec<u64> = a.records.iter().map(|r| r.id()).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not monotonic");

    // The export is structurally valid Chrome trace JSON and the
    // validator's counts agree with the recorder's.
    let check = validate_chrome_trace(&a.to_chrome_json()).expect("trace must validate");
    assert_eq!(check.spans, a.spans());
    assert_eq!(check.instants, a.instants());
    assert!(check.metadata > 0, "no track-naming metadata");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeded fault schedules — deaths and stragglers at random
    /// instants — replay to byte-identical traces, and the trace's
    /// fault instants agree with the `FaultReport` counters.
    #[test]
    fn random_fault_schedules_trace_deterministically(seed in 0u64..256) {
        let streams: Vec<Vec<u8>> = (0..3)
            .map(|t| workloads::random_bytes(STREAM_BYTES, 0x9e37 + t as u64))
            .collect();
        let base = run_with(&streams, pool_config());
        let plan = FaultPlan::random(seed, GPUS, base.report.makespan);
        prop_assert!(!plan.is_empty());

        let config = || {
            pool_config()
                .with_faults(plan.clone())
                .with_telemetry(TelemetryConfig::enabled())
        };
        let a = run_with(&streams, config());
        let b = run_with(&streams, config());
        let ta = a.report.telemetry.clone().expect("telemetry-on run carries a report");
        let tb = b.report.telemetry.clone().expect("telemetry-on run carries a report");
        prop_assert_eq!(&ta, &tb);
        prop_assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
        prop_assert!(validate_chrome_trace(&ta.to_chrome_json()).is_ok());

        // Control-lane instants mirror the fault report exactly.
        let count = |name: &str| ta.records.iter().filter(|r| r.name() == name).count();
        let faults = &a.report.faults;
        prop_assert_eq!(count("device-death"), faults.device_deaths);
        prop_assert_eq!(count("straggler"), faults.stragglers);
        prop_assert_eq!(count("requeue"), faults.requeued_buffers);
        prop_assert_eq!(
            ta.metrics.counter("shredder_faults_requeued_buffers") as usize,
            faults.requeued_buffers
        );
    }
}

// ----- Reports are views: lane coverage and histogram agreement -----

const REQUESTS: usize = 12;
const REQ_BYTES: usize = 512 << 10;

fn service_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_buffer_size(256 << 10)
        .with_reader_bandwidth(32e9)
        .with_gpus(2)
        .with_pipeline_depth(8)
        .with_telemetry(TelemetryConfig::enabled())
}

#[test]
fn trace_covers_request_device_stage_and_control_lanes() {
    // A sink-carrying service run with a straggler injected at t=0:
    // every lane category the exporter maps to a Perfetto track must
    // show up — request lifecycle, all three device engines, each sink
    // stage, and the control plane.
    let index: Rc<RefCell<HashSet<_>>> = Rc::default();
    let sink_config = DedupSinkConfig {
        hash_bw: 1.5e9,
        index_lookup: Dur::from_micros(7),
        index_insert: Dur::from_micros(10),
        ship_bw: 0.9e9,
        pointer_bytes: 40,
        ship_chunk_overhead: Dur::from_micros(2),
    };
    let mut engine = ShredderEngine::new(service_config().with_faults(FaultPlan::new().straggler(
        Dur::ZERO,
        0,
        3.0,
    )))
    .with_admission(AdmissionControl::fifo(4));
    for t in 0..REQUESTS as u64 {
        engine.submit(
            ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t))
                .with_sink(DedupSink::new(sink_config, index.clone())),
        );
    }
    let out = engine.run(&Workload::Batch).expect("engine run failed");
    let telemetry = out
        .report
        .telemetry
        .as_ref()
        .expect("telemetry-on run carries a report");

    assert!(
        telemetry
            .records
            .iter()
            .any(|r| matches!(r.lane(), Lane::Request { .. }) && r.name() == "request"),
        "no request spans"
    );
    for engine in [LaneEngine::H2d, LaneEngine::Kernel, LaneEngine::D2h] {
        assert!(
            telemetry
                .records
                .iter()
                .any(|r| matches!(r.lane(), Lane::Device { engine: e, .. } if *e == engine)),
            "no device-lane records for {}",
            engine.label()
        );
    }
    let stage_lanes: HashSet<&str> = telemetry
        .records
        .iter()
        .filter_map(|r| match r.lane() {
            Lane::Stage { name } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for stage in ["fingerprint", "dedup", "ship"] {
        assert!(stage_lanes.contains(stage), "no {stage} stage lane");
        assert!(
            telemetry
                .metrics
                .histogram(&format!("shredder_stage_wait_ns:{stage}"))
                .is_some(),
            "no {stage} wait histogram"
        );
    }
    assert!(
        telemetry
            .records
            .iter()
            .any(|r| matches!(r.lane(), Lane::Control) && r.name() == "straggler"),
        "no control-lane straggler instant"
    );
    assert_eq!(telemetry.metrics.counter("shredder_faults_stragglers"), 1);
    for device in 0..2 {
        let name = format!("shredder_device_utilization:{device}");
        let util = telemetry.metrics.gauge(&name).expect("utilization gauge");
        assert!((0.0..=1.0).contains(&util), "{name} = {util}");
    }

    let check = validate_chrome_trace(&telemetry.to_chrome_json()).expect("trace must validate");
    assert_eq!(check.spans, telemetry.spans());
    assert_eq!(check.instants, telemetry.instants());
}

#[test]
fn latency_histogram_agrees_with_service_report_percentiles() {
    let mut engine =
        ShredderEngine::new(service_config()).with_admission(AdmissionControl::fifo(4));
    for t in 0..REQUESTS as u64 {
        engine.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
    }
    let out = engine.run(&Workload::Batch).expect("engine run failed");
    let svc = &out.report.service;
    let telemetry = out
        .report
        .telemetry
        .as_ref()
        .expect("telemetry-on run carries a report");

    // Counters are exact.
    assert_eq!(
        telemetry.metrics.counter("shredder_requests_total") as usize,
        svc.requests.len()
    );
    assert_eq!(
        telemetry.metrics.counter("shredder_requests_completed") as usize,
        svc.completed
    );
    assert_eq!(
        telemetry.metrics.counter("shredder_requests_shed") as usize,
        svc.shed
    );

    // Per-request trace spans reproduce the report's latencies exactly.
    let from_trace = telemetry.request_latencies();
    assert_eq!(from_trace.len(), svc.completed);
    for (id, latency) in &from_trace {
        let row = &svc.requests[*id as usize];
        assert_eq!(Some(*latency), row.latency(), "request {id}");
    }

    // The log-bucketed histogram agrees with the sort-the-Vec
    // nearest-rank percentiles within its bucket resolution (~4%
    // relative error; min/max ranks are exact).
    let hist = telemetry
        .metrics
        .histogram("shredder_request_latency_ns")
        .expect("latency histogram");
    assert_eq!(hist.count() as usize, svc.completed);
    for (q, exact) in [(0.50, svc.p50()), (0.99, svc.p99())] {
        let approx = hist.quantile(q).expect("quantile of non-empty histogram") as f64;
        let exact = exact.as_nanos() as f64;
        assert!(
            (approx - exact).abs() <= 0.05 * exact.max(1.0),
            "q{q}: histogram {approx} vs report {exact}"
        );
    }
}
