//! Equivalence pins for the one multi-session engine.
//!
//! The closed batch and the admission-controlled request path are one
//! `ShredderEngine::run`. These tests pin both to the numbers the two
//! separate front doors produced before they were merged: every digest
//! below is the SHA-256 of the `Debug` rendering of the pinned values,
//! recorded from the earlier two-type implementation with the same
//! inputs. A change that moves any chunk, timing, placement, latency or
//! shed decision on these runs changes a digest.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use shredder::core::{
    AdmissionControl, AdmissionPolicy, ChunkRequest, DedupSink, DedupSinkConfig, EngineReport,
    ShredderConfig, ShredderEngine, SliceSource, TenantClass, Workload,
};
use shredder::des::Dur;
use shredder::hash::{sha256, Digest};
use shredder::workloads::random_bytes;

/// The GPU executor on a 2-device pool, and the host executor of the
/// pthreads baseline (one device).
fn executors() -> [ShredderConfig; 2] {
    [
        ShredderConfig::gpu_streams_memory()
            .with_gpus(2)
            .with_buffer_size(64 << 10),
        ShredderConfig::cpu_pthreads().with_buffer_size(64 << 10),
    ]
}

fn dedup_sink(index: &Rc<RefCell<HashSet<Digest>>>) -> DedupSink {
    DedupSink::new(
        DedupSinkConfig {
            hash_bw: 1.5e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            ship_bw: 0.9e9,
            pointer_bytes: 40,
            ship_chunk_overhead: Dur::from_micros(2),
        },
        index.clone(),
    )
}

fn digest_of(text: &str) -> String {
    sha256(text.as_bytes()).to_hex()
}

/// Every report field but the request-level `service` report, which
/// the closed-batch front door did not produce.
fn report_without_service(report: &EngineReport) -> String {
    let EngineReport {
        sessions,
        bytes,
        buffers,
        pipeline_depth,
        makespan,
        stage_busy,
        devices,
        sink_stages,
        queue_wait,
        ring_setup,
        service: _,
        faults,
        telemetry,
    } = report;
    format!(
        "{sessions:?}|{bytes:?}|{buffers:?}|{pipeline_depth:?}|{makespan:?}|{stage_busy:?}|\
         {devices:?}|{sink_stages:?}|{queue_wait:?}|{ring_setup:?}|{faults:?}|{telemetry:?}"
    )
}

/// `(chunks, report without service, dedup verdicts)` per executor.
const MIXED_GOLDEN: [[&str; 3]; 2] = [
    [
        "45275d86ef3e435543e907dbe6ee15cbc5392f1110ef389018082f26d2c70f20",
        "4396f4519109102bdfb61f1ec13706d7e12623014b4027d9d138870b6f1ee535",
        "71832f3d41d0929f3cc05ec0a234142a84506cc2133d778b623f5e83bb54bed8",
    ],
    [
        "45275d86ef3e435543e907dbe6ee15cbc5392f1110ef389018082f26d2c70f20",
        "0fda3c9531c52f5b83ce977976a5e078d0798304011efe2fcebcb6b0943beaf1",
        "71832f3d41d0929f3cc05ec0a234142a84506cc2133d778b623f5e83bb54bed8",
    ],
];

/// A pinned session, a weight-3 session, a `DedupSink` session and a
/// plain stream, under weighted buffer admission.
#[test]
fn mixed_batch_run_equals_unbounded_admission_run() {
    let streams: Vec<Vec<u8>> = (0..4u64).map(|s| random_bytes(384 << 10, 90 + s)).collect();
    for (cfg, golden) in executors().into_iter().zip(MIXED_GOLDEN) {
        let last = cfg.gpus - 1;
        let run = |control: Option<AdmissionControl>| {
            let index = Rc::new(RefCell::new(HashSet::new()));
            let mut sink = dedup_sink(&index);
            let mut engine =
                ShredderEngine::new(cfg.clone()).with_policy(AdmissionPolicy::Weighted);
            if let Some(control) = control {
                engine = engine.with_admission(control);
            }
            engine.submit(ChunkRequest::new(SliceSource::new(&streams[0])).named("plain"));
            engine.submit(
                ChunkRequest::new(SliceSource::new(&streams[1]))
                    .named("pinned")
                    .pinned(last),
            );
            engine.submit(
                ChunkRequest::new(SliceSource::new(&streams[2]))
                    .named("heavy")
                    .with_weight(3),
            );
            engine.submit(
                ChunkRequest::new(SliceSource::new(&streams[3]))
                    .named("dedup")
                    .with_sink(&mut sink),
            );
            let out = engine.run(&Workload::Batch).unwrap();
            drop(engine);
            (out, sink.into_verdicts())
        };
        let (default_out, default_verdicts) = run(None);
        let (unbounded_out, unbounded_verdicts) = run(Some(AdmissionControl::unbounded()));

        // The default admission is unbounded: the whole outcome agrees,
        // service report included.
        assert_eq!(default_out, unbounded_out);
        assert_eq!(default_verdicts, unbounded_verdicts);
        assert_eq!(default_out.report.sessions[1].device, last);
        assert_eq!(default_out.completed().count(), 4);
        assert!(!default_verdicts.is_empty());

        // And it reproduces the former closed-batch engine run exactly.
        let completed: Vec<_> = default_out.completed().collect();
        assert_eq!(
            [
                digest_of(&format!("{completed:?}")),
                digest_of(&report_without_service(&default_out.report)),
                digest_of(&format!("{default_verdicts:?}")),
            ],
            golden.map(String::from),
            "{:?} diverged from the closed-batch engine",
            cfg.executor
        );
    }
}

/// `(report without service, service report, outcomes, dedup verdicts)`
/// per executor.
const POISSON_GOLDEN: [[&str; 4]; 2] = [
    [
        "ad481e85aad65eef1e18217ba167af1627ef212b037b762b95a7df2250869b3f",
        "6d13e3ea21ac0bb863d0c3a857e66fe9c9350a56324566f750af105cf26c88e6",
        "b052f4128d6400997f5c97d073ec55dc383be1fe15873fddc2d2583bde269d39",
        "53e8a5a6a76c671ddc3a4afbcea4837340a938f1e76882df62268d5167c71b94",
    ],
    [
        "cb6608d46a0f4fb047b9ce2056ee452d5daf25bde06c81bee2fb2bd6982a30a1",
        "9d067c8fdce0da488e4bf34003da7c546935bd270ebf80a2bbd27addf731ddcf",
        "c3ceabe9344805a95dfdbbc8710f50f128ffc9f174d5a2ad28d76dea061362aa",
        "53e8a5a6a76c671ddc3a4afbcea4837340a938f1e76882df62268d5167c71b94",
    ],
];

/// Open-loop Poisson arrivals of two tenant classes through two FIFO
/// slots with a queue-delay bound: some requests shed.
#[test]
fn shedding_poisson_run_with_two_classes_is_unchanged() {
    let streams: Vec<Vec<u8>> = (0..16u64)
        .map(|s| random_bytes(192 << 10, 300 + s))
        .collect();
    for (cfg, golden) in executors().into_iter().zip(POISSON_GOLDEN) {
        let index = Rc::new(RefCell::new(HashSet::new()));
        let mut sink = dedup_sink(&index);
        let mut sink_slot = Some(&mut sink);
        let mut engine = ShredderEngine::new(cfg.clone())
            .with_admission(
                AdmissionControl::fifo(2)
                    .with_policy(AdmissionPolicy::Weighted)
                    .with_max_queue_delay(Dur::from_micros(400)),
            )
            .with_policy(AdmissionPolicy::Weighted);
        engine.define_class(TenantClass::new("gold").with_weight(3));
        engine.define_class(TenantClass::new("bronze"));
        for (i, s) in streams.iter().enumerate() {
            let class = if i % 3 == 0 { "gold" } else { "bronze" };
            let request = ChunkRequest::new(SliceSource::new(s))
                .named(format!("{class}-{i}"))
                .with_class(class);
            engine.submit(match sink_slot.take_if(|_| i == 1) {
                Some(sink) => request.with_sink(sink),
                None => request,
            });
        }
        let out = engine.run(&Workload::poisson(6_000.0, 17)).unwrap();
        drop(engine);
        let svc = &out.report.service;
        assert!(svc.shed > 0, "{:?} shed nothing", cfg.executor);
        assert!(svc.completed > 0);
        assert_eq!(svc.completed + svc.shed, streams.len());
        assert_eq!(
            [
                digest_of(&report_without_service(&out.report)),
                digest_of(&format!("{svc:?}")),
                digest_of(&format!("{:?}", out.sessions)),
                digest_of(&format!("{:?}", sink.verdicts())),
            ],
            golden.map(String::from),
            "{:?} diverged from the former request-path run",
            cfg.executor
        );
    }
}
