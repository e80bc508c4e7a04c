//! Integration: the session-based multi-stream engine (the acceptance
//! surface of the multi-tenant refactor).
//!
//! ≥4 concurrent streams through one engine must (a) produce chunks
//! bit-identical per stream to a sequential CPU scan, (b) report
//! aggregate throughput above the single-stream throughput of the same
//! configuration, and (c) behave deterministically.

use shredder::backup::{BackupConfig, BackupServer};
use shredder::core::{
    AdmissionControl, AdmissionPolicy, ChunkRequest, Shredder, ShredderConfig, ShredderEngine,
    SliceSource, Workload,
};
use shredder::hdfs::{IncHdfs, TextInputFormat};
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

fn tenant_streams(n: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|t| workloads::random_bytes(bytes, 0xabc + t as u64))
        .collect()
}

fn cfg() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20)
}

#[test]
fn four_concurrent_streams_bit_identical_and_faster_in_aggregate() {
    let streams = tenant_streams(4, 4 << 20);

    // Single-stream baseline.
    let solo = Shredder::new(cfg());
    let solo_gbps: Vec<f64> = streams
        .iter()
        .map(|d| solo.chunk_stream(d).unwrap().report.aggregate_gbps())
        .collect();
    let solo_best = solo_gbps.iter().cloned().fold(f64::MIN, f64::max);

    // One engine, four sessions.
    let mut engine = ShredderEngine::new(cfg());
    for data in &streams {
        engine.submit(ChunkRequest::new(SliceSource::new(data)));
    }
    let out = engine.run(&Workload::Batch).unwrap();

    let params = ChunkParams::paper();
    for (session, data) in out.completed().zip(&streams) {
        assert_eq!(session.chunks, chunk_all(data, &params));
    }
    let aggregate = out.report.aggregate_gbps();
    assert!(
        aggregate > solo_best,
        "aggregate {aggregate:.3} GB/s !> best single-stream {solo_best:.3} GB/s"
    );
}

#[test]
fn contention_is_visible_in_reports() {
    let streams = tenant_streams(4, 2 << 20);
    let mut engine = ShredderEngine::new(cfg());
    for data in &streams {
        engine.submit(ChunkRequest::new(SliceSource::new(data)));
    }
    let out = engine.run(&Workload::Batch).unwrap();
    // Under a shared admission pool, later-arriving buffers wait.
    assert!(!out.report.queue_wait.is_zero());
    // Per-stream makespans and first-admit timestamps are populated.
    for r in &out.report.sessions {
        assert!(r.completion > r.first_admit);
        assert_eq!(r.timeline.len(), r.buffers);
    }
    // Aggregate accounting matches the per-session reports.
    assert_eq!(
        out.report.bytes,
        out.report.sessions.iter().map(|r| r.bytes).sum::<u64>()
    );
}

#[test]
fn policies_change_schedule_not_chunks() {
    let streams = tenant_streams(5, 1 << 20);
    let run = |policy: AdmissionPolicy| {
        let mut engine = ShredderEngine::new(cfg().with_buffer_size(256 << 10)).with_policy(policy);
        for (i, data) in streams.iter().enumerate() {
            engine.submit(
                ChunkRequest::new(SliceSource::new(data))
                    .named(format!("t{i}"))
                    .with_weight((i as u32 % 3) + 1),
            );
        }
        engine.run(&Workload::Batch).unwrap()
    };
    let rr = run(AdmissionPolicy::RoundRobin);
    let weighted = run(AdmissionPolicy::Weighted);
    let ordered = run(AdmissionPolicy::SessionOrder);
    assert_eq!(rr.sessions, weighted.sessions);
    assert_eq!(weighted.sessions, ordered.sessions);
    // But the schedules differ: session-order serializes stream starts.
    assert!(ordered.report.sessions[4].first_admit > rr.report.sessions[4].first_admit);
}

#[test]
fn engine_is_deterministic_end_to_end() {
    let streams = tenant_streams(4, 1 << 20);
    let run = || {
        let mut engine = ShredderEngine::new(cfg().with_buffer_size(512 << 10))
            .with_policy(AdmissionPolicy::Weighted);
        for (i, data) in streams.iter().enumerate() {
            engine.submit(
                ChunkRequest::new(SliceSource::new(data))
                    .named(format!("t{i}"))
                    .with_weight(1 + i as u32),
            );
        }
        engine.run(&Workload::Batch).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.sessions, b.sessions);
}

#[test]
fn backup_batch_consolidates_sites_through_one_engine() {
    let sites = tenant_streams(4, 2 << 20);
    let images: Vec<&[u8]> = sites.iter().map(|s| s.as_slice()).collect();
    let gpu = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(512 << 10),
    );
    let mut server = BackupServer::new(BackupConfig {
        buffer_size: 512 << 10,
        ..BackupConfig::paper()
    });
    let batch = server.backup_batch(&images, &gpu).unwrap();
    assert_eq!(batch.reports.len(), 4);
    for (report, site) in batch.reports.iter().zip(&sites) {
        assert_eq!(server.site().restore(report.image_id).unwrap(), *site);
    }
    assert_eq!(batch.engine.sessions.len(), 4);
    assert!(batch.aggregate_bandwidth_gbps() > 0.0);
}

#[test]
fn hdfs_batch_ingestion_through_one_engine() {
    let mut fs = IncHdfs::new(4);
    let files: Vec<Vec<u8>> = (0..4)
        .map(|i| workloads::words_corpus(400_000, 300, 50 + i))
        .collect();
    let named: Vec<(&str, &[u8])> = vec![
        ("/logs/a", files[0].as_slice()),
        ("/logs/b", files[1].as_slice()),
        ("/logs/c", files[2].as_slice()),
        ("/logs/d", files[3].as_slice()),
    ];
    let shredder = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::paper().with_expected_size(4096))
            .with_buffer_size(256 << 10),
    );
    let (reports, service) = fs
        .copy_many_gpu(
            &named,
            &shredder,
            &TextInputFormat,
            &Workload::Batch,
            AdmissionControl::unbounded(),
        )
        .unwrap();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(Result::is_ok));
    assert_eq!(service.completed, 4);
    for (path, data) in &named {
        assert_eq!(&fs.read(path).unwrap(), data);
    }
}
