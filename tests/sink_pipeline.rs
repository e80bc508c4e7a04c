//! Integration: the staged sink API (the acceptance surface of the
//! collect-then-postprocess → in-simulation consumer redesign).
//!
//! * The sink path yields **bit-identical chunks and digests** to
//!   collecting the chunks and post-processing them.
//! * `BackupServer::backup_batch` reports per-stage (chunk/hash/dedup/
//!   ship) busy + queue-wait times from the one shared simulation.
//! * Hash-stage work demonstrably **overlaps** chunking: the end-to-end
//!   makespan is smaller than the sum of the stage busy times, and
//!   smaller than "chunking finished, then hashing ran".

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use shredder::backup::{BackupConfig, BackupServer};
use shredder::core::{
    ChunkSink, DedupSink, DedupSinkConfig, FingerprintStage, Shredder, ShredderConfig, StageKind,
    StageSpec,
};
use shredder::des::{Dur, SimTime};
use shredder::hash::sha256;
use shredder::rabin::{Chunk, ChunkParams};
use shredder::workloads;

/// A sink that records deliveries and fingerprints them in-simulation.
struct HashSink {
    fingerprint: FingerprintStage,
    delivered: Vec<Chunk>,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            fingerprint: FingerprintStage::new(1.5e9),
            delivered: Vec::new(),
        }
    }
}

impl ChunkSink for HashSink {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec()]
    }

    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
        let (_digest, service) = self.fingerprint.process(payload);
        self.delivered.push(chunk);
        vec![service]
    }
}

fn gpu_service() -> Shredder {
    Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(1 << 20),
    )
}

#[test]
fn sink_path_is_bit_identical_to_collect_path() {
    let data = workloads::compressible_bytes(6 << 20, 64, 0x51);
    for service in [
        gpu_service(),
        Shredder::new(
            ShredderConfig::cpu_pthreads()
                .with_params(ChunkParams::backup())
                .with_buffer_size(1 << 20),
        ),
    ] {
        let name = service.service_name();

        let mut sink = HashSink::new();
        service.chunk_stream_sink(&data, &mut sink).unwrap();
        let collected = service.chunk_stream(&data).unwrap();

        assert_eq!(sink.delivered, collected.chunks, "{name}: chunks");
        assert_eq!(
            sink.fingerprint.digests(),
            collected.digests(&data).as_slice(),
            "{name}: digests"
        );
    }
}

#[test]
fn dedup_sink_decisions_equal_legacy_postprocessing() {
    // The in-simulation dedup graph makes exactly the decisions the old
    // collect-then-ingest loop made: hash every chunk, dedup against
    // the accumulated index in stream order.
    let first = workloads::compressible_bytes(2 << 20, 128, 0x52);
    let second = {
        let mut s = first.clone();
        // Localized edit.
        for b in &mut s[1 << 20..(1 << 20) + 4096] {
            *b ^= 0xa5;
        }
        s
    };

    let service = gpu_service();
    let index: Rc<RefCell<HashSet<_>>> = Rc::default();
    let sink_config = DedupSinkConfig {
        hash_bw: 1.5e9,
        index_lookup: Dur::from_micros(7),
        index_insert: Dur::from_micros(10),
        ship_bw: 0.9e9,
        pointer_bytes: 40,
        ship_chunk_overhead: Dur::from_micros(2),
    };

    // Reference: collect, then hash + dedup by hand.
    let mut reference_index = HashSet::new();
    let mut reference: Vec<(Chunk, bool)> = Vec::new();
    for image in [&first, &second] {
        for chunk in service.chunk_stream(image).unwrap().chunks {
            let digest = sha256(chunk.slice(image));
            let duplicate = !reference_index.insert(digest);
            reference.push((chunk, duplicate));
        }
    }

    // Sink path.
    let mut decisions: Vec<(Chunk, bool)> = Vec::new();
    for image in [&first, &second] {
        let mut sink = DedupSink::new(sink_config, index.clone());
        service.chunk_stream_sink(image, &mut sink).unwrap();
        decisions.extend(sink.verdicts().iter().map(|v| (v.chunk, v.duplicate)));
    }
    assert_eq!(decisions, reference);
}

#[test]
fn backup_batch_reports_overlapping_stages() {
    // Four remote sites, one shared engine: chunking, fingerprinting,
    // index lookup and shipping all in one simulation.
    let sites: Vec<Vec<u8>> = (0..4)
        .map(|s| workloads::compressible_bytes(4 << 20, 256, 0x60 + s))
        .collect();
    let images: Vec<&[u8]> = sites.iter().map(|s| s.as_slice()).collect();
    let mut server = BackupServer::new(BackupConfig {
        buffer_size: 512 << 10,
        ..BackupConfig::paper()
    });
    let batch = server.backup_batch(&images, &gpu_service()).unwrap();
    let engine = &batch.engine;

    // Per-stage busy + queue-wait times are reported from the shared
    // simulation for the full graph: chunk (pipeline) + hash/dedup/ship.
    for name in ["fingerprint", "dedup", "ship"] {
        let stage = engine
            .sink_stage(name)
            .unwrap_or_else(|| panic!("stage {name} missing from {:?}", engine.sink_stages));
        assert!(stage.busy > Dur::ZERO, "{name} busy");
        assert_eq!(stage.jobs as usize, engine.buffers, "{name} jobs");
    }
    assert_eq!(
        engine.sink_stage("fingerprint").unwrap().kind,
        StageKind::Fingerprint
    );
    // Contention on the shared downstream stages is visible.
    let total_stage_wait: Dur = engine.sink_stages.iter().map(|s| s.queue_wait).sum();
    assert!(total_stage_wait > Dur::ZERO, "no queueing on sink stages");
    // The chunking pipeline's own stages are accounted as before.
    assert!(engine.stage_busy.kernel > Dur::ZERO);
    assert!(engine.stage_busy.read > Dur::ZERO);

    // Overlap, criterion 1: end-to-end makespan < sum of stage busy
    // times (were the stages serialized, the makespan would be at least
    // that sum).
    let busy_sum = engine.stage_busy.read
        + engine.stage_busy.transfer
        + engine.stage_busy.kernel
        + engine.stage_busy.store
        + engine.sink_stages.iter().map(|s| s.busy).sum::<Dur>();
    assert!(
        engine.makespan < busy_sum,
        "no overlap: makespan {} >= busy sum {}",
        engine.makespan,
        busy_sum
    );

    // Overlap, criterion 2: hashing did not simply run after chunking.
    // If it had, the makespan would be at least "last chunk stored" +
    // the full hash busy time.
    let chunk_completion: Dur = engine
        .sessions
        .iter()
        .filter_map(|r| r.timeline.last())
        .map(|t| t.store_end.saturating_since(SimTime::ZERO))
        .max()
        .unwrap();
    let hash_busy = engine.sink_stage("fingerprint").unwrap().busy;
    assert!(
        engine.makespan < chunk_completion + hash_busy,
        "hashing serialized after chunking: {} >= {} + {}",
        engine.makespan,
        chunk_completion,
        hash_busy
    );

    // And the batch remains functionally correct: every site restores.
    for (report, site) in batch.reports.iter().zip(&sites) {
        assert_eq!(&server.site().restore(report.image_id).unwrap(), site);
    }
}

#[test]
fn sink_backpressure_extends_session_completion() {
    // A session with a (costly) sink finishes later than the same
    // stream without one, and its completion includes the sink stages.
    let data = workloads::random_bytes(4 << 20, 0x71);
    let service = gpu_service();

    let plain = service.chunk_stream(&data).unwrap();
    let mut sink = HashSink::new();
    let staged = service.chunk_stream_sink(&data, &mut sink).unwrap();

    assert_eq!(staged.sink_stages.len(), 1);
    assert!(staged.sink_stages[0].busy > Dur::ZERO);
    assert!(
        staged.makespan > plain.report.makespan,
        "sink stages are free? {} !> {}",
        staged.makespan,
        plain.report.makespan
    );
}

#[test]
fn host_dedup_sink_stages_overlap_compute() {
    // The pthreads baseline runs through the same engine as the GPU:
    // its dedup graph's stages overlap the host scan of later buffers.
    let data = workloads::compressible_bytes(8 << 20, 128, 0x73);
    let service = Shredder::new(
        ShredderConfig::cpu_pthreads()
            .with_params(ChunkParams::backup())
            .with_buffer_size(1 << 20),
    );
    let index: Rc<RefCell<HashSet<_>>> = Rc::default();
    let mut sink = DedupSink::new(
        DedupSinkConfig {
            hash_bw: 1.5e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            ship_bw: 0.9e9,
            pointer_bytes: 40,
            ship_chunk_overhead: Dur::from_micros(2),
        },
        index,
    );
    let report = service.chunk_stream_sink(&data, &mut sink).unwrap();

    assert_eq!(report.sink_stages.len(), 3);
    assert_eq!(
        sink.verdicts().len(),
        service.chunk_stream(&data).unwrap().chunks.len()
    );
    let compute = report.sessions[0].kernel_time;
    let stage_busy: Dur = report.sink_stages.iter().map(|s| s.busy).sum();
    assert!(stage_busy > Dur::ZERO);
    assert!(
        report.makespan < compute + stage_busy,
        "no overlap: makespan {} >= compute {} + stages {}",
        report.makespan,
        compute,
        stage_busy
    );
    // The stages extend past the last scan, as they must.
    assert!(report.makespan > report.sessions[0].chunking_time());
}
