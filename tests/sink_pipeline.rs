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
//! * The engine's one fingerprint batch hands every sink that declares
//!   chunk fingerprinting exactly `sha256(chunk)` per chunk, hands
//!   every other sink nothing, and leaves shed requests' sinks and
//!   stores untouched; a fleet's stores equal per-stream hashing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use proptest::prelude::*;
use shredder::backup::{BackupConfig, BackupServer};
use shredder::cluster::{FleetConfig, FleetRequest, ShredderFleet};
use shredder::core::{
    AdmissionControl, ChunkRequest, ChunkSink, DedupSink, DedupSinkConfig, FingerprintStage,
    Shredder, ShredderConfig, ShredderEngine, SinkDemand, SliceSource, StageKind, StageSpec,
    StoreSink, StoreSinkConfig, Workload,
};
use shredder::des::{Dur, SimTime};
use shredder::hash::{sha256, Digest};
use shredder::rabin::{Chunk, ChunkParams};
use shredder::store::ChunkStore;
use shredder::workloads;

/// A sink that records deliveries and the digests the engine hands it,
/// charging their hashing in-simulation. It declares chunk
/// fingerprinting only when `declares`.
struct HashSink {
    declares: bool,
    fingerprint: FingerprintStage,
    consumed: usize,
    delivered: Vec<Chunk>,
    digests: Vec<Digest>,
}

impl HashSink {
    fn new() -> Self {
        HashSink::declaring(true)
    }

    fn declaring(declares: bool) -> Self {
        HashSink {
            declares,
            fingerprint: FingerprintStage::new(1.5e9),
            consumed: 0,
            delivered: Vec::new(),
            digests: Vec::new(),
        }
    }
}

impl ChunkSink for HashSink {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec()]
    }

    fn fingerprints_chunks(&self) -> bool {
        self.declares
    }

    fn consume(&mut self, _data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        self.consumed += 1;
        self.digests.extend_from_slice(digests);
        self.delivered.extend_from_slice(chunks);
        SinkDemand {
            rows: chunks
                .iter()
                .map(|c| vec![self.fingerprint.service(c.len)])
                .collect(),
            tail: Vec::new(),
        }
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
        assert_eq!(sink.digests, collected.digests(&data), "{name}: digests");
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
    let sink_config = dedup_config();

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
    let mut sink = DedupSink::new(dedup_config(), index);
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

fn dedup_config() -> DedupSinkConfig {
    DedupSinkConfig {
        hash_bw: 1.5e9,
        index_lookup: Dur::from_micros(7),
        index_insert: Dur::from_micros(10),
        ship_bw: 0.9e9,
        pointer_bytes: 40,
        ship_chunk_overhead: Dur::from_micros(2),
    }
}

/// Small chunks over small buffers, so short streams span several of
/// each.
fn small_chunk_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_params(ChunkParams::paper().with_expected_size(2048))
        .with_buffer_size(8 << 10)
}

/// `sha256` of every chunk, one message at a time: the reference for
/// the engine's batch.
fn digests_of(data: &[u8], chunks: &[Chunk]) -> Vec<Digest> {
    chunks.iter().map(|c| sha256(c.slice(data))).collect()
}

/// A `StoreSink` that hashes its own stream, chunk by chunk, instead of
/// declaring: the stream-by-stream reference for the engine's batch.
struct PerStreamStore(StoreSink);

impl ChunkSink for PerStreamStore {
    fn stages(&self) -> Vec<StageSpec> {
        self.0.stages()
    }

    fn consume(&mut self, data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        assert!(digests.is_empty(), "a non-declaring sink got digests");
        self.0.consume(data, chunks, &digests_of(data, chunks))
    }
}

/// The sink a request of the mixed-sink property carries.
enum Attached {
    Store(StoreSink),
    Dedup(DedupSink),
    Probe(HashSink),
    Bare,
}

/// Every chunk's `(digest, len)` over `streams`, deduplicated and
/// sorted: what a store holding exactly those streams inventories.
fn inventory_of<'d>(streams: impl Iterator<Item = (&'d [u8], &'d [Chunk])>) -> Vec<(Digest, u64)> {
    let mut out: Vec<(Digest, u64)> = streams
        .flat_map(|(data, chunks)| {
            chunks
                .iter()
                .map(move |c| (sha256(c.slice(data)), c.len as u64))
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One engine run mixing `StoreSink`s and `DedupSink`s (which
    /// declare chunk fingerprinting), declaring and non-declaring probe
    /// sinks and sink-less requests, under admission tight enough to
    /// shed. Every declaring sink gets exactly `sha256(chunk)` per
    /// chunk, in order; a non-declaring sink gets an empty slice; a
    /// shed request's sink is never consumed and the shared store and
    /// index hold exactly the completed requests' chunks.
    #[test]
    fn engine_fingerprint_batch_serves_declaring_sinks_only(
        specs in proptest::collection::vec(any::<u64>(), 1..10),
        gaps_us in proptest::collection::vec(0u64..60, 1..4),
        slots in 1usize..3,
        queue_depth in 0usize..3,
    ) {
        let data: Vec<Vec<u8>> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let len = if spec >> 5 & 7 == 0 { 0 } else { (spec >> 8) as usize % 40_000 };
                workloads::random_bytes(len, (spec >> 32) ^ i as u64)
            })
            .collect();
        let store = Rc::new(RefCell::new(ChunkStore::new()));
        let index: Rc<RefCell<HashSet<Digest>>> = Rc::default();
        let mut attached: Vec<Attached> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| match spec % 5 {
                0 => Attached::Store(StoreSink::new(format!("s{i}"), StoreSinkConfig::default(), store.clone())),
                1 => Attached::Dedup(DedupSink::new(dedup_config(), index.clone())),
                2 => Attached::Probe(HashSink::declaring(true)),
                3 => Attached::Probe(HashSink::declaring(false)),
                _ => Attached::Bare,
            })
            .collect();
        let control = AdmissionControl::fifo(slots).with_queue_depth(queue_depth);
        let mut engine = ShredderEngine::new(small_chunk_config()).with_admission(control);
        for (i, (bytes, sink)) in data.iter().zip(attached.iter_mut()).enumerate() {
            let request = ChunkRequest::new(SliceSource::new(bytes)).named(format!("r{i}"));
            engine.submit(match sink {
                Attached::Store(s) => request.with_sink(s),
                Attached::Dedup(s) => request.with_sink(s),
                Attached::Probe(s) => request.with_sink(s),
                Attached::Bare => request,
            });
        }
        let trace = Workload::trace(gaps_us.iter().map(|&g| Dur::from_micros(g)).collect());
        let outcome = engine.run(&trace).unwrap();
        drop(engine);

        let mut stored = Vec::new();
        let mut indexed = Vec::new();
        for (i, ((result, sink), bytes)) in outcome.sessions.iter().zip(&attached).zip(&data).enumerate() {
            let completed = result.is_ok();
            let chunks = result.as_ref().map_or(&[][..], |s| s.chunks.as_slice());
            let expected = digests_of(bytes, chunks);
            match sink {
                Attached::Store(sink) => {
                    let name = format!("s{i}");
                    let store = store.borrow();
                    match sink.generation() {
                        Some(generation) => {
                            prop_assert!(completed);
                            let recipe: Vec<(Digest, usize)> = store.manifest(&name, generation).unwrap().entries.iter().map(|e| (e.digest, e.len as usize)).collect();
                            let want: Vec<(Digest, usize)> = expected.into_iter().zip(chunks.iter().map(|c| c.len)).collect();
                            prop_assert_eq!(recipe, want);
                            stored.push((bytes.as_slice(), chunks));
                        }
                        None => {
                            prop_assert!(!completed, "request {} completed without a generation", i);
                            prop_assert!(store.generations(&name).is_empty());
                        }
                    }
                }
                Attached::Dedup(sink) => {
                    let got: Vec<(Chunk, Digest)> = sink.verdicts().iter().map(|v| (v.chunk, v.digest)).collect();
                    let want: Vec<(Chunk, Digest)> = chunks.iter().copied().zip(expected).collect();
                    prop_assert_eq!(got, want);
                    indexed.push((bytes.as_slice(), chunks));
                }
                Attached::Probe(probe) => {
                    // Consumed exactly once if it completed, never if shed.
                    prop_assert_eq!(probe.consumed, usize::from(completed));
                    prop_assert_eq!(probe.delivered.as_slice(), chunks);
                    let want = if probe.declares { expected } else { Vec::new() };
                    prop_assert_eq!(&probe.digests, &want);
                }
                Attached::Bare => {}
            }
        }
        let store = store.borrow();
        let inventory = inventory_of(stored.into_iter());
        prop_assert_eq!(store.physical_bytes(), inventory.iter().map(|&(_, len)| len).sum::<u64>());
        prop_assert_eq!(store.chunk_inventory(), inventory);
        let mut index_digests: Vec<Digest> = index.borrow().iter().copied().collect();
        index_digests.sort_unstable();
        let indexed: Vec<Digest> = inventory_of(indexed.into_iter()).into_iter().map(|(d, _)| d).collect();
        prop_assert_eq!(index_digests, indexed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fleet's per-node stores (manifests, chunk inventory, physical
    /// bytes) equal a reference that replays each node's share through
    /// a plain engine whose store sinks hash their own streams, then
    /// installs every committed generation on its replica nodes.
    #[test]
    fn fleet_stores_equal_per_stream_hashing(
        specs in proptest::collection::vec(any::<u64>(), 2..10),
        nodes in 1usize..4,
        replication_pick in 1usize..3,
        queue_depth_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut data: Vec<Vec<u8>> = Vec::new();
        for (i, &spec) in specs.iter().enumerate() {
            // Every fourth request repeats an earlier one's bytes, so
            // generations and replicas deduplicate.
            let bytes = match data.last() {
                Some(prev) if spec >> 40 & 3 == 0 => prev.clone(),
                _ => workloads::random_bytes(1 + (spec >> 8) as usize % 30_000, spec ^ i as u64),
            };
            data.push(bytes);
        }
        let replication = replication_pick.min(nodes);
        let stream = |spec: u64| format!("tenant-{}", spec % 3);
        let mut admission = AdmissionControl::fifo(2);
        if let Some(depth) = queue_depth_pick.checked_sub(1) {
            admission = admission.with_queue_depth(depth);
        }
        let config = FleetConfig::new(nodes, small_chunk_config())
            .with_admission(admission)
            .with_replication(replication);
        let workload = Workload::poisson(20_000.0, seed);

        let mut fleet = ShredderFleet::new(config.clone());
        for (i, (bytes, &spec)) in data.iter().zip(&specs).enumerate() {
            fleet.submit(FleetRequest::new(stream(spec), SliceSource::new(bytes)).named(format!("r{i}")));
        }
        let out = fleet.run(&workload).unwrap();

        // Phase 1 per node: the node's requests as an exact-gap trace
        // through a plain engine, each into a stream-by-stream store.
        let arrivals = workload.arrivals(data.len()).unwrap();
        let reference: Vec<Rc<RefCell<ChunkStore>>> =
            (0..nodes).map(|_| Rc::new(RefCell::new(ChunkStore::new()))).collect();
        let mut generations: BTreeMap<usize, u64> = BTreeMap::new();
        for (node, store) in reference.iter().enumerate() {
            let mine: Vec<usize> = out.requests.iter().filter(|r| r.node == node).map(|r| r.index).collect();
            if mine.is_empty() {
                continue;
            }
            let mut prev = SimTime::ZERO;
            let gaps = mine.iter().map(|&k| { let gap = arrivals[k] - prev; prev = arrivals[k]; gap }).collect();
            let mut sinks: Vec<PerStreamStore> = mine
                .iter()
                .map(|&k| PerStreamStore(StoreSink::new(out.requests[k].store_stream.clone(), config.store, store.clone())))
                .collect();
            let mut engine = ShredderEngine::new(config.node.clone()).with_admission(config.admission);
            for (&k, sink) in mine.iter().zip(sinks.iter_mut()) {
                engine.submit(ChunkRequest::new(SliceSource::new(&data[k])).named(format!("r{k}")).with_sink(sink));
            }
            let plain = engine.run(&Workload::trace(gaps)).unwrap();
            drop(engine);
            for ((&k, sink), session) in mine.iter().zip(&sinks).zip(&plain.sessions) {
                prop_assert_eq!(out.requests[k].outcome.completed(), session.as_ref().ok());
                if let Some(generation) = sink.0.generation() {
                    generations.insert(k, generation);
                }
            }
        }
        // Replication: each committed generation onto its ring successors.
        let ring = config.initial_ring();
        for (&k, &generation) in &generations {
            let record = &out.requests[k];
            for &dst in ring.replicas(&record.stream, replication).iter().skip(1) {
                let peer = reference[record.node].borrow();
                reference[dst].borrow_mut().install_snapshot(&record.store_stream, generation, &peer).unwrap();
            }
        }

        for (node, want) in reference.iter().enumerate() {
            let got = out.store(node).unwrap();
            let (got, want) = (got.borrow(), want.borrow());
            prop_assert_eq!(got.stream_names(), want.stream_names());
            for name in want.stream_names() {
                prop_assert_eq!(got.generations(name), want.generations(name));
                for generation in want.generations(name) {
                    prop_assert_eq!(got.manifest(name, generation), want.manifest(name, generation));
                }
            }
            prop_assert_eq!(got.chunk_inventory(), want.chunk_inventory());
            prop_assert_eq!(got.physical_bytes(), want.physical_bytes());
        }
    }
}
