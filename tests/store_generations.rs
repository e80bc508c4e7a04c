//! End-to-end generation lifecycle: N mutated generations ingested
//! through `StoreSink` sessions on the engine, bounded physical growth,
//! bit-identical digest-verified restore of every live generation, and
//! GC reclaim of exactly the bytes unique to expired generations.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use shredder::core::{
    ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, StageKind, StoreSink,
    StoreSinkConfig, Workload,
};
use shredder::hash::Digest;
use shredder::store::ChunkStore;
use shredder::workloads::{mutate, MutationSpec};
use shredder_rabin::ChunkParams;

const GENERATIONS: usize = 8;

fn config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_params(ChunkParams {
            min_size: 1 << 10,
            max_size: 16 << 10,
            ..ChunkParams::paper().with_expected_size(4 << 10)
        })
        .with_buffer_size(256 << 10)
        .with_segment_bytes(256 << 10)
        // Aggressive compaction: any segment with a dead byte is
        // rewritten, so GC reclaims expired bytes immediately (a lower
        // threshold defers reclaim until segments are mostly dead).
        .with_gc_threshold(1.0)
}

/// Digest → bytes map of one generation's manifest (for the oracle).
fn manifest_digests(store: &ChunkStore, gen: u64) -> HashMap<Digest, u64> {
    store
        .manifest("vm", gen)
        .expect("live manifest")
        .entries
        .iter()
        .map(|e| (e.digest, e.len as u64))
        .collect()
}

#[test]
fn eight_generations_ingest_restore_expire_gc() {
    let cfg = config();
    let store = Rc::new(RefCell::new(ChunkStore::with_config(cfg.store_config())));

    let mut data = shredder::workloads::compressible_bytes(2 << 20, 256, 0xe2e);
    let mut kept: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut total_new_bytes = 0u64;
    let mut total_logical = 0u64;
    let mut unique_fraction_after_first = Vec::new();

    for g in 0..GENERATIONS {
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
        let report = {
            let mut engine = ShredderEngine::new(cfg.clone());
            engine.submit(
                ChunkRequest::new(SliceSource::new(&data))
                    .named(format!("gen-{g}"))
                    .with_sink(&mut sink),
            );
            engine.run(&Workload::Batch).expect("engine run").report
        };
        // The store commit ran as an in-simulation stage of the engine.
        let stage = report
            .sink_stage("store-commit")
            .expect("store stage reported");
        assert_eq!(stage.kind, StageKind::Store);
        assert!(stage.busy > shredder::des::Dur::ZERO);
        assert!(report.sink_stage("fingerprint").is_some());

        let generation = sink.generation().expect("committed at stream end");
        assert_eq!(generation, g as u64);
        assert_eq!(sink.new_bytes() + sink.dedup_bytes(), data.len() as u64);
        total_new_bytes += sink.new_bytes();
        total_logical += data.len() as u64;
        if g > 0 {
            unique_fraction_after_first.push(sink.new_bytes() as f64 / data.len() as f64);
        }
        kept.push((generation, data.clone()));
        data = mutate(&data, &MutationSpec::replace(0.05, 0xbeef + g as u64));
    }

    // Physical growth == the unique bytes each generation shipped, i.e.
    // logical growth × unique-data ratio, exactly.
    let store_ref = store.borrow();
    assert_eq!(store_ref.physical_bytes(), total_new_bytes);
    assert_eq!(store_ref.logical_bytes(), total_logical);
    assert!(store_ref.physical_bytes() < total_logical);
    // 5% localized mutations: incremental generations stay mostly dedup.
    for (i, f) in unique_fraction_after_first.iter().enumerate() {
        assert!(
            *f < 0.5,
            "generation {} shipped {:.0}% unique",
            i + 1,
            f * 100.0
        );
    }

    // Every live generation restores bit-identical (restore() verifies
    // every digest against the re-hashed payload internally).
    for (generation, expected) in &kept {
        assert_eq!(&store_ref.restore("vm", *generation).unwrap(), expected);
    }

    // Oracle for the expiry half: bytes referenced ONLY by the first
    // half's manifests.
    let half = GENERATIONS / 2;
    let mut expired_refs: HashMap<Digest, u64> = HashMap::new();
    let mut live_refs: HashSet<Digest> = HashSet::new();
    for (generation, _) in &kept[..half] {
        expired_refs.extend(manifest_digests(&store_ref, *generation));
    }
    for (generation, _) in &kept[half..] {
        live_refs.extend(manifest_digests(&store_ref, *generation).into_keys());
    }
    let unique_expired_bytes: u64 = expired_refs
        .iter()
        .filter(|(d, _)| !live_refs.contains(*d))
        .map(|(_, len)| *len)
        .sum();
    assert!(
        unique_expired_bytes > 0,
        "mutations must create unique data"
    );
    drop(store_ref);

    // Expire the first half; GC must reclaim at least the bytes unique
    // to it (here: exactly — the freed set IS the unique set).
    let expired = store.borrow_mut().expire("vm", (half - 1) as u64);
    assert_eq!(expired, half);
    let gc = store.borrow_mut().gc();
    assert_eq!(gc.freed_bytes, unique_expired_bytes);
    // The acceptance bar: GC reclaims at least the bytes unique to the
    // expired generations (at threshold 1.0, exactly: the footprint
    // drops to the live bytes).
    assert!(
        gc.reclaimed_bytes() >= unique_expired_bytes,
        "reclaimed {} < unique-to-expired {unique_expired_bytes}",
        gc.reclaimed_bytes()
    );
    assert_eq!(store.borrow().physical_bytes(), store.borrow().live_bytes());

    // ... and the reclaim is reported in the StoreReport.
    let report = store.borrow().report();
    assert_eq!(report.gc_runs, 1);
    assert_eq!(report.freed_bytes_total, unique_expired_bytes);
    assert_eq!(report.freed_chunks_total as usize, gc.freed_chunks);
    assert_eq!(report.snapshots, GENERATIONS - half);

    // Survivors restore bit-identical after compaction moved payloads;
    // expired generations are gone.
    let store_ref = store.borrow();
    for (generation, expected) in &kept[half..] {
        assert_eq!(&store_ref.restore("vm", *generation).unwrap(), expected);
    }
    for (generation, _) in &kept[..half] {
        assert!(store_ref.restore("vm", *generation).is_err());
    }
}

#[test]
fn batched_generations_share_one_engine_and_store() {
    // Two streams ("vm-a", "vm-b") ingested as sessions of ONE engine
    // run, committing into one shared store: cross-stream dedup works
    // and each stream restores independently.
    let cfg = config();
    let store = Rc::new(RefCell::new(ChunkStore::with_config(cfg.store_config())));
    let a = shredder::workloads::compressible_bytes(1 << 20, 256, 77);
    let b = mutate(&a, &MutationSpec::replace(0.1, 78));

    let mut sink_a = StoreSink::new("vm-a", StoreSinkConfig::default(), store.clone());
    let mut sink_b = StoreSink::new("vm-b", StoreSinkConfig::default(), store.clone());
    {
        let mut engine = ShredderEngine::new(cfg);
        engine.submit(
            ChunkRequest::new(SliceSource::new(&a))
                .named("a")
                .with_sink(&mut sink_a),
        );
        engine.submit(
            ChunkRequest::new(SliceSource::new(&b))
                .named("b")
                .with_sink(&mut sink_b),
        );
        engine.run(&Workload::Batch).expect("engine run");
    }
    let gen_a = sink_a.generation().unwrap();
    let gen_b = sink_b.generation().unwrap();

    let s = store.borrow();
    assert_eq!(s.restore("vm-a", gen_a).unwrap(), a);
    assert_eq!(s.restore("vm-b", gen_b).unwrap(), b);
    // Stream b deduplicated against stream a's chunks in the same run.
    assert!(sink_b.dedup_bytes() > 0, "cross-stream dedup");
    assert!(s.physical_bytes() < (a.len() + b.len()) as u64);
}
