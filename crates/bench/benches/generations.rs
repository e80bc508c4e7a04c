//! Generations: the incremental-storage lifecycle the paper sells —
//! K mutated generations of one stream ingested through the GPU
//! pipeline into the versioned store, with bounded physical growth,
//! digest-verified restore of every live generation, and GC reclaim
//! after expiry.
//!
//! Each generation chunks through the fully-optimized Shredder engine
//! with a [`StoreSink`]: fingerprinting and store commits (index
//! lookup/insert + segment writes) run as in-simulation stages, so
//! ingest bandwidth reflects chunking *and* storing. Restore bandwidth
//! is modeled analytically from the store's read path (segment reads at
//! the SAN rate plus one index lookup per chunk); restored bytes are
//! verified bit-identical against the kept originals.

use std::cell::RefCell;
use std::rc::Rc;

use shredder_bench::{check, dump_bench_json, header, result_line, table};
use shredder_core::{Shredder, ShredderConfig, StoreSink, StoreSinkConfig};
use shredder_des::Dur;
use shredder_rabin::ChunkParams;
use shredder_store::{ChunkStore, StoreConfig};
use shredder_telemetry::Json;
use shredder_workloads::{mutate, MutationSpec};

/// Restore read bandwidth: the Table 1 SAN-class array.
const RESTORE_READ_BW: f64 = 2e9;

fn main() {
    header(
        "Generations",
        "K mutated generations -> physical growth, verified restore, GC reclaim",
    );

    let mb = std::env::var("SHREDDER_GEN_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(12);
    let generations = std::env::var("SHREDDER_GEN_COUNT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(2);
    let change = 0.05;

    let cfg = ShredderConfig::gpu_streams_memory()
        .with_params(ChunkParams::backup())
        .with_buffer_size(4 << 20);
    let gpu = Shredder::new(cfg);
    let store = Rc::new(RefCell::new(ChunkStore::with_config(StoreConfig {
        segment_bytes: 2 << 20,
        gc_threshold: 0.5,
        retention: None,
    })));

    // Ingest K generations, each a 5% localized mutation of the last.
    let mut data = shredder_workloads::compressible_bytes(mb << 20, 512, 0x9e);
    let mut kept: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut rows = Vec::new();
    let mut ingest_time = Dur::ZERO;
    let mut total_bytes = 0u64;
    for g in 0..generations {
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
        let report = gpu
            .chunk_stream_sink(&data, &mut sink)
            .expect("ingest failed");
        ingest_time += report.makespan;
        total_bytes += data.len() as u64;
        let generation = sink.generation().expect("committed");
        let s = store.borrow();
        rows.push((
            format!("generation {g}"),
            vec![
                format!("{:>6.1} MB", s.logical_bytes() as f64 / 1e6),
                format!("{:>6.1} MB", s.physical_bytes() as f64 / 1e6),
                format!(
                    "{:>5.1}%",
                    100.0 * sink.new_bytes() as f64 / data.len() as f64
                ),
                format!(
                    "{:>5.2} GB/s",
                    data.len() as f64 / report.makespan.as_secs_f64() / 1e9
                ),
            ],
        ));
        drop(s);
        kept.push((generation, data.clone()));
        data = mutate(&data, &MutationSpec::replace(change, 0x6e + g as u64));
    }
    table(&["logical", "physical", "unique", "ingest"], &rows);
    let ingest_gbps = total_bytes as f64 / ingest_time.as_secs_f64() / 1e9;

    // Restore every live generation, verified bit-for-bit; bandwidth
    // from the modeled read path (segment reads + per-chunk lookup).
    let mut restore_time = Dur::ZERO;
    let mut restored_bytes = 0u64;
    for (generation, expected) in &kept {
        let s = store.borrow();
        let restored = s.restore("vm", *generation).expect("restore failed");
        assert_eq!(&restored, expected, "generation {generation} diverged");
        let chunks = s
            .manifest("vm", *generation)
            .expect("manifest")
            .chunk_count();
        restore_time += Dur::from_bytes_at(restored.len() as u64, RESTORE_READ_BW)
            + Dur::from_micros(7) * chunks as u64;
        restored_bytes += restored.len() as u64;
    }
    let restore_gbps = restored_bytes as f64 / restore_time.as_secs_f64() / 1e9;

    // Expire the first half, GC, and verify the survivors.
    let physical_before = store.borrow().physical_bytes();
    let expire_through = kept[generations / 2 - 1].0;
    store.borrow_mut().expire("vm", expire_through);
    let gc = store.borrow_mut().gc();
    for (generation, expected) in &kept[generations / 2..] {
        let restored = store
            .borrow()
            .restore("vm", *generation)
            .expect("post-GC restore failed");
        assert_eq!(&restored, expected, "GC corrupted generation {generation}");
    }
    let report = store.borrow().report();

    println!();
    result_line(
        "aggregate ingest (chunk+hash+store)",
        format!("{ingest_gbps:.3} GB/s"),
    );
    result_line(
        "verified restore bandwidth",
        format!("{restore_gbps:.3} GB/s"),
    );
    result_line(
        "physical / logical after all generations",
        format!(
            "{:.3}",
            physical_before as f64 / report.logical_bytes as f64
        ),
    );
    result_line(
        "GC reclaim",
        format!(
            "{:.1} MB ({:.1}% of footprint, {} chunks, {} segments compacted)",
            gc.reclaimed_bytes() as f64 / 1e6,
            gc.reclaim_fraction() * 100.0,
            gc.freed_chunks,
            gc.compacted_segments,
        ),
    );

    println!();
    check(
        "physical growth is bounded (footprint < 50% of logical after K generations)",
        physical_before < report.logical_bytes / 2,
    );
    check(
        "every live generation restored bit-identical with all digests verified",
        true, // asserted above; a failure panics before reaching here
    );
    check(
        "expiring the first half reclaims the bytes unique to it (> 0)",
        gc.reclaimed_bytes() > 0 && gc.freed_chunks > 0,
    );
    check(
        "GC left no dead bytes above the compaction threshold",
        store.borrow().physical_bytes() as f64
            <= store.borrow().live_bytes() as f64 / store.borrow().config().gc_threshold.max(0.01),
    );

    dump_bench_json(
        &Json::object()
            .field("name", "generations")
            .field("generations", generations)
            .field("aggregate_gbps", ingest_gbps)
            .field("restore_gbps", restore_gbps)
            .field(
                "physical_over_logical",
                physical_before as f64 / report.logical_bytes as f64,
            )
            .field("reclaim_fraction", gc.reclaim_fraction())
            .field("freed_chunks", gc.freed_chunks),
    );
}
