//! Real wall-clock micro-benchmarks of the functional primitives
//! (Criterion).
//!
//! These are *not* paper figures — the paper's timing is reproduced by
//! the simulated experiments — but they measure the actual Rust
//! implementations: Rabin table fingerprinting and construction,
//! streaming Rabin CDC, the Rabin and Gear boundary kernels, fixed-size
//! chunking, SHA-256 (one message, equal-length batches and a backup
//! image's variable-length chunks), one GPU kernel launch on a small buffer, the
//! online service path over a growing number of small requests (whose
//! per-request cost should stay flat as the count grows), and the
//! Word-Count and Co-occurrence map functions on one 64 KiB split of
//! the fig15 words corpus, and one whole Word-Count run (map, shuffle
//! and reduce) over 4 MiB of it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shredder_core::{
    AdmissionControl, ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::DeviceConfig;
use shredder_hash::{sha256, sha256_many};
use shredder_mapreduce::apps::{Cooccurrence, WordCount};
use shredder_mapreduce::runner::splits_from_bytes;
use shredder_mapreduce::{ClusterConfig, IncrementalRunner, MapReduceJob};
use shredder_rabin::{
    chunk_all, chunk_fixed, BoundaryKernel, ChunkParams, GearKernel, Polynomial, RabinKernel,
    RabinTables,
};

fn test_data(len: usize) -> Vec<u8> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn bench_rabin_tables(c: &mut Criterion) {
    let tables = RabinTables::paper();
    let data = test_data(1 << 20);
    let mut group = c.benchmark_group("rabin_fingerprint");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sliding_window_1MiB", |b| {
        b.iter(|| {
            let mut fp = 0u64;
            for &byte in &data {
                fp = tables.push(fp, byte);
            }
            fp
        })
    });
    group.finish();

    // Table construction, paid once per detector (every `chunk_all`
    // call, every fresh `ChunkKernel`).
    let mut group = c.benchmark_group("rabin_tables");
    group.bench_function("new_lbfs_48", |b| {
        b.iter(|| RabinTables::new(Polynomial::LBFS, 48))
    });
    group.finish();
}

fn bench_gear_hash(c: &mut Criterion) {
    // The Gear inner loop against the Rabin one above: one table
    // lookup, a shift and an add per byte, vs the two-table polynomial
    // push. This is the per-byte cost ratio the GPU cost model encodes
    // (26 vs 52 cycles/byte).
    let kernel = GearKernel::matched(&ChunkParams::paper());
    let data = test_data(1 << 20);
    let mut group = c.benchmark_group("gear_hash");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("shift_add_1MiB", |b| {
        b.iter(|| {
            let mut h = 0u64;
            for &byte in &data {
                h = kernel.step(h, byte);
            }
            h
        })
    });
    group.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let params = ChunkParams::paper();
    let data = test_data(8 << 20);
    let mut group = c.benchmark_group("chunking_8MiB");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(20);

    group.bench_function("sequential_cdc", |b| b.iter(|| chunk_all(&data, &params)));
    group.bench_function("fixed_size", |b| b.iter(|| chunk_fixed(&data, 8192)));
    // The library's boundary scan (`BoundaryKernel::chunks`), which the
    // engine's kernels run; `sequential_cdc` times the streaming
    // `Chunker`.
    let rabin = RabinKernel::new(&params);
    group.bench_function("rabin_kernel", |b| b.iter(|| rabin.chunks(&data)));
    let gear = GearKernel::matched(&params);
    group.bench_function("gear_cdc", |b| b.iter(|| gear.chunks(&data)));
    group.finish();
}

fn bench_kernel_small_buffer(c: &mut Criterion) {
    // One launch on a service-sized request: the functional scan plus
    // the timing model, with the kernel's detector reused across runs.
    let data = test_data(4 << 10);
    let config = DeviceConfig::tesla_c2050();
    let kernel = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Coalesced);
    let mut group = c.benchmark_group("gpu_kernel");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("run_4KiB", |b| b.iter(|| kernel.run(&config, &data)));
    group.finish();
}

fn bench_service_requests(c: &mut Criterion) {
    // Open-loop Poisson arrivals of 4 KiB requests on one engine under
    // FIFO-4 admission. The
    // reported rate is requests per second: equal rates at both counts
    // mean a flat per-request cost.
    const PAYLOAD: usize = 4 << 10;
    let corpus = test_data(256 * PAYLOAD);
    let config = ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10);
    let mut group = c.benchmark_group("service_poisson_4KiB");
    group.sample_size(3);
    for requests in [1024usize, 8192] {
        group.throughput(Throughput::Elements(requests as u64));
        group.bench_with_input(
            BenchmarkId::new("requests", requests),
            &requests,
            |b, &requests| {
                b.iter(|| {
                    let mut engine = ShredderEngine::new(config.clone())
                        .with_admission(AdmissionControl::default());
                    for i in 0..requests {
                        let k = (i * 7) % 256;
                        let payload = &corpus[k * PAYLOAD..(k + 1) * PAYLOAD];
                        engine.submit(ChunkRequest::new(SliceSource::new(payload)));
                    }
                    engine
                        .run(&Workload::poisson(20_000.0, 1))
                        .expect("engine run")
                })
            },
        );
    }
    group.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let data = test_data(1 << 20);
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("digest_1MiB", |b| b.iter(|| sha256(&data)));
    group.finish();

    // A backup stream's worth of 8 KiB chunks, hashed as one batch.
    let data = test_data(1024 * 8192);
    let chunks: Vec<&[u8]> = data.chunks(8192).collect();
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("many_1024x8KiB", |b| b.iter(|| sha256_many(&chunks)));
    group.finish();

    // A fleet run's worth of 4 KiB requests: one batch over all of them
    // (the engine's fingerprint batch) against one call per message
    // (each request hashing its own stream).
    let data = test_data(16384 * 4096);
    let messages: Vec<&[u8]> = data.chunks(4096).collect();
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("many_16384x4KiB", |b| b.iter(|| sha256_many(&messages)));
    group.bench_function("per_message_16384x4KiB", |b| {
        b.iter(|| {
            messages
                .iter()
                .map(|m| sha256_many(&[m]))
                .collect::<Vec<_>>()
        })
    });
    // The same bytes in batches of four, as a fleet restore verifies
    // one generation's chunks per call.
    let batches: Vec<&[&[u8]]> = messages.chunks(4).collect();
    group.bench_function("batch_of_4x4KiB", |b| {
        b.iter(|| {
            batches
                .iter()
                .map(|batch| sha256_many(batch))
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // A backup restore's batch: the 2-16 KiB content-defined chunks of
    // one 16 MiB image, whose varied lengths make lanes refill
    // mid-step and leave stragglers.
    let image = shredder_workloads::compressible_bytes(16 << 20, 1024, 7);
    let chunks: Vec<&[u8]> = chunk_all(&image, &ChunkParams::backup())
        .iter()
        .map(|chunk| chunk.slice(&image))
        .collect();
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(image.len() as u64));
    group.bench_function("many_backup_chunks", |b| b.iter(|| sha256_many(&chunks)));
    group.finish();
}

fn bench_mapreduce_map(c: &mut Criterion) {
    // One map task's worth of input: a 64 KiB split of a 2000-word
    // vocabulary corpus, as the fig15 and perfbench splits are.
    let split = shredder_workloads::words_corpus(64 << 10, 2000, 7);
    let mut group = c.benchmark_group("mapreduce_map");
    group.throughput(Throughput::Bytes(split.len() as u64));
    group.bench_function("wordcount_64KiB", |b| b.iter(|| WordCount.map(&split)));
    group.bench_function("cooccurrence_64KiB", |b| {
        b.iter(|| Cooccurrence::default().map(&split))
    });
    group.finish();
}

fn bench_mapreduce_run(c: &mut Criterion) {
    // A fresh runner each iteration, so every split is mapped: the
    // map, the shuffle and the reduce of one from-scratch job over 64
    // 64 KiB splits.
    let corpus = shredder_workloads::words_corpus(4 << 20, 2000, 7);
    let splits = splits_from_bytes(&corpus, 64 << 10);
    let mut group = c.benchmark_group("mapreduce_run");
    group.throughput(Throughput::Bytes(corpus.len() as u64));
    group.bench_function("wordcount_4MiB", |b| {
        b.iter(|| IncrementalRunner::new(WordCount, ClusterConfig::paper()).run(&splits))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rabin_tables,
    bench_gear_hash,
    bench_chunking,
    bench_kernel_small_buffer,
    bench_service_requests,
    bench_sha256,
    bench_mapreduce_map,
    bench_mapreduce_run
);
criterion_main!(benches);
