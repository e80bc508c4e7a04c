//! Real wall-clock micro-benchmarks of the functional primitives
//! (Criterion).
//!
//! These are *not* paper figures — the paper's timing is reproduced by
//! the simulated experiments — but they measure the actual Rust
//! implementations: Rabin table fingerprinting and construction,
//! sequential Rabin and Gear CDC, fixed-size chunking, SHA-256, one GPU
//! kernel launch on a small buffer, the online service path over a
//! growing number of small requests (whose per-request cost should stay
//! flat as the count grows), and the Word-Count and Co-occurrence map
//! functions on one 64 KiB split of the fig15 words corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shredder_core::{
    AdmissionControl, ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::DeviceConfig;
use shredder_hash::{sha256, sha256_many};
use shredder_mapreduce::apps::{Cooccurrence, WordCount};
use shredder_mapreduce::MapReduceJob;
use shredder_rabin::{chunk_all, chunk_fixed, ChunkParams, GearKernel, Polynomial, RabinTables};

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
    let gear = GearKernel::matched(&params);
    group.bench_function("gear_cdc", |b| {
        use shredder_rabin::BoundaryKernel;
        b.iter(|| gear.chunks(&data))
    });
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

criterion_group!(
    benches,
    bench_rabin_tables,
    bench_gear_hash,
    bench_chunking,
    bench_kernel_small_buffer,
    bench_service_requests,
    bench_sha256,
    bench_mapreduce_map
);
criterion_main!(benches);
