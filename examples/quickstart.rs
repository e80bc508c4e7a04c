//! Quickstart: chunk a stream with Shredder and inspect the results.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! This walks the core API end to end: build a GPU-accelerated chunking
//! service, chunk a data stream, read the per-stage pipeline report,
//! compare against the host-only baseline (the same engine with the
//! `cpu_pthreads` preset), and scale the same workload onto a multi-GPU
//! device pool with `gpus = N`.

use shredder::core::{
    ChunkRequest, Shredder, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder::gpu::kernel::KernelVariant;
use shredder::workloads;

fn main() {
    // 64 MiB of seeded pseudo-random data standing in for a SAN stream.
    let data = workloads::random_bytes(64 << 20, 42);

    // The fully optimized Shredder pipeline of the paper's §4: double
    // buffering, pinned ring buffers, 4-stage pipeline, coalesced kernel.
    let gpu = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(16 << 20));
    let outcome = gpu.chunk_stream(&data).expect("chunking failed");

    println!("engine           : {}", gpu.service_name());
    println!("input            : {} MiB", data.len() >> 20);
    println!("chunks           : {}", outcome.chunks.len());
    println!("mean chunk size  : {:.0} bytes", outcome.mean_chunk_size());
    println!(
        "simulated speed  : {:.2} GB/s",
        outcome.report.aggregate_gbps()
    );

    let pipeline = &outcome.report;
    println!("\nper-stage busy time over {} buffers:", pipeline.buffers);
    println!(
        "  reader   : {:.1} ms",
        pipeline.stage_busy.read.as_millis_f64()
    );
    println!(
        "  transfer : {:.1} ms",
        pipeline.stage_busy.transfer.as_millis_f64()
    );
    println!(
        "  kernel   : {:.1} ms",
        pipeline.stage_busy.kernel.as_millis_f64()
    );
    println!(
        "  store    : {:.1} ms",
        pipeline.stage_busy.store.as_millis_f64()
    );

    // The host-only pthreads baseline runs through the same engine, as
    // one host device, and produces identical boundaries.
    let cpu = Shredder::new(ShredderConfig::cpu_pthreads().with_buffer_size(16 << 20));
    let cpu_outcome = cpu.chunk_stream(&data).expect("chunking failed");
    assert_eq!(cpu_outcome.chunks, outcome.chunks);
    println!(
        "\nhost baseline    : {:.2} GB/s ({})",
        cpu_outcome.report.aggregate_gbps(),
        cpu.service_name()
    );
    println!(
        "gpu speedup      : {:.1}x",
        outcome.report.aggregate_gbps() / cpu_outcome.report.aggregate_gbps()
    );

    // The same pipeline with the Gear/FastCDC kernel (chunk_kernel =
    // GearCoalesced): a table-shift-add per byte instead of the Rabin
    // polynomial update, roughly halving the kernel's per-byte cost.
    // Boundaries differ from Rabin's but stay content-defined.
    let gear = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_buffer_size(16 << 20)
            .with_chunk_kernel(KernelVariant::GearCoalesced),
    );
    let gear_outcome = gear.chunk_stream(&data).expect("chunking failed");
    println!(
        "\ngear kernel      : {:.2} GB/s ({} chunks, mean {:.0} bytes)",
        gear_outcome.report.aggregate_gbps(),
        gear_outcome.chunks.len(),
        gear_outcome.mean_chunk_size()
    );

    // Chunk digests (the dedup identity) for the first few chunks.
    println!("\nfirst chunks:");
    for (chunk, digest) in outcome.chunks.iter().zip(outcome.digests(&data)).take(5) {
        println!(
            "  [{:>9} +{:>6}] {}",
            chunk.offset,
            chunk.len,
            &digest.to_hex()[..16]
        );
    }

    // Scale out: the same pipeline over a pool of devices (`gpus = N`).
    // Sessions shard across devices (least-loaded by default); a faster
    // SAN fabric keeps the reader from capping the pool. Chunks stay
    // bit-identical to the single-device run.
    println!("\nmulti-GPU pool (same tenants, gpus = 1 vs 2):");
    let tenants: Vec<Vec<u8>> = (0..4)
        .map(|t| workloads::random_bytes(8 << 20, 7 + t))
        .collect();
    for gpus in [1usize, 2] {
        let cfg = ShredderConfig::gpu_streams_memory()
            .with_buffer_size(2 << 20)
            .with_reader_bandwidth(32e9) // multi-GPU testbeds provision the fabric
            .with_gpus(gpus)
            .with_pipeline_depth(4 * gpus);
        let mut engine = ShredderEngine::new(cfg);
        for (t, stream) in tenants.iter().enumerate() {
            engine.submit(ChunkRequest::new(SliceSource::new(stream)).named(format!("tenant-{t}")));
        }
        let out = engine.run(&Workload::Batch).expect("chunking failed");
        let per_device: Vec<String> = out
            .report
            .devices
            .iter()
            .map(|d| {
                format!(
                    "dev{}: util {:.2} overlap {:.2}",
                    d.id, d.utilization, d.overlap
                )
            })
            .collect();
        println!(
            "  gpus = {gpus}: {:.2} GB/s aggregate ({})",
            out.report.aggregate_gbps(),
            per_device.join(", ")
        );
    }
}
