//! Multi-GPU device pool: aggregate chunking throughput vs pool size.
//!
//! The ROADMAP's scaling direction beyond one device: N identical
//! C2050s, each with its own DMA engines, twin buffers and pinned
//! staging ring, fed by a provisioned SAN fabric (32 GB/s — with the
//! paper's 2 GB/s link a single device already keeps up and a pool
//! gains nothing, which `tests/multi_gpu.rs` pins separately). The
//! harness checks:
//!
//! * **correctness** — every tenant's chunks are bit-identical across
//!   pool sizes (placement cannot change boundaries);
//! * **scaling** — 2 devices beat 1 by ≥1.3×, and 4 beat 2, until the
//!   shared host stages (reader, store thread) cap the curve;
//! * **overlap** — each busy device hides a substantial fraction of its
//!   DMA time behind kernel execution (the §4.1.1 optimization,
//!   measured per device by the pool).
//!
//! Set `SHREDDER_BENCH_JSON=<path>` to dump the headline numbers for
//! the CI regression gate (see `src/bin/bench_gate.rs`).

use shredder_bench::{check, dump_bench_json, gbps, header, result_line, table};
use shredder_core::{
    ChunkRequest, EngineOutcome, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder_gpu::kernel::KernelVariant;
use shredder_rabin::{chunk_all, BoundaryKernel, ChunkParams, GearKernel};
use shredder_telemetry::Json;

fn run_pool(streams: &[Vec<u8>], gpus: usize, kernel: KernelVariant) -> EngineOutcome {
    let cfg = ShredderConfig::gpu_streams_memory()
        .with_buffer_size(1 << 20)
        .with_reader_bandwidth(32e9)
        .with_gpus(gpus)
        .with_pipeline_depth(4 * gpus)
        .with_chunk_kernel(kernel);
    let mut engine = ShredderEngine::new(cfg);
    for (t, data) in streams.iter().enumerate() {
        engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
    }
    engine.run(&Workload::Batch).expect("engine run failed")
}

fn main() {
    header(
        "Multi-GPU pool",
        "aggregate throughput and copy-compute overlap vs device count",
    );

    let tenants = 8usize;
    let per_stream = 4 << 20;
    let streams: Vec<Vec<u8>> = (0..tenants)
        .map(|t| shredder_workloads::random_bytes(per_stream, 0x6e0 + t as u64))
        .collect();
    let params = ChunkParams::paper();
    let reference: Vec<_> = streams.iter().map(|s| chunk_all(s, &params)).collect();

    let pool_sizes = [1usize, 2, 4];
    let mut outcomes = Vec::new();
    for &gpus in &pool_sizes {
        let out = run_pool(&streams, gpus, KernelVariant::Coalesced);
        for (session, expected) in out.completed().zip(&reference) {
            assert_eq!(
                &session.chunks, expected,
                "{} diverged on a {gpus}-device pool",
                session.name
            );
        }
        outcomes.push((gpus, out));
    }
    println!("  (all {tenants} tenants produced identical chunks on every pool size)");
    println!();

    // The same pools with the Gear/FastCDC kernel. Boundaries differ
    // from Rabin's, so each tenant is checked against the sequential
    // Gear reference instead of `chunk_all`.
    let gear_kernel = GearKernel::matched(&params);
    let gear_reference: Vec<_> = streams.iter().map(|s| gear_kernel.chunks(s)).collect();
    let mut gear_outcomes = Vec::new();
    for &gpus in &pool_sizes {
        let out = run_pool(&streams, gpus, KernelVariant::GearCoalesced);
        for (session, expected) in out.completed().zip(&gear_reference) {
            assert_eq!(
                &session.chunks, expected,
                "{} (gear) diverged on a {gpus}-device pool",
                session.name
            );
        }
        gear_outcomes.push((gpus, out));
    }
    println!("  (gear pools matched the sequential Gear reference on every pool size)");
    println!();

    let base = outcomes[0].1.report.aggregate_gbps();
    let rows: Vec<(String, Vec<String>)> = outcomes
        .iter()
        .map(|(gpus, out)| {
            let r = &out.report;
            let util =
                r.devices.iter().map(|d| d.utilization).sum::<f64>() / r.devices.len() as f64;
            let overlap = {
                let busy: Vec<_> = r.devices.iter().filter(|d| d.buffers > 0).collect();
                busy.iter().map(|d| d.overlap).sum::<f64>() / busy.len().max(1) as f64
            };
            (
                format!("{gpus} device(s)"),
                vec![
                    format!("{:.2} GB/s", r.aggregate_gbps()),
                    format!("{:.2}x", r.aggregate_gbps() / base),
                    format!("{util:.2}"),
                    format!("{overlap:.2}"),
                    format!("{:.2} ms", r.makespan.as_millis_f64()),
                ],
            )
        })
        .collect();
    table(
        &["aggregate", "speedup", "mean util", "overlap", "makespan"],
        &rows,
    );

    let g = |i: usize| outcomes[i].1.report.aggregate_gbps();
    let gg = |i: usize| gear_outcomes[i].1.report.aggregate_gbps();
    println!();
    result_line("1-device aggregate", gbps(g(0) * 1e9));
    result_line("2-device aggregate", gbps(g(1) * 1e9));
    result_line("4-device aggregate", gbps(g(2) * 1e9));
    result_line("2-device aggregate (Gear)", gbps(gg(1) * 1e9));

    println!();
    check(
        "2 devices scale aggregate throughput >= 1.3x over 1",
        g(1) > g(0) * 1.3,
    );
    check(
        "4 devices beat 2 (host stages cap, but never invert)",
        g(2) > g(1),
    );
    check(
        "every busy device overlaps >40% of its DMA behind the kernel at 2 devices",
        outcomes[1]
            .1
            .report
            .devices
            .iter()
            .all(|d| d.buffers == 0 || d.overlap > 0.4),
    );
    check(
        "placement shards sessions across all devices at every pool size",
        outcomes.iter().all(|(gpus, out)| {
            out.report.devices.iter().filter(|d| d.sessions > 0).count() == *gpus
        }),
    );
    check(
        &format!(
            "Gear kernel beats Rabin on the 2-device aggregate ({:.3} vs {:.3} GB/s)",
            gg(1),
            g(1)
        ),
        gg(1) > g(1),
    );

    // Perf-trajectory dump for the CI bench gate.
    let devices = &outcomes[1].1.report.devices;
    dump_bench_json(
        &Json::object()
            .field("aggregate_gbps", g(1))
            .field("single_device_gbps", g(0))
            .field("four_device_gbps", g(2))
            .field("gear_gbps", gg(1))
            .field("speedup_2x", g(1) / g(0))
            .field(
                "mean_overlap_2dev",
                devices.iter().map(|d| d.overlap).sum::<f64>() / devices.len() as f64,
            ),
    );
}
