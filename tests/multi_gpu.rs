//! Integration: the multi-GPU device pool scales aggregate throughput
//! while keeping every stream's chunks bit-identical.
//!
//! The pool generalizes the paper's single-C2050 pipeline the way "GPUs
//! as Storage System Accelerators" does: N devices, each with its own
//! DMA engines, twin buffers and pinned staging ring, fed by one shared
//! SAN reader and drained by one Store thread. The tests pin the three
//! load-bearing properties: correctness is placement-invariant,
//! throughput scales once the reader is not the bottleneck, and the
//! report exposes per-device utilization and copy–compute overlap.

use shredder::core::{
    ChunkRequest, PlacementPolicy, Shredder, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder::hash::sha256;
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

/// A multi-GPU deployment provisions a SAN fabric faster than one
/// device can chunk, so the pool — not the reader — sets the pace.
fn pool_config(gpus: usize) -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_buffer_size(1 << 20)
        .with_reader_bandwidth(32e9)
        .with_gpus(gpus)
        .with_pipeline_depth(4 * gpus)
}

fn tenant_streams(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|t| workloads::random_bytes(3 << 20, 0x960 + t as u64))
        .collect()
}

fn run_pool(streams: &[Vec<u8>], gpus: usize) -> shredder::core::EngineOutcome {
    let mut engine = ShredderEngine::new(pool_config(gpus));
    for (t, data) in streams.iter().enumerate() {
        engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
    }
    engine.run(&Workload::Batch).expect("engine run failed")
}

#[test]
fn two_device_pool_outscales_one_with_identical_chunks_and_digests() {
    let streams = tenant_streams(6);
    let one = run_pool(&streams, 1);
    let two = run_pool(&streams, 2);

    // Aggregate throughput: the second device genuinely adds capacity.
    let (g1, g2) = (one.report.aggregate_gbps(), two.report.aggregate_gbps());
    assert!(
        g2 > g1 * 1.3,
        "2 devices {g2:.3} GB/s !> 1.3 × {g1:.3} GB/s"
    );

    // Bit-identical per-stream chunk boundaries — against the 1-device
    // run AND against a sequential CPU scan of each stream alone.
    let params = ChunkParams::paper();
    for ((a, b), data) in one.completed().zip(two.completed()).zip(&streams) {
        assert_eq!(a.chunks, b.chunks, "{} diverged across pool sizes", a.name);
        assert_eq!(b.chunks, chunk_all(data, &params), "{}", b.name);
    }

    // Bit-identical digests: the dedup identity is placement-invariant.
    for ((a, b), data) in one.completed().zip(two.completed()).zip(&streams) {
        let d1: Vec<_> = a.chunks.iter().map(|c| sha256(c.slice(data))).collect();
        let d2: Vec<_> = b.chunks.iter().map(|c| sha256(c.slice(data))).collect();
        assert_eq!(d1, d2);
    }

    // Both devices carried sessions and report live utilization and
    // copy–compute overlap.
    assert_eq!(two.report.devices.len(), 2);
    for d in &two.report.devices {
        assert!(d.sessions > 0, "device {} got no sessions", d.id);
        assert!(d.buffers > 0 && d.bytes > 0);
        assert!(
            d.utilization > 0.2 && d.utilization <= 1.0,
            "device {} utilization {}",
            d.id,
            d.utilization
        );
        assert!(
            d.overlap > 0.2 && d.overlap <= 1.0,
            "device {} overlap fraction {}",
            d.id,
            d.overlap
        );
    }
    // The pool split the bytes: no device saw everything.
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    for d in &two.report.devices {
        assert!(d.bytes < total);
    }
    assert_eq!(
        two.report.devices.iter().map(|d| d.bytes).sum::<u64>(),
        total
    );
}

#[test]
fn four_devices_keep_scaling_until_the_host_bounds() {
    let streams = tenant_streams(8);
    let g2 = run_pool(&streams, 2).report.aggregate_gbps();
    let g4 = run_pool(&streams, 4).report.aggregate_gbps();
    // More devices never hurt; the shared host stages (reader, store
    // thread) eventually cap the curve, so demand monotonicity rather
    // than 2×.
    assert!(g4 > g2, "4 devices {g4:.3} GB/s !> 2 devices {g2:.3} GB/s");
}

#[test]
fn reader_bound_pool_gains_nothing_from_devices() {
    // With the paper's 2 GB/s SAN the single device already keeps up:
    // adding devices must not change aggregate throughput (and must not
    // change chunks).
    let streams = tenant_streams(4);
    let run = |gpus: usize| {
        let mut engine = ShredderEngine::new(
            ShredderConfig::gpu_streams_memory()
                .with_buffer_size(1 << 20)
                .with_gpus(gpus)
                .with_pipeline_depth(4 * gpus),
        );
        for (t, data) in streams.iter().enumerate() {
            engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
        }
        engine.run(&Workload::Batch).expect("engine run failed")
    };
    let one = run(1);
    let two = run(2);
    let (g1, g2) = (one.report.aggregate_gbps(), two.report.aggregate_gbps());
    assert!(
        (g2 - g1).abs() / g1 < 0.05,
        "reader-bound: {g1:.3} vs {g2:.3} GB/s should match"
    );
    for (a, b) in one.completed().zip(two.completed()) {
        assert_eq!(a.chunks, b.chunks);
    }
}

#[test]
fn placement_policies_shard_sessions_deterministically() {
    let streams = tenant_streams(5);
    let run = |policy: PlacementPolicy| {
        let mut engine = ShredderEngine::new(pool_config(2).with_placement(policy));
        for (t, data) in streams.iter().enumerate() {
            engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
        }
        engine.run(&Workload::Batch).expect("engine run failed")
    };
    let rr = run(PlacementPolicy::RoundRobin);
    let devs: Vec<usize> = rr.report.sessions.iter().map(|r| r.device).collect();
    assert_eq!(devs, vec![0, 1, 0, 1, 0]);

    // Equal-sized streams: least-loaded alternates too, by load.
    let ll = run(PlacementPolicy::LeastLoaded);
    let devs: Vec<usize> = ll.report.sessions.iter().map(|r| r.device).collect();
    assert_eq!(devs, vec![0, 1, 0, 1, 0]);

    // Same inputs, same policy → identical report, chunk for chunk.
    let rr2 = run(PlacementPolicy::RoundRobin);
    assert_eq!(rr.report, rr2.report);
    assert_eq!(rr.sessions, rr2.sessions);
}

#[test]
fn pinned_placement_isolates_a_tenant() {
    let streams = tenant_streams(3);
    let mut engine = ShredderEngine::new(pool_config(2).with_placement(PlacementPolicy::Pinned));
    engine.submit(
        ChunkRequest::new(SliceSource::new(&streams[0]))
            .named("isolated")
            .pinned(1),
    );
    engine.submit(ChunkRequest::new(SliceSource::new(&streams[1])).named("bulk-a"));
    engine.submit(ChunkRequest::new(SliceSource::new(&streams[2])).named("bulk-b"));
    let out = engine.run(&Workload::Batch).expect("engine run failed");
    assert_eq!(out.report.sessions[0].device, 1);
    // The fallback packs unpinned tenants onto the other, lighter device.
    assert_eq!(out.report.sessions[1].device, 0);
    assert_eq!(out.report.sessions[2].device, 0);
}

#[test]
fn single_stream_convenience_is_a_one_device_pool() {
    // The single-stream Shredder runs on a pool of one; its report is
    // the engine's, device view included.
    let data = workloads::random_bytes(4 << 20, 0x977);
    let shredder = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20));
    let engine_out = {
        let mut engine = shredder.engine();
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        engine.run(&Workload::Batch).expect("engine run failed")
    };
    assert_eq!(engine_out.report.devices.len(), 1);
    let out = shredder.chunk_stream(&data).expect("chunking failed");
    assert_eq!(out.chunks, engine_out.sessions[0].as_ref().unwrap().chunks);
    assert_eq!(out.report.devices, engine_out.report.devices);
}
