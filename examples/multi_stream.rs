//! Multi-tenant chunking: many client streams, one GPU pipeline.
//!
//! Run with `cargo run --release --example multi_stream`.
//!
//! A consolidated server (the paper's §7.2 backup scenario) receives
//! streams from several remote sites at once. Instead of chunking them
//! one call at a time — draining the pipeline between clients — the
//! engine takes one `ChunkRequest` per client and schedules all of
//! their buffers through one shared discrete-event pipeline with
//! round-robin admission. Each client still gets chunks bit-identical
//! to a sequential scan of its own stream.

use shredder::core::{
    AdmissionPolicy, ChunkRequest, Shredder, ShredderConfig, ShredderEngine, SliceSource, Workload,
};
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

fn main() {
    let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20);

    // Six remote sites, 8 MiB snapshot stream each.
    let sites: Vec<(String, Vec<u8>)> = (0..6)
        .map(|s| {
            (
                format!("site-{s}"),
                workloads::random_bytes(8 << 20, 1000 + s as u64),
            )
        })
        .collect();

    // Baseline: each site served alone through the one-shot API.
    let solo = Shredder::new(cfg.clone());
    let solo_gbps: Vec<f64> = sites
        .iter()
        .map(|(_, data)| {
            solo.chunk_stream(data)
                .expect("chunking failed")
                .report
                .aggregate_gbps()
        })
        .collect();
    let solo_mean = solo_gbps.iter().sum::<f64>() / solo_gbps.len() as f64;

    // Multi-tenant: all sites concurrently through one engine.
    let mut engine = ShredderEngine::new(cfg).with_policy(AdmissionPolicy::RoundRobin);
    for (name, data) in &sites {
        engine.submit(ChunkRequest::new(SliceSource::new(data)).named(name.clone()));
    }
    let outcome = engine.run(&Workload::Batch).expect("engine run failed");

    println!(
        "{:<10}{:>12}{:>14}{:>12}{:>10}",
        "session", "bytes", "makespan", "queueing", "GB/s"
    );
    for r in &outcome.report.sessions {
        println!(
            "{:<10}{:>9} MiB{:>11.2} ms{:>9.2} ms{:>10.2}",
            r.name,
            r.bytes >> 20,
            r.makespan.as_millis_f64(),
            r.queue_wait.as_millis_f64(),
            r.throughput_gbps()
        );
    }

    // Every tenant's chunks equal its own sequential scan.
    let params = ChunkParams::paper();
    for (session, (name, data)) in outcome.completed().zip(&sites) {
        assert_eq!(session.chunks, chunk_all(data, &params), "{name} diverged");
    }

    println!(
        "\nsingle-stream mean  : {solo_mean:.2} GB/s\n\
         aggregate (6 sites) : {:.2} GB/s\n\
         engine makespan     : {:.2} ms over {} buffers\n\
         total queueing      : {:.2} ms (streams contend for {} admission slots)",
        outcome.report.aggregate_gbps(),
        outcome.report.makespan.as_millis_f64(),
        outcome.report.buffers,
        outcome.report.queue_wait.as_millis_f64(),
        outcome.report.pipeline_depth,
    );
    assert!(outcome.report.aggregate_gbps() > solo_mean);
    println!("\nall sites restored bit-identical chunk boundaries under contention");
}
