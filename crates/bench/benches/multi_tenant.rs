//! Multi-tenant engine: N concurrent streams through one shared device
//! pipeline.
//!
//! The ROADMAP's "many clients, one GPU" direction (and §7.2's backup
//! server consolidating many remote sites): the session engine admits
//! buffers from every tenant into the same reader/DMA/kernel/store
//! pipeline, so one stream's fill/drain bubbles are covered by the
//! others' buffers. The harness checks the two load-bearing properties:
//!
//! * **correctness** — every tenant's chunks are bit-identical to a
//!   sequential CPU scan of its own stream, under contention;
//! * **throughput** — aggregate GB/s across ≥4 concurrent tenants
//!   exceeds the single-stream throughput of the same engine
//!   configuration (pipeline overlap across tenants).
//!
//! Set `SHREDDER_BENCH_JSON=<path>` to also dump the run's headline
//! numbers (aggregate GB/s, per-session makespans/queueing, stage busy
//! times) as JSON, so the perf trajectory can be recorded across PRs
//! (`BENCH_multi_tenant.json` by convention). The vendored `serde` is
//! derive-only, so the encoder here is hand-rolled over the report
//! fields.

use shredder_bench::{check, dump_bench_json, gbps, header, result_line, table};
use shredder_core::{
    AdmissionPolicy, EngineReport, Shredder, ShredderConfig, ShredderEngine, SliceSource,
};
use shredder_rabin::{chunk_all, ChunkParams};

/// Hand-rolled JSON for the perf-trajectory dump (`EngineReport` and
/// friends derive `serde::Serialize`, but the offline stub emits
/// nothing).
fn report_to_json(report: &EngineReport, solo_mean_gbps: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"aggregate_gbps\": {:.6},\n  \"solo_mean_gbps\": {:.6},\n",
        report.aggregate_gbps(),
        solo_mean_gbps
    ));
    out.push_str(&format!(
        "  \"bytes\": {},\n  \"buffers\": {},\n  \"pipeline_depth\": {},\n",
        report.bytes, report.buffers, report.pipeline_depth
    ));
    out.push_str(&format!(
        "  \"makespan_ns\": {},\n  \"queue_wait_ns\": {},\n",
        report.makespan.as_nanos(),
        report.queue_wait.as_nanos()
    ));
    out.push_str(&format!(
        "  \"stage_busy_ns\": {{\"read\": {}, \"transfer\": {}, \"kernel\": {}, \"store\": {}}},\n",
        report.stage_busy.read.as_nanos(),
        report.stage_busy.transfer.as_nanos(),
        report.stage_busy.kernel.as_nanos(),
        report.stage_busy.store.as_nanos()
    ));
    let sink_stages: Vec<String> = report
        .sink_stages
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"busy_ns\": {}, \"queue_wait_ns\": {}, \"jobs\": {}}}",
                s.name,
                s.busy.as_nanos(),
                s.queue_wait.as_nanos(),
                s.jobs
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"sink_stages\": [\n{}\n  ],\n",
        sink_stages.join(",\n")
    ));
    let devices: Vec<String> = report
        .devices
        .iter()
        .map(|d| {
            format!(
                "    {{\"id\": {}, \"sessions\": {}, \"buffers\": {}, \"utilization\": {:.6}, \"overlap\": {:.6}}}",
                d.id, d.sessions, d.buffers, d.utilization, d.overlap
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"devices\": [\n{}\n  ],\n",
        devices.join(",\n")
    ));
    let sessions: Vec<String> = report
        .sessions
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"device\": {}, \"bytes\": {}, \"makespan_ns\": {}, \"queue_wait_ns\": {}, \"gbps\": {:.6}}}",
                r.name,
                r.device,
                r.bytes,
                r.makespan.as_nanos(),
                r.queue_wait.as_nanos(),
                r.throughput_gbps()
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"sessions\": [\n{}\n  ]\n}}\n",
        sessions.join(",\n")
    ));
    out
}

fn main() {
    header(
        "Multi-tenant engine",
        "4+ concurrent client streams through one shared chunking pipeline",
    );

    let tenants = 6usize;
    let per_stream = 4 << 20; // short streams: fill/drain matters
    let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20);
    let streams: Vec<Vec<u8>> = (0..tenants)
        .map(|t| shredder_workloads::random_bytes(per_stream, 0x7e0 + t as u64))
        .collect();

    // Single-stream baseline: each tenant served alone, back to back.
    let solo = Shredder::new(cfg.clone());
    let mut solo_gbps = Vec::new();
    for data in &streams {
        let out = solo.chunk_stream(data).expect("chunking failed");
        solo_gbps.push(out.report.aggregate_gbps());
    }
    let solo_mean = solo_gbps.iter().sum::<f64>() / solo_gbps.len() as f64;

    // All tenants concurrently through one engine.
    let mut engine = ShredderEngine::new(cfg.clone()).with_policy(AdmissionPolicy::RoundRobin);
    for (t, data) in streams.iter().enumerate() {
        engine.open_named_session(format!("tenant-{t}"), 1, SliceSource::new(data));
    }
    let outcome = engine.run().expect("engine run failed");

    // Correctness under contention: bit-identical per stream.
    let params = ChunkParams::paper();
    for (session, data) in outcome.sessions.iter().zip(&streams) {
        assert_eq!(
            session.chunks,
            chunk_all(data, &params),
            "{} diverged from the sequential scan",
            session.name
        );
    }
    println!("  (all {tenants} tenants produced chunks bit-identical to sequential CPU scans)");
    println!();

    let rows: Vec<(String, Vec<String>)> = outcome
        .report
        .sessions
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                vec![
                    format!("{:.2} ms", r.makespan.as_millis_f64()),
                    format!("{:.2} ms", r.queue_wait.as_millis_f64()),
                    format!("{:.2} GB/s", r.throughput_gbps()),
                ],
            )
        })
        .collect();
    table(&["makespan", "queue wait", "own GB/s"], &rows);

    let aggregate = outcome.report.aggregate_gbps();
    println!();
    result_line("single-stream throughput (mean)", gbps(solo_mean * 1e9));
    result_line("multi-tenant aggregate", gbps(aggregate * 1e9));
    result_line(
        "total admission queueing (contention)",
        format!("{:.2} ms", outcome.report.queue_wait.as_millis_f64()),
    );

    println!();
    check(
        "aggregate throughput exceeds single-stream throughput (overlap across tenants)",
        aggregate > solo_mean,
    );
    check(
        "every tenant saw admission queueing (streams genuinely contend)",
        outcome
            .report
            .sessions
            .iter()
            .all(|r| !r.queue_wait.is_zero()),
    );
    check(
        "round-robin keeps per-tenant makespans within 25% of each other",
        {
            let spans: Vec<f64> = outcome
                .report
                .sessions
                .iter()
                .map(|r| r.makespan.as_secs_f64())
                .collect();
            let max = spans.iter().cloned().fold(f64::MIN, f64::max);
            let min = spans.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max < 0.25
        },
    );

    // Weighted admission: a priority tenant finishes sooner.
    let mut weighted = ShredderEngine::new(cfg).with_policy(AdmissionPolicy::Weighted);
    for (t, data) in streams.iter().enumerate() {
        let weight = if t == 0 { 4 } else { 1 };
        weighted.open_named_session(format!("tenant-{t}"), weight, SliceSource::new(data));
    }
    let weighted_out = weighted.run().expect("engine run failed");
    let priority = &weighted_out.report.sessions[0];
    let rr_priority = &outcome.report.sessions[0];
    println!();
    result_line(
        "tenant-0 completion (even weights)",
        format!("{:.2} ms", rr_priority.completion.as_millis_f64()),
    );
    result_line(
        "tenant-0 completion (weight 4)",
        format!("{:.2} ms", priority.completion.as_millis_f64()),
    );
    check(
        "weighted admission finishes the priority tenant earlier",
        priority.completion < rr_priority.completion,
    );

    // Perf-trajectory dump (BENCH_*.json across PRs).
    dump_bench_json(&report_to_json(&outcome.report, solo_mean));
}
