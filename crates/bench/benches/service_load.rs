//! Online service under open-loop load: offered req/s vs. achieved
//! throughput and request latency.
//!
//! "GPUs as Storage System Accelerators" evaluates GPU-backed storage
//! services exactly this way: sweep the offered load, watch the latency
//! curve, find the knee. This harness drives a [`ShredderEngine`]
//! with Poisson arrivals at increasing fractions of the
//! measured batch capacity, prints the latency curve (p50/p99, achieved
//! rate, queue depth), locates the knee, and then bisects
//! ([`capacity_search`]) for the highest sustained rate meeting a p99
//! SLO under delay-bounded admission.
//!
//! Set `SHREDDER_BENCH_JSON=<path>` to dump the headline numbers; the
//! CI gate (`bench_gate`) tracks `sustained_rps` — the sustained req/s
//! at SLO — release over release. Set `SHREDDER_TRACE_JSON=<path>` to
//! additionally run one telemetry-on sweep point and dump its Chrome
//! trace (load it at <https://ui.perfetto.dev>); the headline numbers
//! always come from telemetry-off runs.

use shredder_bench::{check, dump_bench_json, header, result_line, table};
use shredder_core::{
    capacity_search, AdmissionControl, ChunkRequest, MemorySource, ServiceReport, ShredderConfig,
    ShredderEngine, TelemetryConfig, Workload,
};
use shredder_des::Dur;
use shredder_gpu::kernel::KernelVariant;
use shredder_telemetry::Json;

const REQUESTS: usize = 24;
const REQ_BYTES: usize = 1 << 20;

fn config(kernel: KernelVariant) -> ShredderConfig {
    ShredderConfig::gpu_streams_memory()
        .with_buffer_size(256 << 10)
        .with_chunk_kernel(kernel)
}

fn engine<'a>(control: AdmissionControl, kernel: KernelVariant) -> ShredderEngine<'a> {
    let mut engine = ShredderEngine::new(config(kernel)).with_admission(control);
    for t in 0..REQUESTS as u64 {
        engine.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
    }
    engine
}

fn run_poisson(
    rate: f64,
    control: AdmissionControl,
    seed: u64,
    kernel: KernelVariant,
) -> ServiceReport {
    engine(control, kernel)
        .run(&Workload::poisson(rate, seed))
        .expect("engine run failed")
        .report
        .service
}

fn main() {
    header(
        "Service load sweep",
        "open-loop Poisson arrivals: offered load vs. latency, knee and sustained rate at SLO",
    );

    // Capacity estimate: a closed batch through the same admission
    // slots — the completion rate with the queue never empty.
    let batch = engine(AdmissionControl::fifo(4), KernelVariant::Coalesced)
        .run(&Workload::Batch)
        .expect("batch run failed")
        .report
        .service;
    let mu = batch.achieved_rps;
    result_line("batch capacity estimate", format!("{mu:.0} req/s"));
    result_line(
        "batch aggregate",
        format!("{:.2} GB/s", batch.achieved_gbps),
    );
    println!();

    // The latency curve: offered load from 30% to 150% of capacity.
    let fractions = [0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5];
    let mut sweep: Vec<(f64, ServiceReport)> = Vec::new();
    for (i, f) in fractions.iter().enumerate() {
        let rate = f * mu;
        let report = run_poisson(
            rate,
            AdmissionControl::fifo(4),
            0xbeef + i as u64,
            KernelVariant::Coalesced,
        );
        sweep.push((rate, report));
    }

    let rows: Vec<(String, Vec<String>)> = fractions
        .iter()
        .zip(&sweep)
        .map(|(f, (rate, r))| {
            (
                format!("{:.0}% ({rate:.0} rps)", f * 100.0),
                vec![
                    format!("{:.0} rps", r.achieved_rps),
                    format!("{:.2} ms", r.p50().as_millis_f64()),
                    format!("{:.2} ms", r.p99().as_millis_f64()),
                    format!("{}", r.max_queue_depth),
                ],
            )
        })
        .collect();
    table(&["achieved", "p50", "p99", "max queue"], &rows);

    // The SLO: 3x the p50 at the lightest load — comfortably met at low
    // rates, busted past the knee.
    let base_p50 = sweep[0].1.p50();
    let slo = Dur::from_secs_f64(base_p50.as_secs_f64() * 3.0);
    let knee = fractions
        .iter()
        .zip(&sweep)
        .filter(|(_, (_, r))| r.shed == 0 && r.p99() <= slo)
        .map(|(f, (rate, _))| (*f, *rate))
        .next_back();
    println!();
    result_line(
        "p99 SLO (3x light-load p50)",
        format!("{:.2} ms", slo.as_millis_f64()),
    );
    match knee {
        Some((f, rate)) => result_line(
            "knee (highest swept load within SLO)",
            format!("{:.0}% of capacity ({rate:.0} rps)", f * 100.0),
        ),
        None => result_line("knee", "below the lightest swept load"),
    }

    // Bisect for the sustained rate at SLO under delay-bounded
    // admission (the production posture: queue delay capped, overload
    // sheds instead of queueing without bound).
    let control = AdmissionControl::fifo(4).with_max_queue_delay(slo);
    let search = capacity_search(slo, 0.1 * mu, 2.0 * mu, 7, |rate| {
        Ok(run_poisson(rate, control, 0xcafe, KernelVariant::Coalesced))
    })
    .expect("capacity search failed");
    let sustained = search.sustained_rps;
    let sustained_gbps = sustained * REQ_BYTES as f64 / 1e9;
    println!();
    result_line("sustained rate at SLO", format!("{sustained:.0} req/s"));
    result_line(
        "sustained ingest at SLO",
        format!("{sustained_gbps:.2} GB/s"),
    );
    if let Some(p99) = search.p99_at_sustained {
        result_line(
            "p99 at sustained rate",
            format!("{:.2} ms", p99.as_millis_f64()),
        );
    }

    // The same bisection with the Gear/FastCDC kernel, against the same
    // SLO: lighter per-byte kernel cost raises the sustained rate.
    let gear_search = capacity_search(slo, 0.1 * mu, 2.0 * mu, 7, |rate| {
        Ok(run_poisson(
            rate,
            control,
            0xcafe,
            KernelVariant::GearCoalesced,
        ))
    })
    .expect("gear capacity search failed");
    let gear_sustained = gear_search.sustained_rps;
    result_line(
        "sustained rate at SLO (Gear)",
        format!("{gear_sustained:.0} req/s"),
    );

    println!();
    let light = &sweep[0].1;
    let heavy = &sweep[sweep.len() - 1].1;
    check(
        "latency rises with offered load (p99 at 150% > p99 at 30%)",
        heavy.p99() > light.p99(),
    );
    check(
        "below capacity nothing sheds and everything completes",
        sweep[..3]
            .iter()
            .all(|(_, r)| r.shed == 0 && r.completed == REQUESTS),
    );
    check(
        "achieved rate saturates: at 150% offered, achieved < offered",
        heavy.achieved_rps < heavy.offered_rps,
    );
    check("a knee exists within the sweep", knee.is_some());
    check(
        "capacity search found a positive sustained rate at SLO",
        sustained > 0.0,
    );
    check(
        "sustained rate is below the overloaded end of the sweep",
        sustained < 1.5 * mu,
    );
    check(
        &format!(
            "Gear kernel sustains at least the Rabin rate at SLO ({gear_sustained:.0} vs {sustained:.0} rps)"
        ),
        gear_sustained >= sustained,
    );

    // Chrome-trace export: when SHREDDER_TRACE_JSON names a path, rerun
    // one sweep point (85% of capacity — loaded but within SLO) with
    // telemetry on and dump the trace. Kept out of the headline runs so
    // the gated numbers always measure the telemetry-off path.
    if std::env::var("SHREDDER_TRACE_JSON").is_ok_and(|p| !p.is_empty()) {
        let mut traced = ShredderEngine::new(
            config(KernelVariant::Coalesced).with_telemetry(TelemetryConfig::enabled()),
        )
        .with_admission(AdmissionControl::fifo(4));
        for t in 0..REQUESTS as u64 {
            traced.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
        }
        let out = traced
            .run(&Workload::poisson(0.85 * mu, 0xbeef + 3))
            .expect("trace run failed");
        let telemetry = out
            .report
            .telemetry
            .as_ref()
            .expect("telemetry-on run carries a report");
        if let Some(path) =
            shredder_telemetry::dump_json("SHREDDER_TRACE_JSON", telemetry.to_chrome_json())
        {
            result_line("chrome trace written to", path);
        }
    }

    // Perf-trajectory dump: bench_gate tracks both sustained rates.
    let sweep_json = sweep.iter().map(|(rate, r)| {
        Json::object()
            .field("offered_rps", *rate)
            .field("achieved_rps", r.achieved_rps)
            .field("p50_ms", r.p50().as_millis_f64())
            .field("p99_ms", r.p99().as_millis_f64())
            .field("shed", r.shed)
            .field("max_queue_depth", r.max_queue_depth)
    });
    dump_bench_json(
        &Json::object()
            .field("sustained_rps", sustained)
            .field("sustained_rps_gear", gear_sustained)
            .field("sustained_gbps", sustained_gbps)
            .field("capacity_estimate_rps", mu)
            .field("slo_ms", slo.as_millis_f64())
            .field("request_bytes", REQ_BYTES)
            .field("requests", REQUESTS)
            .field("sweep", sweep_json.collect::<Json>()),
    );
}
