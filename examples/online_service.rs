//! The online service frontend: open-loop arrivals, admission control,
//! latency SLOs.
//!
//! Demonstrates the service regime the closed-batch API cannot express:
//! requests arrive *while the GPUs are busy*, wait in a bounded
//! admission queue, and either complete (with per-request latency) or
//! are shed under overload. Run with:
//!
//! ```text
//! cargo run --release --example online_service
//! ```

use shredder::core::{
    capacity_search, AdmissionControl, ChunkError, ChunkRequest, MemorySource, ShredderConfig,
    ShredderService, TenantClass, Workload,
};
use shredder::des::Dur;

const REQUESTS: usize = 24;
const REQ_BYTES: usize = 512 << 10;

fn build_service<'a>(control: AdmissionControl) -> ShredderService<'a> {
    let mut service =
        ShredderService::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10))
            .with_admission(control);
    // Two tenant classes: paying traffic gets 4x the fair-share weight;
    // free traffic is additionally capped at a 10 Gbps ingest link via
    // `TenantClass::with_ingest_bw` (a one-shot `Shredder` caps its
    // whole reader with `ShredderConfig::with_reader_bandwidth`).
    service.define_class(TenantClass::new("gold").with_weight(4));
    service.define_class(TenantClass::new("free").with_ingest_bw(1.25e9));
    for t in 0..REQUESTS as u64 {
        let class = if t % 3 == 0 { "gold" } else { "free" };
        service.submit(
            ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t))
                .named(format!("{class}-{t}"))
                .with_class(class),
        );
    }
    service
}

fn main() {
    // 1. Measure capacity with a closed batch.
    let mu = {
        let out = build_service(AdmissionControl::fifo(4))
            .run(&Workload::Batch)
            .expect("batch run failed");
        out.service().achieved_rps
    };
    println!("measured capacity ≈ {mu:.0} req/s\n");

    // 2. Open-loop Poisson at 70% of capacity: everything completes,
    //    p99 stays finite.
    let out = build_service(AdmissionControl::fifo(4))
        .run(&Workload::poisson(0.7 * mu, 7))
        .expect("service run failed");
    let svc = out.service();
    println!("-- 70% of capacity (open loop) --");
    println!(
        "offered {:.0} req/s  achieved {:.0} req/s  completed {}  shed {}",
        svc.offered_rps, svc.achieved_rps, svc.completed, svc.shed
    );
    for class in &svc.classes {
        println!(
            "  class {:<8} p50 {:>7.2} ms  p99 {:>7.2} ms  (completed {}, shed {})",
            class.class,
            class.p50.as_millis_f64(),
            class.p99.as_millis_f64(),
            class.completed,
            class.shed
        );
    }

    // 3. 2x capacity with a queue-delay bound: the service sheds
    //    instead of queueing without bound.
    let bound = Dur::from_millis(2);
    let out = build_service(AdmissionControl::fifo(4).with_max_queue_delay(bound))
        .run(&Workload::poisson(2.0 * mu, 11))
        .expect("service run failed");
    let svc = out.service();
    println!("\n-- 200% of capacity, queue delay bounded at 2 ms --");
    println!(
        "completed {}  shed {}  max queue delay {:.2} ms  max queue depth {}",
        svc.completed,
        svc.shed,
        svc.max_queue_delay().as_millis_f64(),
        svc.max_queue_depth
    );
    for r in &out.requests {
        if let Err(ChunkError::Overloaded { queued }) = &r.outcome {
            println!(
                "  {} shed after {:.2} ms in queue",
                r.name,
                queued.as_millis_f64()
            );
        }
    }

    // 4. Bisect the highest sustained rate meeting a p99 SLO.
    let slo = Dur::from_millis(3);
    let report = capacity_search(slo, 0.2 * mu, 2.0 * mu, 6, |rate| {
        let out = build_service(AdmissionControl::fifo(4).with_max_queue_delay(slo))
            .run(&Workload::poisson(rate, 4242))?;
        Ok(out.service().clone())
    })
    .expect("capacity search failed");
    println!(
        "\nsustained rate at p99 ≤ {:.0} ms: {:.0} req/s ({} trials)",
        slo.as_millis_f64(),
        report.sustained_rps,
        report.trials.len()
    );
}
