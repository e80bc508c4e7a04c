//! Integration: the engine as an online service, under arrival
//! workloads and bounded admission.
//!
//! The engine must (a) sustain an open-loop Poisson workload below
//! capacity with a finite, stable p99 and no shedding, (b) shed under
//! overload with *bounded* queue delay, without corrupting accepted
//! requests' chunk streams, and (c) keep the closed batch
//! (`run(&Workload::Batch)` under the default unbounded admission)
//! bit-identical to a sequential scan.

use shredder::core::{
    capacity_search, AdmissionControl, ChunkError, ChunkRequest, MemorySource, ShredderConfig,
    ShredderEngine, SliceSource, Workload,
};
use shredder::des::Dur;
use shredder::hash::sha256;
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

const REQUESTS: usize = 24;
const REQ_BYTES: usize = 256 << 10;

fn cfg() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10)
}

fn engine_with_requests<'a>() -> ShredderEngine<'a> {
    let mut engine = ShredderEngine::new(cfg());
    for t in 0..REQUESTS as u64 {
        engine.submit(ChunkRequest::new(MemorySource::pseudo_random(REQ_BYTES, t)));
    }
    engine
}

/// Measured service capacity in req/s: a closed batch through the same
/// admission slots, completed count over makespan.
fn measured_capacity() -> f64 {
    let mut engine = engine_with_requests().with_admission(AdmissionControl::fifo(4));
    let out = engine.run(&Workload::Batch).unwrap();
    let svc = &out.report.service;
    assert_eq!(svc.completed, REQUESTS);
    svc.achieved_rps
}

#[test]
fn poisson_at_80_percent_of_capacity_meets_slo_and_is_stable() {
    let mu = measured_capacity();
    let rate = 0.8 * mu;
    let run = || {
        let mut engine = engine_with_requests().with_admission(AdmissionControl::fifo(4));
        engine.run(&Workload::poisson(rate, 1234)).unwrap()
    };
    let first = run();
    let svc = &first.report.service;

    // Below capacity: nothing sheds, every request completes, and p99
    // is finite (positive and far below the whole run's span).
    assert_eq!(svc.shed, 0);
    assert_eq!(svc.completed, REQUESTS);
    let p99 = svc.p99();
    assert!(p99 > Dur::ZERO);
    assert!(
        p99 < first.report.makespan,
        "p99 {p99} not finite relative to makespan {}",
        first.report.makespan
    );
    // The queue does not grow without bound below capacity.
    assert!(
        svc.max_queue_depth < REQUESTS / 2,
        "queue depth {} blew up below capacity",
        svc.max_queue_depth
    );
    // Offered ≈ configured rate; achieved keeps up with offered.
    assert!(
        (svc.offered_rps - rate).abs() / rate < 0.5,
        "offered {} vs configured {rate}",
        svc.offered_rps
    );

    // Stable: the identical workload replays to the identical report —
    // latencies, timelines, queue-depth samples, everything.
    let second = run();
    assert_eq!(first.report, second.report);
    assert!(first.sessions.iter().all(Result::is_ok));
    assert_eq!(first.sessions, second.sessions);
}

#[test]
fn poisson_at_120_percent_of_capacity_sheds_with_bounded_queue_delay() {
    let mu = measured_capacity();
    let bound = Dur::from_micros(800);
    let mut engine = engine_with_requests()
        .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(bound));
    let out = engine.run(&Workload::poisson(1.2 * mu, 99)).unwrap();
    let svc = &out.report.service;

    // Overload: the delay bound trips and sheds some of the offered
    // traffic, but the rest completes.
    assert!(
        svc.shed > 0,
        "120% of capacity must shed (max delay {})",
        svc.max_queue_delay()
    );
    assert!(svc.completed > 0);
    assert_eq!(svc.completed + svc.shed, REQUESTS);

    // Queue delay is bounded for *everyone*: admitted requests waited
    // at most the bound (they would have been shed otherwise), shed
    // requests were cut exactly at the bound.
    for r in &svc.requests {
        assert!(
            r.queue_delay() <= bound,
            "request {} queue delay {} exceeds bound {bound}",
            r.id,
            r.queue_delay()
        );
    }
    assert!(svc.max_queue_delay() <= bound);

    // Shed requests surface as Overloaded with their queueing time.
    for r in &out.sessions {
        if let Err(e) = r {
            assert!(matches!(e, ChunkError::Overloaded { .. }), "{e:?}");
        }
    }

    // Accepted requests' chunks are still bit-identical to sequential
    // scans of their own streams — overload isolation.
    for outcome in out.completed() {
        let src = MemorySource::pseudo_random(REQ_BYTES, outcome.id.index() as u64);
        let data = shredder::core::StreamSource::bytes(&src);
        assert_eq!(outcome.chunks, chunk_all(data, &ChunkParams::paper()));
        // Digest spot check on the first chunk.
        if let Some(c) = outcome.chunks.first() {
            let _ = sha256(c.slice(data));
        }
    }
}

#[test]
fn queue_depth_bound_sheds_excess_burst() {
    let mut engine =
        engine_with_requests().with_admission(AdmissionControl::fifo(2).with_queue_depth(4));
    let out = engine.run(&Workload::Batch).unwrap();
    let svc = &out.report.service;
    // A batch burst of 24 into 2 slots + 4 queue seats: exactly the
    // overflow sheds at arrival with zero queueing.
    assert_eq!(svc.completed, 6);
    assert_eq!(svc.shed, REQUESTS - 6);
    assert!(svc.max_queue_depth <= 4);
    for r in &svc.requests {
        if r.is_shed() {
            assert_eq!(r.queue_delay(), Dur::ZERO, "queue-full sheds are immediate");
        }
    }

    // Degenerate depth 0: the bound only applies to requests that would
    // actually wait — with a free dispatch slot an arrival still goes
    // straight through, so exactly the slot-holders complete.
    let mut engine =
        engine_with_requests().with_admission(AdmissionControl::fifo(2).with_queue_depth(0));
    let out = engine.run(&Workload::Batch).unwrap();
    assert_eq!(out.report.service.completed, 2);
    assert_eq!(out.report.service.shed, REQUESTS - 2);
}

#[test]
fn closed_loop_self_throttles_and_never_sheds() {
    let clients = 4;
    let mut engine = engine_with_requests().with_admission(AdmissionControl::fifo(clients));
    let out = engine
        .run(&Workload::closed_loop(clients, Dur::from_micros(200)))
        .unwrap();
    let svc = &out.report.service;
    // Closed loop: offered load follows completions, so with as many
    // dispatch slots as clients nothing ever queues or sheds.
    assert_eq!(svc.completed, REQUESTS);
    assert_eq!(svc.shed, 0);
    assert!(
        svc.max_queue_depth <= 1,
        "closed loop queued: {}",
        svc.max_queue_depth
    );
    // Arrivals genuinely spread over time (not a batch): later requests
    // arrive after earlier ones complete.
    let arrivals: Vec<_> = svc.requests.iter().map(|r| r.arrival).collect();
    assert!(arrivals[clients] > arrivals[0]);
    // Each client's requests are serialized: think time separates a
    // completion from the next arrival.
    for i in clients..REQUESTS {
        let prev = &svc.requests[i - clients];
        let next = &svc.requests[i];
        let prev_end = prev.done.or(prev.shed_at).unwrap();
        assert_eq!(
            next.arrival.saturating_since(prev_end),
            Dur::from_micros(200)
        );
    }
}

#[test]
fn capacity_search_finds_a_sustained_rate_meeting_the_slo() {
    let mu = measured_capacity();
    let slo = Dur::from_millis(2);
    let report = capacity_search(slo, 0.1 * mu, 3.0 * mu, 6, |rate| {
        let mut engine = engine_with_requests()
            .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(Dur::from_millis(4)));
        Ok(engine.run(&Workload::poisson(rate, 4242))?.report.service)
    })
    .unwrap();

    // The knee exists: a positive sustained rate below the (failing)
    // upper probe, meeting the SLO.
    assert!(
        report.sustained_rps > 0.0,
        "no sustained rate found: {report:?}"
    );
    assert!(report.sustained_rps < 3.0 * mu);
    let p99 = report.p99_at_sustained.expect("passing trial records p99");
    assert!(p99 <= slo);
    // Deterministic: the same search replays identically.
    let again = capacity_search(slo, 0.1 * mu, 3.0 * mu, 6, |rate| {
        let mut engine = engine_with_requests()
            .with_admission(AdmissionControl::fifo(4).with_max_queue_delay(Dur::from_millis(4)));
        Ok(engine.run(&Workload::poisson(rate, 4242))?.report.service)
    })
    .unwrap();
    assert_eq!(report, again);
}

#[test]
fn batch_run_is_bit_identical_to_sequential_scans() {
    // Every caller of `submit` + `run(&Workload::Batch)` under the
    // default unbounded admission sees exactly the chunks and digests
    // of a sequential scan of each stream.
    let streams: Vec<Vec<u8>> = (0..4)
        .map(|t| workloads::random_bytes(1 << 20, 777 + t as u64))
        .collect();
    let mut engine = ShredderEngine::new(cfg());
    for s in &streams {
        engine.submit(ChunkRequest::new(SliceSource::new(s)));
    }
    let out = engine.run(&Workload::Batch).unwrap();
    assert_eq!(out.completed().count(), streams.len());
    for (session, data) in out.completed().zip(&streams) {
        assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
        let digests: Vec<_> = session
            .chunks
            .iter()
            .map(|c| sha256(c.slice(data)))
            .collect();
        assert_eq!(digests.len(), session.chunks.len());
    }
    // Nothing queued at the request level: every request was admitted
    // the instant it arrived.
    let svc = &out.report.service;
    assert_eq!((svc.completed, svc.shed), (streams.len(), 0));
    assert!(svc.requests.iter().all(|r| r.queue_delay().is_zero()));
    // Owned sources (`MemorySource`) yield the same chunks as borrowed
    // ones.
    let mut owned = ShredderEngine::new(cfg());
    for (t, s) in streams.iter().enumerate() {
        owned.submit(ChunkRequest::new(MemorySource::new(s.clone())).named(format!("t{t}")));
    }
    let owned_out = owned.run(&Workload::Batch).unwrap();
    for (a, b) in owned_out.completed().zip(out.completed()) {
        assert_eq!(a.chunks, b.chunks);
    }
}
