//! Property-based tests: the Shredder pipeline is a drop-in equivalent
//! of sequential chunking for arbitrary data and configurations — and
//! the multi-stream engine preserves that equivalence per tenant under
//! arbitrary contention.

use proptest::prelude::*;
use shredder_core::{
    AdmissionPolicy, ChunkRequest, ChunkSink, FingerprintStage, Shredder, ShredderConfig,
    ShredderEngine, SinkDemand, SliceSource, StageSpec, Workload,
};
use shredder_des::Dur;
use shredder_hash::{sha256, Digest};
use shredder_rabin::{chunk_all, Chunk, ChunkParams};

/// A recording sink: collects every delivered chunk and the digest the
/// engine hands it, in delivery order, with a fingerprint stage
/// attached so the delivery also runs through the simulation.
struct RecordingSink {
    fingerprint: FingerprintStage,
    delivered: Vec<Chunk>,
    digests: Vec<Digest>,
}

impl RecordingSink {
    fn new() -> Self {
        RecordingSink {
            fingerprint: FingerprintStage::new(1.5e9),
            delivered: Vec::new(),
            digests: Vec::new(),
        }
    }
}

impl ChunkSink for RecordingSink {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec()]
    }

    fn fingerprints_chunks(&self) -> bool {
        true
    }

    fn consume(&mut self, _data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        self.digests.extend_from_slice(digests);
        self.delivered.extend_from_slice(chunks);
        SinkDemand {
            rows: chunks
                .iter()
                .map(|c| vec![self.fingerprint.service(c.len)])
                .collect(),
            tail: Vec::new(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any preset, any buffer size, any data: GPU pipeline chunks equal
    /// the sequential scan.
    #[test]
    fn pipeline_equals_sequential(
        data in proptest::collection::vec(any::<u8>(), 0..262_144),
        buffer_shift in 14usize..19, // 16 KiB .. 256 KiB
        preset in 0u8..3,
    ) {
        let params = ChunkParams::paper();
        let cfg = match preset {
            0 => ShredderConfig::gpu_basic(),
            1 => ShredderConfig::gpu_streams(),
            _ => ShredderConfig::gpu_streams_memory(),
        }
        .with_buffer_size(1 << buffer_shift);
        let out = Shredder::new(cfg).chunk_stream(&data).unwrap();
        prop_assert_eq!(out.chunks, chunk_all(&data, &params));
    }

    /// Min/max constraints survive the pipeline's buffer splitting.
    #[test]
    fn pipeline_respects_min_max(
        data in proptest::collection::vec(any::<u8>(), 1..262_144),
        min_shift in 8usize..11,
    ) {
        let params = ChunkParams {
            min_size: 1 << min_shift,
            max_size: 8 << min_shift,
            ..ChunkParams::paper()
        };
        let cfg = ShredderConfig::gpu_streams_memory()
            .with_params(params.clone())
            .with_buffer_size(32 << 10);
        let out = Shredder::new(cfg).chunk_stream(&data).unwrap();
        prop_assert_eq!(&out.chunks, &chunk_all(&data, &params));
        for (i, c) in out.chunks.iter().enumerate() {
            prop_assert!(c.len <= params.max_size);
            if i + 1 != out.chunks.len() {
                prop_assert!(c.len >= params.min_size);
            }
        }
    }

    /// Host and GPU services always agree, and both reports account for
    /// every byte.
    #[test]
    fn services_agree_and_account_bytes(data in proptest::collection::vec(any::<u8>(), 0..131_072)) {
        let gpu = Shredder::new(ShredderConfig::default().with_buffer_size(32 << 10))
            .chunk_stream(&data)
            .unwrap();
        let cpu = Shredder::new(ShredderConfig::cpu_pthreads().with_buffer_size(32 << 10))
            .chunk_stream(&data)
            .unwrap();
        prop_assert_eq!(&gpu.chunks, &cpu.chunks);
        prop_assert_eq!(gpu.report.bytes, data.len() as u64);
        prop_assert_eq!(cpu.report.bytes, data.len() as u64);
        let total: usize = gpu.chunks.iter().map(|c| c.len).sum();
        prop_assert_eq!(total, data.len());
    }

    /// Simulated makespan is monotone in data volume for a fixed config.
    #[test]
    fn makespan_monotone_in_volume(len in 4096usize..65536) {
        let cfg = ShredderConfig::default().with_buffer_size(16 << 10);
        let small = Shredder::new(cfg.clone()).chunk_stream(&vec![7u8; len]).unwrap();
        let large = Shredder::new(cfg).chunk_stream(&vec![7u8; len * 3]).unwrap();
        prop_assert!(large.report.makespan > small.report.makespan);
    }

    /// Cross-engine equivalence under contention: N interleaved sessions
    /// through one shared engine produce bit-identical chunks to N
    /// sequential `chunk_all` scans — for any stream contents, any
    /// buffer size, any admission policy.
    #[test]
    fn interleaved_sessions_equal_sequential_scans(
        streams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..65536),
            1..6,
        ),
        buffer_shift in 13usize..16, // 8 KiB .. 32 KiB buffers
        policy_pick in 0u8..3,
        weight_seed in any::<u64>(),
    ) {
        let policy = match policy_pick {
            0 => AdmissionPolicy::RoundRobin,
            1 => AdmissionPolicy::Weighted,
            _ => AdmissionPolicy::SessionOrder,
        };
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(1 << buffer_shift);
        let mut engine = ShredderEngine::new(cfg).with_policy(policy);
        for (i, s) in streams.iter().enumerate() {
            let weight = 1 + ((weight_seed >> (i * 3)) & 0x3) as u32;
            engine.submit(ChunkRequest::new(SliceSource::new(s)).named(format!("tenant-{i}")).with_weight(weight));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        prop_assert_eq!(out.completed().count(), streams.len());
        for (session, data) in out.completed().zip(&streams) {
            prop_assert_eq!(
                &session.chunks,
                &chunk_all(data, &ChunkParams::paper()),
                "policy {:?}",
                policy
            );
        }
    }

    /// Sink-delivery order ≡ collected order ≡ sequential scan: for any
    /// data and buffer size, the chunks a sink receives (with real
    /// payloads, fingerprinted by the engine) are exactly the chunks the
    /// collect path returns, which are exactly a sequential scan.
    #[test]
    fn sink_delivery_equals_collect_equals_sequential(
        data in proptest::collection::vec(any::<u8>(), 0..131_072),
        buffer_shift in 13usize..17, // 8 KiB .. 64 KiB
    ) {
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(1 << buffer_shift);
        let service = Shredder::new(cfg);

        // Sink path.
        let mut sink = RecordingSink::new();
        let sink_report = service.chunk_stream_sink(&data, &mut sink).unwrap();

        // Collect path.
        let collected = service.chunk_stream(&data).unwrap();

        // Sequential reference.
        let reference = chunk_all(&data, &ChunkParams::paper());

        prop_assert_eq!(&sink.delivered, &collected.chunks);
        prop_assert_eq!(&collected.chunks, &reference);
        // The engine's fingerprint batch equals the post-processed
        // digests.
        let collected_digests = collected.digests(&data);
        prop_assert_eq!(&sink.digests, &collected_digests);
        for (chunk, digest) in sink.delivered.iter().zip(&sink.digests) {
            prop_assert_eq!(*digest, sha256(chunk.slice(&data)));
        }
        // The end-to-end makespan extends (or equals) the chunk-only one.
        prop_assert!(sink_report.makespan >= sink_report.sessions[0].chunking_time());
    }

    /// Determinism: the same session set through the same engine twice
    /// yields identical `EngineReport`s (timings, timelines, queueing —
    /// everything).
    #[test]
    fn engine_report_is_deterministic(
        streams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32768),
            2..5,
        ),
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => AdmissionPolicy::RoundRobin,
            1 => AdmissionPolicy::Weighted,
            _ => AdmissionPolicy::SessionOrder,
        };
        let run = || {
            let mut engine = ShredderEngine::new(
                ShredderConfig::gpu_streams_memory().with_buffer_size(8 << 10),
            )
            .with_policy(policy);
            for (i, s) in streams.iter().enumerate() {
                engine.submit(ChunkRequest::new(SliceSource::new(s)).named(format!("t{i}")).with_weight((i as u32 % 3) + 1));
            }
            engine.run(&Workload::Batch).unwrap()
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first.report, second.report);
        prop_assert_eq!(first.sessions, second.sessions);
    }

    /// Service-frontend determinism under arrivals: any workload trace
    /// replayed twice — any admission bound, with or without shedding —
    /// yields identical `ServiceReport` latencies and identical
    /// per-request chunks and digests.
    #[test]
    fn trace_replay_is_deterministic_under_admission(
        sizes in proptest::collection::vec(4_000usize..60_000, 2..6),
        gaps_us in proptest::collection::vec(0u64..300, 1..6),
        slots in 1usize..4,
        queue_depth_pick in 0usize..4,
        delay_bound_pick in 0u64..500,
        policy_pick in 0u8..3,
    ) {
        use shredder_core::{AdmissionControl, MemorySource, TenantClass};

        let policy = match policy_pick {
            0 => AdmissionPolicy::RoundRobin,
            1 => AdmissionPolicy::Weighted,
            _ => AdmissionPolicy::SessionOrder,
        };
        // 0 encodes "no bound" (the vendored proptest stub has no
        // option strategy).
        let queue_depth = queue_depth_pick.checked_sub(1);
        let delay_bound_us = (delay_bound_pick > 0).then_some(delay_bound_pick);
        let mut control = AdmissionControl::fifo(slots).with_policy(policy);
        if let Some(d) = queue_depth {
            control = control.with_queue_depth(d);
        }
        if let Some(b) = delay_bound_us {
            control = control.with_max_queue_delay(Dur::from_micros(b));
        }
        let trace = Workload::trace(gaps_us.iter().map(|&g| Dur::from_micros(g)).collect());

        let run = || {
            let mut engine = ShredderEngine::new(
                ShredderConfig::gpu_streams_memory().with_buffer_size(8 << 10),
            )
            .with_admission(control);
            engine.define_class(TenantClass::new("tenant-b").with_weight(3));
            for (i, &len) in sizes.iter().enumerate() {
                let mut request = ChunkRequest::new(MemorySource::pseudo_random(len, i as u64))
                    .named(format!("r{i}"));
                if i % 2 == 1 {
                    request = request.with_class("tenant-b");
                }
                engine.submit(request);
            }
            engine.run(&trace).unwrap()
        };

        let first = run();
        let second = run();
        prop_assert_eq!(&first.report, &second.report);
        // Identical per-request outcomes, chunks and digests.
        for (a, b) in first.sessions.iter().zip(&second.sessions) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x, y);
                    let i = x.id.index();
                    // Digests recomputed over the request's own stream.
                    let mut src = MemorySource::pseudo_random(sizes[i], i as u64);
                    let mut data = Vec::new();
                    let mut buf = [0u8; 4096];
                    loop {
                        let n = shredder_core::StreamSource::read(&mut src, &mut buf);
                        if n == 0 { break; }
                        data.extend_from_slice(&buf[..n]);
                    }
                    let dx: Vec<_> = x.chunks.iter().map(|c| sha256(c.slice(&data))).collect();
                    let dy: Vec<_> = y.chunks.iter().map(|c| sha256(c.slice(&data))).collect();
                    prop_assert_eq!(dx, dy);
                    // And the chunks equal a sequential scan of the stream.
                    prop_assert_eq!(&x.chunks, &chunk_all(&data, &ChunkParams::paper()));
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                other => prop_assert!(false, "outcome mismatch across replays: {:?}", other),
            }
        }
        // The service report's latency columns replay identically.
        let svc1 = &first.report.service;
        let svc2 = &second.report.service;
        prop_assert_eq!(svc1, svc2);
        // Queue-delay bound honored for every admitted request.
        if let Some(b) = delay_bound_us {
            let bound = Dur::from_micros(b);
            for r in &svc1.requests {
                if !r.is_shed() {
                    prop_assert!(r.queue_delay() <= bound);
                }
            }
        }
    }
}
