//! The single-stream Shredder pipeline: Reader → Transfer → Kernel →
//! Store, as a thin convenience over the session engine.
//!
//! The same facade runs the host-only pthreads baseline of §5.1: with
//! [`ShredderConfig::cpu_pthreads`] the session's buffers run on one
//! host device in the engine's pool (Reader → threads → Store, no
//! transfers), so both executors share one simulator and one report
//! shape.
//!
//! [`Shredder`] submits exactly one [`ChunkRequest`] to a private
//! [`ShredderEngine`] per call and hands back that run's
//! [`EngineReport`]. [`Shredder::chunk_stream`] returns the boundaries
//! alone (a sink-less request: no stages, zero sink service);
//! [`Shredder::chunk_stream_sink`] hands the whole stream to a
//! [`ChunkSink`] whose stages run inside the same simulation. The
//! configuration semantics:
//!
//! * **pipeline depth** caps how many buffers are in flight — the §4.2
//!   streaming pipeline, varied 1–4 in Figure 9 (a *global* cap the
//!   engine shares across sessions);
//! * **twin buffers** cap device buffers — 1 reproduces the serialized
//!   copy→compute of the basic design, 2 the double buffering of §4.1.1
//!   (Figure 4);
//! * **pinned ring** picks the host-buffer kind: pre-pinned ring slots
//!   (fast DMA, §4.1.2) vs pageable buffers allocated every iteration.
//!
//! For chunking *many* streams through one shared pipeline, use the
//! engine ([`Shredder::engine`]) directly.

use shredder_des::{Dur, SimTime};
use shredder_hash::{sha256_many, Digest};
use shredder_rabin::Chunk;

use crate::config::{Executor, ShredderConfig};
use crate::engine::{EngineOutcome, PlannedBuffer, SessionPlan, ShredderEngine};
use crate::error::ChunkError;
use crate::frontend::ChunkRequest;
use crate::report::EngineReport;
use crate::sink::ChunkSink;
use crate::source::SliceSource;
use crate::workload::Workload;

/// Result of chunking a stream: the chunks plus the engine's report of
/// the one-session run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// The chunks, tiling the input in order.
    pub chunks: Vec<Chunk>,
    /// The run's report; `report.sessions[0]` is the stream's own.
    pub report: EngineReport,
}

impl ChunkOutcome {
    /// Computes the SHA-256 digest of every chunk (the hashing step of
    /// §2.1, performed by the Store thread in the backup case study),
    /// as one [`sha256_many`] batch.
    pub fn digests(&self, data: &[u8]) -> Vec<Digest> {
        let payloads: Vec<&[u8]> = self.chunks.iter().map(|c| c.slice(data)).collect();
        sha256_many(&payloads)
    }

    /// Mean chunk size in bytes.
    pub fn mean_chunk_size(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let total: usize = self.chunks.iter().map(|c| c.len).sum();
        total as f64 / self.chunks.len() as f64
    }
}

/// The Shredder chunking engine (single-stream view), on the GPU pool
/// or on the host device of the pthreads baseline.
///
/// # Examples
///
/// ```
/// use shredder_core::{Shredder, ShredderConfig};
/// use shredder_rabin::{chunk_all, ChunkParams};
///
/// let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
/// let shredder = Shredder::new(ShredderConfig::gpu_streams_memory());
/// let out = shredder.chunk_stream(&data).unwrap();
/// // GPU pipeline boundaries equal the sequential CPU scan.
/// assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
/// ```
#[derive(Debug, Clone)]
pub struct Shredder {
    config: ShredderConfig,
}

impl Shredder {
    /// Creates an engine from a configuration.
    pub fn new(config: ShredderConfig) -> Self {
        Shredder { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ShredderConfig {
        &self.config
    }

    /// Opens a fresh multi-stream engine with this configuration — the
    /// engine this single-stream convenience runs on.
    pub fn engine<'a>(&self) -> ShredderEngine<'a> {
        ShredderEngine::new(self.config.clone())
    }

    /// Chunks an in-memory stream and returns its chunks: one sink-less
    /// request, so no sink stages run.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] when the engine rejects the configuration or, on
    /// the GPU executor, a buffer region (buffer plus carry) is larger
    /// than device memory.
    pub fn chunk_stream(&self, data: &[u8]) -> Result<ChunkOutcome, ChunkError> {
        let mut outcome = self.run_one(ChunkRequest::new(SliceSource::new(data)))?;
        let session = outcome.sessions.swap_remove(0)?;
        Ok(ChunkOutcome {
            chunks: session.chunks,
            report: outcome.report,
        })
    }

    /// Chunks an in-memory stream into `sink`, whose downstream stages
    /// run inside the same simulation as the chunking pipeline, so
    /// hashing overlaps (and backpressures) chunking. The sink's
    /// functional half (hashing, dedup decisions) runs for real, over
    /// the whole stream at once: `data` itself, not a copy. To model a
    /// capped intake link, lower the config's
    /// [`reader_bandwidth`](ShredderConfig::with_reader_bandwidth).
    ///
    /// # Errors
    ///
    /// See [`chunk_stream`](Self::chunk_stream).
    pub fn chunk_stream_sink(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
    ) -> Result<EngineReport, ChunkError> {
        let request = ChunkRequest::new(SliceSource::new(data)).with_sink(sink);
        Ok(self.run_one(request)?.report)
    }

    /// Runs one request, named `chunk-stream`, as a closed batch on a
    /// fresh engine.
    fn run_one(&self, request: ChunkRequest<'_>) -> Result<EngineOutcome, ChunkError> {
        let mut engine = self.engine();
        engine.submit(request.named("chunk-stream"));
        engine.run(&Workload::Batch)
    }

    /// Human-readable engine name (used in experiment output).
    pub fn service_name(&self) -> String {
        if let Executor::Host(allocator) = self.config.executor {
            return format!(
                "pthreads-cpu({} threads, {allocator})",
                shredder_gpu::calibration::HOST_THREADS
            );
        }
        format!(
            "shredder-gpu({} kernel, depth {}, twins {}, {}, {} gpu{})",
            self.config.kernel,
            self.config.pipeline_depth,
            self.config.twin_buffers,
            if self.config.pinned_ring {
                "pinned ring"
            } else {
                "pageable"
            },
            self.config.gpus,
            if self.config.gpus == 1 { "" } else { "s" }
        )
    }

    /// Timing-only pipeline execution over `buffers` synthetic buffers of
    /// `bytes` each, with a given per-buffer kernel duration and raw-cut
    /// count; returns the makespan.
    ///
    /// The experiment harness uses this to sweep buffer sizes and
    /// pipeline depths over the paper's 1 GB workload without re-running
    /// the (strictly linear) functional chunking for every
    /// configuration; the kernel duration is measured once per buffer
    /// size on real data.
    pub fn simulate_synthetic(
        &self,
        buffers: usize,
        bytes: usize,
        kernel_dur: Dur,
        cuts_per_buffer: usize,
    ) -> Dur {
        if buffers == 0 {
            return Dur::ZERO;
        }
        let plan = SessionPlan {
            name: "synthetic".into(),
            weight: 1,
            class: 0,
            pin: None,
            bytes: (buffers * bytes) as u64,
            // The timing pass never reads individual cut offsets — only
            // the per-buffer counts below drive the D2H/Store costs.
            cuts: Vec::new(),
            buffers: vec![
                PlannedBuffer {
                    bytes: bytes as u64,
                    cut_count: cuts_per_buffer as u64,
                    kernel_dur,
                };
                buffers
            ],
        };
        let sim = self.engine().simulate_planned(std::slice::from_ref(&plan));
        sim.end.saturating_since(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShredderConfig;
    use crate::engine::host_scan_time;
    use crate::report::SessionReport;
    use shredder_gpu::calibration;
    use shredder_hash::sha256;
    use shredder_rabin::{chunk_all, ChunkParams};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn small(cfg: ShredderConfig) -> ShredderConfig {
        cfg.with_buffer_size(256 << 10)
    }

    #[test]
    fn collect_outcome() {
        let data = pseudo_random(1 << 20, 3);
        let out = Shredder::new(small(ShredderConfig::gpu_streams_memory()))
            .chunk_stream(&data)
            .unwrap();
        assert!(out.chunks.len() > 1);
        let mean = data.len() as f64 / out.chunks.len() as f64;
        assert_eq!(out.mean_chunk_size(), mean);
        let digests = out.digests(&data);
        assert_eq!(digests.len(), out.chunks.len());
        for (chunk, digest) in out.chunks.iter().zip(&digests) {
            assert_eq!(*digest, sha256(chunk.slice(&data)));
        }
    }

    #[test]
    fn empty_outcome_stats() {
        let out = Shredder::new(ShredderConfig::cpu_pthreads())
            .chunk_stream(&[])
            .unwrap();
        assert!(out.chunks.is_empty());
        assert_eq!(out.mean_chunk_size(), 0.0);
        assert!(out.digests(&[]).is_empty());
    }

    /// The chunk-only duration of one stream is the last buffer's Store
    /// completion since its first admission: the whole makespan without
    /// a sink, at most the makespan once sink stages extend it, and zero
    /// for an empty stream.
    #[test]
    fn chunking_time_is_last_store_end_since_first_admit() {
        use std::cell::RefCell;
        use std::collections::HashSet;
        use std::rc::Rc;

        let data = pseudo_random(2 << 20, 43);
        let dedup = || {
            crate::sink::DedupSink::new(
                crate::sink::DedupSinkConfig {
                    hash_bw: 0.5e9,
                    index_lookup: Dur::from_micros(7),
                    index_insert: Dur::from_micros(10),
                    ship_bw: 0.3e9,
                    pointer_bytes: 40,
                    ship_chunk_overhead: Dur::from_micros(2),
                },
                Rc::new(RefCell::new(HashSet::new())),
            )
        };
        let by_hand = |per: &SessionReport| {
            per.timeline
                .last()
                .map(|t| t.store_end.saturating_since(per.first_admit))
                .unwrap_or(Dur::ZERO)
        };
        for cfg in [
            small(ShredderConfig::gpu_streams_memory()),
            small(ShredderConfig::cpu_pthreads()),
        ] {
            let service = Shredder::new(cfg);

            let plain = service.chunk_stream(&data).unwrap().report;
            let per = &plain.sessions[0];
            assert!(plain.sink_stages.is_empty());
            assert_eq!(per.chunking_time(), by_hand(per));
            assert_eq!(per.chunking_time(), plain.makespan);

            let staged = service.chunk_stream_sink(&data, &mut dedup()).unwrap();
            let per = &staged.sessions[0];
            assert_eq!(staged.sink_stages.len(), 3);
            assert_eq!(per.chunking_time(), by_hand(per));
            assert!(per.chunking_time() > Dur::ZERO);
            assert!(per.chunking_time() <= per.makespan);
            assert!(per.chunking_time() <= staged.makespan);

            let empty = service.chunk_stream_sink(&[], &mut dedup()).unwrap();
            assert_eq!(empty.sessions[0].chunking_time(), Dur::ZERO);
        }
    }

    #[test]
    fn all_presets_produce_sequential_boundaries() {
        let data = pseudo_random(3 << 20, 11);
        let expected = chunk_all(&data, &ChunkParams::paper());
        for cfg in [
            ShredderConfig::gpu_basic(),
            ShredderConfig::gpu_streams(),
            ShredderConfig::gpu_streams_memory(),
        ] {
            let name = format!("{cfg:?}");
            let out = Shredder::new(small(cfg)).chunk_stream(&data).unwrap();
            assert_eq!(out.chunks, expected, "{name}");
        }
    }

    #[test]
    fn min_max_respected_across_buffer_boundaries() {
        let params = ChunkParams::backup();
        let data = pseudo_random(2 << 20, 13);
        let expected = chunk_all(&data, &params);
        let cfg = small(ShredderConfig::gpu_streams_memory()).with_params(params);
        let out = Shredder::new(cfg).chunk_stream(&data).unwrap();
        assert_eq!(out.chunks, expected);
    }

    #[test]
    fn optimizations_strictly_improve_throughput() {
        let data = pseudo_random(8 << 20, 17);
        let t = |cfg: ShredderConfig| {
            Shredder::new(cfg.with_buffer_size(1 << 20))
                .chunk_stream(&data)
                .unwrap()
                .report
                .aggregate_gbps()
        };
        let basic = t(ShredderConfig::gpu_basic());
        let streams = t(ShredderConfig::gpu_streams());
        let full = t(ShredderConfig::gpu_streams_memory());
        assert!(streams > basic, "streams {streams} !> basic {basic}");
        assert!(full > streams, "full {full} !> streams {streams}");
    }

    #[test]
    fn full_pipeline_hits_reader_bound() {
        // With all optimizations the chunking service is bound by the
        // 2 GB/s SAN reader (Table 1), the paper's "over 5X" context.
        let data = pseudo_random(32 << 20, 19);
        let out = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(4 << 20))
            .chunk_stream(&data)
            .unwrap();
        let gbps = out.report.aggregate_gbps();
        assert!(gbps > 1.5 && gbps < 2.1, "{gbps} GB/s");
    }

    #[test]
    fn timeline_is_causally_ordered() {
        let data = pseudo_random(4 << 20, 23);
        let out = Shredder::new(small(ShredderConfig::gpu_streams_memory()))
            .chunk_stream(&data)
            .unwrap();
        let report = &out.report.sessions[0];
        assert_eq!(report.buffers, report.timeline.len());
        for t in &report.timeline {
            assert!(t.read_start <= t.read_end);
            assert!(t.read_end <= t.transfer_end);
            assert!(t.transfer_end <= t.kernel_end);
            assert!(t.kernel_end <= t.store_end);
        }
        // Buffers complete in order.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].store_end <= pair[1].store_end);
        }
    }

    #[test]
    fn sequential_depth_one_is_slower_than_pipelined() {
        let data = pseudo_random(8 << 20, 29);
        let t = |depth: usize| {
            Shredder::new(
                ShredderConfig::gpu_streams_memory()
                    .with_buffer_size(1 << 20)
                    .with_pipeline_depth(depth),
            )
            .chunk_stream(&data)
            .unwrap()
            .report
            .makespan
        };
        let seq = t(1);
        let pipe4 = t(4);
        let speedup = seq.as_secs_f64() / pipe4.as_secs_f64();
        assert!(speedup > 1.4, "pipeline speedup {speedup}");
    }

    #[test]
    fn empty_stream() {
        let out = Shredder::new(ShredderConfig::default())
            .chunk_stream(&[])
            .unwrap();
        assert!(out.chunks.is_empty());
        assert_eq!(out.report.bytes, 0);
        assert_eq!(out.report.makespan, Dur::ZERO);
    }

    #[test]
    fn stream_smaller_than_one_buffer() {
        let data = pseudo_random(10_000, 31);
        let out = Shredder::new(ShredderConfig::default())
            .chunk_stream(&data)
            .unwrap();
        assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
        assert_eq!(out.report.buffers, 1);
    }

    #[test]
    fn ring_setup_reported_only_with_ring() {
        let data = pseudo_random(1 << 20, 37);
        let with_ring = Shredder::new(small(ShredderConfig::gpu_streams()))
            .chunk_stream(&data)
            .unwrap();
        let without = Shredder::new(small(ShredderConfig::gpu_basic()))
            .chunk_stream(&data)
            .unwrap();
        assert!(with_ring.report.ring_setup > Dur::ZERO);
        assert_eq!(without.report.ring_setup, Dur::ZERO);
    }

    #[test]
    fn stage_busy_accounts_all_stages() {
        let data = pseudo_random(4 << 20, 41);
        let out = Shredder::new(small(ShredderConfig::gpu_streams_memory()))
            .chunk_stream(&data)
            .unwrap();
        let busy = out.report.stage_busy;
        assert!(busy.read > Dur::ZERO);
        assert!(busy.transfer > Dur::ZERO);
        assert!(busy.kernel > Dur::ZERO);
        assert!(busy.store > Dur::ZERO);
    }

    #[test]
    fn window_zero_propagates_as_error() {
        let mut params = ChunkParams::paper();
        params.window = 0;
        let shredder = Shredder::new(ShredderConfig::default().with_params(params));
        let result = shredder.chunk_stream(&[1, 2, 3]);
        assert!(matches!(result, Err(ChunkError::InvalidConfig(_))));
    }

    /// Fig. 15's map-task-sized split parameters.
    fn split_params() -> ChunkParams {
        ChunkParams {
            min_size: 32 << 10,
            max_size: 128 << 10,
            ..ChunkParams::paper().with_expected_size(64 << 10)
        }
    }

    #[test]
    fn host_boundaries_match_sequential() {
        // Lengths straddle the 64 KiB host buffers, so windows and
        // min/max runs cross buffer seams.
        let buffer = 64 << 10;
        let data = pseudo_random((1 << 20) + 5, 5);
        for params in [ChunkParams::paper(), ChunkParams::backup(), split_params()] {
            let host = Shredder::new(
                ShredderConfig::cpu_pthreads()
                    .with_params(params.clone())
                    .with_buffer_size(buffer),
            );
            for len in [
                0,
                1,
                buffer - 1,
                buffer,
                buffer + 1,
                3 * buffer + 17,
                data.len(),
            ] {
                let slice = &data[..len];
                let out = host.chunk_stream(slice).unwrap();
                assert_eq!(
                    out.chunks,
                    chunk_all(slice, &params),
                    "{params:?} len {len}"
                );
                assert_eq!(out.report.bytes, len as u64);
            }
        }
    }

    #[test]
    fn host_hoard_beats_malloc() {
        let data = pseudo_random(1 << 21, 6);
        let run = |cfg: ShredderConfig| {
            Shredder::new(cfg.with_buffer_size(256 << 10))
                .chunk_stream(&data)
                .unwrap()
        };
        let hoard = run(ShredderConfig::cpu_pthreads());
        let malloc = run(ShredderConfig::cpu_pthreads_malloc());
        assert_eq!(hoard.chunks, malloc.chunks);
        assert!(hoard.report.aggregate_gbps() > malloc.report.aggregate_gbps());
        assert!(hoard.report.sessions[0].kernel_time < malloc.report.sessions[0].kernel_time);
    }

    #[test]
    fn host_rate_near_figure12() {
        // ~0.4 GB/s for 12 threads with Hoard at the paper's 32 MiB
        // buffers, sync included.
        let bytes = 32u64 << 20;
        for (allocator, lo, hi) in [
            (crate::Allocator::Hoard, 0.35e9, 0.45e9),
            (crate::Allocator::Malloc, 0.28e9, 0.35e9),
        ] {
            let rate = bytes as f64 / host_scan_time(bytes, allocator).as_secs_f64();
            assert!(rate > lo && rate < hi, "{allocator}: {rate}");
        }
    }

    #[test]
    fn host_scan_time_scales_linearly() {
        let sync =
            Dur::from_nanos(calibration::HOST_THREADS * calibration::HOST_SYNC_NS_PER_THREAD);
        let scan = |bytes: u64| host_scan_time(bytes, crate::Allocator::Hoard) - sync;
        let ratio = scan(1 << 29).as_secs_f64() / scan(1 << 28).as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6, "{ratio}");
        assert_eq!(host_scan_time(0, crate::Allocator::Hoard), sync);
    }

    #[test]
    fn host_device_report_has_no_transfers() {
        let data = pseudo_random(1 << 20, 7);
        let mut engine =
            Shredder::new(ShredderConfig::cpu_pthreads().with_buffer_size(256 << 10)).engine();
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        let report = engine.run(&Workload::Batch).unwrap().report;
        assert_eq!(report.devices.len(), 1);
        let dev = &report.devices[0];
        assert_eq!(dev.transfer_busy, Dur::ZERO);
        assert_eq!(dev.return_busy, Dur::ZERO);
        assert_eq!(dev.overlap, 0.0);
        assert_eq!(dev.buffers, 4);
        assert_eq!(dev.bytes, data.len() as u64);
        assert!(dev.kernel_busy > Dur::ZERO);
        assert!(dev.utilization > 0.0 && dev.utilization <= 1.0);
        assert_eq!(report.stage_busy.transfer, Dur::ZERO);
        assert_eq!(report.ring_setup, Dur::ZERO);
        // The store stage is the Store thread alone: no D2H return.
        assert!(report.stage_busy.store > Dur::ZERO);
    }

    /// The closed-form terms for one `b`-byte buffer on the uncontended
    /// Hoard host device, from the model's constants: `(read(b),
    /// compute(b), store(b))` with a reader of `read_bw` bytes/s.
    fn host_terms(b: usize, read_bw: f64) -> (Dur, Dur, Dur) {
        let read = Dur::from_nanos(calibration::READER_IO_LATENCY_NS)
            + Dur::from_bytes_at(b as u64, read_bw);
        let rate = calibration::HOST_CLOCK_HZ / calibration::CPU_RABIN_CYCLES_PER_BYTE
            * calibration::HOST_THREADS as f64
            * (1.0 - calibration::HOARD_CONTENTION_LOSS);
        let compute = Dur::from_bytes_at(b as u64, rate)
            + Dur::from_nanos(calibration::HOST_THREADS * calibration::HOST_SYNC_NS_PER_THREAD);
        let store = Dur::from_nanos(calibration::HOST_STAGE_OVERHEAD_NS);
        (read, compute, store)
    }

    /// Runs `n` equal buffers of `b` bytes with no raw cuts through the
    /// uncontended host executor (Hoard), with an optional ingest cap.
    fn host_uncontended(n: u64, b: usize, ingest_bw: Option<f64>) -> SessionReport {
        // A constant byte never hits the Rabin marker, so every buffer's
        // Store work is the bare per-buffer overhead.
        let data = vec![0x42u8; n as usize * b];
        let mut cfg = ShredderConfig::cpu_pthreads().with_buffer_size(b);
        if let Some(bw) = ingest_bw {
            cfg = cfg.with_reader_bandwidth(bw);
        }
        let mut outcome = Shredder::new(cfg).chunk_stream(&data).unwrap();
        let report = outcome.report.sessions.swap_remove(0);
        assert_eq!(report.makespan, outcome.report.makespan);
        assert_eq!(report.raw_cuts, 0);
        assert_eq!(report.buffers, n as usize);
        report
    }

    /// Compute-bound closed form. With `b` = 1 MiB the SAN read
    /// `read(b) = READER_IO_LATENCY_NS + b / READER_IO_BW` (≈0.57 ms)
    /// is shorter than the host scan `compute(b) = b ·
    /// CPU_RABIN_CYCLES_PER_BYTE / (HOST_CLOCK_HZ · HOST_THREADS) /
    /// (1 − HOARD_CONTENTION_LOSS) + HOST_THREADS ·
    /// HOST_SYNC_NS_PER_THREAD` (≈3.2 ms), and the Store thread's
    /// `store(b) = HOST_STAGE_OVERHEAD_NS` (no cuts). With 4 admission
    /// slots every later read hides behind the scans, so the makespan
    /// is exactly `read(b) + n·compute(b) + store(b)`.
    #[test]
    fn host_compute_bound_makespan_is_closed_form() {
        let (n, b) = (6u64, 1usize << 20);
        let (read, compute, store) = host_terms(b, calibration::READER_IO_BW);
        assert!(read < compute && store < compute);

        let report = host_uncontended(n, b, None);
        assert_eq!(
            report.makespan.as_nanos(),
            (read + compute * n + store).as_nanos()
        );
        assert_eq!(report.kernel_time, compute * n);
    }

    /// Read-bound closed form. An ingest cap of 100 MB/s — below the
    /// host's ≈0.4 GB/s scan rate — makes the capped read `read(b) =
    /// READER_IO_LATENCY_NS + b / 100 MB/s` (≈10.5 ms) longer than
    /// `compute(b) + store(b)` (≈3.2 ms, terms as in the compute-bound
    /// test). The reader then runs back to back and only the last
    /// buffer's scan and store trail it: the makespan is exactly
    /// `n·read(b) + compute(b) + store(b)`.
    #[test]
    fn host_read_bound_makespan_is_closed_form() {
        let (n, b, cap) = (6u64, 1usize << 20, 100e6);
        let (read, compute, store) = host_terms(b, cap);
        assert!(compute + store < read);

        let report = host_uncontended(n, b, Some(cap));
        assert_eq!(
            report.makespan.as_nanos(),
            (read * n + compute + store).as_nanos()
        );
    }

    #[test]
    fn host_service_name_mentions_configuration() {
        let name = Shredder::new(ShredderConfig::cpu_pthreads()).service_name();
        assert!(name.contains("12"), "{name}");
        assert!(name.contains("hoard"), "{name}");
        let name = Shredder::new(ShredderConfig::cpu_pthreads_malloc()).service_name();
        assert!(name.contains("malloc"), "{name}");
    }

    #[test]
    fn service_name_reflects_config() {
        let s = Shredder::new(ShredderConfig::gpu_streams_memory());
        let name = s.service_name();
        assert!(name.contains("coalesced"));
        assert!(name.contains("pinned ring"));
    }
}
