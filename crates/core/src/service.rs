//! The chunking-service abstraction the case studies consume.
//!
//! The Shredder library notifies applications of chunk boundaries via an
//! upcall (§3.1: "the Store thread uses an upcall to notify the chunk
//! boundaries to the application that is using the Shredder library").
//! [`ChunkingService::chunk_source_with`] is that interface, fed by a
//! [`StreamSource`] and fallible so kernel errors propagate instead of
//! panicking; the conveniences
//! [`chunk_stream`](ChunkingService::chunk_stream) and
//! [`chunk_source`](ChunkingService::chunk_source) collect the upcalls
//! into a [`ChunkOutcome`].
//!
//! The upcall is the stage-less sink: every entry point funnels into
//! [`chunk_source_sink_capped`](ChunkingService::chunk_source_sink_capped),
//! and the upcall forms wrap their closure in an
//! [`UpcallSink`]. A [`ChunkSink`] with downstream
//! stages (fingerprint, dedup, ship) runs those stages *inside* the
//! service's simulation, so hashing genuinely overlaps chunking.
//! [`Shredder`](crate::Shredder) is the one implementation: a private
//! single-session [`ShredderEngine`](crate::ShredderEngine) per call,
//! on the GPU device pool or on the host device of the pthreads
//! baseline ([`ShredderConfig::cpu_pthreads`](crate::ShredderConfig::cpu_pthreads)).
//! Both executors report the same [`PipelineReport`].
//!
//! For chunking *many* streams through one shared pipeline, use the
//! session API ([`ShredderEngine`](crate::ShredderEngine)) directly.
//!
//! Every entry point honors the full
//! [`ShredderConfig`](crate::ShredderConfig), including the device pool:
//! a service built with `gpus = N`
//! ([`ShredderConfig::with_gpus`](crate::ShredderConfig::with_gpus))
//! runs its sessions over N devices, and engine reports expose the
//! per-device utilization/overlap in
//! [`EngineReport::devices`](crate::EngineReport).

use shredder_hash::{sha256, Digest};
use shredder_rabin::Chunk;

use crate::error::ChunkError;
use crate::report::PipelineReport;
use crate::sink::{ChunkSink, SinkOutcome, UpcallSink};
use crate::source::{SliceSource, StreamSource};

/// Result of chunking a stream: the chunks plus the engine's timing
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// The chunks, tiling the input in order.
    pub chunks: Vec<Chunk>,
    /// Simulated timing report.
    pub report: PipelineReport,
}

impl ChunkOutcome {
    /// Computes the SHA-256 digest of every chunk (the hashing step of
    /// §2.1, performed by the Store thread in the backup case study).
    pub fn digests(&self, data: &[u8]) -> Vec<Digest> {
        self.chunks.iter().map(|c| sha256(c.slice(data))).collect()
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

/// A content-based chunking engine (GPU pipeline or host threads).
///
/// # Examples
///
/// ```
/// use shredder_core::{ChunkingService, Shredder, ShredderConfig};
///
/// let data = vec![3u8; 100_000];
/// let service = Shredder::new(ShredderConfig::cpu_pthreads());
/// let mut sizes: Vec<usize> = Vec::new();
/// service
///     .chunk_stream_with(&data, &mut |chunk| sizes.push(chunk.len))
///     .unwrap();
/// assert_eq!(sizes.iter().sum::<usize>(), data.len());
/// ```
pub trait ChunkingService {
    /// Chunks the stream delivered by `source` and drives `sink`'s
    /// downstream stages inside the service's simulation, with an
    /// optional ingest bandwidth cap in bytes/s modeling the link that
    /// feeds the chunker (the §7.3 10 Gbps image source). `None` models
    /// a resident stream. Callers with a per-stream cap (the backup
    /// server's single-image path) pass it here; the request path
    /// models the same cap as a
    /// [`TenantClass::ingest_bw`](crate::TenantClass) limit instead.
    ///
    /// The sink's functional half (hashing, dedup decisions) runs for
    /// real, chunk by chunk in stream order.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] when the underlying engine rejects the
    /// configuration or a kernel launch fails.
    fn chunk_source_sink_capped(
        &self,
        source: &mut dyn StreamSource,
        sink: &mut dyn ChunkSink,
        ingest_bw: Option<f64>,
    ) -> Result<SinkOutcome, ChunkError>;

    /// Human-readable engine name (used in experiment output).
    fn service_name(&self) -> String;

    /// Chunks the stream delivered by `source`, calling `upcall` with
    /// each chunk in stream order, and returns the timing report. The
    /// upcall runs as the stage-less [`UpcallSink`].
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_source_with(
        &self,
        source: &mut dyn StreamSource,
        upcall: &mut dyn FnMut(Chunk),
    ) -> Result<PipelineReport, ChunkError> {
        let mut sink = UpcallSink::new(upcall);
        Ok(self.chunk_source_sink(source, &mut sink)?.report)
    }

    /// Chunks an in-memory stream, delivering each chunk through the
    /// `upcall` in stream order.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_stream_with(
        &self,
        data: &[u8],
        upcall: &mut dyn FnMut(Chunk),
    ) -> Result<PipelineReport, ChunkError> {
        self.chunk_source_with(&mut SliceSource::new(data), upcall)
    }

    /// Chunks a source and collects the upcalls.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_source(&self, source: &mut dyn StreamSource) -> Result<ChunkOutcome, ChunkError> {
        let mut chunks = Vec::new();
        let report = self.chunk_source_with(source, &mut |c| chunks.push(c))?;
        Ok(ChunkOutcome { chunks, report })
    }

    /// Chunks an in-memory stream and collects the upcalls.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_stream(&self, data: &[u8]) -> Result<ChunkOutcome, ChunkError> {
        self.chunk_source(&mut SliceSource::new(data))
    }

    /// Chunks a source through a sink, uncapped.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_source_sink(
        &self,
        source: &mut dyn StreamSource,
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        self.chunk_source_sink_capped(source, sink, None)
    }

    /// Chunks an in-memory stream through a sink.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_stream_sink(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        self.chunk_source_sink(&mut SliceSource::new(data), sink)
    }

    /// Chunks an in-memory stream through a sink with an explicit
    /// ingest bandwidth cap (see
    /// [`chunk_source_sink_capped`](Self::chunk_source_sink_capped)).
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink_capped`](Self::chunk_source_sink_capped).
    fn chunk_stream_sink_capped(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
        ingest_bw: Option<f64>,
    ) -> Result<SinkOutcome, ChunkError> {
        self.chunk_source_sink_capped(&mut SliceSource::new(data), sink, ingest_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StageBusy;
    use shredder_des::Dur;

    fn report(bytes: u64, makespan: Dur) -> PipelineReport {
        PipelineReport {
            bytes,
            buffers: 1,
            makespan,
            stage_busy: StageBusy::default(),
            timeline: Vec::new(),
            kernel_time: makespan,
            ring_setup: Dur::ZERO,
            raw_cuts: 0,
        }
    }

    /// Delivers the whole stream as one chunk.
    struct FakeService;

    impl ChunkingService for FakeService {
        fn chunk_source_sink_capped(
            &self,
            source: &mut dyn StreamSource,
            sink: &mut dyn ChunkSink,
            _ingest_bw: Option<f64>,
        ) -> Result<SinkOutcome, ChunkError> {
            let mut data = Vec::new();
            let mut buf = [0u8; 256];
            loop {
                let n = source.read(&mut buf);
                if n == 0 {
                    break;
                }
                data.extend_from_slice(&buf[..n]);
            }
            let chunk = Chunk {
                offset: 0,
                len: data.len(),
            };
            sink.accept(chunk, &data);
            sink.finish();
            Ok(SinkOutcome {
                report: report(data.len() as u64, Dur::from_micros(1)),
                makespan: Dur::from_micros(1),
                stages: Vec::new(),
            })
        }

        fn service_name(&self) -> String {
            "fake".into()
        }
    }

    #[test]
    fn collect_outcome() {
        let data = vec![1u8; 64];
        let out = FakeService.chunk_stream(&data).unwrap();
        assert_eq!(out.chunks.len(), 1);
        assert_eq!(out.mean_chunk_size(), 64.0);
        let digests = out.digests(&data);
        assert_eq!(digests.len(), 1);
        assert_eq!(digests[0], shredder_hash::sha256(&data));
    }

    #[test]
    fn source_and_slice_paths_agree() {
        let data = vec![7u8; 1000];
        let via_slice = FakeService.chunk_stream(&data).unwrap();
        let via_source = FakeService
            .chunk_source(&mut SliceSource::new(&data))
            .unwrap();
        assert_eq!(via_slice, via_source);
    }

    #[test]
    fn empty_outcome_stats() {
        let out = ChunkOutcome {
            chunks: vec![],
            report: report(0, Dur::ZERO),
        };
        assert_eq!(out.mean_chunk_size(), 0.0);
        assert!(out.digests(&[]).is_empty());
    }
}
