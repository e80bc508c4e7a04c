//! The Shredder framework: GPU-accelerated content-based chunking.
//!
//! This crate assembles the substrates (Rabin chunking, the GPU model,
//! the DES kernel) into the system of the paper's §3–§5, extended from a
//! one-shot slice API into a **session-based multi-stream engine**:
//!
//! * [`config`] — [`ShredderConfig`] with presets matching the Figure 12
//!   systems: `cpu_pthreads_malloc()` / `cpu_pthreads()` (the §5.1
//!   host-only baseline without/with Hoard, as one host device in the
//!   engine's pool), `gpu_basic()` (§3.1), `gpu_streams()` (double
//!   buffering + pinned ring + 4-stage pipeline, §4.1–§4.2) and
//!   `gpu_streams_memory()` (adds the coalesced kernel, §4.3).
//! * [`engine`] — the [`ShredderEngine`]: N concurrent [`ChunkRequest`]s
//!   scheduled through **one shared** discrete-event pipeline (one SAN
//!   reader, one Store thread) under round-robin / weighted /
//!   session-order buffer admission, sharded across a **device pool**
//!   (`gpus = N` in [`ShredderConfig`]) by a [`PlacementPolicy`]
//!   (least-loaded, round-robin, or pinned). Each pool device has its
//!   own twin-buffer lanes, pinned staging ring (held as a DES resource
//!   — exhaustion backpressures admission) and event-chained
//!   copy–compute overlap, reported per device in
//!   [`EngineReport::devices`] (utilization + overlap fraction).
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   of device deaths and stragglers replayed as ordinary DES events
//!   (dead devices requeue their in-flight buffers to survivors;
//!   stragglers are routed around by least-loaded placement), with
//!   per-fault counters in [`EngineReport::faults`].
//! * [`source`] — [`StreamSource`] ingestion ([`SliceSource`],
//!   [`MemorySource`]): in-memory streams the engine scans in place, one
//!   pipeline buffer at a time, and whose bytes a sink consumes without
//!   a copy.
//! * [`session`] / [`report`] — per-stream [`SessionReport`]s (makespan,
//!   queueing/contention time, per-buffer timeline) inside an aggregate
//!   [`EngineReport`] (aggregate GB/s over the shared makespan).
//! * [`sink`] — the **staged sink API**: a [`ChunkSink`] attaches typed
//!   downstream stages ([`FingerprintStage`], [`DedupStage`],
//!   [`ShipStage`], [`StoreStage`]) to a request and consumes the whole
//!   stream in one call ([`ChunkSink::consume`]), returning a
//!   [`SinkDemand`] row per chunk plus an end-of-stream tail. A sink
//!   that declares [`ChunkSink::fingerprints_chunks`] gets each chunk's
//!   SHA-256 from the engine, which hashes every such session of a run
//!   in one batch; the stages
//!   execute *inside* the shared simulation with their own service
//!   times, queues and backpressure onto the kernel FIFO, reported per
//!   stage in the [`EngineReport`]. This replaces the old
//!   collect-then-postprocess consumer pattern. [`StoreSink`] commits
//!   chunks and snapshot manifests into the versioned
//!   [`shredder_store::ChunkStore`] in-simulation, making each session
//!   one new restorable generation.
//! * [`frontend`] / [`workload`] — the **request side** of the engine:
//!   [`ShredderEngine::run`] takes a pluggable arrival [`Workload`]
//!   (open-loop Poisson, closed-loop clients + think time, trace
//!   replay, or the closed batch [`Workload::Batch`]), and submitted
//!   [`ChunkRequest`]s pass through the engine's admission queue
//!   ([`AdmissionControl`]: unbounded by default, or FIFO / per-tenant
//!   fair share / weighted share across [`TenantClass`]es, with load
//!   shedding via [`ChunkError::Overloaded`]). Every request gets
//!   arrival → admit → first-chunk → done timestamps, and every
//!   [`EngineReport`] carries a [`ServiceReport`] (offered vs. achieved
//!   req/s and GB/s, queue-depth timeline, per-class latency
//!   p50/p95/p99/max); [`capacity_search`] bisects the highest
//!   sustained Poisson rate meeting a p99 SLO.
//! * [`pipeline`] — the single-stream [`Shredder`] the case studies
//!   (Inc-HDFS, cloud backup) call: a one-session run of the engine for
//!   either executor, through [`Shredder::chunk_stream`] (boundaries
//!   only: a sink-less request) or [`Shredder::chunk_stream_sink`] (the
//!   whole stream handed to one [`ChunkSink`]), returning the run's
//!   [`EngineReport`].
//!
//! Everywhere, chunk boundaries are **real** (computed by the shared
//! Rabin tables over the actual bytes, identical across every engine and
//! per stream under any admission interleaving) and *time* is simulated
//! (see `DESIGN.md`).
//!
//! # Examples
//!
//! Multi-tenant chunking through one engine:
//!
//! ```
//! use shredder_core::{ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, Workload};
//!
//! let site_a: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let site_b: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
//!
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10));
//! engine.submit(ChunkRequest::new(SliceSource::new(&site_a)).named("site-a"));
//! engine.submit(ChunkRequest::new(SliceSource::new(&site_b)).named("site-b"));
//!
//! let outcome = engine.run(&Workload::Batch).unwrap();
//! assert_eq!(outcome.completed().count(), 2);
//! // Both tenants' chunks tile their own stream.
//! for (session, data) in outcome.completed().zip([&site_a, &site_b]) {
//!     assert_eq!(session.chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
//! }
//! println!("aggregate: {:.2} GB/s", outcome.report.aggregate_gbps());
//! ```
//!
//! Chunking *into a sink*: a dedup consumer graph (fingerprint → index
//! lookup → ship) running inside the same simulation, so hashing
//! overlaps chunking instead of being post-processed:
//!
//! ```
//! use std::cell::RefCell;
//! use std::collections::HashSet;
//! use std::rc::Rc;
//! use shredder_core::{DedupSink, DedupSinkConfig, Shredder, ShredderConfig};
//! use shredder_des::Dur;
//!
//! let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let index = Rc::new(RefCell::new(HashSet::new()));
//! let mut sink = DedupSink::new(
//!     DedupSinkConfig {
//!         hash_bw: 1.5e9,
//!         index_lookup: Dur::from_micros(7),
//!         index_insert: Dur::from_micros(10),
//!         ship_bw: 0.9e9,
//!         pointer_bytes: 40,
//!         ship_chunk_overhead: Dur::from_micros(2),
//!     },
//!     index,
//! );
//!
//! let gpu = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(256 << 10));
//! let report = gpu.chunk_stream_sink(&data, &mut sink).unwrap();
//!
//! // Real digests and dedup decisions, per-stage timing from the shared
//! // simulation — and the stages overlapped the chunking pipeline.
//! assert!(!sink.verdicts().is_empty());
//! assert_eq!(report.sink_stages.len(), 3);
//! assert!(report.makespan >= report.sessions[0].chunking_time());
//! ```
//!
//! The single-stream convenience (identical boundaries, one session),
//! on the GPU pool and on the host device of the pthreads baseline:
//!
//! ```
//! use shredder_core::{Shredder, ShredderConfig};
//!
//! let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//!
//! let gpu = Shredder::new(ShredderConfig::gpu_streams_memory());
//! let cpu = Shredder::new(ShredderConfig::cpu_pthreads());
//!
//! let g = gpu.chunk_stream(&data).unwrap();
//! let c = cpu.chunk_stream(&data).unwrap();
//! // Same boundaries, different (simulated) speed.
//! assert_eq!(g.chunks, c.chunks);
//! assert!(g.report.aggregate_gbps() > c.report.aggregate_gbps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frontend;
pub mod pipeline;
mod ready;
pub mod report;
pub mod session;
pub mod sink;
pub mod source;
pub mod workload;

pub use config::{Allocator, Executor, ShredderConfig};
pub use engine::{AdmissionPolicy, EngineOutcome, PlacementPolicy, ShredderEngine};
pub use error::ChunkError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport};
pub use frontend::{capacity_search, CapacityReport, CapacityTrial, ChunkRequest};
pub use pipeline::{ChunkOutcome, Shredder};
pub use report::{
    BufferTimeline, ClassLatency, DeviceReport, EngineReport, RequestReport, ServiceReport,
    SessionReport, StageBusy, StageReport,
};
pub use session::{SessionId, SessionOutcome};
pub use sink::{
    ChunkSink, ChunkVerdict, DedupSink, DedupSinkConfig, DedupStage, FingerprintIndex,
    FingerprintStage, ShipStage, SinkDemand, StageKind, StageSpec, StoreSink, StoreSinkConfig,
    StoreStage,
};
pub use source::{MemorySource, SliceSource, StreamSource};
pub use workload::{AdmissionControl, TenantClass, Workload};

pub use shredder_telemetry::{TelemetryConfig, TelemetryReport};
