//! # Shredder: GPU-accelerated incremental storage and computation
//!
//! A from-scratch Rust reproduction of *Shredder: GPU-Accelerated
//! Incremental Storage and Computation* (Bhatotia, Rodrigues & Verma,
//! FAST 2012) — a high-performance content-based chunking framework for
//! incremental storage and computation systems, grown into a
//! **session-based multi-tenant engine**: many client streams share one
//! device pipeline, as the paper's backup server (§7.2) and Inc-HDFS
//! deployments demand.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`rabin`] — Rabin fingerprinting over GF(2) and content-defined
//!   chunking (sequential Rabin and Gear, fixed-size).
//! * [`hash`] — SHA-256 chunk digests and fast index hashing.
//! * [`des`] — the deterministic discrete-event simulation kernel that
//!   underpins every timing result.
//! * [`gpu`] — the functional + timing model of the paper's Tesla C2050
//!   (DRAM banks, coalescing, DMA, SIMT, the two chunking kernels), and
//!   the multi-device [`DevicePool`](gpu::DevicePool) with per-device
//!   stream triples and event-chained copy–compute overlap.
//! * [`core`] — the Shredder framework: the session-based
//!   [`ShredderEngine`](core::ShredderEngine) scheduling N concurrent
//!   [`ChunkRequest`](core::ChunkRequest)s through one shared
//!   Reader→Transfer→Kernel→Store pipeline (double buffering, pinned
//!   ring, fair admission), sharded across a device pool (`gpus = N`,
//!   least-loaded / round-robin / pinned placement, per-device
//!   utilization + overlap reporting), the single-stream
//!   [`Shredder`](core::Shredder) convenience, the host-only
//!   pthreads baseline as a host device in the same pool
//!   ([`ShredderConfig::cpu_pthreads`](core::ShredderConfig::cpu_pthreads))
//!   — and, on the same engine, the **online service** regime:
//!   open-loop / closed-loop / trace arrival workloads, bounded
//!   admission with per-tenant fair share and load shedding,
//!   per-request latency timestamps and p50/p95/p99 SLO reporting.
//! * [`store`] — the versioned content-addressed chunk store: a
//!   segment-packed payload log behind one shared fingerprint index,
//!   first-class snapshots (per-stream generations), digest-verified
//!   restore, and mark-and-sweep GC with segment compaction. Fed
//!   in-simulation by [`core::StoreSink`]; the Inc-HDFS DataNodes and
//!   the backup site are its clients.
//! * [`telemetry`] — in-simulation tracing and metrics: sim-time spans
//!   and instants on request/device/stage lanes, counters, gauges and
//!   log-bucketed histograms, Chrome-trace export for Perfetto. Off by
//!   default, with a zero-overhead-off contract.
//! * [`cluster`] — the sharded multi-node fleet: N node replicas in one
//!   simulation behind consistent-hash routing
//!   ([`HashRing`](cluster::HashRing)), dedup-aware replicated segment
//!   writes over modeled inter-node links, planned membership churn and
//!   fault-plan node deaths with bounded rebalancing and digest-verified
//!   repair, all reported per node and fleet-wide in a
//!   [`FleetReport`](cluster::FleetReport).
//! * [`workloads`] — seeded data/trace generators (mutations, VM images,
//!   record datasets).
//! * [`hdfs`] — Inc-HDFS: content-defined chunking for HDFS-style
//!   storage, with batch ingestion over the session engine.
//! * [`mapreduce`] — Incoop-style incremental MapReduce with memoization
//!   (case study I).
//! * [`backup`] — the consolidated cloud-backup system (case study II),
//!   with multi-site batched backups over the session engine.
//!
//! See `DESIGN.md` for the system inventory and the engine API.
//!
//! # Quickstart: the online service
//!
//! Shredder is a storage-system *service*: requests keep arriving while
//! the GPUs are busy. A [`ShredderEngine`](core::ShredderEngine)
//! takes submitted requests, drives them with an open-loop Poisson
//! [`Workload`](core::Workload) (or closed-loop / trace-replay /
//! batch), pushes them through bounded admission, and reports latency
//! percentiles per tenant class — three lines from config to a p99
//! readout:
//!
//! ```
//! use shredder::core::{
//!     AdmissionControl, ChunkRequest, MemorySource, ShredderConfig, ShredderEngine, Workload,
//! };
//!
//! let mut engine = ShredderEngine::new(ShredderConfig::default().with_buffer_size(256 << 10))
//!     .with_admission(AdmissionControl::default());
//! (0..16u64).for_each(|t| {
//!     engine.submit(ChunkRequest::new(MemorySource::pseudo_random(512 << 10, t)));
//! });
//! let outcome = engine.run(&Workload::poisson(1_000.0, 42)).expect("engine run failed");
//!
//! let service = &outcome.report.service;
//! println!(
//!     "offered {:.0} req/s, achieved {:.0} req/s, p99 {:.2} ms, shed {}",
//!     service.offered_rps,
//!     service.achieved_rps,
//!     service.p99().as_millis_f64(),
//!     service.shed,
//! );
//! # assert_eq!(service.completed + service.shed, 16);
//! ```
//!
//! Under overload, bounded admission sheds requests with
//! [`ChunkError::Overloaded`](core::ChunkError) instead of queueing
//! without bound, and
//! [`capacity_search`](core::capacity_search) bisects the highest
//! sustained rate meeting a p99 SLO. Ingest-bandwidth caps are
//! per tenant class ([`TenantClass::with_ingest_bw`](core::TenantClass))
//! — or, for a one-shot [`Shredder`](core::Shredder), the config's
//! [`reader_bandwidth`](core::ShredderConfig::with_reader_bandwidth) —
//! rather than a property of the sink itself.
//!
//! # Quickstart: multi-tenant chunking
//!
//! Submit one request per client stream to a shared engine and run
//! them as a closed batch; every tenant gets chunks bit-identical to a
//! sequential scan of its own stream, while the pipeline stays
//! saturated across tenants:
//!
//! ```
//! use shredder::core::{
//!     AdmissionPolicy, ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, Workload,
//! };
//!
//! // Three tenant streams (any in-memory `StreamSource` works: a borrowed
//! // `SliceSource` or an owned `MemorySource`, each scanned in place).
//! let tenants: Vec<Vec<u8>> = (0..3u64)
//!     .map(|t| {
//!         (0..512u32 << 10)
//!             .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(t * 977) >> 9) as u8)
//!             .collect()
//!     })
//!     .collect();
//!
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10))
//!         .with_policy(AdmissionPolicy::RoundRobin);
//! for (t, data) in tenants.iter().enumerate() {
//!     engine.submit(ChunkRequest::new(SliceSource::new(data)).named(format!("tenant-{t}")));
//! }
//!
//! let outcome = engine.run(&Workload::Batch).expect("chunking failed");
//! for (session, data) in outcome.completed().zip(&tenants) {
//!     assert_eq!(
//!         session.chunks.iter().map(|c| c.len).sum::<usize>(),
//!         data.len(),
//!     );
//! }
//! println!(
//!     "{} tenants, aggregate {:.2} GB/s, contention {:.2} ms",
//!     outcome.completed().count(),
//!     outcome.report.aggregate_gbps(),
//!     outcome.report.queue_wait.as_millis_f64(),
//! );
//! ```
//!
//! # Quickstart: one stream
//!
//! [`Shredder`](core::Shredder) runs one stream as a single session of
//! the same engine — on the GPU pool, or on the host device of the
//! paper's pthreads baseline, with identical boundaries — and returns
//! the chunks with that run's
//! [`EngineReport`](core::EngineReport):
//!
//! ```
//! use shredder::core::{Shredder, ShredderConfig};
//!
//! let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 9) as u8).collect();
//! let shredder = Shredder::new(ShredderConfig::default());
//! let outcome = shredder.chunk_stream(&data).expect("chunking failed");
//! assert_eq!(
//!     outcome.chunks.iter().map(|c| c.len).sum::<usize>(),
//!     data.len()
//! );
//! println!("simulated chunking bandwidth: {:.2} GB/s", outcome.report.aggregate_gbps());
//!
//! let host = Shredder::new(ShredderConfig::cpu_pthreads());
//! let baseline = host.chunk_stream(&data).expect("chunking failed");
//! assert_eq!(baseline.chunks, outcome.chunks);
//! println!("pthreads baseline: {:.2} GB/s", baseline.report.aggregate_gbps());
//! ```
//!
//! # Quickstart: the Gear kernel
//!
//! The default boundary detector is the paper's Rabin fingerprint. Any
//! engine can swap in the Gear rolling hash with FastCDC cut
//! normalization (`chunk_kernel = Gear` / `GearCoalesced`): one table
//! lookup, a shift and an add per byte instead of the two-table
//! polynomial update, roughly halving the per-byte kernel cost.
//! Boundaries differ from Rabin's (it is a different content hash), but
//! stay content-defined, deterministic, and shift-resilient:
//!
//! ```
//! use shredder::core::{Shredder, ShredderConfig};
//! use shredder::gpu::kernel::KernelVariant;
//! use shredder::workloads;
//!
//! let data = workloads::random_bytes(4 << 20, 42);
//! let rabin = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(1 << 20));
//! let gear = Shredder::new(
//!     ShredderConfig::gpu_streams_memory()
//!         .with_buffer_size(1 << 20)
//!         .with_chunk_kernel(KernelVariant::GearCoalesced),
//! );
//! let r = rabin.chunk_stream(&data).expect("chunking failed");
//! let g = gear.chunk_stream(&data).expect("chunking failed");
//! assert!(g.report.aggregate_gbps() > r.report.aggregate_gbps());
//! println!(
//!     "rabin {:.2} GB/s → gear {:.2} GB/s",
//!     r.report.aggregate_gbps(),
//!     g.report.aggregate_gbps(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shredder_backup as backup;
pub use shredder_cluster as cluster;
pub use shredder_core as core;
pub use shredder_des as des;
pub use shredder_gpu as gpu;
pub use shredder_hash as hash;
pub use shredder_hdfs as hdfs;
pub use shredder_mapreduce as mapreduce;
pub use shredder_rabin as rabin;
pub use shredder_store as store;
pub use shredder_telemetry as telemetry;
pub use shredder_workloads as workloads;
