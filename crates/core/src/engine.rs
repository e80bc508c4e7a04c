//! The multi-stream chunking engine: N tenant requests, one shared
//! device pipeline, one discrete-event simulation.
//!
//! The paper's pipeline (§4.2) exists to keep the GPU saturated. A
//! single stream can only do that while it has buffers in flight; a
//! backup server handling many remote sites (§7.2) or an Inc-HDFS
//! ingesting several files wants to keep the device busy *across*
//! streams. [`ShredderEngine`] does exactly that:
//!
//! * every submitted [`ChunkRequest`] becomes a session, planned into
//!   pipeline buffers (the
//!   functional pass — real kernels over real bytes, with the
//!   `window − 1` carry so boundaries are bit-identical per stream to a
//!   sequential scan of that stream alone);
//! * all sessions' buffers are then scheduled through **one shared**
//!   simulation — one SAN reader channel, one Store thread, and a
//!   [`DevicePool`] of `gpus` devices, each with its own twin-buffer
//!   lanes, pinned staging ring and H2D/kernel/D2H engine set — so
//!   tenants genuinely contend for and overlap on the same hardware;
//! * requests *arrive* inside the simulation according to a
//!   [`Workload`] (all at `t = 0` for [`Workload::Batch`], or open-loop
//!   Poisson, closed-loop, trace replay) and pass the request-level
//!   [`AdmissionControl`] (unbounded by default; bounded queues shed
//!   with [`ChunkError::Overloaded`]) across [`TenantClass`]es;
//! * a central buffer scheduler hands the global `pipeline_depth`
//!   slots to dispatched sessions fairly: round-robin, weighted, or
//!   strict session order;
//! * a placement layer shards sessions across the pool (a
//!   [`PlacementPolicy`]: least-loaded, round-robin, or explicit pins),
//!   and each device's staging-ring slots are DES resources held from
//!   SAN read through H2D — ring exhaustion backpressures admission.
//!
//! The host-only pthreads baseline (§5.1) runs through the same
//! simulation: under [`Executor::Host`](crate::Executor) the pool is
//! one host device whose buffers go Reader → threads → Store with no
//! transfers and no ring, each costed by the calibrated per-byte Xeon
//! rate.
//!
//! [`Shredder`](crate::Shredder) is the single-stream convenience over
//! this engine: one session per call (see [`crate::pipeline`]).
//!
//! # Examples
//!
//! Four tenants through one pipeline; each gets exactly the chunks a
//! sequential scan of its own stream produces:
//!
//! ```
//! use shredder_core::{ChunkRequest, ShredderConfig, ShredderEngine, SliceSource, Workload};
//! use shredder_rabin::{chunk_all, ChunkParams};
//!
//! let streams: Vec<Vec<u8>> = (0..4u64)
//!     .map(|s| {
//!         (0..256u32 << 10)
//!             .map(|i| ((i as u64 * 2654435761 + s * 97) >> 9) as u8)
//!             .collect()
//!     })
//!     .collect();
//!
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10));
//! for s in &streams {
//!     engine.submit(ChunkRequest::new(SliceSource::new(s)));
//! }
//! let outcome = engine.run(&Workload::Batch).unwrap();
//!
//! for (session, data) in outcome.completed().zip(&streams) {
//!     assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
//! }
//! assert_eq!(outcome.report.service.completed, 4);
//! assert!(outcome.report.aggregate_gbps() > 0.0);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shredder_des::{BandwidthChannel, Dur, FifoServer, SimTime, Simulation, TimeSeries};
use shredder_gpu::calibration;
use shredder_gpu::hostmem::{HostAllocModel, HostMemKind};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::pool::{BufferJob, DevicePool, PooledDevice};
use shredder_hash::{sha256_many, Digest};
use shredder_rabin::chunker::cuts_to_chunks;
use shredder_rabin::{Chunk, RawCut};
use shredder_telemetry::{ArgValue, Lane, TelemetryReport, TraceRecorder};

use crate::config::{Allocator, Executor, ShredderConfig};
use crate::error::ChunkError;
use crate::fault::{FaultKind, FaultReport};
use crate::frontend::ChunkRequest;
use crate::ready::ReadyQueues;
use crate::report::{
    percentile, BufferTimeline, ClassLatency, DeviceReport, EngineReport, RequestReport,
    ServiceReport, SessionReport, StageBusy, StageReport,
};
use crate::session::{SessionId, SessionOutcome};
use crate::sink::{ChunkSink, StageSpec};
use crate::source::StreamSource;
use crate::workload::{AdmissionControl, ArrivalSchedule, TenantClass, Workload};

/// How the shared admission slots are handed to sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// One buffer per session per turn, skipping exhausted sessions.
    /// The fair default for equal tenants.
    RoundRobin,
    /// Deficit round-robin: a session with weight `w` may admit up to
    /// `w` buffers per turn. Weight 0 is treated as 1.
    Weighted,
    /// Drain sessions in submit order, one stream at a time (kept for
    /// comparisons; also the FIFO order of request admission).
    SessionOrder,
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::RoundRobin => f.write_str("round-robin"),
            AdmissionPolicy::Weighted => f.write_str("weighted"),
            AdmissionPolicy::SessionOrder => f.write_str("session-order"),
        }
    }
}

/// How sessions are sharded across the device pool (`gpus > 1`).
///
/// Placement is per *session*, not per buffer: a stream's buffers all
/// run on one device, so its chunks stay bit-identical to a sequential
/// scan regardless of pool size. An explicit pin
/// ([`ChunkRequest::pinned`]) always wins over the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Each session goes to the device with the least bytes assigned so
    /// far (ties to the lowest index). The default: balances by load,
    /// not by session count.
    LeastLoaded,
    /// Unpinned sessions rotate across devices in submit order.
    RoundRobin,
    /// Only explicit pins place sessions; unpinned sessions fall back
    /// to least-loaded. Use when tenants own devices.
    Pinned,
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementPolicy::LeastLoaded => f.write_str("least-loaded"),
            PlacementPolicy::RoundRobin => f.write_str("round-robin"),
            PlacementPolicy::Pinned => f.write_str("pinned"),
        }
    }
}

/// Fixed-point scale for straggler-aware placement weights: parts per
/// million, so `f64` slowdown factors become exact integer weights and
/// device ordering never depends on float rounding.
const PPM: u64 = 1_000_000;

/// Shards sessions across a (possibly) degraded pool of `gpus`
/// devices: explicit pins first-class, the policy decides the rest,
/// deterministic in submit order. `dead` devices take no new sessions
/// and `slowdown_ppm` scales each device's projected completion
/// (`(load + bytes) × slowdown`), so LeastLoaded provably routes
/// around stragglers known at placement time. With every device alive
/// at factor 1.0 the choice reduces exactly to the plain
/// `(load, index)` ordering — healthy runs place identically.
fn place_sessions_degraded(
    plans: &[SessionPlan],
    gpus: usize,
    policy: PlacementPolicy,
    dead: &[bool],
    slowdown_ppm: &[u64],
) -> Vec<usize> {
    let mut load = vec![0u64; gpus];
    let mut rotor = 0usize;
    plans
        .iter()
        .map(|plan| {
            let device = match plan.pin {
                Some(pin) => pin,
                None => match policy {
                    PlacementPolicy::RoundRobin => loop {
                        let d = rotor % gpus;
                        rotor += 1;
                        if !dead[d] {
                            break d;
                        }
                    },
                    PlacementPolicy::LeastLoaded | PlacementPolicy::Pinned => {
                        (0..gpus)
                            .filter(|&d| !dead[d])
                            .min_by_key(|&d| {
                                ((load[d] + plan.bytes) as u128 * slowdown_ppm[d] as u128, d)
                            })
                            // shredder-lint: allow(R5) — gpus >= 1 and at least one survivor are enforced by ShredderConfig::validate
                            .expect("at least one device alive")
                    }
                },
            };
            load[device] += plan.bytes;
            device
        })
        .collect()
}

/// The result of an engine run: one outcome per session plus the
/// aggregate report.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Per-session outcomes, in submit order: the session's chunks, or
    /// [`ChunkError::Overloaded`] if admission control shed the request
    /// (it did no work and touched no sink state).
    pub sessions: Vec<Result<SessionOutcome, ChunkError>>,
    /// The aggregate engine report (per-session reports and the
    /// [`ServiceReport`] inside).
    pub report: EngineReport,
}

impl EngineOutcome {
    /// The completed sessions' outcomes, in submit order.
    pub fn completed(&self) -> impl Iterator<Item = &SessionOutcome> {
        self.sessions.iter().filter_map(|s| s.as_ref().ok())
    }
}

/// One pipeline buffer's pre-computed (functional) work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedBuffer {
    /// Bytes owned by this buffer.
    pub(crate) bytes: u64,
    /// Raw cuts owned by this buffer (drives the D2H + Store cost).
    pub(crate) cut_count: u64,
    /// Simulated kernel duration.
    pub(crate) kernel_dur: Dur,
}

/// A fully planned session, ready for the shared timing pass.
pub(crate) struct SessionPlan {
    pub(crate) name: String,
    pub(crate) weight: u32,
    /// Tenant-class index (0 = the default class).
    pub(crate) class: usize,
    /// Explicit device pin, if the session requested one.
    pub(crate) pin: Option<usize>,
    pub(crate) bytes: u64,
    /// Raw cuts at stream-absolute offsets, in stream order. Each cut
    /// carries the strictness tag its boundary kernel assigned, so the
    /// store-thread policy pass can replay FastCDC normalization.
    pub(crate) cuts: Vec<RawCut>,
    pub(crate) buffers: Vec<PlannedBuffer>,
}

/// A tenant class resolved for one simulation run.
#[derive(Debug, Clone)]
pub(crate) struct ClassRuntime {
    pub(crate) name: String,
    pub(crate) weight: u32,
    /// Ingest bandwidth cap: when set, all reads of this class's
    /// sessions pass through one shared class link of this bandwidth
    /// before the SAN reader.
    pub(crate) ingest_bw: Option<f64>,
}

impl From<&TenantClass> for ClassRuntime {
    fn from(c: &TenantClass) -> Self {
        ClassRuntime {
            name: c.name.clone(),
            weight: c.weight,
            ingest_bw: c.ingest_bw,
        }
    }
}

/// The session-based multi-stream chunking engine.
///
/// Requests are [`submit`](Self::submit)ted, then [`run`](Self::run)
/// together under an arrival [`Workload`] through the engine's
/// admission control. The defaults — round-robin buffer admission,
/// unbounded [`AdmissionControl`] and the single `"default"` tenant
/// class — make `run(&Workload::Batch)` the closed batch: every request
/// arrives at `t = 0` and none queues or sheds.
pub struct ShredderEngine<'a> {
    config: ShredderConfig,
    kernel: ChunkKernel,
    policy: AdmissionPolicy,
    control: AdmissionControl,
    classes: Vec<TenantClass>,
    requests: Vec<ChunkRequest<'a>>,
}

impl<'a> ShredderEngine<'a> {
    /// Creates an engine from a pipeline configuration, with unbounded
    /// admission and the implicit `"default"` tenant class.
    pub fn new(config: ShredderConfig) -> Self {
        let kernel = ChunkKernel::new(config.params.clone(), config.kernel);
        ShredderEngine {
            config,
            kernel,
            policy: AdmissionPolicy::RoundRobin,
            control: AdmissionControl::unbounded(),
            classes: vec![TenantClass::new("default")],
            requests: Vec::new(),
        }
    }

    /// Sets the *buffer-level* admission policy: how dispatched
    /// sessions share the pipeline slots (default: round-robin).
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the *request-level* admission control: dispatch slots,
    /// queue bound, shed policy (default:
    /// [`AdmissionControl::unbounded`]).
    pub fn with_admission(mut self, control: AdmissionControl) -> Self {
        self.control = control;
        self
    }

    /// Defines (or redefines, by name) a tenant class.
    pub fn define_class(&mut self, class: TenantClass) {
        match self.classes.iter_mut().find(|c| c.name == class.name) {
            Some(existing) => *existing = class,
            None => self.classes.push(class),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &ShredderConfig {
        &self.config
    }

    /// The buffer-level admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Number of requests submitted and not yet run.
    pub fn session_count(&self) -> usize {
        self.requests.len()
    }

    /// Submits a request; it arrives according to the workload passed
    /// to [`run`](Self::run).
    pub fn submit(&mut self, request: ChunkRequest<'a>) -> SessionId {
        self.requests.push(request);
        SessionId(self.requests.len() - 1)
    }

    /// Runs every submitted request under the arrival workload through
    /// one shared simulation and returns per-session outcomes plus the
    /// aggregate report. Consumes the submitted requests (the engine
    /// can then be reused).
    ///
    /// Requests arrive inside the simulation, wait in the admission
    /// queue, and are dispatched (or shed with
    /// [`ChunkError::Overloaded`]) by the admission control. Every
    /// completed session's chunks are bit-identical to a sequential
    /// scan of its stream.
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`] for unusable chunking parameters, a
    /// pin outside the pool or a request naming an undefined tenant
    /// class — these leave the submitted requests in place for a
    /// corrected re-run; [`ChunkError::Gpu`] if, on the GPU executor, a
    /// buffer region (buffer plus carry) is larger than device memory.
    /// Errors abort the whole run (no partial simulation is reported).
    /// Per-request `Overloaded` rejections are *not* run errors — they
    /// come back inside [`EngineOutcome::sessions`].
    pub fn run(&mut self, workload: &Workload) -> Result<EngineOutcome, ChunkError> {
        self.config.validate()?;
        let mut class_of = Vec::with_capacity(self.requests.len());
        for (i, request) in self.requests.iter().enumerate() {
            let label = || {
                request
                    .name
                    .clone()
                    .unwrap_or_else(|| SessionId(i).to_string())
            };
            if let Some(pin) = request.pin {
                if pin >= self.config.gpus {
                    return Err(ChunkError::InvalidConfig(format!(
                        "session '{}' pinned to device {pin}, but the pool has {} device(s)",
                        label(),
                        self.config.gpus
                    )));
                }
            }
            class_of.push(match &request.class {
                Some(name) => self
                    .classes
                    .iter()
                    .position(|c| &c.name == name)
                    .ok_or_else(|| {
                        ChunkError::InvalidConfig(format!(
                            "session '{}' uses undefined tenant class '{name}'",
                            label()
                        ))
                    })?,
                None => 0,
            });
        }
        let requests = std::mem::take(&mut self.requests);
        let arrivals = workload.schedule(requests.len());
        let classes: Vec<ClassRuntime> = self.classes.iter().map(ClassRuntime::from).collect();

        // Functional pass: real chunk boundaries per session, scanned
        // in place. Sessions with a sink keep their source so the
        // sink's functional half sees the real payloads.
        let mut plans = Vec::with_capacity(requests.len());
        let mut bindings = Vec::with_capacity(requests.len());
        for ((i, request), class) in requests.into_iter().enumerate().zip(class_of) {
            let (plan, binding) = self.plan_session(i, class, request)?;
            plans.push(plan);
            bindings.push(binding);
        }

        // Store-thread pass, part 1: per-session min/max adjustment —
        // final chunks must exist *before* the timing pass so sink
        // stages know their per-buffer service demand. (The sink
        // functional pass itself is deferred into the simulation: it
        // runs when a request is *dispatched*, so shed requests never
        // touch shared sink state.)
        let chunk_sets: Vec<Vec<Chunk>> = plans
            .iter()
            .map(|plan| {
                let cuts = self.kernel.apply_policy(&plan.cuts, plan.bytes);
                cuts_to_chunks(&cuts, plan.bytes)
            })
            .collect();
        // Part 2: the run's one fingerprint batch. Digests are pure, so
        // hashing a request that is later shed changes nothing but the
        // host's work.
        let fingerprints = fingerprint_batch(&mut bindings, &chunk_sets);

        // Timing pass: one shared simulation for every session —
        // arrival events, the admission queue, the chunking pipeline
        // and the sink stages all on one virtual clock.
        let sim = simulate_service(
            &self.config,
            &plans,
            self.policy,
            &chunk_sets,
            ServiceInputs {
                arrivals,
                control: self.control,
                classes: &classes,
                bindings,
                fingerprints,
            },
        );

        let mut sessions = Vec::with_capacity(plans.len());
        let mut reports = Vec::with_capacity(plans.len());
        let mut total_bytes = 0u64;
        let mut total_buffers = 0usize;
        for ((idx, plan), chunks) in plans.iter().enumerate().zip(chunk_sets) {
            let per = &sim.sessions[idx];
            if let Some(shed_at) = sim.service.shed[idx] {
                // The request never entered the pipeline: it did no
                // work and owns no chunks.
                reports.push(SessionReport {
                    id: idx,
                    name: plan.name.clone(),
                    weight: plan.weight,
                    device: sim.placement[idx],
                    kernel: self.config.kernel,
                    bytes: 0,
                    buffers: 0,
                    chunks: 0,
                    raw_cuts: 0,
                    first_admit: SimTime::ZERO,
                    completion: SimTime::ZERO,
                    makespan: Dur::ZERO,
                    queue_wait: Dur::ZERO,
                    kernel_time: Dur::ZERO,
                    sink_service: Dur::ZERO,
                    timeline: Vec::new(),
                });
                sessions.push(Err(ChunkError::Overloaded {
                    queued: shed_at.saturating_since(sim.service.arrival[idx]),
                }));
                continue;
            }
            total_bytes += plan.bytes;
            total_buffers += plan.buffers.len();
            reports.push(SessionReport {
                id: idx,
                name: plan.name.clone(),
                weight: plan.weight,
                device: sim.placement[idx],
                kernel: self.config.kernel,
                bytes: plan.bytes,
                buffers: plan.buffers.len(),
                chunks: chunks.len(),
                raw_cuts: plan.cuts.len(),
                first_admit: per.first_admit,
                completion: per.completion,
                makespan: per.completion - per.first_admit,
                queue_wait: per.queue_wait,
                kernel_time: plan.buffers.iter().map(|b| b.kernel_dur).sum(),
                sink_service: sim.service.session_service[idx],
                timeline: per.timeline.clone(),
            });
            sessions.push(Ok(SessionOutcome {
                id: SessionId(idx),
                name: plan.name.clone(),
                chunks,
            }));
        }

        let ring_setup = self.config.ring_setup();

        let makespan = sim.end.saturating_since(SimTime::ZERO);
        let devices = sim
            .devices
            .iter()
            .enumerate()
            .map(|(id, d)| DeviceReport {
                id,
                sessions: sim.placement.iter().filter(|&&p| p == id).count(),
                buffers: d.buffers,
                bytes: d.bytes,
                transfer_busy: d.transfer_busy,
                kernel_busy: d.kernel_busy,
                return_busy: d.return_busy,
                busy_span: d.busy_span,
                utilization: if makespan.is_zero() {
                    0.0
                } else {
                    d.kernel_busy.as_secs_f64() / makespan.as_secs_f64()
                },
                overlap: d.overlap,
            })
            .collect();

        let service = build_service_report(&plans, &classes, &sim.service, makespan);
        let report = EngineReport {
            queue_wait: reports.iter().map(|r| r.queue_wait).sum(),
            sessions: reports,
            bytes: total_bytes,
            buffers: total_buffers,
            pipeline_depth: self.config.pipeline_depth,
            makespan,
            stage_busy: sim.stage_busy,
            devices,
            sink_stages: sim.stages,
            ring_setup,
            service,
            faults: sim.faults,
            telemetry: sim.telemetry,
        };

        Ok(EngineOutcome { sessions, report })
    }

    /// Functional pass over one session: scan the stream in place one
    /// pipeline buffer at a time, each buffer preceded by the
    /// kernel-overlap byte carry (the last `overlap` bytes before it, or
    /// all of them near the stream's start) so windows spanning buffer
    /// boundaries are found exactly once. On the GPU executor a region
    /// larger than device memory fails the run. When the session has a
    /// sink, the binding keeps the request's source so the sink's
    /// functional pass reads the same bytes.
    fn plan_session(
        &self,
        index: usize,
        class: usize,
        request: ChunkRequest<'a>,
    ) -> Result<(SessionPlan, Option<SinkBinding<'a>>), ChunkError> {
        // The boundary kernel knows its own carry requirement: `window − 1`
        // bytes for Rabin, `GEAR_WINDOW − 1` for Gear.
        let overlap = self.kernel.overlap();
        let data = request.source.bytes();
        let len = data.len() as u64;

        let mut cuts: Vec<RawCut> = Vec::new();
        let mut buffers: Vec<PlannedBuffer> = Vec::new();
        for start in (0..data.len()).step_by(self.config.buffer_size) {
            let end = (start + self.config.buffer_size).min(data.len());
            let scan_start = start - overlap.min(start);
            // Scan carry + buffer so boundary-spanning windows are seen.
            let region = &data[scan_start..end];
            let filled = (end - start) as u64;
            let (raw_cuts, kernel_dur) = match self.config.executor {
                Executor::Gpu => {
                    let out = self.kernel.run(&self.config.device, region)?;
                    (out.raw_cuts, out.stats.duration)
                }
                // Host buffers never reach a device.
                Executor::Host(allocator) => (
                    self.kernel.boundary().raw_cuts(region),
                    host_scan_time(filled, allocator),
                ),
            };

            let before = cuts.len();
            cuts.extend(
                raw_cuts
                    .iter()
                    .map(|c| RawCut {
                        offset: c.offset + scan_start as u64,
                        strict: c.strict,
                    })
                    .filter(|c| c.offset > start as u64),
            );
            buffers.push(PlannedBuffer {
                bytes: filled,
                cut_count: (cuts.len() - before) as u64,
                kernel_dur,
            });
        }

        let binding = request.sink.map(|sink| SinkBinding {
            sink,
            source: request.source,
            digests: 0..0,
        });
        Ok((
            SessionPlan {
                name: request.name.unwrap_or_else(|| SessionId(index).to_string()),
                weight: request.weight,
                class,
                pin: request.pin,
                bytes: len,
                cuts,
                buffers,
            },
            binding,
        ))
    }

    /// Timing-only run over pre-planned sessions — the experiment
    /// harness path (buffer sweeps reuse measured kernel durations
    /// instead of re-running the functional scan).
    pub(crate) fn simulate_planned(&self, plans: &[SessionPlan]) -> SimResult {
        let chunk_sets = vec![Vec::new(); plans.len()];
        simulate_service(
            &self.config,
            plans,
            self.policy,
            &chunk_sets,
            ServiceInputs {
                arrivals: ArrivalSchedule::Open(vec![SimTime::ZERO; plans.len()]),
                control: AdmissionControl::unbounded(),
                classes: &[ClassRuntime::from(&TenantClass::new("default"))],
                bindings: plans.iter().map(|_| None).collect(),
                fingerprints: Vec::new(),
            },
        )
    }
}

/// Simulated time for the host executor's threads to scan one buffer
/// of `bytes` bytes (§5.1): the calibrated per-byte Rabin cost spread
/// over `HOST_THREADS` Xeon threads and slowed by the allocator's
/// contention loss, plus the SPMD spawn + boundary-merge
/// synchronization every buffer pays.
pub(crate) fn host_scan_time(bytes: u64, allocator: Allocator) -> Dur {
    let threads = calibration::HOST_THREADS;
    let rate = calibration::HOST_CLOCK_HZ / calibration::CPU_RABIN_CYCLES_PER_BYTE
        * threads as f64
        * (1.0 - allocator.contention_loss());
    Dur::from_bytes_at(bytes, rate)
        + Dur::from_nanos(threads * calibration::HOST_SYNC_NS_PER_THREAD)
}

/// A session's sink plus the request's source, whose bytes its
/// functional pass reads in place. Chunk verdicts reference the bytes
/// as `(offset, len)` ranges.
pub(crate) struct SinkBinding<'a> {
    sink: Box<dyn ChunkSink + 'a>,
    source: Box<dyn StreamSource + 'a>,
    /// The session's range of the run's fingerprint batch: one digest
    /// per chunk when its sink fingerprints chunks, empty otherwise.
    digests: Range<usize>,
}

/// Fingerprints the chunks of every session whose sink
/// [fingerprints chunks](ChunkSink::fingerprints_chunks) in one
/// [`sha256_many`] call, so small streams share the hashing lanes
/// instead of each paying a batch of its own. Sets each such binding's
/// range of the returned batch.
fn fingerprint_batch(
    bindings: &mut [Option<SinkBinding<'_>>],
    chunk_sets: &[Vec<Chunk>],
) -> Vec<Digest> {
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut ranges = Vec::with_capacity(bindings.len());
    for (binding, chunks) in bindings.iter().zip(chunk_sets) {
        let start = payloads.len();
        if let Some(binding) = binding.as_ref().filter(|b| b.sink.fingerprints_chunks()) {
            let data = binding.source.bytes();
            payloads.extend(chunks.iter().map(|c| c.slice(data)));
        }
        ranges.push(start..payloads.len());
    }
    let digests = sha256_many(&payloads);
    for (binding, range) in bindings.iter_mut().zip(ranges) {
        if let Some(binding) = binding {
            binding.digests = range;
        }
    }
    digests
}

/// One buffer's downstream work: `(global stage index, service)` per
/// stage, in stage order.
type BufferSinkWork = Vec<(usize, Dur)>;

/// The inputs that turn a plain engine simulation into a *service*
/// simulation: when each request arrives, how admission is controlled,
/// which tenant classes exist, and the (deferred) sink bindings.
pub(crate) struct ServiceInputs<'s, 'a> {
    pub(crate) arrivals: ArrivalSchedule,
    pub(crate) control: AdmissionControl,
    pub(crate) classes: &'s [ClassRuntime],
    /// Per-session sink bindings. Their functional pass runs when the
    /// request is dispatched (in dispatch order), never for shed
    /// requests.
    pub(crate) bindings: Vec<Option<SinkBinding<'a>>>,
    /// The run's fingerprint batch, indexed by each binding's
    /// `digests` range.
    pub(crate) fingerprints: Vec<Digest>,
}

impl std::fmt::Debug for ShredderEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShredderEngine")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field("control", &self.control)
            .field("classes", &self.classes.len())
            .field("requests", &self.requests.len())
            .finish()
    }
}

/// Per-session timing produced by the shared simulation.
pub(crate) struct SessionSim {
    pub(crate) first_admit: SimTime,
    pub(crate) completion: SimTime,
    pub(crate) queue_wait: Dur,
    pub(crate) timeline: Vec<BufferTimeline>,
}

/// Per-device timing produced by the shared simulation.
pub(crate) struct DeviceSim {
    pub(crate) buffers: u64,
    pub(crate) bytes: u64,
    pub(crate) transfer_busy: Dur,
    pub(crate) kernel_busy: Dur,
    pub(crate) return_busy: Dur,
    pub(crate) busy_span: Dur,
    /// Fraction of DMA time hidden behind kernel execution.
    pub(crate) overlap: f64,
}

/// Request-level (arrival/admission) timing produced by the shared
/// simulation.
pub(crate) struct ServiceSimOut {
    pub(crate) arrival: Vec<SimTime>,
    pub(crate) admit: Vec<Option<SimTime>>,
    pub(crate) first_chunk: Vec<Option<SimTime>>,
    pub(crate) done: Vec<Option<SimTime>>,
    pub(crate) shed: Vec<Option<SimTime>>,
    /// Admission queue depth sampled at every arrival/dispatch/shed.
    pub(crate) depth_points: Vec<(SimTime, f64)>,
    pub(crate) max_depth: usize,
    /// Total downstream sink service demand per session (zero for
    /// sink-less and shed sessions).
    pub(crate) session_service: Vec<Dur>,
}

/// The shared simulation's output.
pub(crate) struct SimResult {
    pub(crate) sessions: Vec<SessionSim>,
    /// Session → pool device, in submit order.
    pub(crate) placement: Vec<usize>,
    pub(crate) devices: Vec<DeviceSim>,
    pub(crate) stage_busy: StageBusy,
    pub(crate) stages: Vec<StageReport>,
    pub(crate) end: SimTime,
    pub(crate) service: ServiceSimOut,
    pub(crate) faults: FaultReport,
    /// `Some` only when the config enabled telemetry.
    pub(crate) telemetry: Option<TelemetryReport>,
}

/// Runtime fault state shared by the event closures. Only allocated
/// when the config carries a non-empty
/// [`FaultPlan`](crate::FaultPlan) — fault-free runs take the exact
/// pre-fault code path.
struct FaultRt {
    /// Per-device death flags (mirrors the pool's health, kept here for
    /// cheap survivor scans).
    dead: Vec<bool>,
    /// Current attempt of each `[session][buffer]`. A device death
    /// requeues in-flight buffers by bumping their attempt; callbacks
    /// belonging to a superseded attempt (work orphaned on the dead
    /// device) observe the mismatch and return without effect.
    attempt: Vec<Vec<u32>>,
    /// Which `[session][buffer]`s are currently in flight (admitted by
    /// the buffer scheduler, not yet completed through the sink chain).
    inflight: Vec<Vec<bool>>,
    report: FaultReport,
}

/// Central admission state shared by the event closures.
struct Sched {
    /// Per-session buffers not yet admitted, and the policy over them.
    queues: ReadyQueues,
    in_flight: usize,
    depth: usize,
    /// When each session's current head-of-line buffer became head.
    head_since: Vec<SimTime>,
    first_admit: Vec<Option<SimTime>>,
    completion: Vec<SimTime>,
    queue_wait: Vec<Dur>,
    timelines: Vec<Vec<BufferTimeline>>,
}

impl Sched {
    /// Picks the next (session, buffer) to admit, or `None` when all
    /// slots are busy or no work remains. Updates fairness state and
    /// queue-wait accounting.
    fn pick_next(&mut self, now: SimTime) -> Option<(usize, usize)> {
        if self.in_flight >= self.depth {
            return None;
        }
        let (chosen, bidx) = self.queues.pop()?;
        self.in_flight += 1;
        self.queue_wait[chosen] += now.saturating_since(self.head_since[chosen]);
        self.head_since[chosen] = now;
        if self.first_admit[chosen].is_none() {
            self.first_admit[chosen] = Some(now);
        }
        self.timelines[chosen][bidx].read_start = now;
        Some((chosen, bidx))
    }
}

/// Request-level state shared by the arrival/admission event
/// closures: the explicit admission queue between request *arrival* and
/// *dispatch* into the engine.
struct SvcState {
    policy: AdmissionPolicy,
    slots: usize,
    queue_depth: Option<usize>,
    max_queue_delay: Option<Dur>,
    /// Per-class admission queues of waiting request ids.
    class_queues: Vec<VecDeque<usize>>,
    class_weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
    /// Requests currently waiting across all class queues.
    waiting: usize,
    /// Requests currently dispatched (chunking) — bounded by `slots`.
    running: usize,
    arrival: Vec<SimTime>,
    admit: Vec<Option<SimTime>>,
    first_chunk: Vec<Option<SimTime>>,
    done: Vec<Option<SimTime>>,
    shed: Vec<Option<SimTime>>,
    /// Buffers not yet completed per session (completion detector).
    remaining: Vec<usize>,
    /// Closed-loop chaining: the next request of the same client.
    next_req: Vec<Option<usize>>,
    think: Dur,
    closed_loop: bool,
    depth_points: Vec<(SimTime, f64)>,
    max_depth: usize,
    session_service: Vec<Dur>,
}

impl SvcState {
    fn sample_depth(&mut self, now: SimTime) {
        self.depth_points.push((now, self.waiting as f64));
        self.max_depth = self.max_depth.max(self.waiting);
    }

    /// Picks the next waiting request to dispatch, or `None` when every
    /// class queue is empty. Mirrors [`Sched::pick_next`]'s policies,
    /// applied across tenant classes: `SessionOrder` is FIFO by arrival
    /// time, `RoundRobin` rotates classes, `Weighted` is deficit
    /// round-robin by class weight.
    fn pick_waiting(&mut self) -> Option<usize> {
        let k = self.class_queues.len();
        let class = match self.policy {
            AdmissionPolicy::SessionOrder => (0..k)
                .filter_map(|c| {
                    self.class_queues[c]
                        .front()
                        .map(|&sid| (self.arrival[sid], sid, c))
                })
                .min()
                .map(|(_, _, c)| c),
            AdmissionPolicy::RoundRobin => {
                let found = (0..k)
                    .map(|i| (self.cursor + i) % k)
                    .find(|&c| !self.class_queues[c].is_empty());
                if let Some(c) = found {
                    self.cursor = (c + 1) % k;
                }
                found
            }
            AdmissionPolicy::Weighted => {
                let mut found = None;
                for pass in 0..2 {
                    found = (0..k)
                        .map(|i| (self.cursor + i) % k)
                        .find(|&c| !self.class_queues[c].is_empty() && self.credits[c] > 0);
                    if found.is_some() || pass == 1 {
                        break;
                    }
                    for c in 0..k {
                        if !self.class_queues[c].is_empty() {
                            self.credits[c] = self.class_weights[c].max(1);
                        }
                    }
                }
                if let Some(c) = found {
                    self.credits[c] -= 1;
                    if self.credits[c] == 0 {
                        self.cursor = (c + 1) % k;
                    }
                }
                found
            }
        }?;
        // shredder-lint: allow(R5) — `class` comes from the selection loop above, which only yields classes with queued sessions
        let sid = self.class_queues[class].pop_front().expect("queue checked");
        self.waiting -= 1;
        Some(sid)
    }
}

/// Everything an in-flight buffer's event chain needs.
#[derive(Clone)]
struct PipeCtx {
    sched: Rc<RefCell<Sched>>,
    /// Request-level state (admission queue, request timestamps).
    svc: Rc<RefCell<SvcState>>,
    /// Requests dispatched this event whose deferred sink functional
    /// pass the driver loop must run before the next event executes.
    pending_sinks: Rc<RefCell<VecDeque<usize>>>,
    buffers: Rc<Vec<Vec<PlannedBuffer>>>,
    reader: BandwidthChannel,
    /// Per-tenant-class ingest links (`None` = uncapped class): a
    /// class's reads funnel through its link before the shared SAN
    /// reader.
    class_links: Rc<Vec<Option<BandwidthChannel>>>,
    /// Session → tenant class.
    class_of: Rc<Vec<usize>>,
    prep: FifoServer,
    store: FifoServer,
    /// The device pool plus each session's assigned device. Placement
    /// is interior-mutable: a device death re-places its sessions onto
    /// survivors, and `launch` resolves the device at launch time.
    pool: Rc<DevicePool>,
    placement: Rc<RefCell<Vec<usize>>>,
    /// Fault runtime; `None` when the fault plan is empty (the
    /// fault-free fast path — zero extra events, zero perturbation).
    faults: Option<Rc<RefCell<FaultRt>>>,
    /// Telemetry recorder; `None` when telemetry is off (the
    /// zero-overhead path — nothing allocated, nothing recorded).
    /// Recording is passive: it schedules no events and reads no clock
    /// of its own, so an attached recorder never perturbs timing.
    trace: Option<Rc<RefCell<TraceRecorder>>>,
    /// Engine-global sink stage names, for stage-lane span labels.
    stage_names: Rc<Vec<&'static str>>,
    host_kind: HostMemKind,
    /// Which boundary kernel the run's buffer durations were planned
    /// with — stamped on every [`BufferJob`] for per-device accounting.
    variant: KernelVariant,
    /// Whether buffers stage through per-device pinned-ring slots (held
    /// from SAN read through H2D — exhaustion backpressures admission).
    pinned_ring: bool,
    prep_time: Dur,
    /// Shared downstream sink stage servers (one per global stage name).
    stage_servers: Rc<Vec<FifoServer>>,
    /// Per-stage (queue wait, jobs) accounting.
    stage_acct: Rc<RefCell<Vec<(Dur, u64)>>>,
    /// `[session][buffer]` → `(stage index, service)` downstream work,
    /// filled in by the deferred sink pass at dispatch.
    sink_work: Rc<RefCell<Vec<Vec<BufferSinkWork>>>>,
}

impl PipeCtx {
    /// The `k`-th downstream stage job of one buffer, or `None` once
    /// the buffer's sink work (possibly empty) is exhausted. A short
    /// borrow + `Copy` read — no allocation on the per-stage hot path.
    fn work_at(&self, sid: usize, bidx: usize, k: usize) -> Option<(usize, Dur)> {
        self.sink_work
            .borrow()
            .get(sid)
            .and_then(|s| s.get(bidx))
            .and_then(|work| work.get(k))
            .copied()
    }

    /// The current requeue attempt of one buffer (0 on the fault-free
    /// path, where attempts never advance).
    fn attempt_of(&self, sid: usize, bidx: usize) -> u32 {
        match &self.faults {
            Some(f) => f.borrow().attempt[sid][bidx],
            None => 0,
        }
    }

    /// Whether a callback chain launched at `attempt` has been
    /// superseded by a device-death requeue. Stale chains return
    /// without effect: their work died with the device.
    fn is_stale(&self, sid: usize, bidx: usize, attempt: u32) -> bool {
        self.attempt_of(sid, bidx) != attempt
    }

    /// Tracks whether a buffer is in flight (only when faults are
    /// armed; death handling requeues exactly the in-flight set).
    fn note_inflight(&self, sid: usize, bidx: usize, v: bool) {
        if let Some(f) = &self.faults {
            f.borrow_mut().inflight[sid][bidx] = v;
        }
    }
}

/// One request arrives at the service: it either joins the admission
/// queue (possibly with a shed timer) or — queue full — is shed on the
/// spot.
fn arrive(ctx: &PipeCtx, sim: &mut Simulation, sid: usize) {
    let now = sim.now();
    let bound = {
        let mut svc = ctx.svc.borrow_mut();
        svc.arrival[sid] = now;
        // The queue bound only applies to requests that would actually
        // wait: with a free dispatch slot the queue is necessarily
        // empty (try_dispatch drains it on every state change), so the
        // arrival goes straight through — even at queue_depth 0.
        if svc.running >= svc.slots {
            if let Some(depth) = svc.queue_depth {
                if svc.waiting >= depth {
                    drop(svc);
                    shed_request(ctx, sim, sid);
                    return;
                }
            }
        }
        let class = ctx.class_of[sid];
        svc.class_queues[class].push_back(sid);
        svc.waiting += 1;
        svc.sample_depth(now);
        svc.max_queue_delay
    };
    if let Some(bound) = bound {
        let c = ctx.clone();
        sim.schedule(bound, move |sim| queue_timeout(&c, sim, sid));
    }
    try_dispatch(ctx, sim);
}

/// The shed timer of one queued request fired: if it is still waiting,
/// it has now exceeded the queue-delay bound and is shed.
fn queue_timeout(ctx: &PipeCtx, sim: &mut Simulation, sid: usize) {
    {
        let mut svc = ctx.svc.borrow_mut();
        if svc.admit[sid].is_some() || svc.shed[sid].is_some() {
            return;
        }
        let class = ctx.class_of[sid];
        svc.class_queues[class].retain(|&x| x != sid);
        svc.waiting -= 1;
        svc.sample_depth(sim.now());
    }
    shed_request(ctx, sim, sid);
}

/// Rejects one request with `Overloaded`: records the shed instant and
/// runs the post-request hooks (closed-loop clients think and retry
/// with their next request; freed capacity dispatches waiters).
fn shed_request(ctx: &PipeCtx, sim: &mut Simulation, sid: usize) {
    ctx.svc.borrow_mut().shed[sid] = Some(sim.now());
    if let Some(trace) = &ctx.trace {
        let mut t = trace.borrow_mut();
        t.instant(
            Lane::Control,
            "shed",
            sim.now(),
            vec![("session", ArgValue::U64(sid as u64))],
        );
        t.metrics_mut().incr("shredder_requests_shed");
    }
    after_request(ctx, sim, sid);
}

/// Post-request hooks shared by completion and shed: closed-loop
/// clients issue their next request after the think time, and freed
/// dispatch slots pull waiting requests in.
fn after_request(ctx: &PipeCtx, sim: &mut Simulation, sid: usize) {
    let next = {
        let svc = ctx.svc.borrow();
        if svc.closed_loop {
            svc.next_req[sid].map(|n| (n, svc.think))
        } else {
            None
        }
    };
    if let Some((next_sid, think)) = next {
        let c = ctx.clone();
        sim.schedule(think, move |sim| arrive(&c, sim, next_sid));
    }
    try_dispatch(ctx, sim);
}

/// Dispatches waiting requests while dispatch slots are free. Each
/// dispatch queues the request's deferred sink pass (run by the driver
/// loop in dispatch order, so shared sink state never sees shed
/// requests) and makes its buffers visible to the buffer-level
/// admission scheduler.
fn try_dispatch(ctx: &PipeCtx, sim: &mut Simulation) {
    loop {
        let sid = {
            let mut svc = ctx.svc.borrow_mut();
            if svc.running >= svc.slots || svc.waiting == 0 {
                break;
            }
            let Some(sid) = svc.pick_waiting() else { break };
            svc.running += 1;
            svc.admit[sid] = Some(sim.now());
            svc.sample_depth(sim.now());
            sid
        };
        dispatch(ctx, sim, sid);
    }
}

/// Admits one request into the engine: its (already planned) buffers
/// join the buffer-level scheduler and the shared pipeline is pumped.
fn dispatch(ctx: &PipeCtx, sim: &mut Simulation, sid: usize) {
    ctx.pending_sinks.borrow_mut().push_back(sid);
    let nbuf = ctx.buffers[sid].len();
    {
        let mut sched = ctx.sched.borrow_mut();
        sched.queues.enqueue(sid, nbuf);
        sched.head_since[sid] = sim.now();
    }
    if nbuf == 0 {
        // An empty stream completes the moment it is admitted.
        {
            let mut svc = ctx.svc.borrow_mut();
            svc.done[sid] = Some(sim.now());
            svc.running -= 1;
        }
        after_request(ctx, sim, sid);
        return;
    }
    // Pump via the calendar so every same-instant dispatch enqueues its
    // buffers *before* the first admission decision — the batch
    // workload then round-robins across all sessions exactly like the
    // closed-batch engine did.
    let c = ctx.clone();
    sim.schedule_now(move |sim| pump(&c, sim));
}

/// Admits buffers until the shared slots are full, launching each one's
/// stage chain. Called at start and again whenever a buffer completes.
fn pump(ctx: &PipeCtx, sim: &mut Simulation) {
    loop {
        let pick = ctx.sched.borrow_mut().pick_next(sim.now());
        match pick {
            Some((sid, bidx)) => launch(ctx.clone(), sim, sid, bidx),
            None => break,
        }
    }
}

/// One buffer's trip: prep → ring slot → read → device (lane → H2D →
/// kernel → D2H, event-chained on the device's stream triple) → store →
/// the session's sink stages (if any), then release the admission slot
/// and pump again. Because the slot is held until the *last* sink stage
/// completes, downstream stages genuinely backpressure admission (and
/// with it the kernel FIFO); because the ring slot is held from SAN
/// read through H2D, an exhausted staging ring does the same.
fn launch(ctx: PipeCtx, sim: &mut Simulation, sid: usize, bidx: usize) {
    let pb = ctx.buffers[sid][bidx];
    // Resolve the device at launch time: a device death re-places the
    // session, so a requeued (or still-queued) buffer lands on the
    // survivor, not the corpse.
    let device: PooledDevice = ctx.pool.device(ctx.placement.borrow()[sid]).clone();
    ctx.note_inflight(sid, bidx, true);
    // Chains of a superseded attempt (their device died mid-buffer)
    // observe the bumped attempt at every step and die silently; the
    // resources they consumed model work genuinely lost to the failure.
    let attempt = ctx.attempt_of(sid, bidx);
    let c = ctx.clone();
    ctx.prep.process(sim, ctx.prep_time, move |sim| {
        if c.is_stale(sid, bidx, attempt) {
            return;
        }
        let dev = device.clone();
        let c2 = c.clone();
        let staged = move |sim: &mut Simulation| {
            if c2.is_stale(sid, bidx, attempt) {
                return;
            }
            let c3 = c2.clone();
            let dev2 = dev.clone();
            let read_done = move |sim: &mut Simulation| {
                if c3.is_stale(sid, bidx, attempt) {
                    return;
                }
                {
                    let mut s = c3.sched.borrow_mut();
                    s.timelines[sid][bidx].read_end = sim.now();
                }
                let job = BufferJob {
                    bytes: pb.bytes,
                    // Boundary array back over PCIe after the kernel.
                    cut_bytes: (pb.cut_count * 8).max(8),
                    kernel: pb.kernel_dur,
                    host: c3.host_kind,
                    variant: c3.variant,
                };
                let (c4, c5, c6) = (c3.clone(), c3.clone(), c3.clone());
                let dev3 = dev2.clone();
                dev2.submit(
                    sim,
                    job,
                    move |sim| {
                        if c4.is_stale(sid, bidx, attempt) {
                            return;
                        }
                        // Payload resident on device: the staging slot
                        // is reusable by the next reader.
                        if c4.pinned_ring {
                            dev3.ring().release(sim, 1);
                        }
                        let mut s = c4.sched.borrow_mut();
                        s.timelines[sid][bidx].transfer_end = sim.now();
                    },
                    move |sim| {
                        if c5.is_stale(sid, bidx, attempt) {
                            return;
                        }
                        let mut s = c5.sched.borrow_mut();
                        s.timelines[sid][bidx].kernel_end = sim.now();
                    },
                    move |sim| {
                        if c6.is_stale(sid, bidx, attempt) {
                            return;
                        }
                        // Host-side adjustment + upcall.
                        let host_time = Dur::from_nanos(
                            calibration::HOST_STAGE_OVERHEAD_NS
                                + pb.cut_count * calibration::STORE_PER_CUT_NS,
                        );
                        let c7 = c6.clone();
                        c6.store.process(sim, host_time, move |sim| {
                            if c7.is_stale(sid, bidx, attempt) {
                                return;
                            }
                            {
                                let mut s = c7.sched.borrow_mut();
                                s.timelines[sid][bidx].store_end = sim.now();
                            }
                            {
                                // First boundary delivery of this
                                // request — the "first chunk" service
                                // timestamp.
                                let mut svc = c7.svc.borrow_mut();
                                if svc.first_chunk[sid].is_none() {
                                    svc.first_chunk[sid] = Some(sim.now());
                                }
                            }
                            sink_chain(c7, sim, sid, bidx, 0);
                        });
                    },
                );
            };
            // A tenant class with an ingest cap funnels its reads
            // through the class link before the shared SAN reader.
            match c2.class_links[c2.class_of[sid]].clone() {
                Some(link) => {
                    let reader = c2.reader.clone();
                    link.transfer(sim, pb.bytes, move |sim| {
                        reader.transfer(sim, pb.bytes, read_done)
                    });
                }
                None => c2.reader.transfer(sim, pb.bytes, read_done),
            }
        };
        if c.pinned_ring {
            device.ring().clone().acquire(sim, 1, staged);
        } else {
            staged(sim);
        }
    });
}

/// Runs one buffer's downstream sink work, stage by stage, then
/// completes the buffer. A buffer with no sink work completes
/// immediately — the degenerate (sink-less) path is byte-for-byte the
/// pre-sink pipeline.
fn sink_chain(ctx: PipeCtx, sim: &mut Simulation, sid: usize, bidx: usize, k: usize) {
    let Some((stage, service)) = ctx.work_at(sid, bidx, k) else {
        ctx.note_inflight(sid, bidx, false);
        {
            let mut s = ctx.sched.borrow_mut();
            s.completion[sid] = sim.now();
            s.in_flight -= 1;
        }
        let request_done = {
            let mut svc = ctx.svc.borrow_mut();
            svc.remaining[sid] -= 1;
            if svc.remaining[sid] == 0 {
                svc.done[sid] = Some(sim.now());
                svc.running -= 1;
                true
            } else {
                false
            }
        };
        if request_done {
            // A dispatch slot freed up: waiting requests (and, closed
            // loop, this client's next request) move.
            after_request(&ctx, sim, sid);
        }
        pump(&ctx, sim);
        return;
    };
    let enqueued = sim.now();
    let attempt = ctx.attempt_of(sid, bidx);
    let server = ctx.stage_servers[stage].clone();
    let c = ctx.clone();
    server.process(sim, service, move |sim| {
        if c.is_stale(sid, bidx, attempt) {
            return;
        }
        let wait = {
            let mut acct = c.stage_acct.borrow_mut();
            let wait = sim.now().saturating_since(enqueued).saturating_sub(service);
            acct[stage].0 += wait;
            acct[stage].1 += 1;
            wait
        };
        if let Some(trace) = &c.trace {
            // The FIFO stage server serializes its jobs, so service
            // spans on one stage lane never overlap; the queue wait
            // (which *can* overlap) rides along as an arg and a
            // histogram instead of a span.
            let name = c.stage_names[stage];
            let end = sim.now();
            let start = SimTime::from_nanos(end.as_nanos().saturating_sub(service.as_nanos()));
            let mut t = trace.borrow_mut();
            t.span(
                Lane::Stage {
                    name: name.to_string(),
                },
                name,
                start,
                end,
                vec![
                    ("session", ArgValue::U64(sid as u64)),
                    ("queue_wait_ns", ArgValue::U64(wait.as_nanos())),
                ],
            );
            t.metrics_mut()
                .observe(&format!("shredder_stage_wait_ns:{name}"), wait.as_nanos());
            t.metrics_mut().observe(
                &format!("shredder_stage_service_ns:{name}"),
                service.as_nanos(),
            );
        }
        sink_chain(c, sim, sid, bidx, k + 1);
    });
}

/// Applies one scheduled [`FaultKind`] to the running simulation.
///
/// *Straggler*: flips the device's slowdown factor — kernels submitted
/// from now on pay it (t = 0 stragglers additionally bias the initial
/// LeastLoaded placement).
///
/// *Death*: marks the device dead, re-places its unfinished sessions
/// onto the least-loaded (slowdown-weighted) survivors — ascending
/// session order, so the outcome is deterministic — and requeues their
/// in-flight buffers: each gets a bumped attempt and a fresh launch
/// (new SAN read, surviving device) while the orphaned chain's
/// callbacks observe the stale attempt and die without effect. A death
/// that would kill the last survivor is skipped and counted
/// (`deaths_skipped`): the engine never strands accepted work.
fn apply_fault(ctx: &PipeCtx, sim: &mut Simulation, kind: FaultKind) {
    let Some(frt) = ctx.faults.clone() else {
        return;
    };
    match kind {
        FaultKind::Straggler { device, slowdown } => {
            ctx.pool.device(device).set_slowdown(slowdown);
            frt.borrow_mut().report.stragglers += 1;
            if let Some(trace) = &ctx.trace {
                let mut t = trace.borrow_mut();
                t.instant(
                    Lane::Control,
                    "straggler",
                    sim.now(),
                    vec![
                        ("device", ArgValue::U64(device as u64)),
                        ("slowdown", ArgValue::F64(slowdown)),
                    ],
                );
                t.metrics_mut().incr("shredder_faults_stragglers");
            }
        }
        FaultKind::DeviceDeath { device } => {
            {
                let mut f = frt.borrow_mut();
                if f.dead[device] {
                    return; // Double kill: nothing left to take.
                }
                if f.dead.iter().filter(|&&d| !d).count() <= 1 {
                    f.report.deaths_skipped += 1;
                    return;
                }
                f.dead[device] = true;
                f.report.device_deaths += 1;
            }
            ctx.pool.device(device).fail();
            if let Some(trace) = &ctx.trace {
                let mut t = trace.borrow_mut();
                t.instant(
                    Lane::Control,
                    "device-death",
                    sim.now(),
                    vec![("device", ArgValue::U64(device as u64))],
                );
                t.metrics_mut().incr("shredder_faults_device_deaths");
            }

            // Bytes still assigned per survivor: sessions that are
            // neither done nor shed, wherever they currently sit.
            let gpus = ctx.pool.len();
            let session_bytes: Vec<u64> = ctx
                .buffers
                .iter()
                .map(|bufs| bufs.iter().map(|b| b.bytes).sum())
                .collect();
            let placement = ctx.placement.borrow().clone();
            let (mut load, victims) = {
                let svc = ctx.svc.borrow();
                let active = |sid: usize| svc.done[sid].is_none() && svc.shed[sid].is_none();
                let mut load = vec![0u64; gpus];
                for sid in 0..placement.len() {
                    if placement[sid] != device && active(sid) {
                        load[placement[sid]] += session_bytes[sid];
                    }
                }
                let victims: Vec<usize> = (0..placement.len())
                    .filter(|&sid| placement[sid] == device && active(sid))
                    .collect();
                (load, victims)
            };

            let dead = frt.borrow().dead.clone();
            for sid in victims {
                let target = (0..gpus)
                    .filter(|&d| !dead[d])
                    .min_by_key(|&d| {
                        let ppm = (ctx.pool.device(d).slowdown() * PPM as f64) as u64;
                        ((load[d] + session_bytes[sid]) as u128 * ppm as u128, d)
                    })
                    // shredder-lint: allow(R5) — the last-survivor guard above ensures at least one live device remains
                    .expect("at least one survivor");
                load[target] += session_bytes[sid];
                ctx.placement.borrow_mut()[sid] = target;
                frt.borrow_mut().report.replaced_sessions += 1;

                // Requeue the session's in-flight buffers in index
                // order; relaunches go through the calendar so this
                // handler finishes before any of them runs.
                for bidx in 0..ctx.buffers[sid].len() {
                    let requeue = {
                        let mut f = frt.borrow_mut();
                        if f.inflight[sid][bidx] {
                            f.attempt[sid][bidx] += 1;
                            f.report.requeued_buffers += 1;
                            true
                        } else {
                            false
                        }
                    };
                    if requeue {
                        if let Some(trace) = &ctx.trace {
                            let mut t = trace.borrow_mut();
                            t.instant(
                                Lane::Control,
                                "requeue",
                                sim.now(),
                                vec![
                                    ("session", ArgValue::U64(sid as u64)),
                                    ("buffer", ArgValue::U64(bidx as u64)),
                                    ("target", ArgValue::U64(target as u64)),
                                ],
                            );
                            t.metrics_mut().incr("shredder_faults_requeued_buffers");
                        }
                        ctx.sched.borrow_mut().timelines[sid][bidx].read_start = sim.now();
                        let c = ctx.clone();
                        sim.schedule_now(move |sim| launch(c, sim, sid, bidx));
                    }
                }
            }
        }
    }
}

/// Runs the deferred sink functional pass of one freshly-dispatched
/// request: the sink consumes the whole stream (real payloads, real
/// digests/dedup decisions) and the per-buffer, per-stage service demand
/// lands in `ctx.sink_work` for the timing chain to consume.
///
/// Runs *outside* the event closures (the driver loop below) so sinks
/// can borrow caller state; dispatch order is deterministic, so shared
/// sink state (a dedup index, a chunk store) sees the same sequence on
/// every replay — and never sees shed requests at all.
fn run_deferred_sink<'a>(
    ctx: &PipeCtx,
    bindings: &mut [Option<SinkBinding<'a>>],
    fingerprints: &[Digest],
    stage_map: &[Vec<usize>],
    chunk_sets: &[Vec<Chunk>],
    buffer_size: usize,
    sid: usize,
) {
    let Some(SinkBinding {
        mut sink,
        source,
        digests,
    }) = bindings[sid].take()
    else {
        return;
    };
    let nbuf = ctx.buffers[sid].len();
    let per_buffer = crate::sink::drive_sink_functional(
        &mut *sink,
        &chunk_sets[sid],
        source.bytes(),
        &fingerprints[digests],
        nbuf,
        buffer_size,
    );
    let map = &stage_map[sid];
    ctx.svc.borrow_mut().session_service[sid] = per_buffer.iter().flatten().copied().sum();
    ctx.sink_work.borrow_mut()[sid] = per_buffer
        .into_iter()
        .map(|services| {
            services
                .into_iter()
                .enumerate()
                .map(|(k, d)| (map[k], d))
                .collect()
        })
        .collect();
}

/// Runs all planned sessions through one shared simulation: arrival
/// events, the service-level admission queue, the chunking pipeline and
/// the downstream sink stages all on one virtual clock.
fn simulate_service<'a>(
    config: &ShredderConfig,
    plans: &[SessionPlan],
    policy: AdmissionPolicy,
    chunk_sets: &[Vec<Chunk>],
    inputs: ServiceInputs<'_, 'a>,
) -> SimResult {
    let mut sim = Simulation::new();

    let reader = BandwidthChannel::new(
        "san-reader",
        config.reader_bandwidth,
        Dur::from_nanos(calibration::READER_IO_LATENCY_NS),
    );
    let prep = FifoServer::new("host-prep", 1);
    let store = FifoServer::new("store-thread", 1);
    // `ShredderEngine::run` rejects `gpus == 0` with `InvalidConfig`;
    // on the infallible analytic path (`simulate_synthetic`) the pool's
    // own non-empty assert fires instead of silently coercing to 1.
    let gpus = config.gpus;
    let pool = match config.executor {
        Executor::Gpu => DevicePool::homogeneous(
            gpus,
            &config.device,
            config.twin_buffers,
            config.ring_slots(),
        ),
        Executor::Host(_) => DevicePool::host(config.twin_buffers),
    };
    // Faults already in force at t = 0 are pre-existing conditions:
    // they bias the initial placement (LeastLoaded routes around known
    // stragglers and skips dead devices). Every fault event — t = 0
    // included — still fires in the calendar below, so the counters and
    // the pool's health always reflect the full plan.
    let mut dead0 = vec![false; gpus];
    let mut ppm0 = vec![PPM; gpus];
    for ev in &config.faults.events {
        if ev.at == Dur::ZERO {
            match ev.kind {
                FaultKind::DeviceDeath { device } => dead0[device] = true,
                FaultKind::Straggler { device, slowdown } => {
                    ppm0[device] = (slowdown * PPM as f64) as u64;
                }
            }
        }
    }
    let placement = place_sessions_degraded(plans, gpus, config.placement, &dead0, &ppm0);
    let faults = (!config.faults.is_empty()).then(|| {
        Rc::new(RefCell::new(FaultRt {
            dead: vec![false; gpus],
            attempt: plans.iter().map(|p| vec![0u32; p.buffers.len()]).collect(),
            inflight: plans.iter().map(|p| vec![false; p.buffers.len()]).collect(),
            report: FaultReport {
                injected: config.faults.len(),
                ..FaultReport::default()
            },
        }))
    });
    // Telemetry mirrors the fault runtime's contract: the recorder only
    // exists when the config asks for it, so a disabled run allocates
    // nothing and takes the exact pre-telemetry code path.
    let trace = config
        .telemetry
        .enabled
        .then(|| Rc::new(RefCell::new(TraceRecorder::new(&config.telemetry))));
    let alloc_model = HostAllocModel::new();

    let host_kind = if config.pinned_ring {
        HostMemKind::Pinned
    } else {
        HostMemKind::Pageable
    };
    // Without the ring, a GPU host allocates a fresh pageable buffer
    // every iteration (§4.1.2's counterfactual). The host executor
    // scans in place; its allocator cost is in the scan rate.
    let pinned_ring = config.stages_through_ring();
    let prep_time = if pinned_ring || config.executor != Executor::Gpu {
        Dur::ZERO
    } else {
        alloc_model.alloc_time(HostMemKind::Pageable, config.buffer_size)
    };

    let n = plans.len();
    // Buffer-level admission state: queues start *empty* — a session's
    // buffers only become schedulable when the service dispatches it.
    let sched = Sched {
        queues: ReadyQueues::new(plans.iter().map(|p| p.weight).collect(), policy),
        in_flight: 0,
        depth: config.pipeline_depth,
        head_since: vec![SimTime::ZERO; n],
        first_admit: vec![None; n],
        completion: vec![SimTime::ZERO; n],
        queue_wait: vec![Dur::ZERO; n],
        timelines: plans
            .iter()
            .map(|p| {
                p.buffers
                    .iter()
                    .enumerate()
                    .map(|(i, b)| BufferTimeline {
                        index: i,
                        bytes: b.bytes as usize,
                        read_start: SimTime::ZERO,
                        read_end: SimTime::ZERO,
                        transfer_end: SimTime::ZERO,
                        kernel_end: SimTime::ZERO,
                        store_end: SimTime::ZERO,
                    })
                    .collect()
            })
            .collect(),
    };

    // Engine-global sink stage list (deduplicated by name across
    // sessions) plus each session's local → global stage map. Built
    // up-front from the sinks' stage descriptors; the per-buffer demand
    // arrives later via the deferred functional pass.
    let mut specs: Vec<StageSpec> = Vec::new();
    let stage_map: Vec<Vec<usize>> = inputs
        .bindings
        .iter()
        .map(|binding| match binding {
            Some(b) => b
                .sink
                .stages()
                .iter()
                .map(
                    |spec| match specs.iter().position(|s| s.name == spec.name) {
                        Some(i) => i,
                        None => {
                            specs.push(*spec);
                            specs.len() - 1
                        }
                    },
                )
                .collect(),
            None => Vec::new(),
        })
        .collect();

    let stage_servers: Rc<Vec<FifoServer>> = Rc::new(
        specs
            .iter()
            .map(|s| FifoServer::new(s.name.to_string(), 1))
            .collect(),
    );
    let stage_acct = Rc::new(RefCell::new(vec![(Dur::ZERO, 0u64); specs.len()]));

    let class_links: Vec<Option<BandwidthChannel>> = inputs
        .classes
        .iter()
        .map(|c| {
            c.ingest_bw
                .map(|bw| BandwidthChannel::new(format!("ingest-{}", c.name), bw, Dur::ZERO))
        })
        .collect();

    let (closed_loop, clients, think) = match inputs.arrivals {
        ArrivalSchedule::Closed { clients, think } => (true, clients, think),
        ArrivalSchedule::Open(_) => (false, 0, Dur::ZERO),
    };
    let next_req: Vec<Option<usize>> = (0..n)
        .map(|sid| {
            if closed_loop && sid + clients < n {
                Some(sid + clients)
            } else {
                None
            }
        })
        .collect();

    let svc = SvcState {
        policy: inputs.control.policy,
        slots: inputs.control.slots.max(1),
        queue_depth: inputs.control.queue_depth,
        max_queue_delay: inputs.control.max_queue_delay,
        class_queues: vec![VecDeque::new(); inputs.classes.len()],
        class_weights: inputs.classes.iter().map(|c| c.weight).collect(),
        credits: inputs.classes.iter().map(|c| c.weight.max(1)).collect(),
        cursor: 0,
        waiting: 0,
        running: 0,
        arrival: vec![SimTime::ZERO; n],
        admit: vec![None; n],
        first_chunk: vec![None; n],
        done: vec![None; n],
        shed: vec![None; n],
        remaining: plans.iter().map(|p| p.buffers.len()).collect(),
        next_req,
        think,
        closed_loop,
        depth_points: Vec::new(),
        max_depth: 0,
        session_service: vec![Dur::ZERO; n],
    };

    let ctx = PipeCtx {
        sched: Rc::new(RefCell::new(sched)),
        svc: Rc::new(RefCell::new(svc)),
        pending_sinks: Rc::new(RefCell::new(VecDeque::new())),
        buffers: Rc::new(plans.iter().map(|p| p.buffers.clone()).collect()),
        reader: reader.clone(),
        class_links: Rc::new(class_links),
        class_of: Rc::new(plans.iter().map(|p| p.class).collect()),
        prep: prep.clone(),
        store: store.clone(),
        pool: Rc::new(pool),
        placement: Rc::new(RefCell::new(placement)),
        faults,
        host_kind,
        variant: config.kernel,
        pinned_ring,
        prep_time,
        stage_servers: stage_servers.clone(),
        stage_acct: stage_acct.clone(),
        sink_work: Rc::new(RefCell::new(vec![Vec::new(); n])),
        trace,
        stage_names: Rc::new(specs.iter().map(|s| s.name).collect()),
    };
    if let Some(t) = &ctx.trace {
        // Device-engine lanes: every completed H2D/kernel/D2H interval
        // lands in the trace alongside the pool's busy accounting.
        ctx.pool.attach_recorder(t);
    }

    // Fault events enter the calendar before the arrivals, so a t = 0
    // fault precedes same-instant arrivals (the calendar breaks ties by
    // scheduling order). An empty plan schedules nothing at all — the
    // fault-free calendar is untouched.
    for ev in &config.faults.events {
        let c = ctx.clone();
        let kind = ev.kind;
        sim.schedule_at_or_now(SimTime::ZERO + ev.at, move |sim| apply_fault(&c, sim, kind));
    }

    // Arrival events enter the calendar up-front (open loop) or chain
    // off completions (closed loop, seeded with each client's first
    // request).
    match &inputs.arrivals {
        ArrivalSchedule::Open(times) => {
            for (sid, at) in times.iter().enumerate() {
                let c = ctx.clone();
                sim.schedule_at(*at, move |sim| arrive(&c, sim, sid));
            }
        }
        ArrivalSchedule::Closed { clients, .. } => {
            for sid in 0..n.min(*clients) {
                let c = ctx.clone();
                sim.schedule_at(SimTime::ZERO, move |sim| arrive(&c, sim, sid));
            }
        }
    }

    // The driver loop: between events, run the deferred sink passes of
    // requests dispatched by the event that just executed. The demands
    // are always ready before any of that request's buffers reach the
    // sink stage chain (a buffer must clear read → H2D → kernel → store
    // first, all strictly later in virtual time).
    let mut bindings = inputs.bindings;
    let fingerprints = inputs.fingerprints;
    let buffer_size = config.buffer_size;
    loop {
        loop {
            let next = ctx.pending_sinks.borrow_mut().pop_front();
            match next {
                Some(sid) => run_deferred_sink(
                    &ctx,
                    &mut bindings,
                    &fingerprints,
                    &stage_map,
                    chunk_sets,
                    buffer_size,
                    sid,
                ),
                None => break,
            }
        }
        if !sim.step() {
            break;
        }
    }

    let devices: Vec<DeviceSim> = ctx
        .pool
        .devices()
        .iter()
        .map(|d| DeviceSim {
            buffers: d.jobs(),
            bytes: d.bytes(),
            transfer_busy: d.transfer_busy(),
            kernel_busy: d.kernel_busy(),
            return_busy: d.d2h_busy(),
            busy_span: d.busy_span(),
            overlap: d.overlap_fraction(),
        })
        .collect();

    let stage_busy = StageBusy {
        read: reader.busy_time() + prep.busy_time(),
        transfer: devices.iter().map(|d| d.transfer_busy).sum(),
        kernel: devices.iter().map(|d| d.kernel_busy).sum(),
        store: devices.iter().map(|d| d.return_busy).sum::<Dur>() + store.busy_time(),
    };

    let stage_acct = stage_acct.borrow();
    let stages = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| StageReport {
            kind: spec.kind,
            name: spec.name.to_string(),
            busy: stage_servers[k].busy_time(),
            queue_wait: stage_acct[k].0,
            jobs: stage_acct[k].1,
        })
        .collect();

    let sched = ctx.sched.borrow();
    let sessions: Vec<SessionSim> = (0..n)
        .map(|s| SessionSim {
            first_admit: sched.first_admit[s].unwrap_or(SimTime::ZERO),
            completion: sched.completion[s],
            queue_wait: sched.queue_wait[s],
            timeline: sched.timelines[s].clone(),
        })
        .collect();

    let svc = ctx.svc.borrow();
    // The effective end of the run: the last completion, shed or
    // arrival. (The raw calendar can run longer — a no-op shed timer of
    // an already-admitted request still fires — but dead timers are not
    // service activity and must not inflate the makespan.)
    let mut end = SimTime::ZERO;
    for s in &sessions {
        end = end.max(s.completion);
    }
    for t in svc.done.iter().chain(svc.shed.iter()).flatten() {
        end = end.max(*t);
    }
    for t in &svc.arrival {
        end = end.max(*t);
    }

    let service = ServiceSimOut {
        arrival: svc.arrival.clone(),
        admit: svc.admit.clone(),
        first_chunk: svc.first_chunk.clone(),
        done: svc.done.clone(),
        shed: svc.shed.clone(),
        depth_points: svc.depth_points.clone(),
        max_depth: svc.max_depth,
        session_service: svc.session_service.clone(),
    };
    drop(svc);

    let faults = match &ctx.faults {
        Some(frt) => {
            let mut f = frt.borrow_mut();
            let dead_devices: Vec<usize> = (0..gpus).filter(|&d| f.dead[d]).collect();
            f.report.dead_devices = dead_devices;
            f.report.slowdowns = (0..gpus)
                .filter_map(|d| {
                    let s = ctx.pool.device(d).slowdown();
                    (s != 1.0).then_some((d, s))
                })
                .collect();
            f.report.clone()
        }
        None => FaultReport::default(),
    };

    // Drain the recorder into a report, first deriving the
    // request-lane spans and summary metrics from the service
    // timestamps the run already keeps — the "reports are views" hook:
    // the same numbers ServiceReport is built from, as trace records.
    let telemetry = ctx.trace.as_ref().map(|t| {
        let makespan = end.saturating_since(SimTime::ZERO);
        let mut rec = t.borrow_mut();
        for sid in 0..n {
            let lane = Lane::Request { id: sid as u64 };
            let arrival = service.arrival[sid];
            let class = inputs.classes[plans[sid].class].name.as_str();
            rec.metrics_mut().incr("shredder_requests_total");
            if let Some(done) = service.done[sid] {
                rec.span(
                    lane.clone(),
                    "request",
                    arrival,
                    done,
                    vec![
                        ("bytes", ArgValue::U64(plans[sid].bytes)),
                        ("class", ArgValue::Text(class.to_string())),
                    ],
                );
                if let Some(admit) = service.admit[sid] {
                    rec.span(lane.clone(), "queued", arrival, admit, Vec::new());
                }
                // The session's buffer-level lifetime: first buffer
                // admission → last buffer completion. Nested inside
                // the request span, after the queued interval.
                let first = sessions[sid].first_admit;
                let last = sessions[sid].completion;
                if last > SimTime::ZERO && first <= last {
                    rec.span(lane.clone(), "session", first, last, Vec::new());
                }
                if let Some(fc) = service.first_chunk[sid] {
                    rec.instant(lane.clone(), "first-chunk", fc, Vec::new());
                }
                let latency = done.saturating_since(arrival).as_nanos();
                rec.metrics_mut().incr("shredder_requests_completed");
                rec.metrics_mut()
                    .observe("shredder_request_latency_ns", latency);
                rec.metrics_mut()
                    .observe(&format!("shredder_request_latency_ns:{class}"), latency);
            } else if let Some(shed_at) = service.shed[sid] {
                rec.instant(
                    lane,
                    "shed",
                    shed_at,
                    vec![("class", ArgValue::Text(class.to_string()))],
                );
            }
        }
        for &(at, depth) in &service.depth_points {
            rec.metrics_mut()
                .sample("shredder_admission_queue_depth", at, depth);
        }
        rec.metrics_mut().set_gauge(
            "shredder_admission_queue_depth_max",
            service.max_depth as f64,
        );
        for (i, d) in devices.iter().enumerate() {
            let util = if makespan.is_zero() {
                0.0
            } else {
                d.kernel_busy.as_secs_f64() / makespan.as_secs_f64()
            };
            rec.metrics_mut()
                .set_gauge(&format!("shredder_device_utilization:{i}"), util);
        }
        rec.finish_report()
    });

    let placement = ctx.placement.borrow().clone();
    SimResult {
        sessions,
        placement,
        devices,
        stage_busy,
        stages,
        end,
        service,
        faults,
        telemetry,
    }
}

/// Assembles the [`ServiceReport`] from the simulation's raw service
/// timestamps: offered vs. achieved load, the queue-depth timeline, and
/// per-class latency percentiles.
fn build_service_report(
    plans: &[SessionPlan],
    classes: &[ClassRuntime],
    svc: &ServiceSimOut,
    makespan: Dur,
) -> ServiceReport {
    let requests: Vec<RequestReport> = plans
        .iter()
        .enumerate()
        .map(|(sid, plan)| RequestReport {
            id: sid,
            name: plan.name.clone(),
            class: classes[plan.class].name.clone(),
            bytes: plan.bytes,
            arrival: svc.arrival[sid],
            admit: svc.admit[sid],
            first_chunk: svc.first_chunk[sid],
            done: svc.done[sid],
            shed_at: svc.shed[sid],
        })
        .collect();

    let completed = requests.iter().filter(|r| r.done.is_some()).count();
    let shed = requests.iter().filter(|r| r.is_shed()).count();

    // Offered load is measured over the arrival span; a batch workload
    // (every arrival at one instant) falls back to the makespan.
    let first_arrival = requests.iter().map(|r| r.arrival).min();
    let last_arrival = requests.iter().map(|r| r.arrival).max();
    let arrival_span = match (first_arrival, last_arrival) {
        (Some(a), Some(b)) => {
            let span = b.saturating_since(a);
            if span.is_zero() {
                makespan
            } else {
                span
            }
        }
        _ => makespan,
    };
    let offered_bytes: u64 = requests.iter().map(|r| r.bytes).sum();
    let achieved_bytes: u64 = requests
        .iter()
        .filter(|r| r.done.is_some())
        .map(|r| r.bytes)
        .sum();
    let rate = |count: f64, over: Dur| {
        if over.is_zero() {
            0.0
        } else {
            count / over.as_secs_f64()
        }
    };
    let offered_rps = rate(requests.len() as f64, arrival_span);
    let achieved_rps = rate(completed as f64, makespan);
    let offered_gbps = rate(offered_bytes as f64 / 1e9, arrival_span);
    let achieved_gbps = rate(achieved_bytes as f64 / 1e9, makespan);

    let class_reports = classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let of_class: Vec<&RequestReport> = requests
                .iter()
                .filter(|r| plans[r.id].class == ci)
                .collect();
            let mut latencies: Vec<Dur> = of_class.iter().filter_map(|r| r.latency()).collect();
            latencies.sort_unstable();
            let done: Vec<&&RequestReport> = of_class.iter().filter(|r| r.done.is_some()).collect();
            let mean_queue_delay = if done.is_empty() {
                Dur::ZERO
            } else {
                let total: Dur = done.iter().map(|r| r.queue_delay()).sum();
                Dur::from_secs_f64(total.as_secs_f64() / done.len() as f64)
            };
            ClassLatency {
                class: class.name.clone(),
                completed: latencies.len(),
                shed: of_class.iter().filter(|r| r.is_shed()).count(),
                p50: percentile(&latencies, 0.50),
                p95: percentile(&latencies, 0.95),
                p99: percentile(&latencies, 0.99),
                max: latencies.last().copied().unwrap_or(Dur::ZERO),
                mean_queue_delay,
            }
        })
        .collect();

    let mut queue_depth = TimeSeries::new("admission-queue-depth");
    for &(at, depth) in &svc.depth_points {
        queue_depth.record(at, depth);
    }

    ServiceReport {
        requests,
        offered_rps,
        achieved_rps,
        offered_gbps,
        achieved_gbps,
        completed,
        shed,
        queue_depth,
        max_queue_depth: svc.max_depth,
        classes: class_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;
    use shredder_gpu::GpuError;
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

    fn small_config() -> ShredderConfig {
        ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10)
    }

    #[test]
    fn multi_session_chunks_equal_sequential_per_stream() {
        let streams: Vec<Vec<u8>> = (0..5)
            .map(|s| pseudo_random(300_000 + s * 77_000, s as u64 + 1))
            .collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(out.sessions.len(), 5);
        for (session, data) in out.completed().zip(&streams) {
            assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
        }
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        assert_eq!(out.report.bytes, total);
    }

    #[test]
    fn in_place_scan_matches_sequential_chunking_at_every_seam() {
        // Each buffer is scanned in place behind a carry of the
        // `overlap.min(start)` bytes before it. Every session's chunks
        // and raw cut count must be those of a sequential scan of its
        // stream alone: for streams shorter than a window, around one
        // buffer and long, and for buffers shorter than the carry (so
        // the first carries are partial). The dense parameters put a
        // raw cut near many of the tiny buffers' seams.
        let paper = ChunkParams::paper();
        let dense = ChunkParams::paper().with_expected_size(256);
        let configs = [
            (64 << 10, &paper, 300_000),
            (40, &dense, 20_000),
            (16, &dense, 20_000),
        ];
        for variant in [KernelVariant::Coalesced, KernelVariant::GearCoalesced] {
            for &(buffer, params, long) in &configs {
                let kernel = ChunkKernel::new(params.clone(), variant);
                assert!(buffer > 4096 || buffer < kernel.overlap());
                let window = kernel.overlap() + 1;
                let lens = [
                    long,
                    0,
                    1,
                    window - 1,
                    window,
                    buffer - 1,
                    buffer + 1,
                    long - 7,
                ];
                let streams: Vec<Vec<u8>> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| pseudo_random(len, 500 + i as u64))
                    .collect();
                let mut engine = ShredderEngine::new(
                    small_config()
                        .with_buffer_size(buffer)
                        .with_params(params.clone())
                        .with_chunk_kernel(variant),
                );
                for s in &streams {
                    engine.submit(ChunkRequest::new(SliceSource::new(s)));
                }
                let out = engine.run(&Workload::Batch).unwrap();
                assert_eq!(out.completed().count(), streams.len());
                for ((session, report), data) in
                    out.completed().zip(&out.report.sessions).zip(&streams)
                {
                    let reference = if variant.is_gear() {
                        kernel.boundary().chunks(data)
                    } else {
                        chunk_all(data, params)
                    };
                    let len = data.len();
                    let at = format!("{variant}, buffer {buffer}: {len} bytes");
                    assert_eq!(session.chunks, reference, "{at}");
                    let raw_cuts = kernel.boundary().raw_cuts(data).len();
                    assert_eq!(report.raw_cuts, raw_cuts, "{at}");
                    assert_eq!(report.buffers, len.div_ceil(buffer), "{at}");
                }
            }
        }
    }

    #[test]
    fn round_robin_interleaves_admissions() {
        let a = pseudo_random(512 << 10, 7);
        let b = pseudo_random(512 << 10, 8);
        let mut engine = ShredderEngine::new(small_config());
        engine.submit(ChunkRequest::new(SliceSource::new(&a)));
        engine.submit(ChunkRequest::new(SliceSource::new(&b)));
        let out = engine.run(&Workload::Batch).unwrap();

        // Under round-robin, both sessions start immediately and their
        // admissions interleave: session 1 is not delayed until session
        // 0 drains.
        let r = &out.report.sessions;
        assert_eq!(r[0].first_admit, SimTime::ZERO);
        assert!(
            r[1].first_admit < r[0].timeline.last().unwrap().read_start,
            "session 1 first admit {:?} waited for session 0 to finish",
            r[1].first_admit
        );
    }

    #[test]
    fn session_order_drains_sequentially() {
        let a = pseudo_random(512 << 10, 9);
        let b = pseudo_random(512 << 10, 10);
        let mut engine =
            ShredderEngine::new(small_config()).with_policy(AdmissionPolicy::SessionOrder);
        engine.submit(ChunkRequest::new(SliceSource::new(&a)));
        engine.submit(ChunkRequest::new(SliceSource::new(&b)));
        let out = engine.run(&Workload::Batch).unwrap();
        let r = &out.report.sessions;
        // All of session 0's buffers are admitted before any of session 1's.
        let last_a_admit = r[0].timeline.last().unwrap().read_start;
        assert!(r[1].first_admit >= last_a_admit);
    }

    #[test]
    fn weighted_policy_favors_heavy_session() {
        let a = pseudo_random(1 << 20, 11);
        let b = pseudo_random(1 << 20, 12);
        let run = |wa: u32, wb: u32| {
            let mut engine = ShredderEngine::new(
                ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10),
            )
            .with_policy(AdmissionPolicy::Weighted);
            engine.submit(
                ChunkRequest::new(SliceSource::new(&a))
                    .named("a")
                    .with_weight(wa),
            );
            engine.submit(
                ChunkRequest::new(SliceSource::new(&b))
                    .named("b")
                    .with_weight(wb),
            );
            let out = engine.run(&Workload::Batch).unwrap();
            out.report.sessions[0].completion
        };
        let even = run(1, 1);
        let favored = run(4, 1);
        assert!(
            favored < even,
            "weight-4 session should finish earlier: {favored:?} !< {even:?}"
        );
    }

    #[test]
    fn shared_pipeline_beats_sequential_runs() {
        // N concurrent tenants through one engine finish sooner than the
        // same N streams run back to back (pipeline fill/drain overlaps
        // across tenants) — the Figure 12 story under multi-tenancy.
        let streams: Vec<Vec<u8>> = (0..4).map(|s| pseudo_random(1 << 20, 20 + s)).collect();
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(256 << 10);

        let mut engine = ShredderEngine::new(cfg.clone());
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let shared = engine.run(&Workload::Batch).unwrap().report.makespan;

        let sequential: Dur = streams
            .iter()
            .map(|s| {
                let mut e = ShredderEngine::new(cfg.clone());
                e.submit(ChunkRequest::new(SliceSource::new(s)));
                e.run(&Workload::Batch).unwrap().report.makespan
            })
            .sum();

        assert!(
            shared < sequential,
            "shared {shared:?} !< sequential {sequential:?}"
        );
    }

    #[test]
    fn window_zero_is_rejected_not_panicking() {
        let mut params = ChunkParams::paper();
        params.window = 0;
        let cfg = ShredderConfig::gpu_streams_memory().with_params(params);
        let data = pseudo_random(10_000, 13);
        let mut engine = ShredderEngine::new(cfg);
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        match engine.run(&Workload::Batch) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// A device that holds a whole 64 KiB buffer but not buffer plus
    /// carry: every buffer after the first is one byte too long.
    fn device_one_byte_short_of_the_carry(cfg: ShredderConfig) -> ShredderConfig {
        let mut cfg = cfg.with_buffer_size(64 << 10);
        cfg.device.global_mem_bytes = (64 << 10) + ChunkParams::paper().window - 2;
        cfg
    }

    #[test]
    fn gpu_region_larger_than_device_memory_fails_the_run() {
        let cfg = device_one_byte_short_of_the_carry(ShredderConfig::gpu_streams_memory());
        let data = pseudo_random(3 * (64 << 10), 14);
        let mut engine = ShredderEngine::new(cfg.clone());
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        assert_eq!(
            engine.run(&Workload::Batch).unwrap_err(),
            ChunkError::Gpu(GpuError::OutOfMemory {
                requested: (64 << 10) + ChunkParams::paper().window - 1,
                available: cfg.device.global_mem_bytes,
            })
        );
    }

    #[test]
    fn host_buffers_never_reach_device_memory() {
        let cfg = device_one_byte_short_of_the_carry(ShredderConfig::cpu_pthreads());
        let data = pseudo_random(3 * (64 << 10) + 123, 15);
        let mut engine = ShredderEngine::new(cfg);
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(
            out.sessions[0].as_ref().unwrap().chunks,
            chunk_all(&data, &ChunkParams::paper())
        );
    }

    #[test]
    fn empty_engine_and_empty_sessions() {
        let mut engine = ShredderEngine::new(small_config());
        let out = engine.run(&Workload::Batch).unwrap();
        assert!(out.sessions.is_empty());
        assert_eq!(out.report.bytes, 0);
        assert_eq!(out.report.makespan, Dur::ZERO);

        let mut engine = ShredderEngine::new(small_config());
        engine.submit(ChunkRequest::new(SliceSource::new(&[])));
        let out = engine.run(&Workload::Batch).unwrap();
        assert!(out.sessions[0].as_ref().unwrap().chunks.is_empty());
        assert_eq!(out.report.sessions[0].buffers, 0);
    }

    #[test]
    fn single_byte_stream() {
        let mut engine = ShredderEngine::new(small_config());
        engine.submit(ChunkRequest::new(SliceSource::new(&[42u8])));
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(
            out.sessions[0].as_ref().unwrap().chunks,
            chunk_all(&[42u8], &ChunkParams::paper())
        );
        assert_eq!(out.sessions[0].as_ref().unwrap().chunks.len(), 1);
        assert_eq!(out.report.sessions[0].buffers, 1);
        assert_eq!(out.report.bytes, 1);
    }

    #[test]
    fn stream_shorter_than_rabin_window() {
        // Shorter than the window: no full window ever forms, so the
        // stream is one chunk — and the `window − 1` carry must not
        // invent boundaries or read out of bounds.
        let params = ChunkParams::paper();
        assert!(params.window > 2, "test needs a window > 2");
        for len in [1usize, 2, params.window - 1] {
            let data = pseudo_random(len, 90 + len as u64);
            let mut engine = ShredderEngine::new(small_config());
            engine.submit(ChunkRequest::new(SliceSource::new(&data)));
            let out = engine.run(&Workload::Batch).unwrap();
            assert_eq!(
                out.sessions[0].as_ref().unwrap().chunks,
                chunk_all(&data, &params),
                "len {len}"
            );
            assert_eq!(
                out.sessions[0].as_ref().unwrap().chunks.len(),
                1,
                "len {len}"
            );
        }
    }

    #[test]
    fn stream_straddling_the_carry_boundary() {
        // Lengths right around buffer_size ± (window − 1): the carry
        // path must keep boundaries identical to a sequential scan.
        let params = ChunkParams::paper();
        let buffer = 64 << 10;
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(buffer);
        for delta in [
            -(params.window as i64 - 1),
            -1,
            0,
            1,
            params.window as i64 - 1,
        ] {
            let len = (buffer as i64 + delta) as usize;
            let data = pseudo_random(len, 200 + delta.unsigned_abs());
            let mut engine = ShredderEngine::new(cfg.clone());
            engine.submit(ChunkRequest::new(SliceSource::new(&data)));
            let out = engine.run(&Workload::Batch).unwrap();
            assert_eq!(
                out.sessions[0].as_ref().unwrap().chunks,
                chunk_all(&data, &params),
                "len {len}"
            );
        }
    }

    #[test]
    fn engine_run_is_deterministic() {
        let streams: Vec<Vec<u8>> = (0..4).map(|s| pseudo_random(400_000, 40 + s)).collect();
        let run = || {
            let mut engine = ShredderEngine::new(small_config());
            for (i, s) in streams.iter().enumerate() {
                engine.submit(
                    ChunkRequest::new(SliceSource::new(s))
                        .named(format!("t{i}"))
                        .with_weight(1 + i as u32),
                );
            }
            engine.run(&Workload::Batch).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn timelines_causally_ordered_per_session() {
        let streams: Vec<Vec<u8>> = (0..3).map(|s| pseudo_random(600_000, 60 + s)).collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        for r in &out.report.sessions {
            assert_eq!(r.timeline.len(), r.buffers);
            for t in &r.timeline {
                assert!(t.read_start <= t.read_end);
                assert!(t.read_end <= t.transfer_end);
                assert!(t.transfer_end <= t.kernel_end);
                assert!(t.kernel_end <= t.store_end);
            }
            for pair in r.timeline.windows(2) {
                assert!(pair[0].store_end <= pair[1].store_end);
            }
        }
    }

    #[test]
    fn session_ids_and_names_round_trip() {
        let data = pseudo_random(64 << 10, 70);
        let mut engine = ShredderEngine::new(small_config());
        let id0 = engine.submit(
            ChunkRequest::new(SliceSource::new(&data))
                .named("alpha")
                .with_weight(2),
        );
        let id1 = engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        assert_eq!(id0.index(), 0);
        assert_eq!(id1.index(), 1);
        assert_eq!(engine.session_count(), 2);
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(out.sessions[0].as_ref().unwrap().name, "alpha");
        assert_eq!(out.report.sessions[0].weight, 2);
        assert_eq!(out.sessions[1].as_ref().unwrap().name, "session-1");
        assert_eq!(engine.session_count(), 0, "run consumes sessions");
    }

    #[test]
    fn least_loaded_placement_balances_bytes() {
        let sizes = [800_000usize, 400_000, 300_000, 250_000];
        let streams: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| pseudo_random(n, 300 + i as u64))
            .collect();
        let mut engine = ShredderEngine::new(small_config().with_gpus(2));
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        // Open order: s0→d0, s1→d1, s2→d1 (400k < 800k), s3→d1 (700k).
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![0, 1, 1, 1]);
        assert_eq!(out.report.devices.len(), 2);
        assert_eq!(out.report.devices[0].sessions, 1);
        assert_eq!(out.report.devices[1].sessions, 3);
        assert_eq!(out.report.devices[0].bytes, 800_000);
        assert_eq!(out.report.devices[1].bytes, 950_000);
        // Per-device buffer counts add up to the engine total.
        let dev_buffers: u64 = out.report.devices.iter().map(|d| d.buffers).sum();
        assert_eq!(dev_buffers, out.report.buffers as u64);
    }

    #[test]
    fn round_robin_placement_rotates() {
        let streams: Vec<Vec<u8>> = (0..5).map(|s| pseudo_random(200_000, 320 + s)).collect();
        let mut engine = ShredderEngine::new(
            small_config()
                .with_gpus(3)
                .with_placement(PlacementPolicy::RoundRobin),
        );
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn pinned_sessions_override_policy() {
        let a = pseudo_random(300_000, 330);
        let b = pseudo_random(300_000, 331);
        let c = pseudo_random(300_000, 332);
        let mut engine = ShredderEngine::new(
            small_config()
                .with_gpus(2)
                .with_placement(PlacementPolicy::Pinned),
        );
        engine.submit(
            ChunkRequest::new(SliceSource::new(&a))
                .named("pinned-1")
                .pinned(1),
        );
        engine.submit(
            ChunkRequest::new(SliceSource::new(&b))
                .named("pinned-also-1")
                .pinned(1),
        );
        // Unpinned under the Pinned policy falls back to least-loaded:
        // device 0 carries no bytes yet.
        engine.submit(ChunkRequest::new(SliceSource::new(&c)).named("free"));
        let out = engine.run(&Workload::Batch).unwrap();
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![1, 1, 0]);
        // Chunks are still bit-identical per stream.
        for (session, data) in out.completed().zip([&a, &b, &c]) {
            assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
        }
    }

    #[test]
    fn pin_out_of_range_is_rejected() {
        let data = pseudo_random(10_000, 340);
        let mut engine = ShredderEngine::new(small_config().with_gpus(2));
        engine.submit(ChunkRequest::new(SliceSource::new(&data)).named("good"));
        engine.submit(
            ChunkRequest::new(SliceSource::new(&data))
                .named("bad")
                .pinned(2),
        );
        match engine.run(&Workload::Batch) {
            Err(ChunkError::InvalidConfig(msg)) => {
                assert!(msg.contains("pinned to device 2"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The failed validation must not consume the queued sessions
        // (the window/gpus error paths leave them intact too).
        assert_eq!(engine.session_count(), 2);
    }

    #[test]
    fn small_pinned_ring_backpressures_admission() {
        // One staging slot serializes read→H2D cycles; the same work
        // takes longer than with a depth-sized ring.
        let data = pseudo_random(2 << 20, 350);
        let run = |slots: Option<usize>| {
            let mut cfg = small_config();
            if let Some(s) = slots {
                cfg = cfg.with_ring_slots(s);
            }
            let mut engine = ShredderEngine::new(cfg);
            engine.submit(ChunkRequest::new(SliceSource::new(&data)));
            engine.run(&Workload::Batch).unwrap().report.makespan
        };
        let roomy = run(None);
        let starved = run(Some(1));
        assert!(starved > roomy, "ring=1 {starved:?} !> default {roomy:?}");
    }

    #[test]
    fn two_devices_beat_one_when_reader_is_not_the_bottleneck() {
        let streams: Vec<Vec<u8>> = (0..6).map(|s| pseudo_random(3 << 20, 360 + s)).collect();
        let run = |gpus: usize| {
            let cfg = ShredderConfig::gpu_streams_memory()
                .with_buffer_size(1 << 20)
                .with_reader_bandwidth(32e9)
                .with_gpus(gpus)
                .with_pipeline_depth(4 * gpus);
            let mut engine = ShredderEngine::new(cfg);
            for s in &streams {
                engine.submit(ChunkRequest::new(SliceSource::new(s)));
            }
            engine.run(&Workload::Batch).unwrap()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.report.aggregate_gbps() > one.report.aggregate_gbps() * 1.3,
            "2 devices {:.3} GB/s !> 1.3 × 1 device {:.3} GB/s",
            two.report.aggregate_gbps(),
            one.report.aggregate_gbps()
        );
        // Identical chunks under both pool sizes.
        for (a, b) in one.completed().zip(two.completed()) {
            assert_eq!(a.chunks, b.chunks);
        }
        // Both devices genuinely worked and overlapped copy with compute.
        for d in &two.report.devices {
            assert!(
                d.utilization > 0.2,
                "device {} util {}",
                d.id,
                d.utilization
            );
            assert!(d.overlap > 0.2, "device {} overlap {}", d.id, d.overlap);
        }
    }

    #[test]
    fn multi_gpu_run_is_deterministic() {
        let streams: Vec<Vec<u8>> = (0..5).map(|s| pseudo_random(500_000, 370 + s)).collect();
        let run = || {
            let mut engine = ShredderEngine::new(small_config().with_gpus(3));
            for (i, s) in streams.iter().enumerate() {
                engine.submit(ChunkRequest::new(SliceSource::new(s)).named(format!("t{i}")));
            }
            engine.run(&Workload::Batch).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn single_device_report_covers_all_work() {
        let data = pseudo_random(1 << 20, 380);
        let mut engine = ShredderEngine::new(small_config());
        engine.submit(ChunkRequest::new(SliceSource::new(&data)));
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(out.report.devices.len(), 1);
        let d = &out.report.devices[0];
        assert_eq!(d.sessions, 1);
        assert_eq!(d.bytes, 1 << 20);
        assert!(d.utilization > 0.0 && d.utilization <= 1.0);
        assert!((0.0..=1.0).contains(&d.overlap));
        assert!(d.busy_span <= out.report.makespan);
        assert_eq!(out.report.device(0).unwrap(), d);
        assert!(out.report.device(1).is_none());
    }

    #[test]
    fn aggregate_accounting_is_conserved() {
        let streams: Vec<Vec<u8>> = (0..3).map(|s| pseudo_random(256 << 10, 80 + s)).collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.submit(ChunkRequest::new(SliceSource::new(s)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        let by_session: u64 = out.report.sessions.iter().map(|r| r.bytes).sum();
        assert_eq!(out.report.bytes, by_session);
        let buffers: usize = out.report.sessions.iter().map(|r| r.buffers).sum();
        assert_eq!(out.report.buffers, buffers);
        let wait: Dur = out.report.sessions.iter().map(|r| r.queue_wait).sum();
        assert_eq!(out.report.queue_wait, wait);
        assert!(out.report.aggregate_gbps() > 0.0);
    }
}
