//! Timing reports produced by the chunking engines.

use serde::{Deserialize, Serialize};
use shredder_des::{Dur, SimTime, TimeSeries};
use shredder_gpu::kernel::KernelVariant;
use shredder_telemetry::TelemetryReport;

use crate::fault::FaultReport;
use crate::sink::StageKind;

/// Per-request record of one trip through the engine's admission queue:
/// arrival → admit (dispatch into the engine) → first chunk boundary
/// delivered → done, or shed by admission control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestReport {
    /// Request index in submit order (also the session index of the
    /// underlying engine run).
    pub id: usize,
    /// Request name.
    pub name: String,
    /// Tenant class name.
    pub class: String,
    /// The request's stream size in bytes (counted as *offered* load
    /// whether or not the request was admitted).
    pub bytes: u64,
    /// When the request arrived.
    pub arrival: SimTime,
    /// When admission control dispatched it into the engine (`None` if
    /// shed).
    pub admit: Option<SimTime>,
    /// When its first chunk boundary was delivered (`None` if shed or
    /// the stream was empty).
    pub first_chunk: Option<SimTime>,
    /// When its last chunk cleared the final stage (`None` if shed).
    pub done: Option<SimTime>,
    /// When admission control shed it (`None` if admitted).
    pub shed_at: Option<SimTime>,
}

impl RequestReport {
    /// True if admission control shed the request.
    pub fn is_shed(&self) -> bool {
        self.shed_at.is_some()
    }

    /// Time spent waiting in the admission queue: arrival → admit (or
    /// arrival → shed for rejected requests).
    pub fn queue_delay(&self) -> Dur {
        match self.admit.or(self.shed_at) {
            Some(t) => t.saturating_since(self.arrival),
            None => Dur::ZERO,
        }
    }

    /// End-to-end request latency (arrival → done); `None` for shed
    /// requests.
    pub fn latency(&self) -> Option<Dur> {
        self.done.map(|d| d.saturating_since(self.arrival))
    }

    /// Arrival → first chunk boundary; `None` for shed requests and
    /// empty streams.
    pub fn time_to_first_chunk(&self) -> Option<Dur> {
        self.first_chunk.map(|t| t.saturating_since(self.arrival))
    }
}

/// Latency distribution of one tenant class's completed requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassLatency {
    /// Class name.
    pub class: String,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Median end-to-end latency.
    pub p50: Dur,
    /// 95th-percentile end-to-end latency.
    pub p95: Dur,
    /// 99th-percentile end-to-end latency.
    pub p99: Dur,
    /// Worst end-to-end latency.
    pub max: Dur,
    /// Mean admission-queue delay of completed requests.
    pub mean_queue_delay: Dur,
}

/// Nearest-rank percentile over an ascending-sorted latency list
/// (empty lists report [`Dur::ZERO`]). The rank arithmetic lives in
/// [`shredder_des::nearest_rank`], shared with the capacity search and
/// the telemetry histograms.
pub(crate) fn percentile(sorted: &[Dur], q: f64) -> Dur {
    shredder_des::nearest_rank(sorted, q).unwrap_or(Dur::ZERO)
}

/// Service-level report of one open-loop (or closed-loop) run: offered
/// vs. achieved load, the admission queue-depth timeline, and latency
/// percentiles per tenant class. Every
/// [`ShredderEngine::run`](crate::ShredderEngine::run) attaches one to
/// its report as [`EngineReport::service`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Per-request records, in submit order.
    pub requests: Vec<RequestReport>,
    /// Offered load in requests/s: request count over the arrival span
    /// (first arrival → last arrival), falling back to the makespan for
    /// batch workloads where every request arrives at once.
    pub offered_rps: f64,
    /// Achieved completion rate in requests/s: completed requests over
    /// the makespan.
    pub achieved_rps: f64,
    /// Offered byte rate in GB/s (all requests' bytes over the arrival
    /// span).
    pub offered_gbps: f64,
    /// Achieved byte rate in GB/s (completed requests' bytes over the
    /// makespan).
    pub achieved_gbps: f64,
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Admission-queue depth over time, sampled at every arrival,
    /// dispatch and shed.
    pub queue_depth: TimeSeries,
    /// Peak admission-queue depth.
    pub max_queue_depth: usize,
    /// Latency percentiles per tenant class, in class-definition order.
    pub classes: Vec<ClassLatency>,
}

impl ServiceReport {
    /// Always `Some(self)`. [`EngineReport::service`] used to be an
    /// `Option`; this keeps `report.service.as_ref()` call sites that
    /// were written against it compiling. New code reads the field
    /// directly.
    pub fn as_ref(&self) -> Option<&ServiceReport> {
        Some(self)
    }

    /// The latency report of one tenant class by name.
    pub fn class(&self, name: &str) -> Option<&ClassLatency> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Fraction of requests shed, in `[0, 1]`.
    pub fn shed_fraction(&self) -> f64 {
        let n = self.requests.len();
        if n == 0 {
            return 0.0;
        }
        self.shed as f64 / n as f64
    }

    /// End-to-end latencies of all completed requests, ascending.
    pub fn latencies(&self) -> Vec<Dur> {
        let mut l: Vec<Dur> = self.requests.iter().filter_map(|r| r.latency()).collect();
        l.sort_unstable();
        l
    }

    /// Overall p50 end-to-end latency across classes.
    pub fn p50(&self) -> Dur {
        percentile(&self.latencies(), 0.50)
    }

    /// Overall p99 end-to-end latency across classes.
    pub fn p99(&self) -> Dur {
        percentile(&self.latencies(), 0.99)
    }

    /// Worst admission-queue delay across all requests (admitted and
    /// shed).
    pub fn max_queue_delay(&self) -> Dur {
        self.requests
            .iter()
            .map(RequestReport::queue_delay)
            .max()
            .unwrap_or(Dur::ZERO)
    }
}

/// Busy/queue-wait accounting of one shared downstream sink stage
/// (fingerprint, dedup, ship, …) inside an engine run's simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage's typed kind.
    pub kind: StageKind,
    /// The stage's engine-global name (sessions naming the same stage
    /// share one simulated server).
    pub name: String,
    /// Total time the stage's server spent serving work.
    pub busy: Dur,
    /// Total time buffer batches waited in the stage's queue before
    /// service began.
    pub queue_wait: Dur,
    /// Buffer batches served.
    pub jobs: u64,
}

/// Per-device accounting of one engine run over a device pool.
///
/// One entry per pool device, in device order, whether or not any
/// session landed on it. The utilization and overlap numbers are the
/// multi-GPU observability the placement layer steers by: a device with
/// low utilization is under-sharded; a device with a low overlap
/// fraction is paying serialized copy–compute (§4.1.1's counterfactual).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index in the pool.
    pub id: usize,
    /// Sessions placed on this device.
    pub sessions: usize,
    /// Pipeline buffers this device processed.
    pub buffers: u64,
    /// Payload bytes transferred to this device.
    pub bytes: u64,
    /// H2D DMA engine busy time.
    pub transfer_busy: Dur,
    /// Compute engine busy time.
    pub kernel_busy: Dur,
    /// D2H DMA engine busy time (boundary-array return).
    pub return_busy: Dur,
    /// Window from this device's first engine-service start to its last
    /// completion.
    pub busy_span: Dur,
    /// Compute-engine utilization over the engine makespan, in `[0, 1]`.
    pub utilization: f64,
    /// Fraction of this device's DMA time that ran concurrently with
    /// its kernel (copy–compute overlap), in `[0, 1]`.
    pub overlap: f64,
}

/// Per-stage busy time of the four pipeline threads (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageBusy {
    /// Reader (SAN I/O) busy time.
    pub read: Dur,
    /// Host→device transfer busy time.
    pub transfer: Dur,
    /// Chunking-kernel busy time.
    pub kernel: Dur,
    /// Store (boundary return + adjustment + upcall) busy time.
    pub store: Dur,
}

/// Timestamps of one buffer's trip through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferTimeline {
    /// Buffer index in stream order.
    pub index: usize,
    /// Bytes in this buffer.
    pub bytes: usize,
    /// Reader started fetching.
    pub read_start: SimTime,
    /// Reader finished (buffer resident at host).
    pub read_end: SimTime,
    /// H2D DMA finished (buffer resident on device).
    pub transfer_end: SimTime,
    /// Chunking kernel finished.
    pub kernel_end: SimTime,
    /// Store finished (boundaries delivered to the application).
    pub store_end: SimTime,
}

/// Per-stream report of one session's trip through a shared
/// [`ShredderEngine`](crate::ShredderEngine) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Session index in submit order.
    pub id: usize,
    /// Session name.
    pub name: String,
    /// Admission weight used by the scheduler.
    pub weight: u32,
    /// Pool device this session's buffers ran on.
    pub device: usize,
    /// Boundary-detection kernel that produced this session's chunks.
    pub kernel: KernelVariant,
    /// Stream bytes chunked.
    pub bytes: u64,
    /// Pipeline buffers the stream was split into.
    pub buffers: usize,
    /// Chunks delivered (after min/max adjustment).
    pub chunks: usize,
    /// Raw cuts found before min/max adjustment.
    pub raw_cuts: usize,
    /// When the stream's first buffer was admitted to the pipeline.
    pub first_admit: SimTime,
    /// When the stream's last buffer cleared its final stage (the Store
    /// thread, or — for sessions with a sink — the last sink stage).
    pub completion: SimTime,
    /// `first_admit → completion`: the stream's own makespan.
    pub makespan: Dur,
    /// Total time this stream's head-of-line buffer spent waiting for an
    /// admission slot — the contention cost of sharing the pipeline.
    pub queue_wait: Dur,
    /// Total kernel-only time spent on this stream's buffers.
    pub kernel_time: Dur,
    /// Total service demand this stream's chunks placed on its sink's
    /// downstream stages (zero for sessions without a sink).
    pub sink_service: Dur,
    /// Per-buffer timestamps (indices are per-session).
    pub timeline: Vec<BufferTimeline>,
}

impl SessionReport {
    /// Chunk-only duration: first admission → the last buffer leaving
    /// the Store thread. Equals [`makespan`](Self::makespan) without a
    /// sink; sink stages extend the makespan beyond it. Zero for an
    /// empty stream.
    pub fn chunking_time(&self) -> Dur {
        self.timeline
            .last()
            .map(|t| t.store_end.saturating_since(self.first_admit))
            .unwrap_or(Dur::ZERO)
    }

    /// This stream's own throughput in GB/s over its makespan.
    pub fn throughput_gbps(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / s / 1e9
    }
}

/// Aggregate report of a multi-stream engine run: one shared simulation
/// covering every session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Sessions run, in open order.
    pub sessions: Vec<SessionReport>,
    /// Total bytes across all sessions.
    pub bytes: u64,
    /// Total pipeline buffers across all sessions.
    pub buffers: usize,
    /// Global admission slots (the shared pipeline depth).
    pub pipeline_depth: usize,
    /// End-to-end simulated time: engine start → last completion across
    /// every stage, including downstream sink stages.
    pub makespan: Dur,
    /// Busy time of the shared pipeline stages, summed over all
    /// sessions' buffers (and, for the device stages, all devices).
    pub stage_busy: StageBusy,
    /// Per-device utilization/overlap accounting, one entry per pool
    /// device in device order.
    pub devices: Vec<DeviceReport>,
    /// Busy/queue-wait accounting of the shared downstream sink stages
    /// (fingerprint, dedup, ship, …); empty when no session attached a
    /// sink.
    pub sink_stages: Vec<StageReport>,
    /// Total admission queueing across sessions (contention time).
    pub queue_wait: Dur,
    /// One-time pinned-ring setup cost (shared by all sessions).
    pub ring_setup: Dur,
    /// Request-level accounting (offered vs. achieved load, queue
    /// depth, per-class latency percentiles) of the run's workload.
    pub service: ServiceReport,
    /// Per-fault counters from the injected
    /// [`FaultPlan`](crate::FaultPlan): deaths taken, buffers requeued,
    /// sessions re-placed, final straggler factors. All-zero (the
    /// default) for fault-free runs.
    pub faults: FaultReport,
    /// Trace records and metrics from the run's
    /// [`TraceRecorder`](shredder_telemetry::TraceRecorder). `Some`
    /// only when [`ShredderConfig::telemetry`](crate::ShredderConfig)
    /// enabled telemetry; `None` runs record nothing and are
    /// bit-identical (this field aside) to a run under a config that
    /// never mentioned telemetry.
    pub telemetry: Option<TelemetryReport>,
}

impl EngineReport {
    /// Aggregate throughput across all tenant streams, in GB/s (total
    /// bytes over the shared makespan — the Figure 12 axis, extended to
    /// multi-tenancy).
    pub fn aggregate_gbps(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / s / 1e9
    }

    /// The report of one session by engine open order.
    pub fn session(&self, index: usize) -> Option<&SessionReport> {
        self.sessions.get(index)
    }

    /// The report of one shared sink stage by name.
    pub fn sink_stage(&self, name: &str) -> Option<&StageReport> {
        self.sink_stages.iter().find(|s| s.name == name)
    }

    /// The report of one pool device by index.
    pub fn device(&self, index: usize) -> Option<&DeviceReport> {
        self.devices.get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_report(bytes: u64, makespan: Dur) -> EngineReport {
        EngineReport {
            sessions: Vec::new(),
            bytes,
            buffers: 1,
            pipeline_depth: 4,
            makespan,
            stage_busy: StageBusy::default(),
            devices: Vec::new(),
            sink_stages: Vec::new(),
            queue_wait: Dur::ZERO,
            ring_setup: Dur::ZERO,
            service: ServiceReport {
                requests: Vec::new(),
                offered_rps: 0.0,
                achieved_rps: 0.0,
                offered_gbps: 0.0,
                achieved_gbps: 0.0,
                completed: 0,
                shed: 0,
                queue_depth: TimeSeries::new("q"),
                max_queue_depth: 0,
                classes: Vec::new(),
            },
            faults: FaultReport::default(),
            telemetry: None,
        }
    }

    #[test]
    fn throughput_computation() {
        let r = engine_report(2_000_000_000, Dur::from_secs(2));
        assert!((r.aggregate_gbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_makespan_throughput_is_zero() {
        assert_eq!(engine_report(0, Dur::ZERO).aggregate_gbps(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let l: Vec<Dur> = (1..=100).map(Dur::from_millis).collect();
        assert_eq!(percentile(&l, 0.50), Dur::from_millis(50));
        assert_eq!(percentile(&l, 0.99), Dur::from_millis(99));
        assert_eq!(percentile(&l, 1.0), Dur::from_millis(100));
        assert_eq!(percentile(&[], 0.99), Dur::ZERO);
        assert_eq!(percentile(&[Dur::from_micros(3)], 0.5), Dur::from_micros(3));
    }

    #[test]
    fn request_report_derived_times() {
        let r = RequestReport {
            id: 0,
            name: "r".into(),
            class: "default".into(),
            bytes: 10,
            arrival: SimTime::from_nanos(100),
            admit: Some(SimTime::from_nanos(150)),
            first_chunk: Some(SimTime::from_nanos(300)),
            done: Some(SimTime::from_nanos(400)),
            shed_at: None,
        };
        assert!(!r.is_shed());
        assert_eq!(r.queue_delay(), Dur::from_nanos(50));
        assert_eq!(r.latency(), Some(Dur::from_nanos(300)));
        assert_eq!(r.time_to_first_chunk(), Some(Dur::from_nanos(200)));

        let shed = RequestReport {
            admit: None,
            first_chunk: None,
            done: None,
            shed_at: Some(SimTime::from_nanos(180)),
            ..r
        };
        assert!(shed.is_shed());
        assert_eq!(shed.queue_delay(), Dur::from_nanos(80));
        assert_eq!(shed.latency(), None);
    }
}
