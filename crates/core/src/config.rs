//! Configuration for the Shredder pipeline and the host-only baseline.

use serde::{Deserialize, Serialize};
use shredder_des::Dur;
use shredder_gpu::kernel::KernelVariant;
use shredder_gpu::{calibration, DeviceConfig, PinnedRing};
use shredder_rabin::ChunkParams;

use shredder_telemetry::TelemetryConfig;

use crate::engine::PlacementPolicy;
use crate::fault::FaultPlan;

/// Configuration of the Shredder pipeline.
///
/// The five presets correspond to the systems compared in Figure 12:
///
/// | preset | §  | copy/exec | host buffers | pipeline | kernel |
/// |---|---|---|---|---|---|
/// | [`cpu_pthreads_malloc`](ShredderConfig::cpu_pthreads_malloc) | 5.1 | no copies (host device) | `malloc` | 4 stages | 12 threads |
/// | [`cpu_pthreads`](ShredderConfig::cpu_pthreads) | 5.1 | no copies (host device) | Hoard | 4 stages | 12 threads |
/// | [`gpu_basic`](ShredderConfig::gpu_basic) | 3.1 | serialized (1 device buffer) | pageable, allocated per buffer | 2 in flight (AIO reader) | basic |
/// | [`gpu_streams`](ShredderConfig::gpu_streams) | 4.1–4.2 | double buffered | pinned ring | 4 stages | basic |
/// | [`gpu_streams_memory`](ShredderConfig::gpu_streams_memory) | 4.3 | double buffered | pinned ring | 4 stages | coalesced |
///
/// # Examples
///
/// ```
/// use shredder_core::ShredderConfig;
///
/// let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 20);
/// assert_eq!(cfg.buffer_size, 64 << 20);
/// assert_eq!(cfg.pipeline_depth, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShredderConfig {
    /// What scans the buffers: the GPU device pool, or the host's
    /// pthreads baseline as one host device in the pool.
    pub executor: Executor,
    /// Content-defined chunking parameters.
    pub params: ChunkParams,
    /// Size of each stream buffer fed through the pipeline, bytes.
    pub buffer_size: usize,
    /// Maximum buffers admitted to the pipeline simultaneously (the
    /// Figure 9 "number of pipeline stages"); 1 = fully sequential.
    pub pipeline_depth: usize,
    /// Device-side buffers for copy/compute overlap: 1 = serialized
    /// (§3.1), 2 = double buffering (§4.1.1, Figure 4). On the host
    /// executor, the buffers queued for its threads.
    pub twin_buffers: usize,
    /// Use the pre-pinned circular ring (§4.1.2). When `false`, host
    /// buffers are pageable and allocated every iteration (the basic
    /// design), which both slows DMA and adds allocation time. The host
    /// executor copies nothing, so it ignores this.
    pub pinned_ring: bool,
    /// Chunking kernel variant (§3.1 basic vs §4.3 coalesced).
    pub kernel: KernelVariant,
    /// Simulated device (each pool device is one of these).
    pub device: DeviceConfig,
    /// Number of devices in the pool. 1 reproduces the paper's
    /// single-C2050 testbed; N > 1 shards sessions across N identical
    /// devices, each with its own DMA engines, twin buffers and pinned
    /// staging ring.
    pub gpus: usize,
    /// How sessions are sharded across the device pool (only meaningful
    /// with `gpus > 1`).
    pub placement: PlacementPolicy,
    /// Per-device pinned staging-ring slots. `None` sizes the ring to
    /// `pipeline_depth` (§4.1.2: "as low as the number of stages in the
    /// streaming pipeline"), which never throttles; set it lower to
    /// model a smaller ring whose exhaustion backpressures admission.
    pub ring_slots: Option<usize>,
    /// Reader (SAN) bandwidth in bytes/s (Table 1: 2 GB/s). The §5.3
    /// testbed reads over GPUDirect into pinned buffers, so no staging
    /// memcpy is charged when `pinned_ring` is on. The reader is shared
    /// by every device: a multi-GPU deployment that wants to scale past
    /// it must provision a faster fabric via
    /// [`with_reader_bandwidth`](Self::with_reader_bandwidth).
    pub reader_bandwidth: f64,
    /// Segment roll size of the downstream chunk store
    /// ([`shredder_store::ChunkStore`]): payloads are packed into
    /// append-only segments of this size.
    pub segment_bytes: usize,
    /// Store GC compaction threshold in `[0, 1]`: sealed segments whose
    /// live fraction falls below this are compacted and retired.
    pub gc_threshold: f64,
    /// Snapshot retention per store stream: `Some(n)` keeps only the
    /// latest `n` generations, enforced by the store whenever a new
    /// snapshot opens; `None` keeps everything until explicitly
    /// expired. Expired payloads are reclaimed by the store's GC.
    pub retention: Option<u64>,
    /// Deterministic fault schedule injected into the timing simulation
    /// (device deaths, stragglers). The default plan is empty and the
    /// run is bit-identical to a fault-free config; see
    /// [`FaultPlan`] for the determinism contract.
    pub faults: FaultPlan,
    /// In-simulation tracing and metrics
    /// ([`shredder_telemetry::TraceRecorder`]). Off by default: no
    /// recorder is allocated and the run is bit-identical to a config
    /// that never mentions telemetry — the same zero-overhead contract
    /// an empty [`FaultPlan`] honors. When enabled, the engine records
    /// request/device/stage/fault spans passively and attaches a
    /// [`shredder_telemetry::TelemetryReport`] to the
    /// [`EngineReport`](crate::EngineReport).
    pub telemetry: TelemetryConfig,
}

impl ShredderConfig {
    /// The basic GPU design of §3.1 / Figure 2.
    pub fn gpu_basic() -> Self {
        ShredderConfig {
            executor: Executor::Gpu,
            params: ChunkParams::paper(),
            buffer_size: 32 << 20,
            pipeline_depth: 2, // Reader is its own thread even in Fig. 2
            twin_buffers: 1,
            pinned_ring: false,
            kernel: KernelVariant::Basic,
            device: DeviceConfig::tesla_c2050(),
            gpus: 1,
            placement: PlacementPolicy::LeastLoaded,
            ring_slots: None,
            reader_bandwidth: calibration::READER_IO_BW,
            segment_bytes: 8 << 20,
            gc_threshold: 0.5,
            retention: None,
            faults: FaultPlan::default(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Double buffering + pinned ring + 4-stage streaming pipeline
    /// (§4.1–§4.2) with the unoptimized kernel — Figure 12's
    /// "GPU Streams".
    pub fn gpu_streams() -> Self {
        ShredderConfig {
            pipeline_depth: 4,
            twin_buffers: 2,
            pinned_ring: true,
            ..ShredderConfig::gpu_basic()
        }
    }

    /// All optimizations including memory coalescing (§4.3) — Figure 12's
    /// "GPU Streams + Memory".
    pub fn gpu_streams_memory() -> Self {
        ShredderConfig {
            kernel: KernelVariant::Coalesced,
            ..ShredderConfig::gpu_streams()
        }
    }

    /// The host-only pthreads baseline with the Hoard allocator (§5.1) —
    /// Figure 12's "CPU w/ Hoard". Twelve Xeon threads scan each buffer
    /// on one host device in the pool; see [`Executor::Host`] for the
    /// cost model.
    ///
    /// # Examples
    ///
    /// ```
    /// use shredder_core::{Shredder, ShredderConfig};
    ///
    /// let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    /// let hoard = Shredder::new(ShredderConfig::cpu_pthreads().with_buffer_size(256 << 10));
    /// let malloc = Shredder::new(ShredderConfig::cpu_pthreads_malloc().with_buffer_size(256 << 10));
    ///
    /// let a = hoard.chunk_stream(&data).unwrap();
    /// let b = malloc.chunk_stream(&data).unwrap();
    /// assert_eq!(a.chunks, b.chunks); // same boundaries
    /// // Hoard removes allocator serialization (§5.1).
    /// assert!(a.report.aggregate_gbps() > b.report.aggregate_gbps());
    /// ```
    pub fn cpu_pthreads() -> Self {
        ShredderConfig {
            executor: Executor::Host(Allocator::Hoard),
            pinned_ring: false,
            ..ShredderConfig::gpu_streams()
        }
    }

    /// The host-only pthreads baseline with stock `malloc` — Figure
    /// 12's "CPU w/o Hoard".
    pub fn cpu_pthreads_malloc() -> Self {
        ShredderConfig {
            executor: Executor::Host(Allocator::Malloc),
            ..ShredderConfig::cpu_pthreads()
        }
    }

    /// Sets the per-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_buffer_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "buffer size must be non-zero");
        self.buffer_size = bytes;
        self
    }

    /// Sets the pipeline admission depth (1–4 in the paper's Figure 9).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "pipeline depth must be non-zero");
        self.pipeline_depth = depth;
        self
    }

    /// Sets the chunking parameters.
    pub fn with_params(mut self, params: ChunkParams) -> Self {
        self.params = params;
        self
    }

    /// Selects the chunking kernel variant: the paper's Rabin kernels
    /// ([`KernelVariant::Basic`]/[`KernelVariant::Coalesced`]) or the
    /// Gear/FastCDC kernels
    /// ([`KernelVariant::Gear`]/[`KernelVariant::GearCoalesced`]),
    /// whose shift-add update roughly halves the per-byte compute.
    /// Gear kernels derive their FastCDC parameters from `params` (same
    /// expected chunk size; min/max carried over when set).
    pub fn with_chunk_kernel(mut self, kernel: KernelVariant) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the device-pool size. Streams are sharded across the pool
    /// by the [`PlacementPolicy`]; consider scaling
    /// [`with_pipeline_depth`](Self::with_pipeline_depth) with the pool
    /// so every device can hold buffers in flight.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn with_gpus(mut self, gpus: usize) -> Self {
        assert!(gpus > 0, "device pool must be non-empty");
        self.gpus = gpus;
        self
    }

    /// Sets the session-placement policy for the device pool.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the per-device pinned staging-ring size. Slots smaller than
    /// the pipeline depth genuinely throttle: a buffer holds its slot
    /// from SAN read through H2D, so an exhausted ring backpressures
    /// admission.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_ring_slots(mut self, slots: usize) -> Self {
        assert!(slots > 0, "ring must have at least one slot");
        self.ring_slots = Some(slots);
        self
    }

    /// Sets the shared reader (SAN) bandwidth in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive and finite.
    pub fn with_reader_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "reader bandwidth must be positive"
        );
        self.reader_bandwidth = bytes_per_sec;
        self
    }

    /// Sets the store segment roll size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "segment size must be non-zero");
        self.segment_bytes = bytes;
        self
    }

    /// Sets the store GC compaction threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn with_gc_threshold(mut self, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "gc threshold must be within [0, 1]"
        );
        self.gc_threshold = threshold;
        self
    }

    /// Sets the per-stream snapshot retention (latest `n` generations,
    /// enforced by the store at every snapshot open).
    ///
    /// # Panics
    ///
    /// Panics if `generations` is zero (that would expire every
    /// snapshot the moment it opens).
    pub fn with_retention(mut self, generations: u64) -> Self {
        assert!(
            generations > 0,
            "retention must keep at least one generation"
        );
        self.retention = Some(generations);
        self
    }

    /// Sets the deterministic fault schedule (device deaths and
    /// stragglers) replayed by the timing simulation. An empty plan is
    /// equivalent to never calling this.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the telemetry configuration. A disabled config (the
    /// default) is equivalent to never calling this: no recorder is
    /// allocated and the run stays bit-identical.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The downstream chunk-store configuration derived from this
    /// pipeline configuration.
    pub fn store_config(&self) -> shredder_store::StoreConfig {
        shredder_store::StoreConfig {
            segment_bytes: self.segment_bytes,
            gc_threshold: self.gc_threshold,
            retention: self.retention,
        }
    }

    /// Whether buffers stage through each device's pinned ring: the
    /// GPU executor with [`pinned_ring`](Self::pinned_ring) on.
    pub(crate) fn stages_through_ring(&self) -> bool {
        self.pinned_ring && self.executor == Executor::Gpu
    }

    /// One-time pinned-ring setup cost across the pool (the ring is
    /// allocated once per device at system init, §4.1.2); zero without
    /// a ring.
    pub(crate) fn ring_setup(&self) -> Dur {
        if self.stages_through_ring() {
            PinnedRing::new(self.ring_slots(), self.buffer_size).setup_time() * self.gpus as u64
        } else {
            Dur::ZERO
        }
    }

    /// Number of pinned ring slots per device: the configured override,
    /// or "as low as the number of stages in the streaming pipeline"
    /// (§4.1.2).
    pub fn ring_slots(&self) -> usize {
        self.ring_slots.unwrap_or(self.pipeline_depth)
    }

    /// Validates the whole configuration, returning a typed
    /// [`ChunkError::InvalidConfig`](crate::ChunkError) instead of
    /// panicking (or misbehaving deep inside `shredder-store`) later.
    ///
    /// The `with_*` builders already assert these invariants one by one,
    /// but the fields are public: a configuration assembled by struct
    /// update or direct mutation can carry a zero `segment_bytes` or an
    /// out-of-range `gc_threshold` that would otherwise only surface as
    /// a panic inside the store's segment log.
    /// [`ShredderEngine::run`](crate::ShredderEngine::run), the one
    /// engine entry point, calls this before doing any work.
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`](crate::ChunkError) naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), crate::ChunkError> {
        use crate::ChunkError::InvalidConfig;
        self.params
            .validate()
            .map_err(|e| InvalidConfig(format!("chunking params: {e}")))?;
        if self.kernel.is_gear() {
            shredder_rabin::GearParams::matched(&self.params)
                .validate()
                .map_err(|e| InvalidConfig(format!("gear chunking params: {e}")))?;
        }
        if self.buffer_size == 0 {
            return Err(InvalidConfig("buffer size must be non-zero".into()));
        }
        if self.pipeline_depth == 0 {
            return Err(InvalidConfig("pipeline depth must be non-zero".into()));
        }
        if self.gpus == 0 {
            return Err(InvalidConfig(
                "device pool must have at least one GPU".into(),
            ));
        }
        if let Executor::Host(_) = self.executor {
            if self.gpus != 1 {
                return Err(InvalidConfig(format!(
                    "the host executor is one device, got gpus = {}",
                    self.gpus
                )));
            }
            if self.kernel.is_gear() {
                return Err(InvalidConfig(format!(
                    "the host executor is costed for Rabin, got the {} kernel",
                    self.kernel
                )));
            }
        }
        if self.ring_slots == Some(0) {
            return Err(InvalidConfig(
                "pinned ring must have at least one slot".into(),
            ));
        }
        if !(self.reader_bandwidth.is_finite() && self.reader_bandwidth > 0.0) {
            return Err(InvalidConfig(format!(
                "reader bandwidth must be positive and finite, got {}",
                self.reader_bandwidth
            )));
        }
        if self.segment_bytes == 0 {
            return Err(InvalidConfig("store segment_bytes must be non-zero".into()));
        }
        if !(self.gc_threshold.is_finite() && (0.0..=1.0).contains(&self.gc_threshold)) {
            return Err(InvalidConfig(format!(
                "store gc_threshold must be within [0, 1], got {}",
                self.gc_threshold
            )));
        }
        if self.retention == Some(0) {
            return Err(InvalidConfig(
                "retention must keep at least one generation".into(),
            ));
        }
        self.faults
            .check(self.gpus)
            .map_err(|e| InvalidConfig(format!("fault plan: {e}")))?;
        self.telemetry
            .check()
            .map_err(|e| InvalidConfig(format!("telemetry: {e}")))?;
        Ok(())
    }
}

impl Default for ShredderConfig {
    /// The fully optimized configuration.
    fn default() -> Self {
        ShredderConfig::gpu_streams_memory()
    }
}

/// What scans a run's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Executor {
    /// The simulated GPU device pool (§3–§4).
    Gpu,
    /// The host-only pthreads baseline (§5.1) as one host device in the
    /// pool: no H2D, no D2H, no staging ring. A buffer of `b` bytes
    /// scans in `b · CPU_RABIN_CYCLES_PER_BYTE / (HOST_CLOCK_HZ ·
    /// HOST_THREADS) / (1 − loss)` plus `HOST_THREADS ·
    /// HOST_SYNC_NS_PER_THREAD` of SPMD synchronization, where `loss`
    /// is the allocator's [`contention_loss`](Allocator::contention_loss)
    /// (constants in `shredder_gpu::calibration`). Chunk boundaries
    /// still come from the configured Rabin kernel, so they equal the
    /// GPU executor's.
    Host(Allocator),
}

/// The memory allocator used by the host-only chunker (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Allocator {
    /// Stock glibc `malloc`: allocation serializes across threads.
    Malloc,
    /// The Hoard scalable allocator \[13\].
    Hoard,
}

impl Allocator {
    /// Fraction of parallel chunking throughput lost to allocator
    /// contention (calibrated, see `shredder_gpu::calibration`).
    pub fn contention_loss(self) -> f64 {
        match self {
            Allocator::Malloc => calibration::MALLOC_CONTENTION_LOSS,
            Allocator::Hoard => calibration::HOARD_CONTENTION_LOSS,
        }
    }
}

impl std::fmt::Display for Allocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Allocator::Malloc => f.write_str("malloc"),
            Allocator::Hoard => f.write_str("hoard"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let basic = ShredderConfig::gpu_basic();
        let streams = ShredderConfig::gpu_streams();
        let full = ShredderConfig::gpu_streams_memory();

        assert_eq!(basic.twin_buffers, 1);
        assert!(!basic.pinned_ring);
        assert_eq!(basic.kernel, KernelVariant::Basic);

        assert_eq!(streams.twin_buffers, 2);
        assert!(streams.pinned_ring);
        assert_eq!(streams.pipeline_depth, 4);
        assert_eq!(streams.kernel, KernelVariant::Basic);

        assert_eq!(full.kernel, KernelVariant::Coalesced);
        assert_eq!(ShredderConfig::default(), full);

        // Every preset is single-device with the default placement.
        for cfg in [&basic, &streams, &full] {
            assert_eq!(cfg.gpus, 1);
            assert_eq!(cfg.placement, PlacementPolicy::LeastLoaded);
            assert_eq!(cfg.ring_slots, None);
        }
    }

    #[test]
    fn chunk_kernel_builder_and_gear_validation() {
        let cfg = ShredderConfig::default().with_chunk_kernel(KernelVariant::GearCoalesced);
        assert_eq!(cfg.kernel, KernelVariant::GearCoalesced);
        assert!(cfg.validate().is_ok());

        // A mask this wide passes the Rabin checks but leaves no room
        // for FastCDC's strict-mask widening — only the gear kernels
        // reject it.
        let mut wide = ShredderConfig::default();
        wide.params.mask_bits = 63;
        assert!(wide.validate().is_ok());
        let wide = wide.with_chunk_kernel(KernelVariant::Gear);
        assert!(wide.validate().is_err());
    }

    #[test]
    fn multi_gpu_builders() {
        let cfg = ShredderConfig::default()
            .with_gpus(4)
            .with_placement(PlacementPolicy::RoundRobin)
            .with_ring_slots(2)
            .with_reader_bandwidth(16e9);
        assert_eq!(cfg.gpus, 4);
        assert_eq!(cfg.placement, PlacementPolicy::RoundRobin);
        assert_eq!(cfg.ring_slots(), 2);
        assert_eq!(cfg.reader_bandwidth, 16e9);
        // Without an override the ring matches the pipeline depth.
        assert_eq!(
            ShredderConfig::default()
                .with_pipeline_depth(3)
                .ring_slots(),
            3
        );
    }

    #[test]
    fn store_builders_and_derived_config() {
        let cfg = ShredderConfig::default()
            .with_segment_bytes(4 << 20)
            .with_gc_threshold(0.25)
            .with_retention(3);
        assert_eq!(cfg.segment_bytes, 4 << 20);
        assert_eq!(cfg.gc_threshold, 0.25);
        assert_eq!(cfg.retention, Some(3));
        let store = cfg.store_config();
        assert_eq!(store.segment_bytes, 4 << 20);
        assert_eq!(store.gc_threshold, 0.25);
        assert_eq!(store.retention, Some(3));
        // Defaults: retain everything, 8 MiB segments, 0.5 threshold.
        let default = ShredderConfig::default().store_config();
        assert_eq!(default.retention, None);
        assert_eq!(default.segment_bytes, 8 << 20);
        assert_eq!(default.gc_threshold, 0.5);
    }

    #[test]
    #[should_panic(expected = "segment size")]
    fn zero_segment_bytes_panics() {
        let _ = ShredderConfig::default().with_segment_bytes(0);
    }

    #[test]
    fn validate_rejects_field_level_mutation() {
        use crate::ChunkError;
        assert_eq!(ShredderConfig::default().validate(), Ok(()));

        // The builders panic, but nothing stops struct-update
        // construction — validate() must catch it with a typed error
        // instead of letting the bad value panic deep inside
        // shredder-store.
        let cfg = ShredderConfig {
            segment_bytes: 0,
            ..ShredderConfig::default()
        };
        match cfg.validate() {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("segment_bytes"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = ShredderConfig {
                gc_threshold: bad,
                ..ShredderConfig::default()
            };
            match cfg.validate() {
                Err(ChunkError::InvalidConfig(msg)) => {
                    assert!(msg.contains("gc_threshold"), "{msg}")
                }
                other => panic!("expected InvalidConfig for {bad}, got {other:?}"),
            }
        }

        let broken = [
            ShredderConfig {
                retention: Some(0),
                ..ShredderConfig::default()
            },
            ShredderConfig {
                reader_bandwidth: f64::NAN,
                ..ShredderConfig::default()
            },
            ShredderConfig {
                ring_slots: Some(0),
                ..ShredderConfig::default()
            },
        ];
        for cfg in broken {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_gc_threshold_panics() {
        let _ = ShredderConfig::default().with_gc_threshold(-0.1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_gpus_panics() {
        let _ = ShredderConfig::default().with_gpus(0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_ring_slots_panics() {
        let _ = ShredderConfig::default().with_ring_slots(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_reader_bandwidth_panics() {
        let _ = ShredderConfig::default().with_reader_bandwidth(0.0);
    }

    #[test]
    fn builders_validate() {
        let cfg = ShredderConfig::default()
            .with_buffer_size(1 << 20)
            .with_pipeline_depth(3);
        assert_eq!(cfg.buffer_size, 1 << 20);
        assert_eq!(cfg.ring_slots(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buffer_size_panics() {
        let _ = ShredderConfig::default().with_buffer_size(0);
    }

    #[test]
    fn allocator_losses_ordered() {
        assert!(Allocator::Malloc.contention_loss() > Allocator::Hoard.contention_loss());
        assert_eq!(Allocator::Hoard.to_string(), "hoard");
    }

    #[test]
    fn host_configs() {
        assert_eq!(
            ShredderConfig::cpu_pthreads().executor,
            Executor::Host(Allocator::Hoard)
        );
        assert_eq!(
            ShredderConfig::cpu_pthreads_malloc().executor,
            Executor::Host(Allocator::Malloc)
        );
        assert_eq!(ShredderConfig::cpu_pthreads().validate(), Ok(()));
        assert_eq!(ShredderConfig::cpu_pthreads_malloc().validate(), Ok(()));
        assert_eq!(ShredderConfig::default().executor, Executor::Gpu);
    }

    #[test]
    fn host_executor_rejects_a_device_pool() {
        use crate::ChunkError;
        for gpus in [2, 4] {
            match ShredderConfig::cpu_pthreads().with_gpus(gpus).validate() {
                Err(ChunkError::InvalidConfig(msg)) => {
                    assert!(msg.contains("host executor"), "{msg}")
                }
                other => panic!("expected InvalidConfig for gpus = {gpus}, got {other:?}"),
            }
        }
        // The GPU executor shards over any pool size.
        assert_eq!(ShredderConfig::default().with_gpus(4).validate(), Ok(()));
    }

    #[test]
    fn host_executor_rejects_gear_kernels() {
        use crate::ChunkError;
        for kernel in [KernelVariant::Gear, KernelVariant::GearCoalesced] {
            let cfg = ShredderConfig::cpu_pthreads_malloc().with_chunk_kernel(kernel);
            match cfg.validate() {
                Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("Rabin"), "{msg}"),
                other => panic!("expected InvalidConfig for {kernel}, got {other:?}"),
            }
        }
        let rabin = ShredderConfig::cpu_pthreads().with_chunk_kernel(KernelVariant::Coalesced);
        assert_eq!(rabin.validate(), Ok(()));
    }
}
