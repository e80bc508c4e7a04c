//! A pool of devices, each with its own copy–compute overlap scheduler.
//!
//! Shredder's §5 numbers come from keeping *one* device saturated:
//! asynchronous copies into a circular ring of pinned buffers overlap the
//! chunking kernel via CUDA streams (§4.1.1–§4.1.2). "GPUs as Storage
//! System Accelerators" (Al-Kiswany et al.) shows the same pipeline
//! generalizes across devices — a storage node drives N GPUs, each with
//! its own DMA engines and staging memory. [`DevicePool`] models exactly
//! that: N independent [`GpuExecutor`]s, each wrapped in a
//! [`PooledDevice`] that owns
//!
//! * a **stream triple** — one in-order [`Stream`] per engine (H2D DMA,
//!   compute, D2H DMA), chained per buffer with [`Event`]s so the
//!   transfer of buffer *k+1* overlaps the kernel on buffer *k* (the
//!   Figure 4 timeline);
//! * a **lane semaphore** sized to the device's twin buffers — one lane
//!   reproduces the serialized §3.1 design, two lanes the double
//!   buffering of §4.1.1;
//! * a **pinned-ring semaphore** sized to the device's staging ring
//!   (§4.1.2) — callers hold a slot from SAN read through H2D
//!   completion, so ring exhaustion backpressures whatever feeds the
//!   device;
//! * per-engine **busy intervals**, from which the pool reports each
//!   device's utilization and its *overlap fraction*: how much of the
//!   DMA time was hidden behind kernel execution.
//!
//! A pool can instead hold one **host** device ([`DevicePool::host`]):
//! the §5.1 pthreads baseline as a pool member. It scans each buffer
//! where the reader left it, so its `submit` runs only the compute
//! stream — no H2D, no D2H, no staging ring — and the caller supplies
//! the host's per-buffer scan time as the job's kernel duration.
//!
//! [`Event`]: crate::stream::Event

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use shredder_des::{Dur, Semaphore, SimTime, Simulation};
use shredder_telemetry::{ArgValue, Lane, LaneEngine, TraceRecorder};

use crate::config::DeviceConfig;
use crate::executor::GpuExecutor;
use crate::hostmem::HostMemKind;
use crate::kernel::KernelVariant;
use crate::stream::Stream;

/// One buffer's worth of device work, submitted to a [`PooledDevice`].
#[derive(Debug, Clone, Copy)]
pub struct BufferJob {
    /// Payload bytes transferred host→device.
    pub bytes: u64,
    /// Boundary-array bytes returned device→host.
    pub cut_bytes: u64,
    /// Pre-computed kernel duration for this buffer.
    pub kernel: Dur,
    /// Host memory kind (pinned staging vs pageable).
    pub host: HostMemKind,
    /// Which boundary-detection kernel the duration was computed for.
    /// The pool keeps per-variant job counts so a run's report can say
    /// which kernels a device actually executed.
    pub variant: KernelVariant,
}

/// A half-open busy interval in nanoseconds of simulated time.
type Interval = (u64, u64);

#[derive(Default)]
struct DeviceStats {
    jobs: u64,
    bytes: u64,
    /// Completed jobs per kernel variant, indexed like
    /// [`KernelVariant::ALL`].
    jobs_by_variant: [u64; KernelVariant::ALL.len()],
    h2d: Vec<Interval>,
    compute: Vec<Interval>,
    d2h: Vec<Interval>,
}

/// One device of a [`DevicePool`]: engines, streams, lanes, ring.
///
/// Cloning shares the underlying device.
///
/// # Examples
///
/// Double buffering via [`submit`](PooledDevice::submit): with two lanes,
/// the H2D copy of each next buffer hides behind the current kernel, so
/// eight buffers cost ≈ one copy + eight kernels (Figure 5's conclusion):
///
/// ```
/// use shredder_des::{Dur, Simulation};
/// use shredder_gpu::kernel::KernelVariant;
/// use shredder_gpu::pool::{BufferJob, DevicePool};
/// use shredder_gpu::{DeviceConfig, HostMemKind};
///
/// let mut sim = Simulation::new();
/// let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), 2, 4);
/// let dev = pool.device(0);
/// for _ in 0..8 {
///     dev.submit(
///         &mut sim,
///         BufferJob {
///             bytes: 64 << 20,
///             cut_bytes: 8,
///             kernel: Dur::from_millis(50),
///             host: HostMemKind::Pinned,
///             variant: KernelVariant::Coalesced,
///         },
///         |_| {},
///         |_| {},
///         |_| {},
///     );
/// }
/// let end = sim.run().as_millis_f64();
/// assert!((end - (12.4 + 8.0 * 50.0)).abs() < 15.0, "{end}ms");
/// // Nearly all DMA time was hidden behind kernel execution.
/// assert!(pool.device(0).overlap_fraction() > 0.8);
/// ```
#[derive(Clone)]
pub struct PooledDevice {
    id: usize,
    /// A host (CPU) device: compute stream only, see [`DevicePool::host`].
    host: bool,
    gpu: GpuExecutor,
    h2d: Stream,
    compute: Stream,
    d2h: Stream,
    lanes: Semaphore,
    ring: Semaphore,
    stats: Rc<RefCell<DeviceStats>>,
    health: Rc<Cell<DeviceHealth>>,
    /// Optional telemetry recorder (shared across clones). `None` —
    /// the default — records nothing and keeps the submit path
    /// identical to an uninstrumented pool.
    trace: Rc<RefCell<Option<Rc<RefCell<TraceRecorder>>>>>,
}

/// Mutable fault state of one pool device (shared across clones).
#[derive(Debug, Clone, Copy)]
struct DeviceHealth {
    alive: bool,
    slowdown: f64,
}

impl PooledDevice {
    fn new(id: usize, config: &DeviceConfig, lanes: usize, ring_slots: usize, host: bool) -> Self {
        let gpu = GpuExecutor::new(config);
        let kind = if host { "host" } else { "gpu" };
        PooledDevice {
            id,
            host,
            h2d: Stream::new(&gpu),
            compute: Stream::new(&gpu),
            d2h: Stream::new(&gpu),
            lanes: Semaphore::new(format!("{kind}{id}-lanes"), lanes),
            ring: Semaphore::new(format!("{kind}{id}-pinned-ring"), ring_slots),
            gpu,
            stats: Rc::default(),
            health: Rc::new(Cell::new(DeviceHealth {
                alive: true,
                slowdown: 1.0,
            })),
            trace: Rc::new(RefCell::new(None)),
        }
    }

    /// Attaches a telemetry recorder: every completed H2D/kernel/D2H
    /// service interval is additionally recorded as a span on this
    /// device's engine lanes. Recording is passive — it reads the
    /// interval the device already computes for its busy accounting —
    /// so an attached recorder never changes timing.
    pub fn attach_recorder(&self, recorder: &Rc<RefCell<TraceRecorder>>) {
        *self.trace.borrow_mut() = Some(recorder.clone());
    }

    /// Records a completed engine interval on the attached recorder, if
    /// any.
    fn trace_engine_span(&self, engine: LaneEngine, end: u64, d: Dur, bytes: u64) {
        if let Some(trace) = self.trace.borrow().as_ref() {
            trace.borrow_mut().span(
                Lane::Device {
                    device: self.id as u64,
                    engine,
                },
                engine.label(),
                SimTime::from_nanos(end.saturating_sub(d.as_nanos())),
                SimTime::from_nanos(end),
                vec![("bytes", ArgValue::U64(bytes))],
            );
        }
    }

    /// The device's index within its pool.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's engines (H2D, compute, D2H as FIFO servers).
    pub fn executor(&self) -> &GpuExecutor {
        &self.gpu
    }

    /// The device's pinned staging-ring slots as a DES resource. Callers
    /// acquire a slot before reading data into staging memory and
    /// release it once [`submit`](Self::submit)'s transfer callback
    /// fires (the slot is reusable as soon as its bytes are resident on
    /// the device).
    pub fn ring(&self) -> &Semaphore {
        &self.ring
    }

    /// Device buffer lanes (the twin buffers of §4.1.1). Held by
    /// [`submit`](Self::submit) from H2D start through kernel
    /// completion.
    pub fn lanes(&self) -> &Semaphore {
        &self.lanes
    }

    /// Marks the device dead (fault injection). The device's streams
    /// keep draining already-enqueued work — real DMA engines do not
    /// vanish instantaneously either — but the caller is expected to
    /// stop routing to it and to discard results of in-flight jobs.
    pub fn fail(&self) {
        let mut h = self.health.get();
        h.alive = false;
        self.health.set(h);
    }

    /// Whether the device is still accepting work (no
    /// [`fail`](Self::fail) injected).
    pub fn is_alive(&self) -> bool {
        self.health.get().alive
    }

    /// Sets the straggler slowdown factor: kernels submitted from now on
    /// run `factor`× their modeled duration. `1.0` restores full speed.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or is below 1.0.
    pub fn set_slowdown(&self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown must be finite and >= 1.0, got {factor}"
        );
        let mut h = self.health.get();
        h.slowdown = factor;
        self.health.set(h);
    }

    /// The current straggler slowdown factor (1.0 when healthy).
    pub fn slowdown(&self) -> f64 {
        self.health.get().slowdown
    }

    /// The kernel duration after applying the current slowdown. Exactly
    /// `kernel` when the factor is 1.0, so healthy runs stay
    /// bit-identical to the pre-fault model.
    fn scaled_kernel(&self, kernel: Dur) -> Dur {
        let factor = self.health.get().slowdown;
        if factor == 1.0 {
            kernel
        } else {
            Dur::from_secs_f64(kernel.as_secs_f64() * factor)
        }
    }

    /// Submits one buffer through the device: lane acquire → H2D →
    /// kernel → D2H, issued on the stream triple and chained with
    /// events so different buffers overlap across engines.
    ///
    /// `on_transfer` fires when the payload lands on the device (release
    /// any staging slot here), `on_kernel` when the kernel completes
    /// (the lane is released just before), and `on_complete` when the
    /// boundary array is back at the host. A host device skips both
    /// copies: `on_transfer` fires as soon as the lane is held, and
    /// `on_complete` right after `on_kernel`.
    pub fn submit(
        &self,
        sim: &mut Simulation,
        job: BufferJob,
        on_transfer: impl FnOnce(&mut Simulation) + 'static,
        on_kernel: impl FnOnce(&mut Simulation) + 'static,
        on_complete: impl FnOnce(&mut Simulation) + 'static,
    ) {
        let dev = self.clone();
        self.lanes.clone().acquire(sim, 1, move |sim| {
            // Straggler factor in effect when the job actually starts.
            let kernel = dev.scaled_kernel(job.kernel);
            if dev.host {
                // The scan runs where the reader left the bytes.
                on_transfer(sim);
                dev.compute.enqueue_kernel(sim, kernel);
                let chunked = dev.compute.record_event(sim);
                chunked.on_fire(sim, move |sim| {
                    dev.kernel_done(sim, kernel, job.bytes);
                    on_kernel(sim);
                    dev.count_job(&job);
                    on_complete(sim);
                });
                return;
            }
            // Issue the whole chain up front, in stream order. Each
            // stream is in-order; the events order work *across* the
            // streams (H2D → kernel → D2H) while leaving different
            // buffers free to overlap on different engines.
            dev.h2d.enqueue_h2d(sim, job.bytes, job.host);
            let landed = dev.h2d.record_event(sim);
            dev.compute.wait_event(sim, &landed);
            dev.compute.enqueue_kernel(sim, kernel);
            let chunked = dev.compute.record_event(sim);
            dev.d2h.wait_event(sim, &chunked);
            dev.d2h.enqueue_d2h(sim, job.cut_bytes, job.host);
            let returned = dev.d2h.record_event(sim);

            let d = dev.clone();
            landed.on_fire(sim, move |sim| {
                let t = d.gpu.h2d_time(job.host, job.bytes);
                d.note(|s| &mut s.h2d, sim.now().as_nanos(), t);
                d.trace_engine_span(LaneEngine::H2d, sim.now().as_nanos(), t, job.bytes);
                on_transfer(sim);
            });
            let d = dev.clone();
            chunked.on_fire(sim, move |sim| {
                d.kernel_done(sim, kernel, job.bytes);
                on_kernel(sim);
            });
            let d = dev;
            returned.on_fire(sim, move |sim| {
                let t = d.gpu.d2h_time(job.host, job.cut_bytes);
                d.note(|s| &mut s.d2h, sim.now().as_nanos(), t);
                d.trace_engine_span(LaneEngine::D2h, sim.now().as_nanos(), t, job.cut_bytes);
                d.count_job(&job);
                on_complete(sim);
            });
        });
    }

    /// Books a kernel that completed now and frees its lane.
    fn kernel_done(&self, sim: &mut Simulation, kernel: Dur, bytes: u64) {
        self.note(|s| &mut s.compute, sim.now().as_nanos(), kernel);
        self.trace_engine_span(LaneEngine::Kernel, sim.now().as_nanos(), kernel, bytes);
        self.lanes.release(sim, 1);
    }

    /// Counts one completed job.
    fn count_job(&self, job: &BufferJob) {
        let mut stats = self.stats.borrow_mut();
        stats.jobs += 1;
        stats.bytes += job.bytes;
        let slot = KernelVariant::ALL
            .iter()
            .position(|&v| v == job.variant)
            .expect("every variant is in ALL");
        stats.jobs_by_variant[slot] += 1;
    }

    /// Records a completed service interval ending now.
    fn note(&self, pick: impl FnOnce(&mut DeviceStats) -> &mut Vec<Interval>, end: u64, d: Dur) {
        let start = end.saturating_sub(d.as_nanos());
        pick(&mut self.stats.borrow_mut()).push((start, end));
    }

    /// Buffers completed (through D2H) on this device.
    pub fn jobs(&self) -> u64 {
        self.stats.borrow().jobs
    }

    /// Payload bytes transferred to this device.
    pub fn bytes(&self) -> u64 {
        self.stats.borrow().bytes
    }

    /// Busy time of the H2D DMA engine.
    pub fn transfer_busy(&self) -> Dur {
        self.gpu.h2d_busy()
    }

    /// Busy time of the compute engine.
    pub fn kernel_busy(&self) -> Dur {
        self.gpu.compute_busy()
    }

    /// Busy time of the D2H DMA engine.
    pub fn d2h_busy(&self) -> Dur {
        self.gpu.d2h_busy()
    }

    /// Total DMA busy time (union of the H2D and D2H engine intervals)
    /// and how much of it ran concurrently with the kernel — the paper's
    /// copy–compute overlap, measured.
    pub fn dma_overlap(&self) -> (Dur, Dur) {
        let stats = self.stats.borrow();
        let dma = union_sorted(&stats.h2d, &stats.d2h);
        let total: u64 = dma.iter().map(|&(s, e)| e - s).sum();
        let hidden = intersection_ns(&dma, &stats.compute);
        (Dur::from_nanos(total), Dur::from_nanos(hidden))
    }

    /// Fraction of this device's DMA time hidden behind kernel
    /// execution, in `[0, 1]`. Zero when no DMA ran.
    pub fn overlap_fraction(&self) -> f64 {
        let (dma, hidden) = self.dma_overlap();
        if dma.is_zero() {
            return 0.0;
        }
        hidden.as_secs_f64() / dma.as_secs_f64()
    }

    /// The span from the first engine-service start to the last engine
    /// completion — the window in which this device was in use at all.
    pub fn busy_span(&self) -> Dur {
        let stats = self.stats.borrow();
        let all = [&stats.h2d, &stats.compute, &stats.d2h];
        let start = all.iter().filter_map(|v| v.first()).map(|i| i.0).min();
        let end = all.iter().filter_map(|v| v.last()).map(|i| i.1).max();
        match (start, end) {
            (Some(s), Some(e)) => Dur::from_nanos(e - s),
            _ => Dur::ZERO,
        }
    }
}

impl std::fmt::Debug for PooledDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledDevice")
            .field("id", &self.id)
            .field("host", &self.host)
            .field("jobs", &self.jobs())
            .field("lanes", &self.lanes)
            .field("ring", &self.ring)
            .finish()
    }
}

/// A pool of [`PooledDevice`]s sharing nothing device-side: each has its
/// own DMA engines, compute FIFO, lanes and staging ring. Placement —
/// which stream of work lands on which device — is the caller's policy
/// (the core engine shards sessions across the pool).
///
/// Cloning shares the underlying devices.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<PooledDevice>,
}

impl DevicePool {
    /// Creates a pool with one device per configuration, each with
    /// `lanes` twin buffers and `ring_slots` pinned staging slots.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or `lanes`/`ring_slots` is zero.
    pub fn new(configs: &[DeviceConfig], lanes: usize, ring_slots: usize) -> Self {
        assert!(!configs.is_empty(), "pool needs at least one device");
        assert!(lanes > 0, "each device needs at least one lane");
        assert!(ring_slots > 0, "each device needs at least one ring slot");
        DevicePool {
            devices: configs
                .iter()
                .enumerate()
                .map(|(id, c)| PooledDevice::new(id, c, lanes, ring_slots, false))
                .collect(),
        }
    }

    /// Creates a pool of one host (CPU) device with `lanes` buffers in
    /// its compute queue. Its [`submit`](PooledDevice::submit) runs only
    /// the compute stream: no H2D, no D2H, no staging ring, so its DMA
    /// busy times stay zero. The job's kernel duration is the host's
    /// per-buffer scan time.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn host(lanes: usize) -> Self {
        assert!(lanes > 0, "each device needs at least one lane");
        DevicePool {
            devices: vec![PooledDevice::new(
                0,
                &DeviceConfig::tesla_c2050(),
                lanes,
                1,
                true,
            )],
        }
    }

    /// Creates a pool of `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `n`, `lanes` or `ring_slots` is zero.
    pub fn homogeneous(n: usize, config: &DeviceConfig, lanes: usize, ring_slots: usize) -> Self {
        assert!(n > 0, "pool needs at least one device");
        Self::new(&vec![config.clone(); n], lanes, ring_slots)
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the pool has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn device(&self, index: usize) -> &PooledDevice {
        &self.devices[index]
    }

    /// All devices, in index order.
    pub fn devices(&self) -> &[PooledDevice] {
        &self.devices
    }

    /// Attaches a telemetry recorder to every device in the pool (see
    /// [`PooledDevice::attach_recorder`]).
    pub fn attach_recorder(&self, recorder: &Rc<RefCell<TraceRecorder>>) {
        for dev in &self.devices {
            dev.attach_recorder(recorder);
        }
    }
}

/// Union of two sorted, internally-disjoint interval lists.
fn union_sorted(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut merged: Vec<Interval> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            let x = a[i];
            i += 1;
            x
        } else {
            let x = b[j];
            j += 1;
            x
        };
        match merged.last_mut() {
            Some(last) if next.0 <= last.1 => last.1 = last.1.max(next.1),
            _ => merged.push(next),
        }
    }
    merged
}

/// Total overlap between two sorted, internally-disjoint interval lists,
/// in nanoseconds.
fn intersection_ns(a: &[Interval], b: &[Interval]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut total = 0u64;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(mb: u64, kernel_ms: u64) -> BufferJob {
        BufferJob {
            bytes: mb << 20,
            cut_bytes: 8,
            kernel: Dur::from_millis(kernel_ms),
            host: HostMemKind::Pinned,
            variant: KernelVariant::Coalesced,
        }
    }

    #[test]
    fn interval_union_and_intersection() {
        let a = [(0, 10), (20, 30)];
        let b = [(5, 15), (30, 40)];
        assert_eq!(union_sorted(&a, &b), vec![(0, 15), (20, 40)]);
        assert_eq!(intersection_ns(&a, &b), 5);
        assert_eq!(intersection_ns(&a, &[]), 0);
        assert_eq!(union_sorted(&[], &[]), Vec::<Interval>::new());
    }

    #[test]
    fn slowdown_scales_kernels_and_death_flags_stick() {
        let run = |factor: Option<f64>| {
            let mut sim = Simulation::new();
            let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), 1, 4);
            if let Some(f) = factor {
                pool.device(0).set_slowdown(f);
            }
            for _ in 0..3 {
                pool.device(0)
                    .submit(&mut sim, job(64, 50), |_| {}, |_| {}, |_| {});
            }
            sim.run().as_nanos()
        };
        let healthy = run(None);
        // Setting the factor to exactly 1.0 is bit-identical to never
        // touching it.
        assert_eq!(healthy, run(Some(1.0)));
        // A 2× straggler pays exactly one extra kernel duration per job.
        let slowed = run(Some(2.0));
        assert_eq!(slowed - healthy, 3 * Dur::from_millis(50).as_nanos());

        let pool = DevicePool::homogeneous(2, &DeviceConfig::tesla_c2050(), 1, 4);
        assert!(pool.device(0).is_alive());
        pool.device(0).fail();
        assert!(!pool.device(0).is_alive(), "death is sticky");
        assert!(pool.device(1).is_alive(), "death is per-device");
        assert_eq!(pool.device(1).slowdown(), 1.0);
    }

    #[test]
    fn single_lane_serializes_copy_and_kernel() {
        // One lane = the §3.1 basic design: buffer k+1's H2D waits for
        // buffer k's kernel.
        let mut sim = Simulation::new();
        let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), 1, 4);
        for _ in 0..4 {
            pool.device(0)
                .submit(&mut sim, job(64, 50), |_| {}, |_| {}, |_| {});
        }
        let end = sim.run().as_millis_f64();
        // ≈ 4 × (12.4 copy + 50 kernel).
        assert!((end - 4.0 * 62.4).abs() < 5.0, "{end}ms");
        assert!(pool.device(0).overlap_fraction() < 0.1);
    }

    #[test]
    fn two_lanes_overlap_transfer_with_kernel() {
        let run = |lanes: usize| {
            let mut sim = Simulation::new();
            let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), lanes, 4);
            for _ in 0..6 {
                pool.device(0)
                    .submit(&mut sim, job(64, 50), |_| {}, |_| {}, |_| {});
            }
            (sim.run().as_millis_f64(), pool.device(0).overlap_fraction())
        };
        let (serialized, f1) = run(1);
        let (overlapped, f2) = run(2);
        assert!(
            overlapped < serialized * 0.88,
            "{overlapped} vs {serialized}"
        );
        // ≈ first copy + 6 kernels — compute-dictated (Figure 5).
        assert!(
            (overlapped - (12.4 + 6.0 * 50.0)).abs() < 10.0,
            "{overlapped}"
        );
        assert!(f2 > 0.8, "overlap fraction {f2}");
        assert!(f2 > f1);
    }

    #[test]
    fn devices_run_independently() {
        // The same load on 2 devices halves the makespan: nothing is
        // shared device-side.
        let run = |n: usize| {
            let mut sim = Simulation::new();
            let pool = DevicePool::homogeneous(n, &DeviceConfig::tesla_c2050(), 2, 4);
            for k in 0..8 {
                pool.device(k % n)
                    .submit(&mut sim, job(64, 50), |_| {}, |_| {}, |_| {});
            }
            sim.run().as_millis_f64()
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one * 0.6, "{two} !< 0.6 × {one}");
    }

    #[test]
    fn callbacks_fire_in_phase_order() {
        let mut sim = Simulation::new();
        let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), 2, 4);
        let log: Rc<RefCell<Vec<(&'static str, u64)>>> = Rc::default();
        let (l1, l2, l3) = (log.clone(), log.clone(), log.clone());
        pool.device(0).submit(
            &mut sim,
            job(64, 50),
            move |sim| l1.borrow_mut().push(("h2d", sim.now().as_nanos())),
            move |sim| l2.borrow_mut().push(("kernel", sim.now().as_nanos())),
            move |sim| l3.borrow_mut().push(("d2h", sim.now().as_nanos())),
        );
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, "h2d");
        assert_eq!(log[1].0, "kernel");
        assert_eq!(log[2].0, "d2h");
        assert!(log[0].1 < log[1].1 && log[1].1 <= log[2].1);
        assert_eq!(pool.device(0).jobs(), 1);
        assert_eq!(pool.device(0).bytes(), 64 << 20);
    }

    #[test]
    fn ring_semaphore_backpressures_submission() {
        // Callers holding ring slots across read+H2D stall when the
        // ring is exhausted; releasing in the transfer callback frees
        // the next reader.
        let mut sim = Simulation::new();
        let pool = DevicePool::homogeneous(1, &DeviceConfig::tesla_c2050(), 2, 1);
        let dev = pool.device(0).clone();
        let starts: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..3 {
            let d = dev.clone();
            let s = starts.clone();
            dev.ring().clone().acquire(&mut sim, 1, move |sim| {
                s.borrow_mut().push(sim.now().as_nanos());
                let d2 = d.clone();
                d.submit(
                    sim,
                    job(64, 50),
                    move |sim| d2.ring().release(sim, 1),
                    |_| {},
                    |_| {},
                );
            });
        }
        sim.run();
        let starts = starts.borrow();
        assert_eq!(starts.len(), 3);
        // With one slot, each acquisition waits for the previous H2D
        // (~12.4 ms) to release it.
        assert_eq!(starts[0], 0);
        assert!(starts[1] > 12_000_000, "{:?}", starts);
        assert!(starts[2] > starts[1] + 12_000_000, "{:?}", starts);
    }

    #[test]
    fn busy_span_and_utilization_accounting() {
        let mut sim = Simulation::new();
        let pool = DevicePool::homogeneous(2, &DeviceConfig::tesla_c2050(), 2, 4);
        pool.device(0)
            .submit(&mut sim, job(64, 40), |_| {}, |_| {}, |_| {});
        sim.run();
        let used = pool.device(0);
        let idle = pool.device(1);
        assert!(used.busy_span() > Dur::from_millis(52));
        assert_eq!(used.kernel_busy(), Dur::from_millis(40));
        assert_eq!(idle.busy_span(), Dur::ZERO);
        assert_eq!(idle.jobs(), 0);
        assert_eq!(idle.overlap_fraction(), 0.0);
    }

    #[test]
    fn host_device_runs_compute_only() {
        // Three jobs on a host device cost exactly three kernels: no
        // copy precedes the first, none follows the last.
        let mut sim = Simulation::new();
        let pool = DevicePool::host(2);
        let dev = pool.device(0);
        for _ in 0..3 {
            dev.submit(&mut sim, job(64, 50), |_| {}, |_| {}, |_| {});
        }
        assert_eq!(sim.run().as_nanos(), 3 * Dur::from_millis(50).as_nanos());
        assert_eq!(dev.transfer_busy(), Dur::ZERO);
        assert_eq!(dev.d2h_busy(), Dur::ZERO);
        assert_eq!(dev.kernel_busy(), Dur::from_millis(150));
        assert_eq!(dev.jobs(), 3);
        assert_eq!(dev.bytes(), 3 * (64 << 20));
        assert_eq!(dev.overlap_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_panics() {
        let _ = DevicePool::new(&[], 2, 4);
    }
}
