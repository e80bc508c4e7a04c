//! A functional + timing model of a Fermi-class GPU (NVidia Tesla C2050)
//! for the Shredder reproduction.
//!
//! The paper offloads content-based chunking to a Tesla C2050 over PCIe
//! (§2.2–§2.3) and derives its gains from three optimizations:
//! concurrent copy/execution (§4.1.1), pinned ring buffers (§4.1.2), and
//! memory coalescing in the chunking kernel (§4.3). This crate rebuilds
//! the hardware those optimizations exercise:
//!
//! * [`config`]/[`calibration`] — the C2050's published characteristics
//!   (paper Table 1) and every timing constant, each documented with the
//!   paper measurement it is calibrated against.
//! * [`dram`] — the GDDR5 bank/row model of §2.3: sense amplifiers,
//!   `ACT`/`PRE` penalties, bank conflicts; both a cycle-walking
//!   [`BankArray`](dram::BankArray) for address traces and a closed-form
//!   [`AccessModel`](dram::AccessModel) used at kernel scale (they are
//!   cross-validated in tests).
//! * [`coalesce`] — the half-warp coalescing rules of §4.3 (element size
//!   4/8/16 B, Nth thread → Nth element, 16-byte segment alignment).
//! * [`hostmem`] — pageable vs pinned host memory: allocation cost,
//!   staging copies, and the cost of the pinned circular ring of §4.1.2
//!   (its slots are the [`pool`]'s per-device ring semaphore).
//! * [`dma`] — the PCIe DMA engine with the Figure 3 bandwidth behaviour
//!   (per-transfer setup cost, pageable staging penalty).
//! * [`simt`] — SIMT execution timing: warps, occupancy-based latency
//!   hiding, warp-divergence penalties (§5.2.2).
//! * [`kernel`] — the chunking kernels (basic §3.1 and coalesced §4.3,
//!   each with a Rabin and a Gear detector) and the one launch path,
//!   [`ChunkKernel::run`](kernel::ChunkKernel::run): the *functional*
//!   half scans the real bytes of a buffer, producing raw chunk
//!   boundaries *bit-identical* to the sequential CPU chunker, and the
//!   timing half simulates the access pattern. A launch whose region is
//!   longer than device global memory (2.6 GB on the C2050, §5.3 — the
//!   reason Shredder streams bounded twin buffers) fails with
//!   [`GpuError::OutOfMemory`].
//! * [`executor`] — the device-side engines (H2D DMA, D2H DMA, compute)
//!   as discrete-event resources, supporting synchronous or
//!   stream-overlapped operation (double buffering).
//! * [`pool`] — a multi-device pool: N independent executors, each with
//!   a per-device H2D/compute/D2H stream triple, event-chained double
//!   buffering, staging-ring backpressure and measured copy–compute
//!   overlap.
//!
//! # Hardware substitution
//!
//! No physical GPU is present; see `DESIGN.md` §1. The kernels execute
//! for real (producing exact boundaries), while *time* is simulated from
//! the mechanisms above. All constants are calibrated to the paper's own
//! microbenchmarks (Table 1, Figures 3/5/6, Table 2); end-to-end numbers
//! (Figures 9/11/12) are emergent.
//!
//! # Examples
//!
//! ```
//! use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
//! use shredder_gpu::{DeviceConfig, GpuError};
//! use shredder_rabin::ChunkParams;
//!
//! let config = DeviceConfig::tesla_c2050();
//! let data = vec![0x5au8; 1 << 20];
//! let kernel = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Coalesced);
//! let out = kernel.run(&config, &data).unwrap();
//! assert!(out.stats.duration.as_millis_f64() > 0.0);
//!
//! // A region the device cannot hold never launches.
//! let tiny = DeviceConfig { global_mem_bytes: 1 << 10, ..config };
//! assert!(matches!(kernel.run(&tiny, &data), Err(GpuError::OutOfMemory { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod coalesce;
pub mod config;
pub mod dma;
pub mod dram;
pub mod executor;
pub mod hostmem;
pub mod kernel;
pub mod pool;
pub mod simt;
pub mod stream;

pub use config::DeviceConfig;
pub use dma::DmaModel;
pub use executor::GpuExecutor;
pub use hostmem::{HostAllocModel, HostMemKind, PinnedRing};
pub use kernel::GpuError;
pub use pool::{BufferJob, DevicePool, PooledDevice};
pub use stream::{Event, Stream};
