//! The chunking kernels: functional execution plus access-pattern timing.
//!
//! Two memory-access designs, as in the paper:
//!
//! * [`KernelVariant::Basic`] (§3.1) — every thread strides through its
//!   own sub-stream reading global memory directly. Half-warp loads are
//!   scattered (one 32 B transaction per lane) and warp interleaving
//!   destroys row locality, so the kernel is bound by DRAM bank conflicts
//!   (§3.2).
//! * [`KernelVariant::Coalesced`] (§4.3, Figure 10) — threads of a block
//!   cooperatively stage 48 KB tiles into shared memory with coalesced
//!   128 B transactions, then fingerprint out of shared memory at L1-like
//!   latency. Figure 11 measures this at ≈8× the basic kernel.
//!
//! crossed with two boundary detectors: the paper's Rabin fingerprint
//! and the Gear/FastCDC rolling hash
//! ([`shredder_rabin::gear`]), whose one-shift-one-add update roughly
//! halves the per-byte dependency chain ([`KernelVariant::Gear`],
//! [`KernelVariant::GearCoalesced`]).
//!
//! Variants sharing a detector produce **identical raw cut
//! candidates** — the functional scan reuses the same
//! [`BoundaryKernel`] implementations as the CPU chunkers — and tests
//! enforce equality. Only the *timing descriptors* differ.
//!
//! The functional half scans each buffer once, sequentially. The §3.1
//! split into one overlapped substream per thread exists in the timing
//! half ([`ChunkKernel::thread_count`] feeds the SIMT model) and in the
//! tests, which check that the detector's substream scan at the
//! launch's thread count finds exactly the cuts of the single scan.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use shredder_des::Dur;
use shredder_rabin::boundary::BoundaryKernel;
use shredder_rabin::{ChunkParams, GearKernel, RabinKernel, RawCut};

use crate::calibration;
use crate::coalesce::{
    classify_half_warp, cooperative_addresses, substream_addresses, CoalesceClass,
};
use crate::config::DeviceConfig;
use crate::device::{BufferId, Device, GpuError};
use crate::dram::{AccessModel, AccessPattern, Locality, MemCost};
use crate::simt::{KernelWorkload, SimtEngine, SimtReport};

/// Which chunking kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelVariant {
    /// Rabin scan, direct per-thread sub-stream reads from global
    /// memory (§3.1).
    Basic,
    /// Rabin scan with cooperative shared-memory staging and memory
    /// coalescing (§4.3).
    Coalesced,
    /// Gear/FastCDC scan with the basic (scattered) access pattern.
    Gear,
    /// Gear/FastCDC scan with coalesced shared-memory staging — the
    /// fastest kernel: the cheap shift-add update halves the compute
    /// bound on top of §4.3's memory fixes.
    GearCoalesced,
}

impl KernelVariant {
    /// All variants, for sweeps.
    pub const ALL: [KernelVariant; 4] = [
        KernelVariant::Basic,
        KernelVariant::Coalesced,
        KernelVariant::Gear,
        KernelVariant::GearCoalesced,
    ];

    /// Whether this variant runs the Gear/FastCDC boundary detector
    /// (as opposed to the paper's Rabin fingerprint).
    pub fn is_gear(self) -> bool {
        matches!(self, KernelVariant::Gear | KernelVariant::GearCoalesced)
    }

    /// Whether this variant stages tiles through shared memory with
    /// coalesced transactions (§4.3).
    pub fn is_coalesced(self) -> bool {
        matches!(
            self,
            KernelVariant::Coalesced | KernelVariant::GearCoalesced
        )
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelVariant::Basic => f.write_str("basic"),
            KernelVariant::Coalesced => f.write_str("coalesced"),
            KernelVariant::Gear => f.write_str("gear"),
            KernelVariant::GearCoalesced => f.write_str("gear-coalesced"),
        }
    }
}

/// Execution statistics of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Variant executed.
    pub variant: KernelVariant,
    /// Input bytes scanned.
    pub bytes: u64,
    /// Logical threads launched.
    pub threads: u32,
    /// Raw cut count found (drives the divergence penalty).
    pub cuts_found: usize,
    /// Global-memory cost.
    pub mem: MemCost,
    /// SIMT timing breakdown.
    pub simt: SimtReport,
    /// Total kernel duration (== `simt.duration`).
    pub duration: Dur,
}

impl KernelStats {
    /// Effective chunking bandwidth of the kernel alone, bytes/s.
    pub fn effective_bandwidth(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / self.duration.as_secs_f64()
    }
}

/// Output of a kernel launch: real boundaries plus simulated timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelOutput {
    /// Raw boundary candidates (no size policy applied — the Store
    /// thread applies that on the host, §7.3). Rabin variants emit only
    /// strict candidates; gear variants tag loose-mask hits with
    /// strictness for the FastCDC post-pass.
    pub raw_cuts: Vec<RawCut>,
    /// Execution statistics.
    pub stats: KernelStats,
}

impl KernelOutput {
    /// The candidate offsets alone (report/test helper).
    pub fn cut_offsets(&self) -> Vec<u64> {
        shredder_rabin::cut_offsets(&self.raw_cuts)
    }
}

/// A configured, launchable chunking kernel.
///
/// # Examples
///
/// ```
/// use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
/// use shredder_gpu::{Device, DeviceConfig};
/// use shredder_rabin::{chunker::raw_cuts, ChunkParams};
///
/// let mut dev = Device::new(DeviceConfig::tesla_c2050());
/// let data: Vec<u8> = (0..1u32 << 18).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
/// let buf = dev.alloc(data.len())?;
/// dev.memcpy_h2d(buf, &data)?;
///
/// let params = ChunkParams::paper();
/// let out = ChunkKernel::new(params.clone(), KernelVariant::Basic).launch(&dev, buf)?;
/// // GPU boundaries are bit-identical to the sequential CPU scan.
/// assert_eq!(out.cut_offsets(), raw_cuts(&data, &params));
/// # Ok::<(), shredder_gpu::GpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChunkKernel {
    params: ChunkParams,
    variant: KernelVariant,
    /// Thread blocks resident per SM for the launch-size computation.
    blocks_per_sm: u32,
    /// The boundary detector, built on first use so that `new` never
    /// panics on parameters the caller has not validated yet.
    detector: OnceLock<Detector>,
}

/// The concrete detector behind a [`ChunkKernel`].
#[derive(Debug, Clone)]
enum Detector {
    Rabin(Box<RabinKernel>),
    Gear(GearKernel),
}

impl ChunkKernel {
    /// Creates a kernel with paper-default launch geometry.
    pub fn new(params: ChunkParams, variant: KernelVariant) -> Self {
        ChunkKernel {
            params,
            variant,
            blocks_per_sm: 8,
            detector: OnceLock::new(),
        }
    }

    /// Overrides the blocks-per-SM launch factor.
    pub fn with_blocks_per_sm(mut self, blocks_per_sm: u32) -> Self {
        assert!(blocks_per_sm > 0, "blocks_per_sm must be non-zero");
        self.blocks_per_sm = blocks_per_sm;
        self
    }

    /// The kernel variant.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The chunking parameters.
    pub fn params(&self) -> &ChunkParams {
        &self.params
    }

    /// The boundary detector behind this variant: Rabin for
    /// `Basic`/`Coalesced`, Gear (with [`shredder_rabin::GearParams`]
    /// matched to the Rabin parameters) for the gear variants.
    ///
    /// Built once, on the first call, and shared by every later
    /// [`run`](Self::run) and [`apply_policy`](Self::apply_policy).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`ChunkParams::validate`].
    pub fn boundary(&self) -> &dyn BoundaryKernel {
        let detector = self.detector.get_or_init(|| {
            if self.variant.is_gear() {
                Detector::Gear(GearKernel::matched(&self.params))
            } else {
                Detector::Rabin(Box::new(RabinKernel::new(&self.params)))
            }
        });
        match detector {
            Detector::Rabin(k) => k.as_ref(),
            Detector::Gear(k) => k,
        }
    }

    /// Bytes of lookback the detector's rolling state needs across
    /// region (and pipeline-buffer) seams.
    pub fn overlap(&self) -> usize {
        if self.variant.is_gear() {
            shredder_rabin::GEAR_WINDOW - 1
        } else {
            self.params.window.saturating_sub(1)
        }
    }

    /// Applies the detector's chunk-size policy (Rabin min/max or
    /// FastCDC normalization) to a raw candidate list — the host
    /// Store-thread post-pass (§7.3).
    pub fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64> {
        self.boundary().apply_policy(raw, len)
    }

    /// Total logical threads for a buffer of `bytes` on `config`.
    ///
    /// The paper divides the buffer into "equal sized sub-streams, as
    /// many as the number of threads" (§3.1); we launch the full
    /// occupancy-limit grid unless the buffer is too small to give every
    /// thread at least one window.
    pub fn thread_count(&self, config: &DeviceConfig, bytes: usize) -> u32 {
        let full = config.sms * config.threads_per_block * self.blocks_per_sm;
        let max_useful = (bytes / (self.overlap() + 1)) as u32;
        full.min(max_useful).max(1)
    }

    /// Launches the kernel over a device buffer.
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidBuffer`] if the buffer is not allocated.
    pub fn launch(&self, device: &Device, buf: BufferId) -> Result<KernelOutput, GpuError> {
        let data = device.buffer(buf)?;
        self.run(device.config(), data)
    }

    /// Runs the kernel over a byte slice directly (the device-buffer-less
    /// path used by unit tests and calibration sweeps).
    pub fn run(&self, config: &DeviceConfig, data: &[u8]) -> Result<KernelOutput, GpuError> {
        let threads = self.thread_count(config, data.len());

        // ----- Functional half: real chunk boundaries. -----
        // One sequential scan: the modeled threads' overlapped
        // substreams find the same cuts (tested).
        let raw_cuts = self.boundary().raw_cuts(data);

        // ----- Timing half: access-pattern descriptors. -----
        let model = AccessModel::new(config);
        let bytes = data.len() as u64;
        // Per-byte compute: the detector's rolling-update chain.
        let scan_cycles = if self.variant.is_gear() {
            calibration::GPU_GEAR_CYCLES_PER_BYTE
        } else {
            calibration::GPU_RABIN_CYCLES_PER_BYTE
        };
        let (mem, compute_cycles_per_byte) = if self.variant.is_coalesced() {
            // Tile staging: one coalesced 128 B transaction per
            // segment; the scan then runs from shared memory.
            let pattern = AccessPattern {
                transactions: bytes.div_ceil(config.txn_bytes_coalesced as u64),
                bytes_per_txn: config.txn_bytes_coalesced,
                locality: Locality::Streaming,
            };
            (
                model.cost(pattern),
                scan_cycles + calibration::COALESCED_STAGING_CYCLES_PER_BYTE,
            )
        } else {
            // One byte-load per input byte; each half-warp
            // instruction serializes into 16 scattered transactions,
            // i.e. one 32 B transaction per byte scanned.
            let pattern = AccessPattern {
                transactions: bytes,
                bytes_per_txn: config.txn_bytes_uncoalesced,
                locality: Locality::Scattered,
            };
            (model.cost(pattern), scan_cycles)
        };

        // Boundary hits cause warp divergence (§5.2.2).
        let divergence_cycles = raw_cuts.len() as f64 * calibration::DIVERGENCE_CYCLES_PER_HIT;

        let workload = KernelWorkload {
            bytes,
            threads,
            threads_per_block: config.threads_per_block,
            compute_cycles_per_byte,
            divergence_cycles,
            mem,
        };
        let simt = SimtEngine::new(config).execute(&workload);

        let stats = KernelStats {
            variant: self.variant,
            bytes,
            threads,
            cuts_found: raw_cuts.len(),
            mem,
            simt,
            duration: simt.duration,
        };
        Ok(KernelOutput { raw_cuts, stats })
    }

    /// Classifies the load pattern this kernel's half-warps issue —
    /// used by tests to prove the coalesced variant actually satisfies
    /// the §4.3 conditions and the basic one does not.
    pub fn half_warp_class(&self, config: &DeviceConfig, bytes: usize) -> CoalesceClass {
        let lanes = config.half_warp() as usize;
        if self.variant.is_coalesced() {
            let addrs = cooperative_addresses(0, lanes, 4);
            classify_half_warp(&addrs, 4)
        } else {
            let threads = self.thread_count(config, bytes);
            let stride = (bytes as u64 / threads as u64).max(1);
            // Byte loads at sub-stream stride: never coalescable.
            let addrs = substream_addresses(0, lanes, stride);
            classify_half_warp(&addrs, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_rabin::chunker::raw_cuts;

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

    fn config() -> DeviceConfig {
        DeviceConfig::tesla_c2050()
    }

    /// The cuts the launch's modeled threads would find, each scanning
    /// its own overlapped substream (§3.1).
    fn substream_cuts(kernel: &ChunkKernel, data: &[u8]) -> Vec<RawCut> {
        let threads = kernel.thread_count(&config(), data.len());
        kernel
            .boundary()
            .raw_cuts_substreams(data, threads as usize)
    }

    #[test]
    fn all_variants_match_their_sequential_scan() {
        let params = ChunkParams::paper();
        let data = pseudo_random(2 << 20, 1);
        for variant in KernelVariant::ALL {
            let kernel = ChunkKernel::new(params.clone(), variant);
            let expected = kernel.boundary().raw_cuts(&data);
            assert_eq!(substream_cuts(&kernel, &data), expected, "{variant}");
            let out = kernel.run(&config(), &data).unwrap();
            assert_eq!(out.raw_cuts, expected, "{variant}");
        }
        // And the Rabin variants reproduce the free-function scan.
        let out = ChunkKernel::new(params.clone(), KernelVariant::Basic)
            .run(&config(), &data)
            .unwrap();
        assert_eq!(out.cut_offsets(), raw_cuts(&data, &params));
    }

    #[test]
    fn variants_agree_with_each_other() {
        let params = ChunkParams::paper();
        let data = pseudo_random(1 << 20, 9);
        let run = |v| {
            ChunkKernel::new(params.clone(), v)
                .run(&config(), &data)
                .unwrap()
        };
        assert_eq!(
            run(KernelVariant::Basic).raw_cuts,
            run(KernelVariant::Coalesced).raw_cuts
        );
        assert_eq!(
            run(KernelVariant::Gear).raw_cuts,
            run(KernelVariant::GearCoalesced).raw_cuts
        );
    }

    #[test]
    fn gear_kernels_beat_their_rabin_counterparts() {
        let params = ChunkParams::paper();
        let data = pseudo_random(8 << 20, 10);
        let dur = |v| {
            ChunkKernel::new(params.clone(), v)
                .run(&config(), &data)
                .unwrap()
                .stats
                .duration
                .as_secs_f64()
        };
        // Scattered kernels are memory-bound, so gear gains little
        // there; the coalesced pair is compute-bound and gear's cheap
        // update shows up in full.
        assert!(dur(KernelVariant::Gear) <= dur(KernelVariant::Basic));
        let ratio = dur(KernelVariant::Coalesced) / dur(KernelVariant::GearCoalesced);
        assert!((1.5..2.5).contains(&ratio), "gear speedup {ratio}");
    }

    #[test]
    fn gear_coalesced_bandwidth_reflects_cheap_update() {
        let params = ChunkParams::paper();
        let data = pseudo_random(16 << 20, 11);
        let out = ChunkKernel::new(params, KernelVariant::GearCoalesced)
            .run(&config(), &data)
            .unwrap();
        let gbps = out.stats.effective_bandwidth() / 1e9;
        assert!(gbps > 12.0 && gbps < 22.0, "{gbps} GB/s");
    }

    #[test]
    fn coalesced_is_several_times_faster() {
        let params = ChunkParams::paper();
        let data = pseudo_random(8 << 20, 2);
        let basic = ChunkKernel::new(params.clone(), KernelVariant::Basic)
            .run(&config(), &data)
            .unwrap();
        let coal = ChunkKernel::new(params, KernelVariant::Coalesced)
            .run(&config(), &data)
            .unwrap();
        let speedup = basic.stats.duration.as_secs_f64() / coal.stats.duration.as_secs_f64();
        assert!(speedup > 5.0 && speedup < 12.0, "speedup {speedup}");
    }

    #[test]
    fn basic_kernel_bandwidth_near_paper() {
        // ≈1.1 GB/s (Figure 11: ~875 ms/GB).
        let params = ChunkParams::paper();
        let data = pseudo_random(16 << 20, 3);
        let out = ChunkKernel::new(params, KernelVariant::Basic)
            .run(&config(), &data)
            .unwrap();
        let gbps = out.stats.effective_bandwidth() / 1e9;
        assert!(gbps > 0.8 && gbps < 1.6, "{gbps} GB/s");
    }

    #[test]
    fn coalesced_kernel_bandwidth_near_paper() {
        // ≈9–10 GB/s (Figure 11: ~100 ms/GB).
        let params = ChunkParams::paper();
        let data = pseudo_random(16 << 20, 4);
        let out = ChunkKernel::new(params, KernelVariant::Coalesced)
            .run(&config(), &data)
            .unwrap();
        let gbps = out.stats.effective_bandwidth() / 1e9;
        assert!(gbps > 6.0 && gbps < 12.0, "{gbps} GB/s");
    }

    #[test]
    fn half_warp_classification() {
        let params = ChunkParams::paper();
        let cfg = config();
        assert_eq!(
            ChunkKernel::new(params.clone(), KernelVariant::Basic).half_warp_class(&cfg, 1 << 20),
            CoalesceClass::Serialized
        );
        assert_eq!(
            ChunkKernel::new(params, KernelVariant::Coalesced).half_warp_class(&cfg, 1 << 20),
            CoalesceClass::Coalesced
        );
    }

    #[test]
    fn launch_via_device_buffer() {
        let params = ChunkParams::paper();
        let data = pseudo_random(1 << 19, 5);
        let mut dev = Device::new(config());
        let buf = dev.alloc(data.len()).unwrap();
        dev.memcpy_h2d(buf, &data).unwrap();
        let out = ChunkKernel::new(params.clone(), KernelVariant::Coalesced)
            .launch(&dev, buf)
            .unwrap();
        assert_eq!(out.cut_offsets(), raw_cuts(&data, &params));
    }

    #[test]
    fn empty_and_tiny_buffers() {
        let params = ChunkParams::paper();
        for len in [0usize, 1, 47, 48, 100] {
            let data = pseudo_random(len, 6);
            let kernel = ChunkKernel::new(params.clone(), KernelVariant::Basic);
            let out = kernel.run(&config(), &data).unwrap();
            assert_eq!(out.cut_offsets(), raw_cuts(&data, &params), "len {len}");
            assert_eq!(substream_cuts(&kernel, &data), out.raw_cuts, "len {len}");
        }
    }

    #[test]
    fn thread_count_respects_buffer_size() {
        let params = ChunkParams::paper();
        let cfg = config();
        let k = ChunkKernel::new(params, KernelVariant::Basic);
        let full = k.thread_count(&cfg, 64 << 20);
        assert_eq!(full, cfg.sms * cfg.threads_per_block * 8);
        assert_eq!(k.thread_count(&cfg, 0), 1);
        assert!(k.thread_count(&cfg, 4800) <= 100);
    }

    #[test]
    fn detector_is_built_once_per_kernel() {
        for variant in [KernelVariant::Basic, KernelVariant::Gear] {
            let k = ChunkKernel::new(ChunkParams::paper(), variant);
            assert!(std::ptr::addr_eq(k.boundary(), k.boundary()), "{variant}");
        }
    }

    #[test]
    fn invalid_params_do_not_panic_at_construction() {
        let params = ChunkParams {
            window: 0,
            ..ChunkParams::paper()
        };
        let k = ChunkKernel::new(params, KernelVariant::Basic);
        assert_eq!(k.overlap(), 0);
    }

    #[test]
    fn stats_are_consistent() {
        let params = ChunkParams::paper();
        let data = pseudo_random(4 << 20, 7);
        let out = ChunkKernel::new(params, KernelVariant::Coalesced)
            .run(&config(), &data)
            .unwrap();
        assert_eq!(out.stats.cuts_found, out.raw_cuts.len());
        assert_eq!(out.stats.bytes, data.len() as u64);
        assert_eq!(out.stats.duration, out.stats.simt.duration);
        assert!(out.stats.effective_bandwidth() > 0.0);
    }
}
