//! Timing constants, each tied to a paper measurement.
//!
//! This is the **only** place where absolute times enter the model; all
//! end-to-end results are emergent from the mechanisms that consume these
//! constants. Paper references:
//!
//! * Table 1 — GPU characteristics of the Tesla C2050 testbed.
//! * Figure 3 — host↔device bandwidth vs buffer size and memory kind.
//! * Figure 5 — serialized vs concurrent copy+execution.
//! * Figure 6 — pageable vs pinned allocation cost.
//! * Table 2 — device execution time and kernel-launch overhead.
//! * §5.3 — host CPU (12× Xeon X5650 @ 2.67 GHz) chunking baselines.

/// PCIe host→device sustained bandwidth, bytes/s (Table 1: 5.406 GBps).
pub const PCIE_H2D_BW: f64 = 5.406e9;

/// PCIe device→host sustained bandwidth, bytes/s (Table 1: 5.129 GBps).
pub const PCIE_D2H_BW: f64 = 5.129e9;

/// Per-transfer DMA setup latency from/to pinned host memory, ns.
///
/// Calibrated to Figure 3: pinned throughput saturates around 256 KB,
/// i.e. setup ≈ 20 % of a 256 KB transfer (47 µs at 5.4 GB/s).
pub const DMA_SETUP_PINNED_NS: u64 = 10_000;

/// Per-transfer DMA setup latency for pageable host memory, ns.
///
/// Pageable transfers go through a driver staging path (extra page
/// bookkeeping per transfer); Figure 3 shows pageable throughput both
/// ramping later and starting lower than pinned.
pub const DMA_SETUP_PAGEABLE_NS: u64 = 60_000;

/// Host memcpy bandwidth for staging pageable buffers into DMA-able
/// memory, bytes/s. Makes large pageable transfers asymptote to
/// `1/(1/PCIE + 1/STAGING)` ≈ 3.5 GB/s — within the same decade as
/// pinned on Figure 3's log axis ("not significant" difference, §4.1.1).
pub const PAGEABLE_STAGING_BW: f64 = 10.0e9;

/// SAN / reader I/O bandwidth at the host, bytes/s (Table 1: 2 GBps).
pub const READER_IO_BW: f64 = 2.0e9;

/// Reader I/O per-request latency, ns (SAN round trip).
pub const READER_IO_LATENCY_NS: u64 = 50_000;

/// GPU core clock, Hz (§5.3: 1.15 GHz).
pub const GPU_CLOCK_HZ: f64 = 1.15e9;

/// Host CPU clock, Hz (§5.3: Xeon X5650 @ 2.67 GHz; also the RDTSC rate
/// of Table 2).
pub const HOST_CLOCK_HZ: f64 = 2.67e9;

/// Device global-memory peak bandwidth, bytes/s (Table 1: 144 GBps).
pub const DEVICE_MEM_BW: f64 = 144.0e9;

/// Device global-memory access latency in GPU cycles (Table 1: 400–600;
/// we use the midpoint).
pub const DEVICE_MEM_LATENCY_CYCLES: u64 = 500;

/// Time to re-open a DRAM row: `PRE` + `ACT` on the bank's sense
/// amplifier, ns (§2.3: "both ACT and PRE commands are high latency
/// operations"). GDDR5 tRP + tRCD ≈ 2 × 15–20 ns.
pub const ROW_SWITCH_NS: f64 = 35.0;

/// Probability that an *uncoalesced* transaction lands on a closed row.
///
/// With hundreds of warps interleaving scattered sub-stream reads, the
/// per-bank row locality of any single thread is mostly destroyed
/// (§2.3/§3.2 "memory to be accessed randomly across multiple bank rows,
/// ... very high number of bank conflicts"); an FR-FCFS memory controller
/// recovers part of it by servicing queued row hits first, which is why
/// the effective value sits between the no-reordering walk (≈1.0) and a
/// deep-reordering walk (≈0.1) of the bank state machine — see the
/// cross-validation test in `dram`. Calibrated jointly with
/// [`GPU_RABIN_CYCLES_PER_BYTE`] so the basic:coalesced kernel-time ratio
/// lands near Figure 11's ≈8×.
pub const SCATTERED_ROW_MISS_P: f64 = 0.4;

/// Fraction of coalesced (streaming) transactions that cross into a new
/// row: transaction size / row size = 128 / 2048.
pub const STREAMING_ROW_MISS_P: f64 = 128.0 / 2048.0;

/// GPU compute cost of the table-driven Rabin sliding-window update, in
/// GPU cycles per byte per thread.
///
/// The update is a strict dependency chain (shift, table lookup, xor,
/// compare) with no ILP on an in-order scalar core (§5.2.2 discusses the
/// lack of out-of-order execution and RAW stalls). Calibrated so the
/// fully-optimized kernel sustains ≈9–10 GB/s, matching Figure 11's
/// ≈100 ms per GB for the coalesced kernel.
pub const GPU_RABIN_CYCLES_PER_BYTE: f64 = 52.0;

/// Extra per-byte cycles the coalesced kernel pays to stage tiles
/// through shared memory (cooperative loads + barrier).
pub const COALESCED_STAGING_CYCLES_PER_BYTE: f64 = 2.0;

/// GPU compute cost of the Gear rolling-hash update, in GPU cycles per
/// byte per thread.
///
/// The gear update (`hash = (hash << 1) + table[byte]`) is one shift,
/// one table lookup and one add — half the dependency chain of the
/// Rabin push/pop pair (shift, *two* table lookups, xor, compare) — so
/// its per-byte latency on the same in-order scalar core is roughly
/// half of [`GPU_RABIN_CYCLES_PER_BYTE`]. The boundary test also needs
/// no separate mask-and-compare against a marker: `hash & mask` feeds
/// a branch directly.
pub const GPU_GEAR_CYCLES_PER_BYTE: f64 = 26.0;

/// Warp-divergence penalty per chunk-boundary hit, GPU cycles (§5.2.2:
/// divergent branches serialize the warp; boundary recording is the
/// data-dependent branch).
pub const DIVERGENCE_CYCLES_PER_HIT: f64 = 200.0;

/// Kernel launch overhead at the host, ns (Table 2: ≈0.03 ms for small
/// buffers).
pub const KERNEL_LAUNCH_NS: u64 = 30_000;

/// Host CPU cost of the same Rabin update, cycles per byte (one thread).
///
/// Calibrated so 12 Xeon threads sustain ≈0.40 GB/s with a scalable
/// allocator, matching the host-only bar of Figure 12 (§5.3: "naive GPU
/// ... 2X improvement over host-only optimized implementation" at
/// ≈0.9 GB/s).
pub const CPU_RABIN_CYCLES_PER_BYTE: f64 = 75.0;

/// Worker threads of the host-only pthreads baseline (§5.1, §5.3: 12
/// threads on the two six-core Xeon X5650s).
pub const HOST_THREADS: u64 = 12;

/// Per-thread cost of the host baseline's SPMD spawn + boundary-merge
/// synchronization (§5.1 step 3), charged once per pipeline buffer,
/// ns.
pub const HOST_SYNC_NS_PER_THREAD: u64 = 50_000;

/// Throughput fraction lost to serialized `malloc` under contention
/// (§5.1: "dynamic memory allocation can become a bottleneck due to the
/// serialization required to avoid race conditions").
pub const MALLOC_CONTENTION_LOSS: f64 = 0.25;

/// Residual allocator overhead with the Hoard scalable allocator (§5.1).
pub const HOARD_CONTENTION_LOSS: f64 = 0.05;

/// Pageable host allocation: base latency ns + bytes/s throughput for
/// the faulting `bzero` pass (Figure 6, "Pageable Allocation" series —
/// Linux optimistic allocation means the cost is the touch pass).
pub const PAGEABLE_ALLOC_BASE_NS: u64 = 200_000;
/// See [`PAGEABLE_ALLOC_BASE_NS`].
pub const PAGEABLE_ALLOC_BW: f64 = 3.0e9;

/// Pinned allocation: base latency ns + per-4KiB-page pinning cost ns
/// (Figure 6, "Pinned Allocation" series: ≈10× pageable; 16 MB ≈ 40 ms,
/// 256 MB ≈ 650 ms).
pub const PINNED_ALLOC_BASE_NS: u64 = 1_000_000;
/// See [`PINNED_ALLOC_BASE_NS`].
pub const PIN_PAGE_NS: u64 = 10_000;

/// Page size assumed by the pinning cost model, bytes.
pub const PAGE_SIZE: usize = 4096;

/// Host memcpy bandwidth between pageable and pinned regions, bytes/s
/// (Figure 6, "Memcpy PageableToPinned" series).
pub const HOST_MEMCPY_BW: f64 = 10.0e9;

/// Host-side per-buffer pipeline bookkeeping (queueing, upcall dispatch),
/// ns. Small but keeps zero-byte operations from being free.
pub const HOST_STAGE_OVERHEAD_NS: u64 = 20_000;

/// Store-thread cost per emitted chunk boundary at the host, ns
/// (boundary adjustment + upcall batching, §3.1).
pub const STORE_PER_CUT_NS: u64 = 150;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_matches_table1() {
        assert_eq!(PCIE_H2D_BW, 5.406e9);
        assert_eq!(PCIE_D2H_BW, 5.129e9);
    }

    #[test]
    fn kernel_throughput_targets() {
        // Coalesced kernel ≈ compute bound at ~9.5 GB/s (Fig. 11 ~100ms/GB).
        let total_cycles_per_sec = 448.0 * GPU_CLOCK_HZ; // 14 SMs × 32 SPs
        let coalesced =
            total_cycles_per_sec / (GPU_RABIN_CYCLES_PER_BYTE + COALESCED_STAGING_CYCLES_PER_BYTE);
        assert!(
            coalesced > 8.0e9 && coalesced < 11.0e9,
            "coalesced {coalesced}"
        );
        // Gear's shift-add update roughly halves the per-byte chain, so
        // the compute-bound coalesced gear kernel lands near 2x.
        let gear =
            total_cycles_per_sec / (GPU_GEAR_CYCLES_PER_BYTE + COALESCED_STAGING_CYCLES_PER_BYTE);
        assert!(gear > 1.6e10 && gear < 2.2e10, "gear {gear}");
    }

    #[test]
    fn basic_kernel_row_conflict_bound() {
        // Basic kernel ≈ row-conflict bound near 1.1 GB/s (Fig. 11
        // ~875ms/GB): one 32B transaction per byte, SCATTERED_ROW_MISS_P
        // row misses, 16 banks in parallel.
        let per_byte_ns = SCATTERED_ROW_MISS_P * ROW_SWITCH_NS / 16.0;
        let tput = 1e9 / per_byte_ns; // bytes/s
        assert!(tput > 0.9e9 && tput < 1.4e9, "basic {tput}");
    }

    #[test]
    fn cpu_baseline_target() {
        // 12 threads with Hoard ≈ 0.4 GB/s (Fig. 12 host-optimized bar).
        let per_thread = HOST_CLOCK_HZ / CPU_RABIN_CYCLES_PER_BYTE;
        let twelve = per_thread * HOST_THREADS as f64 * (1.0 - HOARD_CONTENTION_LOSS);
        assert!(twelve > 0.35e9 && twelve < 0.45e9, "cpu {twelve}");
    }

    #[test]
    fn pinned_alloc_order_of_magnitude_slower() {
        // Fig. 6: pinned allocation ≈ 10× pageable at 64 MB.
        let bytes = 64usize << 20;
        let pageable = PAGEABLE_ALLOC_BASE_NS as f64 + bytes as f64 / PAGEABLE_ALLOC_BW * 1e9;
        let pinned = PINNED_ALLOC_BASE_NS as f64 + (bytes / PAGE_SIZE) as f64 * PIN_PAGE_NS as f64;
        let ratio = pinned / pageable;
        assert!(ratio > 5.0 && ratio < 15.0, "ratio {ratio}");
    }
}
