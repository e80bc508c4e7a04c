//! Device configuration: the architecture parameters of §2.2 and §5.3.

use serde::{Deserialize, Serialize};

use crate::calibration;

/// Architecture parameters of the simulated GPU.
///
/// Defaults come from [`DeviceConfig::tesla_c2050`], the paper's testbed
/// (§5.3): 14 SMs × 32 SPs @ 1.15 GHz, 2.6 GB GDDR5 @ 144 GB/s.
///
/// # Examples
///
/// ```
/// let c = shredder_gpu::DeviceConfig::tesla_c2050();
/// assert_eq!(c.total_cores(), 448);
/// assert_eq!(c.warp_size, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors (SMs).
    pub sms: u32,
    /// Scalar processors (SPs) per SM.
    pub sps_per_sm: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Global device memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Peak global-memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Global-memory access latency in core cycles.
    pub mem_latency_cycles: u64,
    /// Threads per warp.
    pub warp_size: u32,
    /// DRAM banks visible to the memory controller.
    pub dram_banks: u32,
    /// DRAM row (page) size per bank, bytes.
    pub dram_row_bytes: usize,
    /// Memory transaction granularity for uncoalesced accesses, bytes.
    pub txn_bytes_uncoalesced: usize,
    /// Memory transaction granularity for coalesced segments, bytes.
    pub txn_bytes_coalesced: usize,
    /// Default threads per block for the chunking kernels.
    pub threads_per_block: u32,
}

impl DeviceConfig {
    /// The paper's testbed: NVidia Tesla C2050 (Fermi).
    pub fn tesla_c2050() -> Self {
        DeviceConfig {
            sms: 14,
            sps_per_sm: 32,
            clock_hz: calibration::GPU_CLOCK_HZ,
            global_mem_bytes: 2_600_000_000, // 2.6 GB (§5.3)
            mem_bandwidth: calibration::DEVICE_MEM_BW,
            mem_latency_cycles: calibration::DEVICE_MEM_LATENCY_CYCLES,
            warp_size: 32,
            dram_banks: 16,
            dram_row_bytes: 2048,
            txn_bytes_uncoalesced: 32,
            txn_bytes_coalesced: 128,
            threads_per_block: 256,
        }
    }

    /// Total scalar cores (`sms × sps_per_sm`; 448 on the C2050).
    pub fn total_cores(&self) -> u32 {
        self.sms * self.sps_per_sm
    }

    /// Aggregate compute throughput in cycles/s across all cores.
    pub fn total_cycles_per_sec(&self) -> f64 {
        self.total_cores() as f64 * self.clock_hz
    }

    /// Threads per half-warp (the §4.3 coalescing granularity).
    pub fn half_warp(&self) -> u32 {
        self.warp_size / 2
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::tesla_c2050()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_matches_paper() {
        let c = DeviceConfig::tesla_c2050();
        assert_eq!(c.sms, 14);
        assert_eq!(c.sps_per_sm, 32);
        assert_eq!(c.total_cores(), 448);
        assert!((c.clock_hz - 1.15e9).abs() < 1.0);
        assert!((c.mem_bandwidth - 144e9).abs() < 1.0);
    }

    #[test]
    fn derived_quantities() {
        let c = DeviceConfig::tesla_c2050();
        assert_eq!(c.half_warp(), 16);
        assert!((c.total_cycles_per_sec() - 448.0 * 1.15e9).abs() < 1.0);
    }
}
