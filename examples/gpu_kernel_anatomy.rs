//! Anatomy of the GPU chunking kernel: why coalescing matters (§4.3).
//!
//! Run with `cargo run --release --example gpu_kernel_anatomy`.
//!
//! Launches the basic and coalesced chunking kernels on the same buffer
//! and dissects where the time goes: memory transactions, expected bank
//! conflicts (row switches), compute cycles, and occupancy — the
//! quantities behind Figure 11's 8x.

use shredder::gpu::coalesce::{classify_half_warp, cooperative_addresses, substream_addresses};
use shredder::gpu::kernel::{ChunkKernel, KernelVariant};
use shredder::gpu::DeviceConfig;
use shredder::rabin::ChunkParams;
use shredder::workloads;

fn main() {
    let cfg = DeviceConfig::tesla_c2050();
    println!(
        "device: {} SMs x {} SPs @ {:.2} GHz, {} GB/s GDDR5, {} banks",
        cfg.sms,
        cfg.sps_per_sm,
        cfg.clock_hz / 1e9,
        cfg.mem_bandwidth / 1e9,
        cfg.dram_banks
    );

    let data = workloads::random_bytes(64 << 20, 7);

    for variant in KernelVariant::ALL {
        let kernel = ChunkKernel::new(ChunkParams::paper(), variant);
        let out = kernel.run(&cfg, &data).expect("buffer fits device memory");
        let s = &out.stats;
        println!("\n--- {variant} kernel ---");
        println!("  threads            : {}", s.threads);
        println!("  cuts found         : {}", s.cuts_found);
        println!("  memory transactions: {}", s.mem.transactions);
        println!("  bytes moved on bus : {} MiB", s.mem.bytes_moved >> 20);
        println!("  expected row misses: {:.0}", s.mem.row_switches);
        println!(
            "  memory time        : {:.2} ms",
            s.simt.memory_time.as_millis_f64()
        );
        println!(
            "  compute time       : {:.2} ms",
            s.simt.compute_time.as_millis_f64()
        );
        println!(
            "  total duration     : {:.2} ms",
            s.duration.as_millis_f64()
        );
        println!(
            "  effective bandwidth: {:.2} GB/s",
            s.effective_bandwidth() / 1e9
        );
    }

    // The half-warp access patterns, classified by the §4.3 rules.
    let lanes = cfg.half_warp() as usize;
    let scattered = substream_addresses(0, lanes, (data.len() / 28_672) as u64);
    let cooperative = cooperative_addresses(4096, lanes, 4);
    println!("\naccess-pattern classification (16-lane half-warp):");
    println!(
        "  per-thread sub-streams -> {:?}",
        classify_half_warp(&scattered, 1)
    );
    println!(
        "  cooperative tile fetch -> {:?}",
        classify_half_warp(&cooperative, 4)
    );
}
