//! Ablations of Shredder's design choices (beyond the paper's figures).
//!
//! Each section isolates one knob the design fixes and shows what it
//! buys: device twin buffers (double buffering), pipeline depth /
//! pinned-ring size, kernel launch occupancy, expected chunk size vs
//! dedup, and the future-work min/max skip optimization (§7.3, §9).

use shredder_bench::{check, header, result_line, table};
use shredder_core::{Shredder, ShredderConfig};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::DeviceConfig;
use shredder_rabin::{chunk_all, chunk_all_skipping, ChunkParams};
use shredder_workloads::{mutate, MutationSpec};

fn throughput(cfg: ShredderConfig, data: &[u8]) -> f64 {
    let out = Shredder::new(cfg)
        .chunk_stream(data)
        .expect("chunking failed");
    out.report.bytes as f64 / out.report.makespan.as_secs_f64()
}

fn main() {
    header(
        "Ablations",
        "What each Shredder design choice buys (not a paper figure)",
    );
    let data = shredder_workloads::random_bytes(64 << 20, 0xab1);
    let buffer = 8 << 20;

    // --- Twin buffers: 1 (serialized) vs 2 (double) vs 3 ---------------
    println!("\n-- device twin buffers (copy/compute overlap, §4.1.1) --");
    let mut twin_tp = Vec::new();
    for twins in [1usize, 2, 3] {
        let cfg = ShredderConfig {
            twin_buffers: twins,
            ..ShredderConfig::gpu_streams().with_buffer_size(buffer)
        };
        let tp = throughput(cfg, &data);
        twin_tp.push(tp);
        result_line(
            &format!("{twins} device buffer(s)"),
            shredder_bench::gbps(tp),
        );
    }
    check(
        "double buffering beats a single buffer",
        twin_tp[1] > twin_tp[0],
    );
    check(
        "a third buffer adds little (<5%): two suffice, as the paper chose",
        twin_tp[2] / twin_tp[1] < 1.05,
    );

    // --- Pipeline depth / ring slots ------------------------------------
    println!("\n-- pipeline depth == pinned ring slots (§4.1.2/§4.2) --");
    let mut depth_tp = Vec::new();
    for depth in [1usize, 2, 3, 4, 6, 8] {
        let cfg = ShredderConfig::gpu_streams_memory()
            .with_buffer_size(buffer)
            .with_pipeline_depth(depth);
        let tp = throughput(cfg, &data);
        depth_tp.push((depth, tp));
        result_line(&format!("depth {depth}"), shredder_bench::gbps(tp));
    }
    check(
        "throughput saturates by depth 4 (deeper rings only pin more memory)",
        {
            let at4 = depth_tp.iter().find(|(d, _)| *d == 4).unwrap().1;
            let at8 = depth_tp.iter().find(|(d, _)| *d == 8).unwrap().1;
            at8 / at4 < 1.05
        },
    );

    // --- Pinned ring vs pageable per-iteration buffers -------------------
    println!("\n-- host buffer strategy --");
    let pageable = throughput(
        ShredderConfig {
            pinned_ring: false,
            ..ShredderConfig::gpu_streams_memory().with_buffer_size(buffer)
        },
        &data,
    );
    let pinned = throughput(
        ShredderConfig::gpu_streams_memory().with_buffer_size(buffer),
        &data,
    );
    result_line(
        "pageable, allocated per buffer",
        shredder_bench::gbps(pageable),
    );
    result_line("pinned ring, reused", shredder_bench::gbps(pinned));
    check(
        "the pinned ring outperforms per-iteration pageable buffers",
        pinned > pageable,
    );

    // --- Kernel occupancy (blocks per SM) --------------------------------
    println!("\n-- kernel launch occupancy (blocks per SM) --");
    let cfg = DeviceConfig::tesla_c2050();
    let sample = &data[..16 << 20];
    let mut occ = Vec::new();
    for blocks in [1u32, 2, 4, 8] {
        let out = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Coalesced)
            .with_blocks_per_sm(blocks)
            .run(&cfg, sample)
            .expect("kernel");
        occ.push(out.stats.duration);
        result_line(
            &format!("{blocks} block(s)/SM ({} threads)", out.stats.threads),
            format!("{:.2} ms", out.stats.duration.as_millis_f64()),
        );
    }
    check(
        "low occupancy exposes memory latency (1 block/SM slower than 8)",
        occ[0] > occ[3],
    );

    // --- Expected chunk size vs dedup efficiency -------------------------
    println!("\n-- expected chunk size vs dedup under 5% localized change --");
    let base = shredder_workloads::compressible_bytes(16 << 20, 4096, 0xab2);
    let edited = mutate(
        &base,
        &MutationSpec {
            span_bytes: 256 << 10,
            ..MutationSpec::replace(0.05, 0xab3)
        },
    );
    let mut rows = Vec::new();
    let mut dedup_by_size = Vec::new();
    for bits in [11u32, 12, 13, 14, 16] {
        let params = ChunkParams {
            mask_bits: bits,
            ..ChunkParams::paper()
        };
        let before: std::collections::HashSet<shredder_hash::Digest> = chunk_all(&base, &params)
            .iter()
            .map(|c| shredder_hash::sha256(c.slice(&base)))
            .collect();
        let after = chunk_all(&edited, &params);
        let reused_bytes: usize = after
            .iter()
            .filter(|c| before.contains(&shredder_hash::sha256(c.slice(&edited))))
            .map(|c| c.len)
            .sum();
        let dedup = reused_bytes as f64 / edited.len() as f64;
        dedup_by_size.push(dedup);
        rows.push((
            format!("{} B expected", 1usize << bits),
            vec![
                format!("{} chunks", after.len()),
                format!("{:.1}% reused", dedup * 100.0),
            ],
        ));
    }
    table(&["metadata", "dedup"], &rows);
    check(
        "smaller chunks dedup better under localized change (first >= last)",
        dedup_by_size[0] >= dedup_by_size[4],
    );

    // --- Min/max skip optimization (future work, §9) ----------------------
    println!("\n-- min/max skipping scan (future work [31,33]) --");
    let params = ChunkParams::backup();
    let scan = chunk_all_skipping(&data[..16 << 20], &params);
    assert_eq!(scan.chunks, chunk_all(&data[..16 << 20], &params));
    result_line(
        "bytes never fingerprinted",
        format!("{:.1}%", scan.skip_fraction() * 100.0),
    );
    let kernel = ChunkKernel::new(params.clone(), KernelVariant::Coalesced)
        .run(&cfg, &data[..16 << 20])
        .expect("kernel");
    let saved = kernel.stats.duration.as_secs_f64() * scan.skip_fraction();
    result_line(
        "kernel time a skipping GPU kernel would save (est.)",
        format!(
            "{:.2} ms of {:.2} ms",
            saved * 1e3,
            kernel.stats.duration.as_millis_f64()
        ),
    );
    check(
        "skipping saves a double-digit share of the scan with backup min/max",
        scan.skip_fraction() > 0.10,
    );
}
