//! Integration: every chunking engine in the workspace produces
//! bit-identical chunk boundaries.
//!
//! This is the load-bearing correctness property of the reproduction:
//! the GPU kernels (and the §3.1 substream split their modeled threads
//! scan), the host executor, the streaming chunker and the batch
//! chunker must all agree, with and without min/max constraints, on
//! every kind of workload.

use shredder::core::{Shredder, ShredderConfig};
use shredder::gpu::kernel::{ChunkKernel, KernelVariant};
use shredder::gpu::DeviceConfig;
use shredder::rabin::chunker::raw_cuts;
use shredder::rabin::{chunk_all, ChunkParams};
use shredder::workloads;

fn workloads_under_test() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("random", workloads::random_bytes(2 << 20, 1)),
        (
            "compressible",
            workloads::compressible_bytes(2 << 20, 64, 2),
        ),
        ("text", workloads::words_corpus(2 << 20, 500, 3)),
        ("zeros", vec![0u8; 1 << 20]),
        ("tiny", workloads::random_bytes(100, 4)),
        ("empty", Vec::new()),
    ]
}

#[test]
fn all_engines_agree_on_boundaries() {
    let params = ChunkParams::paper();
    for (name, data) in workloads_under_test() {
        let reference = chunk_all(&data, &params);

        for preset in [
            ShredderConfig::gpu_basic(),
            ShredderConfig::gpu_streams(),
            ShredderConfig::gpu_streams_memory(),
        ] {
            let label = format!("{name}: {:?}", preset.kernel);
            let out = Shredder::new(preset.with_buffer_size(256 << 10))
                .chunk_stream(&data)
                .unwrap();
            assert_eq!(out.chunks, reference, "{label}");
        }

        let host = Shredder::new(ShredderConfig::cpu_pthreads().with_buffer_size(256 << 10))
            .chunk_stream(&data)
            .unwrap();
        assert_eq!(host.chunks, reference, "{name}: host service");
    }
}

#[test]
fn engines_agree_with_min_max_constraints() {
    let params = ChunkParams::backup();
    for (name, data) in workloads_under_test() {
        let reference = chunk_all(&data, &params);

        let host = Shredder::new(
            ShredderConfig::cpu_pthreads()
                .with_params(params.clone())
                .with_buffer_size(256 << 10),
        )
        .chunk_stream(&data)
        .unwrap();
        assert_eq!(host.chunks, reference, "{name}: host");

        let gpu = Shredder::new(
            ShredderConfig::gpu_streams_memory()
                .with_params(params.clone())
                .with_buffer_size(256 << 10),
        )
        .chunk_stream(&data)
        .unwrap();
        assert_eq!(gpu.chunks, reference, "{name}: gpu");
    }
}

#[test]
fn gpu_kernels_agree_with_sequential_raw_cuts() {
    let params = ChunkParams::paper();
    let cfg = DeviceConfig::tesla_c2050();
    for (name, data) in workloads_under_test() {
        let reference = raw_cuts(&data, &params);
        for variant in KernelVariant::ALL {
            let kernel = ChunkKernel::new(params.clone(), variant);
            let sequential = kernel.boundary().raw_cuts(&data);
            let threads = kernel.thread_count(&cfg, data.len()) as usize;
            assert_eq!(
                kernel.boundary().raw_cuts_substreams(&data, threads),
                sequential,
                "{name}: {variant} substreams"
            );
            let out = kernel.run(&cfg, &data).expect("kernel");
            assert_eq!(out.raw_cuts, sequential, "{name}: {variant}");
            if !variant.is_gear() {
                assert_eq!(out.cut_offsets(), reference, "{name}: {variant}");
            }
        }
    }
}

#[test]
fn gear_engine_matches_sequential_gear_chunks() {
    // A Gear-configured engine must agree with the sequential Gear
    // kernel (FastCDC policy included) exactly as the Rabin engines
    // agree with `chunk_all`, on every workload and buffer size.
    use shredder::rabin::{BoundaryKernel, GearKernel};
    let params = ChunkParams::paper();
    let gear = GearKernel::matched(&params);
    for (name, data) in workloads_under_test() {
        let reference = gear.chunks(&data);
        for buffer in [64 << 10, 1 << 20] {
            let out = Shredder::new(
                ShredderConfig::gpu_streams_memory()
                    .with_params(params.clone())
                    .with_chunk_kernel(KernelVariant::GearCoalesced)
                    .with_buffer_size(buffer),
            )
            .chunk_stream(&data)
            .unwrap();
            assert_eq!(out.chunks, reference, "{name}: gear buffer {buffer}");
        }
    }
}

#[test]
fn buffer_size_does_not_change_boundaries() {
    let data = workloads::random_bytes(3 << 20, 9);
    let params = ChunkParams::paper();
    let reference = chunk_all(&data, &params);
    for buffer in [64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        let out = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(buffer))
            .chunk_stream(&data)
            .unwrap();
        assert_eq!(out.chunks, reference, "buffer {buffer}");
    }
}

#[test]
fn chunk_digests_are_engine_independent() {
    let data = workloads::compressible_bytes(1 << 20, 32, 10);
    let gpu = Shredder::new(ShredderConfig::default().with_buffer_size(256 << 10))
        .chunk_stream(&data)
        .unwrap();
    let cpu = Shredder::new(ShredderConfig::cpu_pthreads())
        .chunk_stream(&data)
        .unwrap();
    assert_eq!(gpu.digests(&data), cpu.digests(&data));
}
