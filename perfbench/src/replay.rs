//! Replays of lower-layer calls on the inputs a top-level call consumed.
//!
//! The library has no tracing hooks yet, so the benchmark attributes a
//! top-level call's CPU time by running each lower layer's public
//! functions again on the same bytes, each in a span whose parent is the
//! top-level call. The top-level call's self time is what remains: the
//! engine, the discrete-event simulation, admission and report assembly.

use shredder::core::ShredderConfig;
use shredder::gpu::kernel::ChunkKernel;
use shredder::hash::{sha256, Digest};
use shredder::rabin::{cut_offsets, Chunk};
use shredder::store::ChunkStore;

use crate::trace::{SpanId, Tracer};

/// Work counts gathered by the replays of one iteration.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Bytes scanned by the sequential Rabin replay.
    pub scan_bytes: u64,
    /// Bytes the SPMD kernel split scans twice: substreams × overlap.
    pub rescan_bytes: u64,
    /// Bytes hashed by the SHA-256 replay.
    pub hash_bytes: u64,
    /// Chunks offered to the shadow stores.
    pub store_offered: u64,
    /// Offered chunks the shadow stores already held.
    pub store_hits: u64,
    /// Bytes offered to the shadow stores.
    pub store_logical: u64,
    /// Bytes resident in the shadow stores at the end.
    pub store_physical: u64,
}

/// Replays the engine's functional chunking of one stream:
/// `ChunkKernel::run` on each pipeline buffer, with the kernel-overlap
/// carry the engine keeps between buffers (span `gpu.kernel_run`), then
/// the sequential boundary scan plus size policy over the whole stream
/// (span `rabin.scan`, a child of the kernel span). Returns the chunks.
///
/// # Errors
///
/// When the kernel fails, or its candidates differ from the sequential
/// scan's.
pub fn chunking(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    cfg: &ShredderConfig,
    data: &[u8],
    counts: &mut Counts,
) -> Result<Vec<Chunk>, String> {
    let kernel = ChunkKernel::new(cfg.params.clone(), cfg.kernel);
    let overlap = kernel.overlap();
    let size = cfg.buffer_size;
    let (gpu, _, gpu_span) = tr.span("gpu.kernel_run", parent, || {
        let mut cuts = Vec::new();
        let mut threads = 0u64;
        let mut start = 0usize;
        while start < data.len() {
            let end = (start + size).min(data.len());
            let carry = overlap.min(start);
            let scan = &data[start - carry..end];
            let out = kernel.run(&cfg.device, scan).map_err(|e| e.to_string())?;
            threads += u64::from(kernel.thread_count(&cfg.device, scan.len()));
            let base = (start - carry) as u64;
            cuts.extend(
                out.raw_cuts
                    .iter()
                    .map(|c| c.offset + base)
                    .filter(|&o| o > start as u64),
            );
            start = end;
        }
        Ok::<_, String>((cuts, threads))
    });
    let (gpu_cuts, threads) = gpu?;
    counts.rescan_bytes += threads * overlap as u64;

    let boundary = kernel.boundary();
    let ((raw, chunks), _, _) = tr.span("rabin.scan", gpu_span, || {
        let raw = boundary.raw_cuts(data);
        let cuts = boundary.apply_policy(&raw, data.len() as u64);
        (
            raw,
            shredder::rabin::chunker::cuts_to_chunks(&cuts, data.len() as u64),
        )
    });
    counts.scan_bytes += data.len() as u64;
    if cut_offsets(&raw) != gpu_cuts {
        return Err("kernel candidates differ from the sequential scan".into());
    }
    Ok(chunks)
}

/// SHA-256 over every chunk (span `hash.sha256`).
pub fn hash(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    data: &[u8],
    chunks: &[Chunk],
    counts: &mut Counts,
) -> Vec<Digest> {
    let (digests, _, _) = tr.span("hash.sha256", parent, || {
        chunks
            .iter()
            .map(|c| sha256(c.slice(data)))
            .collect::<Vec<_>>()
    });
    counts.hash_bytes += data.len() as u64;
    digests
}

/// Puts every chunk into a shadow store and commits them as one new
/// generation of `stream` (span `store.put`).
///
/// # Errors
///
/// When the shadow store rejects the snapshot.
#[allow(clippy::too_many_arguments)]
pub fn store(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    shadow: &mut ChunkStore,
    stream: &str,
    data: &[u8],
    chunks: &[Chunk],
    digests: &[Digest],
    counts: &mut Counts,
) -> Result<(), String> {
    let hits_before = shadow.dedup_hits();
    let (done, _, _) = tr.span("store.put", parent, || {
        let mut recipe = Vec::with_capacity(chunks.len());
        for (c, d) in chunks.iter().zip(digests) {
            shadow.put_slice(*d, c.slice(data));
            recipe.push((*d, c.len));
        }
        shadow.commit_snapshot(stream, &recipe)
    });
    done.map_err(|e| e.to_string())?;
    counts.store_offered += chunks.len() as u64;
    counts.store_hits += shadow.dedup_hits() - hits_before;
    counts.store_logical += data.len() as u64;
    Ok(())
}
