//! `backup_generations`: the paper's §7 cloud-backup path.
//!
//! A VM-image-like stream goes through `GENERATIONS` generations, each a
//! localized mutation of the one before. Each generation is one
//! `BackupServer::backup_service` request from a single closed-loop
//! client. Every live generation is then restored digest-verified and
//! compared bit-for-bit with its input; the first half is expired and
//! garbage-collected, and the survivors are restored again.

use shredder::backup::{BackupConfig, BackupServer};
use shredder::core::{
    AdmissionControl, EngineReport, Shredder, ShredderConfig, StageKind, Workload,
};
use shredder::des::Dur;
use shredder::rabin::{Chunk, ChunkParams};
use shredder::store::ChunkStore;
use shredder::workloads::{compressible_bytes, mutate, MutationSpec};

use crate::clock::CpuInstant;
use crate::replay::{self, Counts};
use crate::trace::Tracer;
use crate::{ms, Iteration};

/// Bytes per image: eight times a core's 2 MiB L2.
const IMAGE_BYTES: usize = 16 << 20;
const GENERATIONS: usize = 8;
/// Distinct 64-byte blocks the image is drawn from.
const VOCAB: usize = 1024;
/// Each generation rewrites this share of the last one...
const CHANGE: f64 = 0.05;
/// ...in spans of this many bytes (localized edits, as VM images see).
const SPAN: usize = 64 << 10;
/// Pipeline buffer, as in the fig18 bench: many admissions per image.
const BUFFER: usize = 4 << 20;

fn generations(seed: u64) -> Vec<Vec<u8>> {
    let mut gens = vec![compressible_bytes(IMAGE_BYTES, VOCAB, seed)];
    for g in 1..GENERATIONS as u64 {
        let spec = MutationSpec {
            span_bytes: SPAN,
            ..MutationSpec::replace(CHANGE, seed.wrapping_mul(31).wrapping_add(g))
        };
        let next = mutate(gens.last().expect("generation 0 exists"), &spec);
        gens.push(next);
    }
    gens
}

pub fn run(seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let t0 = CpuInstant::now();
    let gens = generations(seed);
    let shredder = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(BUFFER),
    );
    let mut server = BackupServer::new(BackupConfig {
        buffer_size: BUFFER,
        ..BackupConfig::paper()
    });
    it.setup_s = t0.elapsed_s();

    let cfg = shredder.config().clone();
    let mut shadow = ChunkStore::new();
    let mut counts = Counts::default();
    let mut ids = Vec::with_capacity(GENERATIONS);
    let mut gen_chunks: Vec<Vec<Chunk>> = Vec::new();
    let mut engines: Vec<EngineReport> = Vec::new();
    let mut index_hit_rate = 0.0;
    for image in &gens {
        let (res, secs, span) = tr.span("core.run", None, || {
            server.backup_service(
                &[image],
                &shredder,
                &Workload::closed_loop(1, Dur::ZERO),
                AdmissionControl::default(),
            )
        });
        it.ingest_s += secs;
        it.ingest_bytes += image.len() as u64;
        it.attempted += 1;
        let report = res.map_err(|e| format!("backup_service failed: {e}"))?;
        let Ok(backup) = &report.reports[0] else {
            it.failed += 1;
            ids.push(None);
            gen_chunks.push(Vec::new());
            continue;
        };
        ids.push(Some(backup.image_id));
        if tr.enabled() {
            let chunks = replay::chunking(tr, span, &cfg, image, &mut counts)?;
            if chunks.len() != backup.chunks {
                return Err(format!(
                    "replayed {} chunks, the backup formed {}",
                    chunks.len(),
                    backup.chunks
                ));
            }
            let digests = replay::hash(tr, span, image, &chunks, &mut counts);
            replay::store(
                tr,
                span,
                &mut shadow,
                "images",
                image,
                &chunks,
                &digests,
                &mut counts,
            )?;
            gen_chunks.push(chunks);
        }
        index_hit_rate = report.index_hits as f64 / report.index_lookups.max(1) as f64;
        engines.push(report.engine);
    }
    counts.store_physical = shadow.physical_bytes();
    it.requests = GENERATIONS as u64;

    // The site is read before GC.
    let site = server.site();
    let stored_per_logical = site.physical_bytes() as f64 / site.logical_bytes().max(1) as f64;

    restore(
        tr,
        &server,
        &gens,
        &ids,
        0,
        &gen_chunks,
        &mut counts,
        &mut it,
    )?;
    let half = GENERATIONS / 2;
    let through = ids[..half].iter().flatten().max().copied();
    let mut gc_moved = 0u64;
    if let Some(through) = through {
        let (_, expire_s, _) = tr.span("backup.expire", None, || server.expire_images(through));
        let (gc, gc_s, _) = tr.span("store.gc", None, || server.collect_garbage());
        it.attempted += 1;
        it.cpu_s += expire_s + gc_s;
        gc_moved = gc.moved_bytes;
    }
    restore(
        tr,
        &server,
        &gens,
        &ids,
        half,
        &gen_chunks,
        &mut counts,
        &mut it,
    )?;
    it.cpu_s += it.ingest_s + it.restore_s;
    it.counts = counts;

    let total_makespan: Dur = engines.iter().map(|e| e.makespan).sum();
    let stage = |kind: StageKind, wait: bool| -> f64 {
        engines
            .iter()
            .flat_map(|e| &e.sink_stages)
            .filter(|s| s.kind == kind)
            .map(|s| ms(if wait { s.queue_wait } else { s.busy }))
            .sum()
    };
    let devices = || engines.iter().flat_map(|e| &e.devices);
    let dma: f64 = devices()
        .map(|d| (d.transfer_busy + d.return_busy).as_secs_f64())
        .sum();
    it.exact = vec![
        (
            "sim_gbps",
            it.ingest_bytes as f64 / total_makespan.as_secs_f64() / 1e9,
        ),
        ("stored_per_logical", stored_per_logical),
        (
            "gpu.sim_kernel_busy_ms",
            engines.iter().map(|e| ms(e.stage_busy.kernel)).sum(),
        ),
        (
            "gpu.sim_utilization",
            devices().map(|d| d.kernel_busy.as_secs_f64()).sum::<f64>()
                / total_makespan.as_secs_f64(),
        ),
        (
            "gpu.sim_overlap",
            devices()
                .map(|d| d.overlap * (d.transfer_busy + d.return_busy).as_secs_f64())
                .sum::<f64>()
                / dma,
        ),
        (
            "hash.sim_fingerprint_busy_ms",
            stage(StageKind::Fingerprint, false),
        ),
        (
            "hash.sim_fingerprint_wait_ms",
            stage(StageKind::Fingerprint, true),
        ),
        ("store.gc_bytes_rewritten", gc_moved as f64),
        ("backup.index_hit_rate", index_hit_rate),
        ("backup.sim_dedup_busy_ms", stage(StageKind::Dedup, false)),
        ("backup.sim_ship_busy_ms", stage(StageKind::Ship, false)),
        (
            "core.sim_queue_wait_ms",
            engines.iter().map(|e| ms(e.queue_wait)).sum(),
        ),
        (
            "core.sim_max_queue_depth",
            engines
                .iter()
                .filter_map(|e| e.service.as_ref())
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "core.sim_read_busy_ms",
            engines.iter().map(|e| ms(e.stage_busy.read)).sum(),
        ),
        (
            "core.sim_store_thread_busy_ms",
            engines.iter().map(|e| ms(e.stage_busy.store)).sum(),
        ),
    ];
    it.layers.push(("backup.service_s", it.ingest_s));
    Ok(it)
}

/// Restores every live generation from index `from` on, digest-verified
/// by the site, and compares it bit-for-bit with its input.
#[allow(clippy::too_many_arguments)]
fn restore(
    tr: &mut Tracer,
    server: &BackupServer,
    gens: &[Vec<u8>],
    ids: &[Option<usize>],
    from: usize,
    gen_chunks: &[Vec<Chunk>],
    counts: &mut Counts,
    it: &mut Iteration,
) -> Result<(), String> {
    for g in from..gens.len() {
        let Some(id) = ids[g] else { continue };
        let (restored, secs, span) = tr.span("store.restore", None, || server.site().restore(id));
        it.attempted += 1;
        it.restore_s += secs;
        let restored = restored.ok_or_else(|| format!("generation {g} failed to restore"))?;
        if restored != gens[g] {
            return Err(format!("generation {g} restored different bytes"));
        }
        it.restore_bytes += restored.len() as u64;
        if tr.enabled() {
            replay::hash(tr, span, &restored, &gen_chunks[g], counts);
        }
    }
    Ok(())
}
