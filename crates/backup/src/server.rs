//! The backup server pipeline (§7.2, Figure 17).
//!
//! Per image snapshot: Reader ingests at the 10 Gbps source rate →
//! Shredder forms chunks → the Store thread hashes each chunk → hashes
//! are batched into the index-lookup queue → the lookup thread decides
//! ship-vs-pointer → new chunks travel to the backup site. Each arrow is
//! a pipeline stage on the discrete-event simulator; the measured backup
//! bandwidth (Figure 18) is `image bytes / makespan`.
//!
//! The hash → lookup → ship tail is a [`DedupSink`] graph: its stages
//! execute *inside* the chunking service's engine simulation, on the
//! GPU pool or on the host device of the pthreads baseline alike, so
//! fingerprinting genuinely overlaps — and backpressures — chunking
//! instead of being post-processed with analytic formulas.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shredder_core::{
    AdmissionControl, ChunkError, ChunkRequest, ChunkVerdict, DedupSink, DedupSinkConfig,
    EngineReport, Shredder, ShredderEngine, SliceSource, TenantClass, Workload,
};
use shredder_des::Dur;

use crate::config::BackupConfig;
use crate::index::DedupIndex;
use crate::site::BackupSite;

/// Outcome of backing up one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackupReport {
    /// Image id at the backup site (for restore).
    pub image_id: usize,
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Chunks formed.
    pub chunks: usize,
    /// Chunks not present at the site (shipped).
    pub new_chunks: usize,
    /// Bytes shipped (new chunk payloads).
    pub new_bytes: u64,
    /// Bytes deduplicated (pointers only).
    pub dedup_bytes: u64,
    /// Simulated end-to-end time for this image.
    pub makespan: Dur,
    /// The chunking engine's own sustained throughput, bytes/s.
    pub chunking_bw: f64,
}

impl BackupReport {
    /// Backup bandwidth in Gbps (the Figure 18 y-axis).
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.image_bytes as f64 * 8.0 / self.makespan.as_secs_f64() / 1e9
    }

    /// Fraction of image bytes that deduplicated.
    pub fn dedup_fraction(&self) -> f64 {
        if self.image_bytes == 0 {
            return 0.0;
        }
        self.dedup_bytes as f64 / self.image_bytes as f64
    }
}

/// Outcome of backing up several site streams in one engine batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchBackupReport {
    /// Per-image reports, in submission order.
    pub reports: Vec<BackupReport>,
    /// The shared chunking engine's aggregate report (per-site makespan,
    /// queueing, aggregate GB/s).
    pub engine: EngineReport,
    /// Cumulative dedup-index lookups on the server after this batch.
    pub index_lookups: u64,
    /// Cumulative dedup-index hits (duplicates found) after this batch.
    pub index_hits: u64,
}

/// Outcome of serving a stream of backup requests under an arrival
/// workload ([`BackupServer::backup_service`]).
#[derive(Debug)]
pub struct ServiceBackupReport {
    /// Per-image outcomes, in submission order. Shed requests carry
    /// [`ChunkError::Overloaded`]; nothing of theirs was hashed,
    /// deduplicated or stored.
    pub reports: Vec<Result<BackupReport, ChunkError>>,
    /// The shared engine report; its
    /// [`service`](EngineReport::service) report holds the
    /// offered/achieved load, the admission queue-depth timeline and
    /// per-class latency percentiles.
    pub engine: EngineReport,
    /// Cumulative dedup-index lookups on the server after this run.
    pub index_lookups: u64,
    /// Cumulative dedup-index hits after this run.
    pub index_hits: u64,
}

impl ServiceBackupReport {
    /// Images that completed.
    pub fn completed(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }

    /// Images shed by admission control.
    pub fn shed(&self) -> usize {
        self.reports.len() - self.completed()
    }
}

impl BatchBackupReport {
    /// Total image bytes across the batch.
    pub fn total_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.image_bytes).sum()
    }

    /// Aggregate backup bandwidth of the batch in Gbps: total bytes over
    /// the shared engine makespan. Every stage — chunking *and* the
    /// hash/dedup/ship sink graph — runs in the one shared simulation,
    /// so the sites' pipelines genuinely overlap and the batch finishes
    /// when the last sink stage drains.
    pub fn aggregate_bandwidth_gbps(&self) -> f64 {
        if self.engine.makespan.is_zero() {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / self.engine.makespan.as_secs_f64() / 1e9
    }

    /// Fraction of index lookups that found a duplicate, in `[0, 1]` —
    /// the server-side dedup effectiveness (cumulative over the
    /// server's lifetime, like the counters it summarizes).
    pub fn index_hit_rate(&self) -> f64 {
        if self.index_lookups == 0 {
            return 0.0;
        }
        self.index_hits as f64 / self.index_lookups as f64
    }
}

/// The backup server: index + connection to the backup site.
///
/// # Examples
///
/// ```
/// use shredder_backup::{BackupConfig, BackupServer};
/// use shredder_core::{Shredder, ShredderConfig};
/// use shredder_rabin::ChunkParams;
///
/// let mut server = BackupServer::new(BackupConfig::paper());
/// let service = Shredder::new(ShredderConfig::cpu_pthreads().with_params(ChunkParams::backup()));
/// let image = shredder_workloads::compressible_bytes(512 << 10, 128, 3);
///
/// let first = server.backup_image(&image, &service).unwrap();
/// let second = server.backup_image(&image, &service).unwrap();
/// // An identical snapshot deduplicates (almost) entirely.
/// assert!(second.dedup_fraction() > 0.99);
/// assert!(second.new_bytes < first.new_bytes);
/// ```
#[derive(Debug)]
pub struct BackupServer {
    config: BackupConfig,
    /// Shared with the in-simulation dedup stage of every sink this
    /// server spawns (single-threaded simulation, hence `RefCell`).
    index: Rc<RefCell<DedupIndex>>,
    site: BackupSite,
}

impl BackupServer {
    /// Creates a server with an empty index and site.
    pub fn new(config: BackupConfig) -> Self {
        BackupServer::with_store_config(config, shredder_store::StoreConfig::default())
    }

    /// Creates a server whose site store uses the given configuration
    /// (segment size, GC compaction threshold, retention).
    pub fn with_store_config(config: BackupConfig, store: shredder_store::StoreConfig) -> Self {
        BackupServer {
            config,
            index: Rc::new(RefCell::new(DedupIndex::new())),
            site: BackupSite::with_store_config(store),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BackupConfig {
        &self.config
    }

    /// The dedup index.
    pub fn index(&self) -> Ref<'_, DedupIndex> {
        self.index.borrow()
    }

    /// The backup site (restore + verification).
    pub fn site(&self) -> &BackupSite {
        &self.site
    }

    /// The server's consumer graph configuration: hash → dedup → ship at
    /// the §7.3 stage rates.
    ///
    /// The per-site ingest cap is *not* part of the sink: the batch
    /// path ([`backup_batch`](Self::backup_batch)) caps the engine's
    /// reader, and the request path
    /// ([`backup_service`](Self::backup_service)) models it as a
    /// [`TenantClass`] bandwidth limit.
    fn sink_config(&self) -> DedupSinkConfig {
        DedupSinkConfig {
            hash_bw: self.config.hash_bw,
            index_lookup: self.config.index_lookup,
            index_insert: self.config.index_insert,
            ship_bw: self.config.ship_bw,
            pointer_bytes: self.config.pointer_bytes,
            ship_chunk_overhead: self.config.ship_chunk_overhead,
        }
    }

    /// Backs up one image snapshot through the given chunking engine:
    /// the one-element case of [`backup_batch`](Self::backup_batch).
    ///
    /// # Errors
    ///
    /// [`ChunkError`] if the chunking service fails; nothing is stored
    /// in that case.
    pub fn backup_image(
        &mut self,
        image: &[u8],
        shredder: &Shredder,
    ) -> Result<BackupReport, ChunkError> {
        let mut batch = self.backup_batch(&[image], shredder)?;
        Ok(batch.reports.swap_remove(0))
    }

    /// Backs up several site streams in **one batch**: every image is a
    /// sink session on one shared multi-stream engine (§7.2's server
    /// handling many remote sites). Chunking, fingerprinting, index
    /// lookup and shipping for all sites contend for and overlap on the
    /// same simulated hardware; the returned [`EngineReport`] carries
    /// per-stage (chunk/hash/dedup/ship) busy and queue-wait times.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] if the engine fails; no image is stored in that
    /// case.
    pub fn backup_batch(
        &mut self,
        images: &[&[u8]],
        shredder: &Shredder,
    ) -> Result<BatchBackupReport, ChunkError> {
        // The engine's reader models the image source here, so cap it at
        // the §7.3 ingest rate.
        let mut cfg = shredder.config().clone();
        cfg.reader_bandwidth = cfg.reader_bandwidth.min(self.config.ingest_bw);

        let mut sinks: Vec<DedupSink> = images
            .iter()
            .map(|_| DedupSink::new(self.sink_config(), self.index.clone()))
            .collect();
        let outcome = {
            let mut engine = ShredderEngine::new(cfg);
            for (i, (image, sink)) in images.iter().zip(sinks.iter_mut()).enumerate() {
                engine.submit(
                    ChunkRequest::new(SliceSource::new(image))
                        .named(format!("site-{i}"))
                        .with_sink(sink),
                );
            }
            engine.run(&Workload::Batch)?
        };

        let mut reports = Vec::with_capacity(images.len());
        for ((image, sink), per) in images.iter().zip(sinks).zip(&outcome.report.sessions) {
            reports.push(self.commit_image(
                image,
                &sink.into_verdicts(),
                per.chunking_time(),
                per.makespan,
            ));
        }
        Ok(BatchBackupReport {
            reports,
            engine: outcome.report,
            index_lookups: self.index.borrow().lookups(),
            index_hits: self.index.borrow().hits(),
        })
    }

    /// Serves a stream of backup requests on one shared engine: images
    /// arrive inside the simulation according to `workload` (Poisson
    /// open loop, closed loop, trace replay, or batch), pass through the
    /// admission queue of `control`, and may be shed with
    /// [`ChunkError::Overloaded`] under overload.
    ///
    /// The per-site ingest cap (§7.3's 10 Gbps image source) is modeled
    /// as a [`TenantClass`] bandwidth limit on the `"site"` class — the
    /// per-class form of the reader cap
    /// [`backup_batch`](Self::backup_batch) sets on the whole engine.
    ///
    /// A shed request touches nothing: its image is not hashed, its
    /// fingerprints never enter the index, and the site stores no
    /// payloads for it — accepted images' chunk streams are
    /// bit-identical to a run without the shed traffic.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] if the engine rejects the configuration or a
    /// kernel launch fails; no image is stored in that case. Per-image
    /// `Overloaded` rejections come back inside the report instead.
    pub fn backup_service(
        &mut self,
        images: &[&[u8]],
        shredder: &Shredder,
        workload: &Workload,
        control: AdmissionControl,
    ) -> Result<ServiceBackupReport, ChunkError> {
        let mut sinks: Vec<DedupSink> = images
            .iter()
            .map(|_| DedupSink::new(self.sink_config(), self.index.clone()))
            .collect();
        let outcome = {
            let mut engine = shredder.engine().with_admission(control);
            engine.define_class(TenantClass::new("site").with_ingest_bw(self.config.ingest_bw));
            for (i, (image, sink)) in images.iter().zip(sinks.iter_mut()).enumerate() {
                engine.submit(
                    ChunkRequest::new(SliceSource::new(image))
                        .named(format!("site-{i}"))
                        .with_class("site")
                        .with_sink(sink),
                );
            }
            engine.run(workload)?
        };

        // Commit completed images in *dispatch* order — the order their
        // sinks deduplicated against the shared index — so a pointer
        // never precedes the chunk it references. Shed images sort
        // first (no admit time) and commit nothing.
        let requests = &outcome.report.service.requests;
        let mut by_dispatch: Vec<_> = sinks
            .into_iter()
            .zip(outcome.sessions)
            .enumerate()
            .collect();
        by_dispatch.sort_by_key(|&(i, _)| (requests[i].admit, i));
        let mut reports: Vec<(usize, Result<BackupReport, ChunkError>)> = by_dispatch
            .into_iter()
            .map(|(i, (sink, session))| {
                let per = &outcome.report.sessions[i];
                let latency = requests[i].latency().unwrap_or(per.makespan);
                let report = session.map(|_| {
                    self.commit_image(
                        images[i],
                        &sink.into_verdicts(),
                        per.chunking_time(),
                        latency,
                    )
                });
                (i, report)
            })
            .collect();
        reports.sort_by_key(|&(i, _)| i);
        let reports = reports.into_iter().map(|(_, r)| r).collect();

        Ok(ServiceBackupReport {
            reports,
            engine: outcome.report,
            index_lookups: self.index.borrow().lookups(),
            index_hits: self.index.borrow().hits(),
        })
    }

    /// Expires every backed-up image up to and including `through` (the
    /// retention cut a nightly-backup deployment applies). The chunk
    /// payloads stay resident until
    /// [`collect_garbage`](Self::collect_garbage) reclaims them.
    /// Returns how many images expired.
    pub fn expire_images(&mut self, through: usize) -> usize {
        self.site.expire_images(through)
    }

    /// Garbage-collects the backup site: frees chunks no live image
    /// references, compacts mostly-dead segments, **and evicts the
    /// freed fingerprints from the dedup index** — without the
    /// eviction, a later backup of similar data would register pointers
    /// to chunks the site no longer holds.
    pub fn collect_garbage(&mut self) -> shredder_store::GcReport {
        let gc = self.site.gc();
        self.index.borrow_mut().evict(&gc.freed_digests);
        gc
    }

    /// Applies the sink's in-simulation decisions to the site: duplicate
    /// chunks register pointers, new chunks store payloads.
    fn commit_image(
        &mut self,
        image: &[u8],
        verdicts: &[ChunkVerdict],
        chunking_time: Dur,
        makespan: Dur,
    ) -> BackupReport {
        let chunking_bw = if chunking_time.is_zero() {
            f64::INFINITY
        } else {
            image.len() as f64 / chunking_time.as_secs_f64()
        };

        let image_id = self.site.begin_image();
        let mut new_chunks = 0usize;
        let mut new_bytes = 0u64;
        let mut dedup_bytes = 0u64;
        for v in verdicts {
            if v.duplicate {
                dedup_bytes += v.chunk.len as u64;
                self.site.receive_pointer(image_id, v.digest, v.chunk.len);
            } else {
                new_chunks += 1;
                new_bytes += v.chunk.len as u64;
                // Range-based commit: the chunk is an (offset, len) view
                // of the image; the only copy is into the segment log.
                self.site
                    .receive_chunk_slice(image_id, v.digest, v.chunk.slice(image));
            }
        }

        BackupReport {
            image_id,
            image_bytes: image.len() as u64,
            chunks: verdicts.len(),
            new_chunks,
            new_bytes,
            dedup_bytes,
            makespan,
            chunking_bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_core::ShredderConfig;
    use shredder_rabin::ChunkParams;
    use shredder_workloads::{MasterImage, SimilarityTable};

    /// 1 MiB buffers: small enough that an 8 MB image pipelines, large
    /// enough that the per-buffer SPMD sync stays a small share of the
    /// host's scan time.
    fn cpu_service() -> Shredder {
        Shredder::new(
            ShredderConfig::cpu_pthreads()
                .with_params(ChunkParams::backup())
                .with_buffer_size(1 << 20),
        )
    }

    fn gpu_service() -> Shredder {
        Shredder::new(
            ShredderConfig::gpu_streams_memory()
                .with_params(ChunkParams::backup())
                .with_buffer_size(256 << 10),
        )
    }

    fn small_config() -> BackupConfig {
        BackupConfig {
            buffer_size: 256 << 10,
            ..BackupConfig::paper()
        }
    }

    /// `backup_image` is the one-element case of `backup_batch`: same
    /// chunking time (hence `chunking_bw`), makespan and dedup verdicts,
    /// on the GPU pool and on the host executor, for a first backup and
    /// a deduplicating second one.
    #[test]
    fn single_image_equals_one_element_batch() {
        let first = shredder_workloads::compressible_bytes(3 << 20, 128, 21);
        let second = shredder_workloads::compressible_bytes(3 << 20, 128, 22);
        for svc in [gpu_service(), cpu_service()] {
            let mut single = BackupServer::new(small_config());
            let mut batch = BackupServer::new(small_config());
            for image in [&first, &second, &first] {
                let a = single.backup_image(image, &svc).unwrap();
                let b = batch.backup_batch(&[image], &svc).unwrap();
                assert_eq!(b.reports.len(), 1);
                assert_eq!(a, b.reports[0]);
                assert!(a.chunking_bw.is_finite() && a.makespan > Dur::ZERO);
            }
        }
    }

    #[test]
    fn roundtrip_restores_image() {
        let mut server = BackupServer::new(small_config());
        let image = shredder_workloads::random_bytes(1 << 20, 5);
        let report = server.backup_image(&image, &cpu_service()).unwrap();
        assert_eq!(server.site().restore(report.image_id).unwrap(), image);
        assert_eq!(report.image_bytes, 1 << 20);
        assert!(report.chunks > 10);
    }

    #[test]
    fn identical_snapshot_dedups_fully() {
        let mut server = BackupServer::new(small_config());
        let image = shredder_workloads::random_bytes(1 << 20, 6);
        let first = server.backup_image(&image, &cpu_service()).unwrap();
        let second = server.backup_image(&image, &cpu_service()).unwrap();
        assert_eq!(first.new_chunks, first.chunks);
        assert_eq!(second.new_chunks, 0);
        assert!((second.dedup_fraction() - 1.0).abs() < 1e-9);
        // Both restore correctly.
        assert_eq!(server.site().restore(0).unwrap(), image);
        assert_eq!(server.site().restore(1).unwrap(), image);
    }

    #[test]
    fn derived_snapshots_dedup_proportionally() {
        let mut server = BackupServer::new(small_config());
        let master = MasterImage::synthesize(2 << 20, 16 << 10, 7);
        let svc = cpu_service();
        server.backup_image(master.data(), &svc).unwrap();

        let table = SimilarityTable::uniform(master.segments(), 0.10);
        let snap = master.derive(&table, 3);
        let report = server.backup_image(&snap, &svc).unwrap();
        assert_eq!(server.site().restore(report.image_id).unwrap(), snap);
        assert!(
            report.dedup_fraction() > 0.75,
            "dedup {}",
            report.dedup_fraction()
        );
    }

    #[test]
    fn bandwidth_declines_with_dissimilarity() {
        // The Figure 18 monotone shape, at small scale.
        let master = MasterImage::synthesize(2 << 20, 16 << 10, 8);
        let svc = cpu_service();
        let mut bw = Vec::new();
        for p in [0.05, 0.25] {
            let mut server = BackupServer::new(small_config());
            server.backup_image(master.data(), &svc).unwrap();
            let table = SimilarityTable::uniform(master.segments(), p);
            let snap = master.derive(&table, 11);
            let report = server.backup_image(&snap, &svc).unwrap();
            bw.push(report.bandwidth_gbps());
        }
        assert!(bw[0] >= bw[1], "bandwidth rose with dissimilarity: {bw:?}");
    }

    #[test]
    fn empty_image() {
        let mut server = BackupServer::new(small_config());
        let report = server.backup_image(&[], &cpu_service()).unwrap();
        assert_eq!(report.chunks, 0);
        assert_eq!(report.bandwidth_gbps(), 0.0);
        assert_eq!(
            server.site().restore(report.image_id).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn batch_backup_restores_and_matches_sequential_dedup() {
        let master = MasterImage::synthesize(2 << 20, 64 << 10, 21);
        let table = SimilarityTable::uniform(master.segments(), 0.2);
        let snaps: Vec<Vec<u8>> = (1..=3).map(|n| master.derive(&table, n)).collect();
        let images: Vec<&[u8]> = snaps.iter().map(|s| s.as_slice()).collect();
        let gpu = gpu_service();

        // One batch: all three site streams through one shared engine.
        let mut batch_server = BackupServer::new(small_config());
        let batch = batch_server.backup_batch(&images, &gpu).unwrap();
        assert_eq!(batch.reports.len(), 3);
        assert_eq!(batch.engine.sessions.len(), 3);
        for (report, snap) in batch.reports.iter().zip(&snaps) {
            assert_eq!(batch_server.site().restore(report.image_id).unwrap(), *snap);
        }

        // Same images sequentially: identical chunking -> identical
        // dedup decisions.
        let mut seq_server = BackupServer::new(small_config());
        for (report, snap) in batch.reports.iter().zip(&snaps) {
            let seq = seq_server.backup_image(snap, &gpu).unwrap();
            assert_eq!(report.chunks, seq.chunks);
            assert_eq!(report.new_chunks, seq.new_chunks);
            assert_eq!(report.new_bytes, seq.new_bytes);
        }
        assert_eq!(
            batch.total_bytes(),
            snaps.iter().map(|s| s.len() as u64).sum()
        );
        assert!(batch.aggregate_bandwidth_gbps() > 0.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut server = BackupServer::new(small_config());
        let batch = server.backup_batch(&[], &gpu_service()).unwrap();
        assert!(batch.reports.is_empty());
        assert_eq!(batch.aggregate_bandwidth_gbps(), 0.0);
        assert_eq!(batch.index_hit_rate(), 0.0);
    }

    #[test]
    fn batch_report_surfaces_index_counters() {
        let mut server = BackupServer::new(small_config());
        let image = shredder_workloads::random_bytes(1 << 20, 31);
        let first = server
            .backup_batch(&[image.as_slice()], &gpu_service())
            .unwrap();
        assert!(first.index_lookups > 0);
        assert_eq!(first.index_hits, 0, "fresh site holds nothing");
        // The same image again: every lookup hits.
        let second = server
            .backup_batch(&[image.as_slice()], &gpu_service())
            .unwrap();
        assert_eq!(second.index_lookups, 2 * first.index_lookups);
        assert_eq!(second.index_hits, first.index_lookups);
        assert!((second.index_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gc_after_expiry_reclaims_and_keeps_index_consistent() {
        // Small segments so compaction (not just the sweep) is exercised:
        // with multi-MB segments the dead bytes would stay resident in
        // the open segment until it seals.
        let mut server = BackupServer::with_store_config(
            small_config(),
            shredder_store::StoreConfig {
                segment_bytes: 64 << 10,
                gc_threshold: 0.5,
                retention: None,
            },
        );
        let svc = cpu_service();
        let master = MasterImage::synthesize(1 << 20, 16 << 10, 41);
        let table = SimilarityTable::uniform(master.segments(), 0.3);
        let old = master.derive(&table, 1);
        let new = master.derive(&table, 2);

        let old_report = server.backup_image(&old, &svc).unwrap();
        let new_report = server.backup_image(&new, &svc).unwrap();
        let physical_before = server.site().physical_bytes();

        assert_eq!(server.expire_images(old_report.image_id), 1);
        let gc = server.collect_garbage();
        assert!(gc.freed_chunks > 0, "old image had unique chunks");
        assert!(server.site().physical_bytes() < physical_before);
        // The live image is untouched and fully verified.
        assert_eq!(server.site().restore(new_report.image_id).unwrap(), new);
        // Freed fingerprints left the index: re-backing-up the expired
        // image ships its unique chunks again and restores correctly.
        let again = server.backup_image(&old, &svc).unwrap();
        assert!(again.new_chunks > 0, "GC'd chunks must re-ship");
        assert_eq!(server.site().restore(again.image_id).unwrap(), old);
    }

    #[test]
    fn backup_service_poisson_matches_batch_dedup_and_reports_latency() {
        use shredder_core::{AdmissionControl, Workload};

        let master = MasterImage::synthesize(1 << 20, 32 << 10, 51);
        let table = SimilarityTable::uniform(master.segments(), 0.2);
        let snaps: Vec<Vec<u8>> = (1..=3).map(|n| master.derive(&table, n)).collect();
        let images: Vec<&[u8]> = snaps.iter().map(|s| s.as_slice()).collect();
        let gpu = gpu_service();

        // Gentle open-loop arrivals with FIFO admission: everything
        // completes, and the dedup decisions match the batch path
        // (identical chunk boundaries, identical index sequence).
        let mut svc_server = BackupServer::new(small_config());
        let svc = svc_server
            .backup_service(
                &images,
                &gpu,
                &Workload::poisson(50.0, 7),
                AdmissionControl::fifo(1),
            )
            .unwrap();
        assert_eq!(svc.completed(), 3);
        assert_eq!(svc.shed(), 0);
        let report = &svc.engine.service;
        assert_eq!(report.completed, 3);
        assert!(report.p99() > Dur::ZERO);
        assert!(report.class("site").is_some());

        let mut batch_server = BackupServer::new(small_config());
        let batch = batch_server.backup_batch(&images, &gpu).unwrap();
        for (s, b) in svc.reports.iter().zip(&batch.reports) {
            let s = s.as_ref().unwrap();
            assert_eq!(s.chunks, b.chunks);
            assert_eq!(s.new_chunks, b.new_chunks);
            assert_eq!(s.new_bytes, b.new_bytes);
        }
        // Every image restores bit-identically.
        for (r, snap) in svc.reports.iter().zip(&snaps) {
            let r = r.as_ref().unwrap();
            assert_eq!(svc_server.site().restore(r.image_id).unwrap(), *snap);
        }
    }

    #[test]
    fn backup_service_sheds_under_overload_without_corrupting_accepted_images() {
        use shredder_core::{AdmissionControl, ChunkError, Workload};

        let images_data: Vec<Vec<u8>> = (0..6u64)
            .map(|s| shredder_workloads::random_bytes(1 << 20, 60 + s))
            .collect();
        let images: Vec<&[u8]> = images_data.iter().map(|s| s.as_slice()).collect();
        let gpu = gpu_service();

        // A hard queue bound under a burst: some images must shed.
        let mut server = BackupServer::new(small_config());
        let control = AdmissionControl::fifo(1).with_queue_depth(1);
        let svc = server
            .backup_service(&images, &gpu, &Workload::Batch, control)
            .unwrap();
        assert!(svc.shed() > 0, "burst into depth-1 queue must shed");
        assert!(svc.completed() > 0);
        for r in &svc.reports {
            if let Err(e) = r {
                assert!(matches!(e, ChunkError::Overloaded { .. }), "{e:?}");
            }
        }

        // Accepted images match a run containing only them: the shed
        // traffic left no trace in the index or the site.
        let accepted: Vec<&[u8]> = svc
            .reports
            .iter()
            .zip(&images)
            .filter(|(r, _)| r.is_ok())
            .map(|(_, img)| *img)
            .collect();
        let mut clean = BackupServer::new(small_config());
        let clean_batch = clean.backup_batch(&accepted, &gpu).unwrap();
        let kept: Vec<&BackupReport> = svc.reports.iter().filter_map(|r| r.as_ref().ok()).collect();
        for (a, b) in kept.iter().zip(&clean_batch.reports) {
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(
                a.new_chunks, b.new_chunks,
                "shed requests polluted the index"
            );
            assert_eq!(a.new_bytes, b.new_bytes);
        }
        assert_eq!(svc.index_lookups, clean_batch.index_lookups);
    }

    #[test]
    fn cpu_backup_bandwidth_is_chunking_bound() {
        // Pthreads-CPU sits near its 0.4 GB/s ≈ 3.2 Gbps chunking rate
        // (the flat line of Figure 18). Small buffers so the 8 MB image
        // actually pipelines.
        let mut server = BackupServer::new(small_config());
        let image = shredder_workloads::random_bytes(8 << 20, 9);
        let report = server.backup_image(&image, &cpu_service()).unwrap();
        let gbps = report.bandwidth_gbps();
        assert!(gbps > 2.0 && gbps < 4.0, "{gbps} Gbps");
    }
}
