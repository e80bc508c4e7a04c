//! The Inc-HDFS client API.
//!
//! `copy_from_local` mimics plain HDFS (fixed-size splits);
//! `copy_from_local_gpu` is the §6.3 extension: the client runs the
//! computationally expensive chunking through a [`Shredder`] (the
//! Shredder-enabled HDFS client of Figure 14) before uploading chunks
//! to DataNodes, deduplicating splits whose content is already stored.
//! Record alignment and split fingerprinting run as a
//! [`RecordAlignedSink`] inside the engine's simulation, so the hash
//! work overlaps chunking. An upload that finds every DataNode down
//! fails with [`HdfsError::NoLiveDataNode`] and commits nothing.

use std::fmt;

use bytes::Bytes;
use shredder_core::{
    AdmissionControl, ChunkError, ChunkRequest, ServiceReport, Shredder, SliceSource, Workload,
};
use shredder_des::Dur;
use shredder_hash::{sha256_many, Digest};
use shredder_rabin::{chunk_fixed, Chunk};

use crate::input_format::InputFormat;
use crate::namenode::{FileVersion, NameNode, SplitMeta};
use crate::sink::RecordAlignedSink;
use crate::store::ChunkStore;

/// Errors from Inc-HDFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    /// The path has no committed version.
    FileNotFound(String),
    /// The requested version index does not exist.
    VersionNotFound {
        /// Requested path.
        path: String,
        /// Requested version.
        version: usize,
    },
    /// A split's payload is missing from its DataNode (corruption).
    MissingChunk(Digest),
    /// The chunking engine failed while ingesting the file.
    Chunking(ChunkError),
    /// Every DataNode is down: an upload has nowhere to store its
    /// splits, so nothing is committed.
    NoLiveDataNode,
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::FileNotFound(p) => write!(f, "file not found: {p}"),
            HdfsError::VersionNotFound { path, version } => {
                write!(f, "version {version} of {path} not found")
            }
            HdfsError::MissingChunk(d) => write!(f, "missing chunk payload {d:?}"),
            HdfsError::Chunking(e) => write!(f, "chunking failed: {e}"),
            HdfsError::NoLiveDataNode => f.write_str("no live datanode to store splits on"),
        }
    }
}

impl std::error::Error for HdfsError {}

impl From<ChunkError> for HdfsError {
    fn from(e: ChunkError) -> Self {
        HdfsError::Chunking(e)
    }
}

/// Outcome of an upload.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadReport {
    /// Version index created.
    pub version: usize,
    /// Logical bytes uploaded.
    pub total_bytes: u64,
    /// Bytes that were new (actually shipped to DataNodes).
    pub new_bytes: u64,
    /// Bytes deduplicated against already-stored chunks.
    pub dedup_bytes: u64,
    /// Number of splits in the new version.
    pub splits: usize,
    /// Splits whose content was new.
    pub new_splits: usize,
    /// Simulated client-side chunking time (from the chunking service).
    pub chunking_time: Dur,
    /// Simulated end-to-end ingestion time: chunking plus the
    /// in-simulation fingerprinting of every aligned split. Zero for the
    /// fixed-split path (no fingerprint stage is simulated there).
    pub upload_makespan: Dur,
}

impl UploadReport {
    /// Fraction of bytes that deduplicated.
    pub fn dedup_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.dedup_bytes as f64 / self.total_bytes as f64
    }
}

/// A split plus its payload, as handed to Map tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitData {
    /// Split metadata.
    pub meta: SplitMeta,
    /// Payload bytes.
    pub bytes: Bytes,
}

/// The Inc-HDFS cluster: one NameNode plus `n` DataNodes.
///
/// # Examples
///
/// ```
/// use shredder_hdfs::IncHdfs;
///
/// let mut fs = IncHdfs::new(3);
/// fs.copy_from_local("/plain", b"0123456789", 4).unwrap();
/// assert_eq!(fs.read("/plain").unwrap(), b"0123456789");
/// assert_eq!(fs.splits("/plain").unwrap().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncHdfs {
    namenode: NameNode,
    datanodes: Vec<ChunkStore>,
    next_node: usize,
    replication: usize,
    dead: std::collections::BTreeSet<usize>,
    /// All nodes holding each chunk (the replica map the NameNode keeps
    /// in real HDFS). Ordered so reports iterate deterministically.
    replicas: std::collections::BTreeMap<Digest, Vec<usize>>,
}

impl IncHdfs {
    /// Creates a cluster with `datanodes` DataNodes and no replication.
    ///
    /// # Panics
    ///
    /// Panics if `datanodes` is zero.
    pub fn new(datanodes: usize) -> Self {
        IncHdfs::with_replication(datanodes, 1)
    }

    /// Creates a cluster storing each chunk on `replication` distinct
    /// DataNodes (HDFS defaults to 3).
    ///
    /// # Panics
    ///
    /// Panics if `datanodes` is zero or `replication` is zero or exceeds
    /// the node count.
    pub fn with_replication(datanodes: usize, replication: usize) -> Self {
        assert!(datanodes > 0, "need at least one datanode");
        assert!(
            (1..=datanodes).contains(&replication),
            "replication must be between 1 and the node count"
        );
        IncHdfs {
            namenode: NameNode::new(),
            datanodes: vec![ChunkStore::new(); datanodes],
            next_node: 0,
            replication,
            dead: Default::default(),
            replicas: Default::default(),
        }
    }

    /// Marks a DataNode as failed: reads fall back to replicas and new
    /// placements avoid it.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn fail_datanode(&mut self, node: usize) {
        assert!(node < self.datanodes.len(), "no such datanode");
        self.dead.insert(node);
    }

    /// Brings a failed DataNode back (its stored chunks reappear).
    pub fn revive_datanode(&mut self, node: usize) {
        self.dead.remove(&node);
    }

    /// Borrowed, copy-free read of a chunk from any live replica.
    fn fetch_ref(&self, digest: &Digest, primary: usize) -> Option<&[u8]> {
        if !self.dead.contains(&primary) {
            if let Some(b) = self.datanodes[primary].read_chunk(digest) {
                return Some(b);
            }
        }
        self.replicas.get(digest)?.iter().find_map(|&n| {
            if self.dead.contains(&n) {
                None
            } else {
                self.datanodes[n].read_chunk(digest)
            }
        })
    }

    /// Fetches a chunk from any live replica as owned bytes.
    fn fetch(&self, digest: &Digest, primary: usize) -> Option<Bytes> {
        self.fetch_ref(digest, primary).map(Bytes::copy_from_slice)
    }

    /// The NameNode (metadata queries).
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Total physical bytes stored across DataNodes.
    pub fn physical_bytes(&self) -> u64 {
        self.datanodes.iter().map(ChunkStore::physical_bytes).sum()
    }

    /// Plain-HDFS upload: fixed-size splits of `split_size` bytes
    /// (`copyFromLocal`).
    ///
    /// # Errors
    ///
    /// [`HdfsError::NoLiveDataNode`] if every DataNode is down; nothing
    /// is committed then.
    pub fn copy_from_local(
        &mut self,
        path: &str,
        data: &[u8],
        split_size: usize,
    ) -> Result<UploadReport, HdfsError> {
        let splits = chunk_fixed(data, split_size);
        let payloads: Vec<&[u8]> = splits.iter().map(|c| c.slice(data)).collect();
        let aligned: Vec<(Chunk, Digest)> =
            splits.into_iter().zip(sha256_many(&payloads)).collect();
        self.commit(path, data, &aligned, Dur::ZERO, Dur::ZERO)
    }

    /// Content-based upload through a Shredder chunking service with
    /// semantic record alignment (`copyFromLocalGPU`, §6.3): the
    /// one-file case of [`copy_many_gpu`](Self::copy_many_gpu), as a
    /// closed batch with unbounded admission.
    ///
    /// # Errors
    ///
    /// [`HdfsError::Chunking`] if the chunking engine fails;
    /// [`HdfsError::NoLiveDataNode`] if every DataNode is down.
    pub fn copy_from_local_gpu(
        &mut self,
        path: &str,
        data: &[u8],
        shredder: &Shredder,
        format: &dyn InputFormat,
    ) -> Result<UploadReport, HdfsError> {
        let (mut reports, _) = self.copy_many_gpu(
            &[(path, data)],
            shredder,
            format,
            &Workload::Batch,
            AdmissionControl::unbounded(),
        )?;
        reports.swap_remove(0)
    }

    /// Multi-file ingestion: uploads several files through one
    /// multi-stream engine run, so their chunking — and the
    /// record-aligned fingerprinting of every split — contends for and
    /// overlaps on **one** shared device pipeline (the §4.2 pipeline
    /// kept saturated across files instead of drained between them).
    ///
    /// The uploads arrive *inside* the simulation according to
    /// `workload` ([`Workload::Batch`] for a closed batch, or open-loop
    /// Poisson, closed loop, trace replay) and pass through the
    /// admission queue of `control` — the Shredder-enabled HDFS client
    /// as a long-lived ingest frontend.
    ///
    /// Returns one result per `(path, data)` pair in order (shed
    /// uploads carry [`HdfsError::Chunking`] wrapping
    /// `ChunkError::Overloaded`, and uploads finding every DataNode
    /// down [`HdfsError::NoLiveDataNode`]; neither commits anything)
    /// plus the run's [`ServiceReport`] (offered vs. achieved req/s,
    /// queue-depth timeline, latency percentiles). Each file's
    /// `chunking_time` is its own chunk-only duration (first admit →
    /// last Store completion) and its `upload_makespan` its
    /// arrival-to-done latency inside the shared run.
    ///
    /// # Errors
    ///
    /// [`HdfsError::Chunking`] if the engine rejects the configuration
    /// or, on the GPU executor, a buffer region (buffer plus carry) is
    /// larger than device memory; no file is committed in that case.
    #[allow(clippy::type_complexity)]
    pub fn copy_many_gpu(
        &mut self,
        files: &[(&str, &[u8])],
        shredder: &Shredder,
        format: &dyn InputFormat,
        workload: &Workload,
        control: AdmissionControl,
    ) -> Result<(Vec<Result<UploadReport, HdfsError>>, ServiceReport), HdfsError> {
        let mut sinks: Vec<RecordAlignedSink> = files
            .iter()
            .map(|_| RecordAlignedSink::new(format))
            .collect();
        let outcome = {
            let mut engine = shredder.engine().with_admission(control);
            for ((path, data), sink) in files.iter().zip(sinks.iter_mut()) {
                engine.submit(
                    ChunkRequest::new(SliceSource::new(data))
                        .named(path.to_string())
                        .with_sink(sink),
                );
            }
            engine.run(workload)?
        };

        let service = outcome.report.service;
        let mut reports = Vec::with_capacity(files.len());
        for (i, ((sink, (path, data)), result)) in sinks
            .into_iter()
            .zip(files)
            .zip(outcome.sessions)
            .enumerate()
        {
            match result {
                Ok(_) => {
                    let per = &outcome.report.sessions[i];
                    let latency = service.requests[i].latency().unwrap_or(per.makespan);
                    reports.push(self.commit(
                        path,
                        data,
                        &sink.into_aligned(),
                        per.chunking_time(),
                        latency,
                    ));
                }
                Err(e) => reports.push(Err(HdfsError::Chunking(e))),
            }
        }
        Ok((reports, service))
    }

    /// Stores an upload's splits and commits it as the file's next
    /// version; rejects it untouched when every DataNode is down.
    fn commit(
        &mut self,
        path: &str,
        data: &[u8],
        aligned: &[(Chunk, Digest)],
        chunking_time: Dur,
        upload_makespan: Dur,
    ) -> Result<UploadReport, HdfsError> {
        if self.dead.len() == self.datanodes.len() {
            return Err(HdfsError::NoLiveDataNode);
        }
        let mut splits = Vec::with_capacity(aligned.len());
        let mut new_bytes = 0u64;
        let mut dedup_bytes = 0u64;
        let mut new_splits = 0usize;

        for (chunk, digest) in aligned {
            let payload = chunk.slice(data);
            let digest = *digest;
            // Dedup across the whole cluster: if the chunk is already
            // replicated somewhere, point there; otherwise place it on
            // `replication` live nodes round-robin.
            let node = match self.replicas.get(&digest).and_then(|r| r.first().copied()) {
                Some(primary) => {
                    dedup_bytes += chunk.len as u64;
                    // Register the logical reference on the primary
                    // (a dedup hit: `put_slice` copies nothing).
                    self.datanodes[primary].put_slice(digest, payload);
                    primary
                }
                None => {
                    let mut placed = Vec::with_capacity(self.replication);
                    let total = self.datanodes.len();
                    let mut probe = 0usize;
                    while placed.len() < self.replication && probe < total {
                        let n = self.next_node;
                        self.next_node = (self.next_node + 1) % total;
                        probe += 1;
                        if self.dead.contains(&n) || placed.contains(&n) {
                            continue;
                        }
                        self.datanodes[n].put_slice(digest, payload);
                        placed.push(n);
                    }
                    // Fewer live nodes than the replication factor: store
                    // on whatever is available (possibly fewer copies, but
                    // at least one: some node is live).
                    let primary = placed[0];
                    self.replicas.insert(digest, placed);
                    new_bytes += chunk.len as u64;
                    new_splits += 1;
                    primary
                }
            };
            splits.push(SplitMeta {
                digest,
                offset: chunk.offset,
                len: chunk.len,
                datanode: node,
            });
        }

        let version = self.namenode.commit_version(path, FileVersion { splits });
        Ok(UploadReport {
            version,
            total_bytes: data.len() as u64,
            new_bytes,
            dedup_bytes,
            splits: aligned.len(),
            new_splits,
            chunking_time,
            upload_makespan,
        })
    }

    /// Reads back the latest version of a file.
    ///
    /// # Errors
    ///
    /// [`HdfsError::FileNotFound`] or [`HdfsError::MissingChunk`].
    pub fn read(&self, path: &str) -> Result<Vec<u8>, HdfsError> {
        let latest = self.namenode.version_count(path);
        if latest == 0 {
            return Err(HdfsError::FileNotFound(path.to_string()));
        }
        self.read_version(path, latest - 1)
    }

    /// Reads back a specific version.
    ///
    /// # Errors
    ///
    /// [`HdfsError`] variants for missing files, versions or chunks.
    pub fn read_version(&self, path: &str, version: usize) -> Result<Vec<u8>, HdfsError> {
        let v = self
            .namenode
            .version(path, version)
            .ok_or_else(|| HdfsError::VersionNotFound {
                path: path.to_string(),
                version,
            })?;
        let mut out = Vec::with_capacity(v.len() as usize);
        for s in &v.splits {
            // Borrowed read: the payload is appended straight from the
            // DataNode's segment log, no intermediate copy.
            let payload = self
                .fetch_ref(&s.digest, s.datanode)
                .ok_or(HdfsError::MissingChunk(s.digest))?;
            out.extend_from_slice(payload);
        }
        Ok(out)
    }

    /// The latest version's splits with payloads — the Map-task input.
    ///
    /// # Errors
    ///
    /// [`HdfsError`] variants for missing files or chunks.
    pub fn splits(&self, path: &str) -> Result<Vec<SplitData>, HdfsError> {
        let v = self
            .namenode
            .latest(path)
            .ok_or_else(|| HdfsError::FileNotFound(path.to_string()))?;
        v.splits
            .iter()
            .map(|&meta| {
                let bytes = self
                    .fetch(&meta.digest, meta.datanode)
                    .ok_or(HdfsError::MissingChunk(meta.digest))?;
                Ok(SplitData { meta, bytes })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::TextInputFormat;
    use shredder_core::{Shredder, ShredderConfig};
    use shredder_rabin::ChunkParams;

    fn corpus(seed: u64) -> Vec<u8> {
        shredder_workloads::words_corpus(300_000, 300, seed)
    }

    fn service() -> Shredder {
        Shredder::new(
            ShredderConfig::cpu_pthreads()
                .with_params(ChunkParams::paper().with_expected_size(4096)),
        )
    }

    /// `copy_from_local_gpu` is the one-file case of `copy_many_gpu`:
    /// same chunking time, upload makespan and dedup, on both executors
    /// — also when the one file goes through bounded FIFO admission.
    #[test]
    fn single_upload_equals_one_file_batch() {
        let (v1, v2) = (corpus(11), corpus(12));
        let gpu = Shredder::new(
            ShredderConfig::gpu_streams_memory()
                .with_params(ChunkParams::paper().with_expected_size(4096))
                .with_buffer_size(64 << 10),
        );
        for svc in [service(), gpu] {
            let mut single = IncHdfs::new(3);
            let mut batch = IncHdfs::new(3);
            for data in [&v1, &v2, &v1] {
                let a = single
                    .copy_from_local_gpu("/f", data, &svc, &TextInputFormat)
                    .unwrap();
                let (b, service) = batch
                    .copy_many_gpu(
                        &[("/f", data)],
                        &svc,
                        &TextInputFormat,
                        &Workload::Batch,
                        AdmissionControl::default(),
                    )
                    .unwrap();
                assert_eq!(b.len(), 1);
                assert_eq!(service.completed, 1);
                assert_eq!(&a, b[0].as_ref().unwrap());
                assert!(a.chunking_time > Dur::ZERO);
                assert!(a.chunking_time <= a.upload_makespan);
            }
        }
    }

    #[test]
    fn fixed_upload_roundtrip() {
        let mut fs = IncHdfs::new(4);
        let data = corpus(1);
        let report = fs.copy_from_local("/f", &data, 64 << 10).unwrap();
        assert_eq!(report.total_bytes, data.len() as u64);
        assert_eq!(fs.read("/f").unwrap(), data);
    }

    #[test]
    fn gpu_upload_roundtrip_and_splits() {
        let mut fs = IncHdfs::new(4);
        let data = corpus(2);
        let report = fs
            .copy_from_local_gpu("/f", &data, &service(), &TextInputFormat)
            .unwrap();
        assert_eq!(fs.read("/f").unwrap(), data);
        assert!(report.splits > 10);
        let splits = fs.splits("/f").unwrap();
        assert_eq!(splits.len(), report.splits);
        // Every split except the last ends at a record boundary.
        for s in &splits[..splits.len() - 1] {
            assert_eq!(*s.bytes.last().unwrap(), b'\n');
        }
    }

    #[test]
    fn second_version_dedups_unchanged_content() {
        let mut fs = IncHdfs::new(4);
        let data = corpus(3);
        let svc = service();
        fs.copy_from_local_gpu("/f", &data, &svc, &TextInputFormat)
            .unwrap();

        // 2% localized change.
        let changed =
            shredder_workloads::mutate(&data, &shredder_workloads::MutationSpec::replace(0.02, 9));
        let report = fs
            .copy_from_local_gpu("/f", &changed, &svc, &TextInputFormat)
            .unwrap();
        assert!(
            report.dedup_fraction() > 0.7,
            "dedup fraction {}",
            report.dedup_fraction()
        );
        assert_eq!(fs.read("/f").unwrap(), changed);
        // Old version still readable (versioned store).
        assert_eq!(fs.read_version("/f", 0).unwrap(), data);
    }

    #[test]
    fn fixed_chunking_fails_to_dedup_after_insertion() {
        // The motivating contrast of §6.2.
        let mut fs_fixed = IncHdfs::new(4);
        let mut fs_cdc = IncHdfs::new(4);
        let data = corpus(4);
        let svc = service();

        fs_fixed.copy_from_local("/f", &data, 32 << 10).unwrap();
        fs_cdc
            .copy_from_local_gpu("/f", &data, &svc, &TextInputFormat)
            .unwrap();

        // Insert a record near the front: everything shifts.
        let mut shifted = b"NEW RECORD AT FRONT\n".to_vec();
        shifted.extend_from_slice(&data);

        let fixed_report = fs_fixed.copy_from_local("/f", &shifted, 32 << 10).unwrap();
        let cdc_report = fs_cdc
            .copy_from_local_gpu("/f", &shifted, &svc, &TextInputFormat)
            .unwrap();

        assert!(
            fixed_report.dedup_fraction() < 0.05,
            "fixed dedup {}",
            fixed_report.dedup_fraction()
        );
        assert!(
            cdc_report.dedup_fraction() > 0.8,
            "cdc dedup {}",
            cdc_report.dedup_fraction()
        );
    }

    #[test]
    fn copy_many_uploads_through_one_engine() {
        let mut fs = IncHdfs::new(4);
        let a = corpus(11);
        let b = corpus(12);
        let c = corpus(13);
        let shredder = Shredder::new(
            shredder_core::ShredderConfig::gpu_streams_memory()
                .with_params(ChunkParams::paper().with_expected_size(4096))
                .with_buffer_size(64 << 10),
        );
        let (reports, _) = fs
            .copy_many_gpu(
                &[
                    ("/a", a.as_slice()),
                    ("/b", b.as_slice()),
                    ("/c", c.as_slice()),
                ],
                &shredder,
                &TextInputFormat,
                &Workload::Batch,
                AdmissionControl::unbounded(),
            )
            .unwrap();
        let reports: Vec<UploadReport> = reports.into_iter().map(Result::unwrap).collect();
        assert_eq!(reports.len(), 3);
        assert_eq!(fs.read("/a").unwrap(), a);
        assert_eq!(fs.read("/b").unwrap(), b);
        assert_eq!(fs.read("/c").unwrap(), c);
        // Each file's batched split set matches a solo upload: the
        // shared pipeline never changes boundaries.
        let mut solo = IncHdfs::new(4);
        let solo_report = solo
            .copy_from_local_gpu("/a", &a, &shredder, &TextInputFormat)
            .unwrap();
        assert_eq!(reports[0].splits, solo_report.splits);
        assert_eq!(reports[0].total_bytes, solo_report.total_bytes);
        // Per-file chunking time comes from its session in the shared run.
        for r in &reports {
            assert!(r.chunking_time > Dur::ZERO);
        }
    }

    #[test]
    fn service_ingest_matches_batch_and_sheds_cleanly() {
        use shredder_core::ChunkError;

        let data: Vec<Vec<u8>> = (21..25).map(corpus).collect();
        let files: Vec<(&str, &[u8])> = vec![
            ("/s0", data[0].as_slice()),
            ("/s1", data[1].as_slice()),
            ("/s2", data[2].as_slice()),
            ("/s3", data[3].as_slice()),
        ];
        let shredder = Shredder::new(
            shredder_core::ShredderConfig::gpu_streams_memory()
                .with_params(ChunkParams::paper().with_expected_size(4096))
                .with_buffer_size(64 << 10),
        );

        // Gentle Poisson arrivals: everything lands, splits match the
        // batch path, and the service report carries latencies.
        let mut fs = IncHdfs::new(4);
        let (reports, svc) = fs
            .copy_many_gpu(
                &files,
                &shredder,
                &TextInputFormat,
                &Workload::poisson(100.0, 3),
                AdmissionControl::fifo(2),
            )
            .unwrap();
        assert_eq!(svc.completed, 4);
        assert_eq!(svc.shed, 0);
        let mut batch_fs = IncHdfs::new(4);
        let (batch, _) = batch_fs
            .copy_many_gpu(
                &files,
                &shredder,
                &TextInputFormat,
                &Workload::Batch,
                AdmissionControl::unbounded(),
            )
            .unwrap();
        for ((r, b), (path, content)) in reports.iter().zip(&batch).zip(&files) {
            let (r, b) = (r.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(r.splits, b.splits);
            assert_eq!(r.new_bytes, b.new_bytes);
            assert_eq!(fs.read(path).unwrap(), *content);
        }

        // A zero-length queue under a batch burst: later uploads shed
        // with Overloaded and commit nothing.
        let mut fs = IncHdfs::new(4);
        let (reports, svc) = fs
            .copy_many_gpu(
                &files,
                &shredder,
                &TextInputFormat,
                &Workload::Batch,
                AdmissionControl::fifo(1).with_queue_depth(0),
            )
            .unwrap();
        assert!(svc.shed > 0);
        for (r, (path, content)) in reports.iter().zip(&files) {
            match r {
                Ok(_) => assert_eq!(fs.read(path).unwrap(), *content),
                Err(HdfsError::Chunking(ChunkError::Overloaded { .. })) => {
                    assert!(matches!(fs.read(path), Err(HdfsError::FileNotFound(_))));
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn errors_are_reported() {
        let fs = IncHdfs::new(2);
        assert!(matches!(fs.read("/nope"), Err(HdfsError::FileNotFound(_))));
        assert!(fs.splits("/nope").is_err());
        let mut fs = fs;
        fs.copy_from_local("/f", b"abc", 2).unwrap();
        assert!(matches!(
            fs.read_version("/f", 5),
            Err(HdfsError::VersionNotFound { .. })
        ));
    }

    #[test]
    fn replication_stores_multiple_copies() {
        let mut fs = IncHdfs::with_replication(5, 3);
        let data = corpus(7);
        fs.copy_from_local("/f", &data, 64 << 10).unwrap();
        // Roughly 3x the data stored physically (dedup of repeated
        // chunks makes it <= exactly 3x).
        let ratio = fs.physical_bytes() as f64 / data.len() as f64;
        assert!((2.5..=3.0).contains(&ratio), "ratio {ratio}");
        assert_eq!(fs.read("/f").unwrap(), data);
    }

    #[test]
    fn reads_survive_node_failures_up_to_replication() {
        let mut fs = IncHdfs::with_replication(5, 3);
        let data = corpus(8);
        fs.copy_from_local_gpu("/f", &data, &service(), &TextInputFormat)
            .unwrap();

        fs.fail_datanode(0);
        fs.fail_datanode(2);
        assert_eq!(fs.read("/f").unwrap(), data, "2 failures, 3 replicas");
        assert!(fs.splits("/f").is_ok());

        // A third failure can lose chunks...
        fs.fail_datanode(4);
        let lost = fs.read("/f");
        // ...but reviving restores access.
        fs.revive_datanode(0);
        assert_eq!(fs.read("/f").unwrap(), data);
        // (With 3-of-5 nodes dead, some chunk had all replicas dark.)
        assert!(lost.is_err() || lost.unwrap() == data);
    }

    #[test]
    fn unreplicated_cluster_loses_data_on_failure() {
        let mut fs = IncHdfs::new(4);
        let data = corpus(9);
        fs.copy_from_local("/f", &data, 64 << 10).unwrap();
        fs.fail_datanode(1);
        assert!(matches!(fs.read("/f"), Err(HdfsError::MissingChunk(_))));
    }

    #[test]
    fn upload_with_every_datanode_dead_commits_nothing() {
        let mut fs = IncHdfs::new(2);
        fs.fail_datanode(0);
        fs.fail_datanode(1);
        assert_eq!(
            fs.copy_from_local("/f", b"0123456789", 4),
            Err(HdfsError::NoLiveDataNode)
        );
        assert_eq!(
            fs.copy_from_local_gpu("/g", &corpus(6), &service(), &TextInputFormat),
            Err(HdfsError::NoLiveDataNode)
        );
        assert_eq!(fs.namenode().version_count("/f"), 0);
        assert_eq!(fs.namenode().version_count("/g"), 0);
        assert_eq!(fs.physical_bytes(), 0);

        fs.revive_datanode(1);
        let report = fs.copy_from_local("/f", b"0123456789", 4).unwrap();
        assert_eq!((report.version, report.new_splits), (0, 3));
        assert_eq!(fs.read("/f").unwrap(), b"0123456789");
    }

    /// The simulated upload times of two versions of a seeded corpus,
    /// in ns: chunking, arrival-to-done makespan, and the record-aligned
    /// sink's fingerprint service, on both executors.
    #[test]
    fn upload_timing_is_pinned() {
        let v1 = shredder_workloads::words_corpus(1 << 20, 500, 42);
        let v2 =
            shredder_workloads::mutate(&v1, &shredder_workloads::MutationSpec::replace(0.05, 7));
        let params = ChunkParams::paper().with_expected_size(4096);
        let gpu = ShredderConfig::gpu_streams_memory();
        let cpu = ShredderConfig::cpu_pthreads();
        // (config, [(chunking, upload makespan, sink service)] for v1, v2)
        let expected = [
            (
                gpu,
                [
                    (1_449_134, 1_467_807, 699_060),
                    (1_449_134, 1_467_958, 699_059),
                ],
            ),
            (
                cpu,
                [
                    (12_886_514, 12_887_150, 699_060),
                    (12_886_514, 12_886_902, 699_059),
                ],
            ),
        ];
        for (config, times) in expected {
            let svc = Shredder::new(
                config
                    .with_params(params.clone())
                    .with_buffer_size(64 << 10),
            );
            let mut fs = IncHdfs::new(3);
            for (data, (chunking, makespan, sink)) in [&v1, &v2].into_iter().zip(times) {
                let report = fs
                    .copy_from_local_gpu("/f", data, &svc, &TextInputFormat)
                    .unwrap();
                let mut aligned = RecordAlignedSink::new(&TextInputFormat);
                let run = svc.chunk_stream_sink(data, &mut aligned).unwrap();
                let name = svc.service_name();
                assert_eq!(report.chunking_time.as_nanos(), chunking, "{name}");
                assert_eq!(report.upload_makespan.as_nanos(), makespan, "{name}");
                assert_eq!(run.sessions[0].sink_service.as_nanos(), sink, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "replication must be between")]
    fn oversized_replication_panics() {
        let _ = IncHdfs::with_replication(2, 3);
    }

    #[test]
    fn physical_bytes_grow_only_with_new_content() {
        let mut fs = IncHdfs::new(4);
        let data = corpus(5);
        let svc = service();
        fs.copy_from_local_gpu("/f", &data, &svc, &TextInputFormat)
            .unwrap();
        let after_first = fs.physical_bytes();
        fs.copy_from_local_gpu("/g", &data, &svc, &TextInputFormat)
            .unwrap();
        let after_second = fs.physical_bytes();
        assert_eq!(after_first, after_second, "identical file re-stored");
    }
}
