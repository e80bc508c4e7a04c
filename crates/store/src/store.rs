//! The versioned content-addressed chunk store.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use shredder_hash::{sha256, sha256_many, Digest};
use shredder_telemetry::MetricsRegistry;

use crate::index::ChunkIndex;
use crate::manifest::{ManifestEntry, SnapshotManifest};
use crate::segment::{ChunkLoc, SegmentLog};

/// Store tuning parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Segment roll size in bytes: chunk payloads are packed into
    /// append-only segments of (about) this size.
    pub segment_bytes: usize,
    /// Compaction threshold in `[0, 1]`: GC rewrites the survivors of
    /// any sealed segment whose live fraction falls below this and
    /// retires the segment. `0.0` disables compaction (only fully-dead
    /// segments are retired); `1.0` compacts any segment with a single
    /// dead byte.
    pub gc_threshold: f64,
    /// Snapshot retention per stream: `Some(n)` keeps only the latest
    /// `n` generations — enforced automatically whenever a new snapshot
    /// opens (and re-appliable via [`ChunkStore::apply_retention`]).
    /// `None` retains everything until explicitly expired. Expired
    /// chunk payloads stay resident until [`ChunkStore::gc`] reclaims
    /// them. Must not be `Some(0)`.
    pub retention: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 8 << 20,
            gc_threshold: 0.5,
            retention: None,
        }
    }
}

/// Errors from snapshot and restore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The stream has no snapshots.
    UnknownStream(String),
    /// The generation does not exist (never committed, or expired).
    UnknownGeneration {
        /// Requested stream.
        stream: String,
        /// Requested generation.
        generation: u64,
    },
    /// A recipe references a chunk the store does not hold.
    MissingChunk(Digest),
    /// A chunk's payload failed digest (or length) verification on the
    /// read-back path.
    CorruptChunk(Digest),
    /// A [`ChunkStore::scrub`] pass found corrupt chunks. Carries the
    /// full pass report, including every corrupt digest.
    ScrubFailed(ScrubReport),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownStream(s) => write!(f, "unknown stream: {s}"),
            StoreError::UnknownGeneration { stream, generation } => {
                write!(f, "generation {generation} of {stream} not found")
            }
            StoreError::MissingChunk(d) => write!(f, "missing chunk {}", d.to_hex()),
            StoreError::CorruptChunk(d) => {
                write!(f, "chunk {} failed digest verification", d.to_hex())
            }
            StoreError::ScrubFailed(r) => {
                write!(
                    f,
                    "scrub found {} corrupt chunk(s) of {} scanned",
                    r.corrupt.len(),
                    r.chunks_scanned
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of one [`ChunkStore::gc`] pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GcReport {
    /// Chunks freed by the sweep.
    pub freed_chunks: usize,
    /// Payload bytes those chunks held.
    pub freed_bytes: u64,
    /// The freed fingerprints, sorted — the eviction feed for external
    /// indexes (`DedupIndex::evict`, `MemoTable::evict_digests`).
    pub freed_digests: Vec<Digest>,
    /// Segments compacted and retired.
    pub compacted_segments: usize,
    /// Live bytes rewritten during compaction.
    pub moved_bytes: u64,
    /// Resident bytes before the pass.
    pub physical_before: u64,
    /// Resident bytes after the pass.
    pub physical_after: u64,
}

impl GcReport {
    /// Physical bytes actually reclaimed by this pass.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.physical_before.saturating_sub(self.physical_after)
    }

    /// Fraction of the pre-GC footprint reclaimed, in `[0, 1]`.
    pub fn reclaim_fraction(&self) -> f64 {
        if self.physical_before == 0 {
            return 0.0;
        }
        self.reclaimed_bytes() as f64 / self.physical_before as f64
    }
}

/// Outcome of one [`ChunkStore::scrub`] pass.
///
/// Returned as `Ok` when every chunk verified, and inside
/// [`StoreError::ScrubFailed`] when any did not, so callers always get
/// the scan totals either way.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Chunks read back and verified.
    pub chunks_scanned: usize,
    /// Payload bytes read back.
    pub bytes_scanned: u64,
    /// Digests whose payloads failed verification (wrong bytes, wrong
    /// length, or unreadable), sorted.
    pub corrupt: Vec<Digest>,
}

/// Outcome of one [`ChunkStore::recover`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Index entries examined.
    pub chunks_checked: usize,
    /// Digests dropped because their payloads were lost (torn off the
    /// log tail), sorted. The caller re-ships these chunks.
    pub dropped_digests: Vec<Digest>,
    /// Payload bytes those dropped chunks claimed.
    pub dropped_bytes: u64,
}

/// Outcome of one [`ChunkStore::repair_from`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RepairReport {
    /// Snapshot manifests installed from the peer (missing locally).
    pub snapshots_installed: usize,
    /// Streams that gained at least one installed snapshot, sorted.
    pub streams_repaired: Vec<String>,
    /// Chunk payloads copied from the peer (digest-verified on copy).
    pub chunks_copied: usize,
    /// Payload bytes those copies moved — the physical repair traffic a
    /// real cluster would ship over the wire.
    pub bytes_copied: u64,
    /// Referenced chunks that were already resident locally (dedup
    /// against the survivor's own inventory; no bytes moved).
    pub chunks_already_present: usize,
}

impl RepairReport {
    /// Folds `other` into `self` — counters add, repaired-stream lists
    /// merge (sorted, deduplicated). Lets a caller aggregate many
    /// per-snapshot [`ChunkStore::install_snapshot`] reports into one
    /// repair-pass summary.
    pub fn absorb(&mut self, other: RepairReport) {
        self.snapshots_installed += other.snapshots_installed;
        self.chunks_copied += other.chunks_copied;
        self.bytes_copied += other.bytes_copied;
        self.chunks_already_present += other.chunks_already_present;
        self.streams_repaired.extend(other.streams_repaired);
        self.streams_repaired.sort();
        self.streams_repaired.dedup();
    }
}

/// Aggregate store observability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// Distinct chunks stored.
    pub chunk_count: usize,
    /// Resident segments.
    pub segment_count: usize,
    /// Bytes resident in segments (live + dead-not-yet-reclaimed).
    pub physical_bytes: u64,
    /// Bytes referenced by live chunks.
    pub live_bytes: u64,
    /// Bytes offered to the store across all puts (before dedup).
    pub logical_bytes: u64,
    /// Puts that deduplicated.
    pub dedup_hits: u64,
    /// Streams with at least one live snapshot.
    pub streams: usize,
    /// Live snapshots across all streams.
    pub snapshots: usize,
    /// GC passes run.
    pub gc_runs: u64,
    /// Cumulative chunks freed by GC.
    pub freed_chunks_total: u64,
    /// Cumulative payload bytes freed by GC.
    pub freed_bytes_total: u64,
}

impl StoreReport {
    /// Dedup ratio: logical / physical (1.0 = no savings).
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.physical_bytes as f64
    }

    /// Live fraction of the resident footprint, in `[0, 1]`.
    pub fn live_fraction(&self) -> f64 {
        if self.physical_bytes == 0 {
            return 1.0;
        }
        self.live_bytes as f64 / self.physical_bytes as f64
    }
}

/// Per-stream snapshot state.
#[derive(Debug, Clone, Default)]
struct StreamState {
    next_generation: u64,
    snapshots: BTreeMap<u64, SnapshotManifest>,
}

/// A versioned content-addressed chunk store.
///
/// Chunk payloads are packed into fixed-size segments
/// (the internal segment log); a sharded [`ChunkIndex`] maps each digest to its
/// (segment, offset, length). On top of the flat store sit
/// **snapshots**: per-stream, per-generation [`SnapshotManifest`]s
/// recording the ordered chunk recipe of that generation.
/// [`restore`](ChunkStore::restore) reassembles any live generation and
/// verifies every payload against its digest;
/// [`expire`](ChunkStore::expire) drops old generations; and
/// [`gc`](ChunkStore::gc) mark-and-sweeps unreferenced chunks, then
/// compacts segments below the configured liveness threshold.
///
/// Storing the same content twice keeps one copy — the dedup behaviour
/// every byte of Inc-HDFS and the backup site relies on.
///
/// # Examples
///
/// ```
/// use shredder_hash::sha256;
/// use shredder_store::ChunkStore;
///
/// let mut store = ChunkStore::new();
/// let d = store.put(b"hello".as_slice().into());
/// assert_eq!(d, sha256(b"hello"));
/// store.put(b"hello".as_slice().into()); // dedup: no growth
/// assert_eq!(store.physical_bytes(), 5);
/// assert_eq!(store.logical_bytes(), 10);
/// ```
///
/// Snapshots, restore and GC:
///
/// ```
/// use shredder_store::ChunkStore;
///
/// let mut store = ChunkStore::new();
/// let a = store.put(b"generation one".as_slice().into());
/// let g0 = store.commit_snapshot("vm", &[(a, 14)]).unwrap();
/// let b = store.put(b"generation two".as_slice().into());
/// let g1 = store.commit_snapshot("vm", &[(b, 14)]).unwrap();
///
/// assert_eq!(store.restore("vm", g0).unwrap(), b"generation one");
/// store.expire("vm", g0);
/// let gc = store.gc();
/// assert_eq!(gc.freed_chunks, 1); // generation one's chunk
/// assert_eq!(store.restore("vm", g1).unwrap(), b"generation two");
/// assert!(store.restore("vm", g0).is_err()); // expired
/// ```
#[derive(Debug, Clone)]
pub struct ChunkStore {
    config: StoreConfig,
    log: SegmentLog,
    index: ChunkIndex<ChunkLoc>,
    streams: BTreeMap<String, StreamState>,
    logical_bytes: u64,
    dedup_hits: u64,
    gc_runs: u64,
    freed_chunks_total: u64,
    freed_bytes_total: u64,
}

impl ChunkStore {
    /// Creates an empty store with the default configuration.
    pub fn new() -> Self {
        ChunkStore::with_config(StoreConfig::default())
    }

    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero or exceeds 4 GiB (chunk
    /// locations are 32-bit), `gc_threshold` is outside `[0, 1]`, or
    /// `retention` is `Some(0)` (which would expire a snapshot the
    /// moment it opens).
    pub fn with_config(config: StoreConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.gc_threshold),
            "gc threshold must be within [0, 1]"
        );
        assert!(
            config.retention != Some(0),
            "retention of 0 generations would expire every snapshot at open"
        );
        ChunkStore {
            log: SegmentLog::new(config.segment_bytes),
            config,
            index: ChunkIndex::new(),
            streams: BTreeMap::new(),
            logical_bytes: 0,
            dedup_hits: 0,
            gc_runs: 0,
            freed_chunks_total: 0,
            freed_bytes_total: 0,
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Stores a chunk, returning its digest. Duplicate content is
    /// detected by digest and not stored again.
    pub fn put(&mut self, data: Bytes) -> Digest {
        let digest = sha256(&data);
        self.put_with_digest(digest, data);
        digest
    }

    /// Stores a chunk under a pre-computed digest (the common path: the
    /// Store thread already hashed the chunk).
    ///
    /// Returns `true` if the chunk was new.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `digest` does not match the data.
    pub fn put_with_digest(&mut self, digest: Digest, data: Bytes) -> bool {
        self.put_slice(digest, &data)
    }

    /// [`put_with_digest`](Self::put_with_digest) from a borrowed slice:
    /// the payload is only copied (into the segment log) when the chunk
    /// is new, so dedup hits on the hot ingest path allocate nothing.
    ///
    /// Returns `true` if the chunk was new.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `digest` does not match the data.
    pub fn put_slice(&mut self, digest: Digest, data: &[u8]) -> bool {
        debug_assert_eq!(digest, sha256(data), "digest mismatch");
        self.logical_bytes += data.len() as u64;
        if self.index.contains(&digest) {
            self.dedup_hits += 1;
            return false;
        }
        let loc = self.log.append(data);
        self.index.insert(digest, loc);
        true
    }

    /// Fetches a chunk by digest, copying it out as owned [`Bytes`].
    /// Read paths that only need to look at (or append from) the
    /// payload should prefer the copy-free
    /// [`read_chunk`](Self::read_chunk).
    pub fn get(&self, digest: &Digest) -> Option<Bytes> {
        self.read_chunk(digest).map(Bytes::copy_from_slice)
    }

    /// Borrowed, copy-free read of a chunk payload straight from the
    /// segment log.
    pub fn read_chunk(&self, digest: &Digest) -> Option<&[u8]> {
        let loc = *self.index.get(digest)?;
        self.log.read(loc)
    }

    /// True if the digest is stored.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.index.contains(digest)
    }

    /// Number of distinct chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// The store's full chunk inventory — every resident `(digest,
    /// payload length)` pair, sorted by digest. This is what cross-store
    /// dedup analysis needs: duplicate bytes between two nodes are the
    /// lengths of the digests their inventories share.
    pub fn chunk_inventory(&self) -> Vec<(Digest, u64)> {
        let mut out: Vec<(Digest, u64)> = self
            .index
            .iter()
            .map(|(digest, loc)| (*digest, loc.byte_len()))
            .collect();
        out.sort_unstable_by_key(|(digest, _)| *digest);
        out
    }

    /// Bytes resident in segments (live chunks plus dead bytes GC has
    /// not yet reclaimed). Before any expiry this equals the deduped
    /// chunk bytes.
    pub fn physical_bytes(&self) -> u64 {
        self.log.resident_bytes()
    }

    /// Bytes referenced by live chunks.
    pub fn live_bytes(&self) -> u64 {
        self.log.live_bytes()
    }

    /// Bytes offered to the store (before dedup).
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Number of puts that deduplicated.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Dedup ratio: logical / physical (1.0 = no savings).
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes() == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.physical_bytes() as f64
    }

    /// Resident segment count.
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }

    // ----- Snapshots -----

    /// Opens a new (growable) snapshot for `stream`, returning its
    /// generation number. Chunks are attached with
    /// [`append_chunk`](Self::append_chunk); the manifest is live — and
    /// a GC root — from this moment. A configured
    /// [`retention`](StoreConfig::retention) is enforced here: opening
    /// generation `k` expires everything older than the latest `n`
    /// (the new, in-progress snapshot counts as one of the `n`).
    pub fn open_snapshot(&mut self, stream: &str) -> u64 {
        let retention = self.config.retention;
        let state = self.streams.entry(stream.to_string()).or_default();
        let generation = state.next_generation;
        state.next_generation += 1;
        state
            .snapshots
            .insert(generation, SnapshotManifest::new(stream, generation));
        if let Some(keep) = retention {
            Self::trim_stream(state, keep);
        }
        generation
    }

    /// Drops a stream's oldest snapshots until at most `keep` remain.
    fn trim_stream(state: &mut StreamState, keep: u64) -> usize {
        let mut dropped = 0;
        while state.snapshots.len() as u64 > keep && state.snapshots.pop_first().is_some() {
            dropped += 1;
        }
        dropped
    }

    /// Appends one chunk reference to an open snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] / [`StoreError::UnknownGeneration`]
    /// for a bad handle, [`StoreError::MissingChunk`] if the chunk is
    /// not stored, and [`StoreError::CorruptChunk`] if `len` contradicts
    /// the stored payload length.
    pub fn append_chunk(
        &mut self,
        stream: &str,
        generation: u64,
        digest: Digest,
        len: usize,
    ) -> Result<(), StoreError> {
        let loc = *self
            .index
            .get(&digest)
            .ok_or(StoreError::MissingChunk(digest))?;
        if loc.byte_len() != len as u64 {
            return Err(StoreError::CorruptChunk(digest));
        }
        let manifest = self
            .streams
            .get_mut(stream)
            .ok_or_else(|| StoreError::UnknownStream(stream.to_string()))?
            .snapshots
            .get_mut(&generation)
            .ok_or_else(|| StoreError::UnknownGeneration {
                stream: stream.to_string(),
                generation,
            })?;
        manifest.entries.push(ManifestEntry {
            digest,
            len: len as u32,
        });
        Ok(())
    }

    /// Commits a whole recipe as one new generation of `stream`.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingChunk`] / [`StoreError::CorruptChunk`] if
    /// any reference is invalid; the snapshot is not created in that
    /// case. [`StoreError::UnknownGeneration`] if a retention limit of
    /// zero expired the snapshot the moment it was opened.
    pub fn commit_snapshot(
        &mut self,
        stream: &str,
        recipe: &[(Digest, usize)],
    ) -> Result<u64, StoreError> {
        // Validate first so a bad recipe leaves no half-committed state.
        for &(digest, len) in recipe {
            let loc = self
                .index
                .get(&digest)
                .ok_or(StoreError::MissingChunk(digest))?;
            if loc.byte_len() != len as u64 {
                return Err(StoreError::CorruptChunk(digest));
            }
        }
        let generation = self.open_snapshot(stream);
        // With retention 0 the snapshot we just opened is trimmed
        // immediately; surface that as an error rather than panicking.
        let manifest = self
            .streams
            .get_mut(stream)
            .ok_or_else(|| StoreError::UnknownStream(stream.to_string()))?
            .snapshots
            .get_mut(&generation)
            .ok_or_else(|| StoreError::UnknownGeneration {
                stream: stream.to_string(),
                generation,
            })?;
        manifest
            .entries
            .extend(recipe.iter().map(|&(digest, len)| ManifestEntry {
                digest,
                len: len as u32,
            }));
        Ok(generation)
    }

    /// The manifest of one live generation.
    pub fn manifest(&self, stream: &str, generation: u64) -> Option<&SnapshotManifest> {
        self.streams.get(stream)?.snapshots.get(&generation)
    }

    /// Live generation numbers of a stream, ascending.
    pub fn generations(&self, stream: &str) -> Vec<u64> {
        self.streams
            .get(stream)
            .map(|s| s.snapshots.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Stream names with at least one live snapshot, sorted.
    pub fn stream_names(&self) -> Vec<&str> {
        self.streams
            .iter()
            .filter(|(_, s)| !s.snapshots.is_empty())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Live snapshots across all streams.
    pub fn snapshot_count(&self) -> usize {
        self.streams.values().map(|s| s.snapshots.len()).sum()
    }

    // ----- Restore -----

    /// Reassembles one live generation, verifying every chunk payload
    /// against its recorded digest and length — the read-back integrity
    /// path a computational-storage deployment must exercise.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] / [`StoreError::UnknownGeneration`]
    /// for dead handles (including expired generations),
    /// [`StoreError::MissingChunk`] if a referenced chunk is gone, and
    /// [`StoreError::CorruptChunk`] if a payload fails verification.
    pub fn restore(&self, stream: &str, generation: u64) -> Result<Vec<u8>, StoreError> {
        let manifest = self
            .streams
            .get(stream)
            .ok_or_else(|| StoreError::UnknownStream(stream.to_string()))?
            .snapshots
            .get(&generation)
            .ok_or_else(|| StoreError::UnknownGeneration {
                stream: stream.to_string(),
                generation,
            })?;
        let mut out = Vec::with_capacity(manifest.logical_bytes() as usize);
        for payload in self.read_verified(&manifest.entries) {
            out.extend_from_slice(payload?);
        }
        Ok(out)
    }

    /// Reads every entry's payload and verifies it against the entry's
    /// length and digest, hashing all resident payloads as one
    /// [`sha256_many`] batch. Yields one result per entry, in order:
    /// [`StoreError::MissingChunk`] if the payload is not resident,
    /// [`StoreError::CorruptChunk`] if it fails verification.
    fn read_verified<'a>(
        &'a self,
        entries: &'a [ManifestEntry],
    ) -> impl Iterator<Item = Result<&'a [u8], StoreError>> + 'a {
        let payloads: Vec<Option<&[u8]>> = entries
            .iter()
            .map(|entry| {
                let loc = self.index.get(&entry.digest)?;
                self.log.read(*loc)
            })
            .collect();
        let resident: Vec<&[u8]> = payloads.iter().flatten().copied().collect();
        let mut digests = sha256_many(&resident).into_iter();
        entries.iter().zip(payloads).map(move |(entry, payload)| {
            let payload = payload.ok_or(StoreError::MissingChunk(entry.digest))?;
            let digest = digests.next();
            if payload.len() != entry.len as usize || digest != Some(entry.digest) {
                return Err(StoreError::CorruptChunk(entry.digest));
            }
            Ok(payload)
        })
    }

    // ----- Expiry and GC -----

    /// Expires every generation of `stream` up to and including
    /// `through`. Returns how many snapshots were dropped. The chunk
    /// payloads stay resident until [`gc`](Self::gc) runs.
    pub fn expire(&mut self, stream: &str, through: u64) -> usize {
        let Some(state) = self.streams.get_mut(stream) else {
            return 0;
        };
        let keep = state.snapshots.split_off(&(through + 1));
        let dropped = state.snapshots.len();
        state.snapshots = keep;
        dropped
    }

    /// Applies the configured retention policy to every stream: keeps
    /// only the latest `retention` generations. Retention is already
    /// enforced on [`open_snapshot`](Self::open_snapshot); this entry
    /// point re-applies it across all streams (e.g. after lowering the
    /// policy on a long-lived store). Returns how many snapshots
    /// expired. A `retention` of `None` keeps everything.
    pub fn apply_retention(&mut self) -> usize {
        let Some(keep) = self.config.retention else {
            return 0;
        };
        self.streams
            .values_mut()
            .map(|state| Self::trim_stream(state, keep))
            .sum()
    }

    /// Mark-and-sweep garbage collection with segment compaction.
    ///
    /// *Mark*: every digest referenced by any live manifest is live.
    /// *Sweep*: unreferenced chunks leave the index and their segment's
    /// live count. *Compact*: sealed segments whose live fraction fell
    /// below [`StoreConfig::gc_threshold`] get their survivors rewritten
    /// to the log head and are retired, reclaiming their bytes.
    ///
    /// The sweep is deterministic (processed in digest order), so two
    /// identical stores produce identical [`GcReport`]s.
    pub fn gc(&mut self) -> GcReport {
        let physical_before = self.log.resident_bytes();

        // Mark.
        let mut live: HashSet<Digest> = HashSet::new();
        for state in self.streams.values() {
            for manifest in state.snapshots.values() {
                for entry in &manifest.entries {
                    live.insert(entry.digest);
                }
            }
        }

        // Sweep, in digest order for determinism.
        let mut dead: Vec<(Digest, ChunkLoc)> = self
            .index
            .iter()
            .filter(|(d, _)| !live.contains(d))
            .map(|(d, loc)| (*d, *loc))
            .collect();
        dead.sort_by_key(|(d, _)| *d);
        let mut freed_bytes = 0u64;
        let mut freed_digests = Vec::with_capacity(dead.len());
        for (digest, loc) in dead {
            self.index.remove(&digest);
            self.log.mark_dead(loc);
            freed_bytes += loc.byte_len();
            freed_digests.push(digest);
        }

        // Compact segments below the liveness threshold (fully-dead
        // segments always qualify — retiring them is free even when
        // compaction proper is disabled at threshold 0.0). The open
        // append target is sealed first when the sweep left it mostly
        // dead, so its bytes are reclaimable too. Survivors move to the
        // log head; then the segment retires wholesale.
        if self
            .log
            .wants_compaction(self.log.current_segment(), self.config.gc_threshold)
        {
            self.log.seal_current();
        }
        let victims = self.log.compaction_victims(self.config.gc_threshold);
        let mut moved_bytes = 0u64;
        if !victims.is_empty() {
            let victim_set: HashSet<u32> = victims.iter().map(|&v| v as u32).collect();
            let mut survivors: Vec<(Digest, ChunkLoc)> = self
                .index
                .iter()
                .filter(|(_, loc)| victim_set.contains(&loc.segment))
                .map(|(d, loc)| (*d, *loc))
                .collect();
            survivors.sort_by_key(|(d, _)| *d);
            for (digest, loc) in survivors {
                let payload = self
                    .log
                    .read(loc)
                    // shredder-lint: allow(R5) — survivors were selected from the index, whose locations always point at resident victim segments
                    .expect("survivor payload resident")
                    .to_vec();
                let new_loc = self.log.append(&payload);
                self.log.mark_dead(loc);
                // shredder-lint: allow(R5) — `digest` was copied out of the index four lines up and nothing removed it since
                *self.index.get_mut(&digest).expect("survivor indexed") = new_loc;
                moved_bytes += loc.byte_len();
            }
            for &victim in &victims {
                self.log.retire(victim);
            }
        }

        self.gc_runs += 1;
        self.freed_chunks_total += freed_digests.len() as u64;
        self.freed_bytes_total += freed_bytes;
        GcReport {
            freed_chunks: freed_digests.len(),
            freed_bytes,
            freed_digests,
            compacted_segments: victims.len(),
            moved_bytes,
            physical_before,
            physical_after: self.log.resident_bytes(),
        }
    }

    // ----- Integrity: scrub, corruption, crash recovery -----

    /// Verifies every indexed chunk payload against its recorded digest
    /// and length — the background integrity pass a dedup store runs to
    /// catch silent corruption before a restore trips over it.
    ///
    /// Chunks are scanned in digest order, so two identical stores
    /// produce identical reports. A clean pass returns the scan totals;
    /// a dirty pass returns [`StoreError::ScrubFailed`] carrying the
    /// same report with the corrupt digests listed (sorted).
    ///
    /// # Errors
    ///
    /// [`StoreError::ScrubFailed`] if any chunk fails verification.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut entries: Vec<ManifestEntry> = self
            .index
            .iter()
            .map(|(digest, loc)| ManifestEntry {
                digest: *digest,
                len: loc.len,
            })
            .collect();
        entries.sort_by_key(|entry| entry.digest);
        let mut report = ScrubReport::default();
        for (entry, verified) in entries.iter().zip(self.read_verified(&entries)) {
            report.chunks_scanned += 1;
            report.bytes_scanned += u64::from(entry.len);
            if verified.is_err() {
                report.corrupt.push(entry.digest);
            }
        }
        if report.corrupt.is_empty() {
            Ok(report)
        } else {
            Err(StoreError::ScrubFailed(report))
        }
    }

    /// Fault injection: flips one bit of a stored chunk's payload in
    /// place, leaving the index and digests untouched — exactly the
    /// silent media corruption [`scrub`](Self::scrub) exists to catch.
    /// The bit index wraps modulo the payload's bit length. Returns
    /// `false` (and does nothing) if the digest is not stored.
    pub fn corrupt_chunk(&mut self, digest: &Digest, bit: usize) -> bool {
        match self.index.get(digest) {
            Some(&loc) => {
                self.log.flip_bit(loc, bit);
                true
            }
            None => false,
        }
    }

    /// Fault injection: simulates a crash that tore the final log write
    /// by dropping up to `bytes` off the end of the open segment. The
    /// index still references the torn payloads — the inconsistent
    /// state [`recover`](Self::recover) repairs on "reopen". Returns
    /// how many bytes were actually torn off (capped at the open
    /// segment's size; sealed segments are never torn).
    pub fn tear_log_tail(&mut self, bytes: u64) -> u64 {
        self.log.truncate_tail(bytes)
    }

    /// Crash-consistent recovery: the "reopen" pass after a torn final
    /// write ([`tear_log_tail`](Self::tear_log_tail)). Every index
    /// entry whose payload is no longer readable is dropped (in digest
    /// order) and its bytes are written off, leaving the store
    /// consistent at the last durable prefix. The caller re-ships the
    /// dropped chunks — content addressing makes the re-put land
    /// bit-identically.
    pub fn recover(&mut self) -> RecoveryReport {
        let mut entries: Vec<(Digest, ChunkLoc)> =
            self.index.iter().map(|(d, loc)| (*d, *loc)).collect();
        entries.sort_by_key(|(d, _)| *d);
        let mut report = RecoveryReport::default();
        for (digest, loc) in entries {
            report.chunks_checked += 1;
            if self.log.read(loc).is_none() {
                self.index.remove(&digest);
                self.log.mark_dead(loc);
                report.dropped_digests.push(digest);
                report.dropped_bytes += loc.byte_len();
            }
        }
        report
    }

    /// Replica repair: rebuilds this store's missing snapshots from a
    /// peer replica — the entry point a rejoining cluster node uses
    /// after losing its local state.
    ///
    /// Every peer snapshot absent locally (matched by stream name *and*
    /// generation number) is installed under the same generation, and
    /// every chunk its manifest references that this store does not
    /// hold is copied over, digest-verified on the way in. Chunks the
    /// survivor already holds are deduplicated (counted, not copied),
    /// so repair traffic is bounded by the genuinely lost bytes.
    /// Snapshots that already exist locally are left untouched.
    ///
    /// The pass is deterministic: peers are walked in stream/generation
    /// order, so repairing the same pair of stores always produces the
    /// same [`RepairReport`] and the same post-repair state.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingChunk`] if the peer's manifest references a
    /// chunk the peer itself no longer holds, and
    /// [`StoreError::CorruptChunk`] if a copied payload fails digest or
    /// length verification. The failing snapshot is not installed;
    /// snapshots installed before the failure remain (each snapshot is
    /// repaired atomically, the pass is resumable).
    pub fn repair_from(&mut self, peer: &ChunkStore) -> Result<RepairReport, StoreError> {
        let mut report = RepairReport::default();
        let targets: Vec<(String, u64)> = peer
            .streams
            .iter()
            .flat_map(|(stream, state)| {
                state
                    .snapshots
                    .keys()
                    .map(move |&generation| (stream.clone(), generation))
            })
            .collect();
        for (stream, generation) in targets {
            report.absorb(self.install_snapshot(&stream, generation, peer)?);
        }
        Ok(report)
    }

    /// Installs one of `peer`'s snapshots — `generation` of `stream` —
    /// into this store, copying (digest-verified) whatever chunks its
    /// manifest references that this store does not hold. The snapshot
    /// lands under the *same* generation number, and the stream's
    /// generation counter advances past it, so primary and replica
    /// numbering stay aligned. A no-op (default report) when this store
    /// already holds that generation.
    ///
    /// This is the single-shipment building block of
    /// [`repair_from`](Self::repair_from): a replication layer calls it
    /// once per committed segment shipment, repair calls it for every
    /// snapshot a rejoined node is missing.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] / [`StoreError::UnknownGeneration`]
    /// if `peer` does not hold the requested snapshot,
    /// [`StoreError::MissingChunk`] if its manifest references a chunk
    /// `peer` no longer holds, and [`StoreError::CorruptChunk`] if a
    /// copied payload fails digest or length verification. On error
    /// nothing is installed (chunks are verified before any state
    /// changes).
    pub fn install_snapshot(
        &mut self,
        stream: &str,
        generation: u64,
        peer: &ChunkStore,
    ) -> Result<RepairReport, StoreError> {
        let manifest = peer
            .streams
            .get(stream)
            .ok_or_else(|| StoreError::UnknownStream(stream.to_string()))?
            .snapshots
            .get(&generation)
            .ok_or_else(|| StoreError::UnknownGeneration {
                stream: stream.to_string(),
                generation,
            })?;
        let mut report = RepairReport::default();
        if self
            .streams
            .get(stream)
            .is_some_and(|s| s.snapshots.contains_key(&generation))
        {
            return Ok(report);
        }
        // Verify-and-copy the missing payloads before touching local
        // snapshot state, so a corrupt peer chunk cannot leave a
        // half-installed manifest behind.
        let mut seen = HashSet::new();
        let missing: Vec<ManifestEntry> = manifest
            .entries
            .iter()
            .filter(|entry| !self.index.contains(&entry.digest) && seen.insert(entry.digest))
            .copied()
            .collect();
        let mut incoming: Vec<(Digest, Bytes)> = Vec::with_capacity(missing.len());
        for (entry, payload) in missing.iter().zip(peer.read_verified(&missing)) {
            incoming.push((entry.digest, Bytes::copy_from_slice(payload?)));
        }
        report.chunks_already_present += manifest.entries.len().saturating_sub(incoming.len());
        for (digest, payload) in incoming {
            report.chunks_copied += 1;
            report.bytes_copied += payload.len() as u64;
            let loc = self.log.append(&payload);
            self.index.insert(digest, loc);
            self.logical_bytes += loc.byte_len();
        }
        let state = self.streams.entry(stream.to_string()).or_default();
        state.snapshots.insert(generation, manifest.clone());
        state.next_generation = state.next_generation.max(generation + 1);
        report.snapshots_installed += 1;
        report.streams_repaired.push(stream.to_string());
        Ok(report)
    }

    /// The aggregate store report.
    pub fn report(&self) -> StoreReport {
        StoreReport {
            chunk_count: self.index.len(),
            segment_count: self.log.segment_count(),
            physical_bytes: self.physical_bytes(),
            live_bytes: self.live_bytes(),
            logical_bytes: self.logical_bytes,
            dedup_hits: self.dedup_hits,
            streams: self
                .streams
                .values()
                .filter(|s| !s.snapshots.is_empty())
                .count(),
            snapshots: self.snapshot_count(),
            gc_runs: self.gc_runs,
            freed_chunks_total: self.freed_chunks_total,
            freed_bytes_total: self.freed_bytes_total,
        }
    }

    /// Exports the store's aggregate state into a telemetry
    /// [`MetricsRegistry`]: gauges for the live inventory (chunks,
    /// segments, bytes, streams, snapshots) and counters for the
    /// monotonic totals (dedup hits, GC runs, freed chunks/bytes).
    ///
    /// The export is a point-in-time snapshot of [`report`]: counters
    /// are *set* by adding the full total, so call it once per registry
    /// (a fresh registry per dump), not repeatedly into the same one.
    ///
    /// [`report`]: ChunkStore::report
    pub fn export_metrics(&self, metrics: &mut MetricsRegistry) {
        let r = self.report();
        metrics.set_gauge("shredder_store_chunks", r.chunk_count as f64);
        metrics.set_gauge("shredder_store_segments", r.segment_count as f64);
        metrics.set_gauge("shredder_store_physical_bytes", r.physical_bytes as f64);
        metrics.set_gauge("shredder_store_live_bytes", r.live_bytes as f64);
        metrics.set_gauge("shredder_store_logical_bytes", r.logical_bytes as f64);
        metrics.set_gauge("shredder_store_streams", r.streams as f64);
        metrics.set_gauge("shredder_store_snapshots", r.snapshots as f64);
        metrics.add("shredder_store_dedup_hits", r.dedup_hits);
        metrics.add("shredder_store_gc_runs", r.gc_runs);
        metrics.add("shredder_store_freed_chunks_total", r.freed_chunks_total);
        metrics.add("shredder_store_freed_bytes_total", r.freed_bytes_total);
    }
}

impl Default for ChunkStore {
    fn default() -> Self {
        ChunkStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, seed: u8) -> Bytes {
        let v: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed))
            .collect();
        v.into()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = ChunkStore::new();
        let d = s.put(Bytes::from_static(b"abc"));
        assert_eq!(s.get(&d).unwrap(), Bytes::from_static(b"abc"));
        assert!(s.contains(&d));
        assert_eq!(s.chunk_count(), 1);
    }

    #[test]
    fn export_metrics_mirrors_report() {
        let mut s = ChunkStore::new();
        s.put(Bytes::from_static(b"abc"));
        s.put(Bytes::from_static(b"abc"));
        let mut m = MetricsRegistry::default();
        s.export_metrics(&mut m);
        assert_eq!(m.gauge("shredder_store_chunks"), Some(1.0));
        assert_eq!(m.gauge("shredder_store_live_bytes"), Some(3.0));
        assert_eq!(m.counter("shredder_store_dedup_hits"), 1);
        assert_eq!(m.counter("shredder_store_gc_runs"), 0);
    }

    #[test]
    fn duplicate_content_stored_once() {
        let mut s = ChunkStore::new();
        let d1 = s.put(Bytes::from_static(b"same"));
        let d2 = s.put(Bytes::from_static(b"same"));
        assert_eq!(d1, d2);
        assert_eq!(s.chunk_count(), 1);
        assert_eq!(s.physical_bytes(), 4);
        assert_eq!(s.logical_bytes(), 8);
        assert_eq!(s.dedup_hits(), 1);
        assert!((s.dedup_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_digest_returns_none() {
        let s = ChunkStore::new();
        assert!(s.get(&Digest::ZERO).is_none());
        assert!(!s.contains(&Digest::ZERO));
        assert_eq!(s.dedup_ratio(), 1.0);
    }

    #[test]
    fn repair_from_rebuilds_missing_snapshots_digest_verified() {
        // Peer (the replica) holds two generations of "vm"; the local
        // store (the rejoined node) is empty except for one shared
        // chunk, which must dedup instead of copying.
        let mut peer = ChunkStore::new();
        let a = payload(1000, 3);
        let b = payload(500, 7);
        let da = peer.put(a.clone());
        let db = peer.put(b.clone());
        let g0 = peer.commit_snapshot("vm", &[(da, 1000)]).unwrap();
        let g1 = peer
            .commit_snapshot("vm", &[(da, 1000), (db, 500)])
            .unwrap();

        let mut local = ChunkStore::new();
        local.put(a.clone()); // already resident → dedup, not copied
        let report = local.repair_from(&peer).unwrap();
        assert_eq!(report.snapshots_installed, 2);
        assert_eq!(report.streams_repaired, vec!["vm".to_string()]);
        assert_eq!(report.chunks_copied, 1); // only `b` moved
        assert_eq!(report.bytes_copied, 500);
        assert_eq!(report.chunks_already_present, 2); // `a` twice
        assert_eq!(local.restore("vm", g0).unwrap(), a.to_vec());
        assert_eq!(
            local.restore("vm", g1).unwrap(),
            [a.to_vec(), b.to_vec()].concat()
        );
        // Repair is idempotent and next_generation advanced past the
        // installed ones.
        let again = local.repair_from(&peer).unwrap();
        assert_eq!(again, RepairReport::default());
        let g2 = local.open_snapshot("vm");
        assert!(g2 > g1);
    }

    #[test]
    fn repair_from_rejects_corrupt_peer_chunks() {
        let mut peer = ChunkStore::new();
        let a = payload(800, 5);
        let da = peer.put(a);
        peer.commit_snapshot("vm", &[(da, 800)]).unwrap();
        peer.corrupt_chunk(&da, 17);
        let mut local = ChunkStore::new();
        assert_eq!(local.repair_from(&peer), Err(StoreError::CorruptChunk(da)));
        // Nothing half-installed.
        assert_eq!(local.snapshot_count(), 0);
        assert_eq!(local.chunk_count(), 0);
    }

    #[test]
    fn install_snapshot_ships_one_generation_and_dedups() {
        let mut peer = ChunkStore::new();
        let a = payload(1000, 3);
        let b = payload(500, 7);
        let da = peer.put(a.clone());
        let db = peer.put(b.clone());
        let g0 = peer.commit_snapshot("vm", &[(da, 1000)]).unwrap();
        let g1 = peer
            .commit_snapshot("vm", &[(da, 1000), (db, 500)])
            .unwrap();

        let mut local = ChunkStore::new();
        let r1 = local.install_snapshot("vm", g1, &peer).unwrap();
        assert_eq!(r1.snapshots_installed, 1);
        assert_eq!(r1.chunks_copied, 2);
        assert_eq!(r1.bytes_copied, 1500);
        assert_eq!(
            local.restore("vm", g1).unwrap(),
            [a.to_vec(), b.to_vec()].concat()
        );
        // The earlier generation ships later, dedups fully, and the
        // generation counter already cleared it.
        let r0 = local.install_snapshot("vm", g0, &peer).unwrap();
        assert_eq!(r0.chunks_copied, 0);
        assert_eq!(r0.chunks_already_present, 1);
        assert_eq!(local.restore("vm", g0).unwrap(), a.to_vec());
        // Reinstalling is a no-op; unknown handles are typed errors.
        assert_eq!(
            local.install_snapshot("vm", g1, &peer).unwrap(),
            RepairReport::default()
        );
        assert!(matches!(
            local.install_snapshot("vm", 99, &peer),
            Err(StoreError::UnknownGeneration { .. })
        ));
        assert!(matches!(
            local.install_snapshot("nope", 0, &peer),
            Err(StoreError::UnknownStream(_))
        ));
        // Inventories now match: same digests, same lengths.
        assert_eq!(local.chunk_inventory(), peer.chunk_inventory());
        assert_eq!(local.chunk_inventory().len(), 2);
    }

    #[test]
    fn snapshot_commit_and_restore_verified() {
        let mut s = ChunkStore::new();
        let a = payload(1000, 3);
        let b = payload(500, 7);
        let da = s.put(a.clone());
        let db = s.put(b.clone());
        let gen = s
            .commit_snapshot("vm", &[(da, a.len()), (db, b.len()), (da, a.len())])
            .unwrap();
        let mut expected = a.to_vec();
        expected.extend_from_slice(&b);
        expected.extend_from_slice(&a);
        assert_eq!(s.restore("vm", gen).unwrap(), expected);
        assert_eq!(s.manifest("vm", gen).unwrap().chunk_count(), 3);
        assert_eq!(
            s.manifest("vm", gen).unwrap().logical_bytes(),
            expected.len() as u64
        );
    }

    #[test]
    fn commit_rejects_bad_recipes_atomically() {
        let mut s = ChunkStore::new();
        let d = s.put(payload(100, 1));
        assert_eq!(
            s.commit_snapshot("vm", &[(d, 100), (Digest::ZERO, 5)]),
            Err(StoreError::MissingChunk(Digest::ZERO))
        );
        assert_eq!(
            s.commit_snapshot("vm", &[(d, 99)]),
            Err(StoreError::CorruptChunk(d))
        );
        assert!(s.generations("vm").is_empty(), "no half-committed snapshot");
        // Next successful commit still starts at generation 0.
        assert_eq!(s.commit_snapshot("vm", &[(d, 100)]).unwrap(), 0);
    }

    #[test]
    fn open_snapshot_grows_incrementally() {
        let mut s = ChunkStore::new();
        let a = payload(64, 2);
        let da = s.put(a.clone());
        let gen = s.open_snapshot("images");
        s.append_chunk("images", gen, da, a.len()).unwrap();
        s.append_chunk("images", gen, da, a.len()).unwrap();
        let mut expected = a.to_vec();
        expected.extend_from_slice(&a);
        assert_eq!(s.restore("images", gen).unwrap(), expected);
        assert_eq!(
            s.append_chunk("images", 9, da, a.len()),
            Err(StoreError::UnknownGeneration {
                stream: "images".into(),
                generation: 9
            })
        );
        assert!(matches!(
            s.append_chunk("nope", gen, da, a.len()),
            Err(StoreError::MissingChunk(_)) | Err(StoreError::UnknownStream(_))
        ));
    }

    #[test]
    fn restore_errors_on_unknown_handles() {
        let s = ChunkStore::new();
        assert_eq!(
            s.restore("vm", 0),
            Err(StoreError::UnknownStream("vm".into()))
        );
    }

    #[test]
    fn expire_then_gc_reclaims_unique_chunks() {
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 256,
            gc_threshold: 0.6,
            retention: None,
        });
        let shared = payload(128, 5);
        let only_old = payload(128, 6);
        let only_new = payload(128, 7);
        let ds = s.put(shared.clone());
        let dold = s.put(only_old.clone());
        let g0 = s.commit_snapshot("vm", &[(ds, 128), (dold, 128)]).unwrap();
        let dnew = s.put(only_new.clone());
        let g1 = s.commit_snapshot("vm", &[(ds, 128), (dnew, 128)]).unwrap();

        assert_eq!(s.expire("vm", g0), 1);
        let gc = s.gc();
        assert_eq!(gc.freed_chunks, 1);
        assert_eq!(gc.freed_bytes, 128);
        assert_eq!(gc.freed_digests, vec![dold]);
        assert!(gc.reclaimed_bytes() >= 128, "{gc:?}");
        assert!(!s.contains(&dold));
        assert!(s.contains(&ds));

        // The live generation still restores, fully verified.
        let mut expected = shared.to_vec();
        expected.extend_from_slice(&only_new);
        assert_eq!(s.restore("vm", g1).unwrap(), expected);
        assert!(matches!(
            s.restore("vm", g0),
            Err(StoreError::UnknownGeneration { .. })
        ));
    }

    #[test]
    fn compaction_rewrites_survivors_and_retires_segments() {
        // Small segments: each holds two 100-byte chunks.
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 200,
            gc_threshold: 0.6,
            retention: None,
        });
        let chunks: Vec<(Digest, Bytes)> = (0..6u8)
            .map(|i| {
                let p = payload(100, 10 + i);
                (s.put(p.clone()), p)
            })
            .collect();
        let recipe: Vec<(Digest, usize)> = chunks.iter().map(|(d, p)| (*d, p.len())).collect();
        let g0 = s.commit_snapshot("vm", &recipe).unwrap();
        // Keep only chunks 0 and 2 live in a second generation.
        let g1 = s.commit_snapshot("vm", &[recipe[0], recipe[2]]).unwrap();
        s.expire("vm", g0);

        let physical_before = s.physical_bytes();
        assert_eq!(physical_before, 600);
        let gc = s.gc();
        assert_eq!(gc.freed_chunks, 4);
        assert_eq!(gc.freed_bytes, 400);
        // Chunks 0 and 2 lived in half-dead segments: both rewritten.
        assert!(gc.compacted_segments >= 1, "{gc:?}");
        assert_eq!(s.live_bytes(), 200);
        assert_eq!(s.physical_bytes(), s.live_bytes(), "fully compacted");
        assert!(gc.reclaimed_bytes() == 400, "{gc:?}");

        // Rewritten chunks still restore bit-identical.
        let mut expected = chunks[0].1.to_vec();
        expected.extend_from_slice(&chunks[2].1);
        assert_eq!(s.restore("vm", g1).unwrap(), expected);
    }

    #[test]
    fn threshold_zero_still_retires_fully_dead_segments() {
        // The documented contract: 0.0 disables compaction proper, but
        // fully-dead segments are still retired (retiring costs no
        // moves). Regression: strict `< 0.0` used to keep them forever.
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 64,
            gc_threshold: 0.0,
            retention: None,
        });
        let half_live: Vec<(Digest, usize)> =
            (0..2u8).map(|i| (s.put(payload(64, 40 + i)), 64)).collect();
        let g0 = s.commit_snapshot("vm", &half_live).unwrap();
        let g1 = s.commit_snapshot("vm", &half_live[..1]).unwrap();
        s.expire("vm", g0);

        let gc = s.gc();
        assert_eq!(gc.freed_chunks, 1);
        // The fully-dead segment retired; the half-live one did not
        // (no compaction at threshold 0.0).
        assert_eq!(gc.compacted_segments, 1);
        assert_eq!(gc.moved_bytes, 0, "threshold 0.0 never moves chunks");
        assert_eq!(gc.reclaimed_bytes(), 64);
        assert_eq!(s.restore("vm", g1).unwrap(), payload(64, 40).to_vec());
    }

    #[test]
    fn put_slice_matches_put_with_digest() {
        let mut s = ChunkStore::new();
        let data = payload(128, 3);
        let digest = sha256(&data);
        assert!(s.put_slice(digest, &data));
        assert!(!s.put_slice(digest, &data));
        assert!(!s.put_with_digest(digest, data.clone()));
        assert_eq!(s.dedup_hits(), 2);
        assert_eq!(s.logical_bytes(), 384);
        assert_eq!(s.physical_bytes(), 128);
        assert_eq!(s.get(&digest).unwrap(), data);
    }

    #[test]
    fn retention_expires_old_generations_automatically() {
        let mut s = ChunkStore::with_config(StoreConfig {
            retention: Some(2),
            ..StoreConfig::default()
        });
        let d = s.put(payload(50, 1));
        for _ in 0..5 {
            s.commit_snapshot("vm", &[(d, 50)]).unwrap();
        }
        // Retention was enforced at every commit: only the latest two
        // generations survive, with no explicit apply call.
        assert_eq!(s.generations("vm"), vec![3, 4]);
        assert_eq!(s.apply_retention(), 0, "already within policy");
        // Chunk still referenced: GC frees nothing.
        let gc = s.gc();
        assert_eq!(gc.freed_chunks, 0);
        assert!(s.contains(&d));
    }

    #[test]
    #[should_panic(expected = "retention of 0")]
    fn zero_retention_panics() {
        let _ = ChunkStore::with_config(StoreConfig {
            retention: Some(0),
            ..StoreConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "segment size must be non-zero")]
    fn zero_segment_bytes_panics() {
        let _ = ChunkStore::with_config(StoreConfig {
            segment_bytes: 0,
            ..StoreConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "4 GiB")]
    fn oversized_segment_config_panics() {
        let _ = ChunkStore::with_config(StoreConfig {
            segment_bytes: (u32::MAX as usize) + 1,
            ..StoreConfig::default()
        });
    }

    #[test]
    fn read_chunk_borrows_without_copy() {
        let mut s = ChunkStore::new();
        let data = payload(64, 9);
        let d = s.put(data.clone());
        assert_eq!(s.read_chunk(&d).unwrap(), &data[..]);
        assert!(s.read_chunk(&Digest::ZERO).is_none());
    }

    #[test]
    fn gc_is_deterministic() {
        let build = || {
            let mut s = ChunkStore::with_config(StoreConfig {
                segment_bytes: 300,
                gc_threshold: 0.7,
                retention: None,
            });
            let recipe: Vec<(Digest, usize)> = (0..20u8)
                .map(|i| (s.put(payload(60 + i as usize, i)), 60 + i as usize))
                .collect();
            s.commit_snapshot("vm", &recipe).unwrap();
            s.commit_snapshot("vm", &recipe[..5]).unwrap();
            s.expire("vm", 0);
            s
        };
        let mut a = build();
        let mut b = build();
        let ra = a.gc();
        let rb = b.gc();
        assert_eq!(ra, rb);
        assert_eq!(a.restore("vm", 1).unwrap(), b.restore("vm", 1).unwrap());
    }

    #[test]
    fn report_accounts_everything() {
        let mut s = ChunkStore::new();
        let d = s.put(payload(100, 1));
        s.put(payload(100, 1));
        s.commit_snapshot("a", &[(d, 100)]).unwrap();
        s.commit_snapshot("b", &[(d, 100)]).unwrap();
        let r = s.report();
        assert_eq!(r.chunk_count, 1);
        assert_eq!(r.physical_bytes, 100);
        assert_eq!(r.logical_bytes, 200);
        assert_eq!(r.dedup_hits, 1);
        assert_eq!(r.streams, 2);
        assert_eq!(r.snapshots, 2);
        assert_eq!(r.gc_runs, 0);
        assert!((r.dedup_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(r.live_fraction(), 1.0);

        s.expire("a", 0);
        s.expire("b", 0);
        let gc = s.gc();
        assert_eq!(gc.freed_chunks, 1);
        let r = s.report();
        assert_eq!(r.streams, 0);
        assert_eq!(r.gc_runs, 1);
        assert_eq!(r.freed_chunks_total, 1);
        assert_eq!(r.freed_bytes_total, 100);
        assert_eq!(r.physical_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_threshold_panics() {
        let _ = ChunkStore::with_config(StoreConfig {
            gc_threshold: 1.5,
            ..StoreConfig::default()
        });
    }

    #[test]
    fn scrub_clean_store_reports_totals() {
        let mut s = ChunkStore::new();
        s.put(payload(100, 1));
        s.put(payload(50, 2));
        let r = s.scrub().unwrap();
        assert_eq!(r.chunks_scanned, 2);
        assert_eq!(r.bytes_scanned, 150);
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn scrub_catches_flipped_bit() {
        let mut s = ChunkStore::new();
        let good = s.put(payload(100, 1));
        let bad = s.put(payload(50, 2));
        assert!(s.corrupt_chunk(&bad, 123));
        assert!(!s.corrupt_chunk(&Digest::ZERO, 0));
        let err = s.scrub().unwrap_err();
        let StoreError::ScrubFailed(r) = err else {
            panic!("expected ScrubFailed");
        };
        assert_eq!(r.chunks_scanned, 2);
        assert_eq!(r.corrupt, vec![bad]);
        // Untouched chunks still verify; a second flip heals the chunk.
        assert!(s.corrupt_chunk(&bad, 123));
        let r = s.scrub().unwrap();
        assert_eq!(r.chunks_scanned, 2);
        assert!(s.contains(&good));
    }

    #[test]
    fn corrupt_chunk_fails_restore_too() {
        let mut s = ChunkStore::new();
        let data = payload(200, 5);
        let d = s.put(data.clone());
        let gen = s.commit_snapshot("vm", &[(d, data.len())]).unwrap();
        assert!(s.corrupt_chunk(&d, 7));
        assert_eq!(s.restore("vm", gen), Err(StoreError::CorruptChunk(d)));
    }

    #[test]
    fn torn_tail_recovery_drops_lost_chunks_and_reput_restores() {
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 1 << 20, // everything in one open segment
            ..StoreConfig::default()
        });
        let a = payload(100, 1);
        let b = payload(80, 2);
        let c = payload(60, 3);
        let da = s.put(a.clone());
        let db = s.put(b.clone());
        let dc = s.put(c.clone());
        let gen = s
            .commit_snapshot("vm", &[(da, 100), (db, 80), (dc, 60)])
            .unwrap();

        // Crash tears the final chunk (and part of the one before it).
        assert_eq!(s.tear_log_tail(100), 100);
        assert_eq!(s.restore("vm", gen), Err(StoreError::MissingChunk(db)));

        // Reopen: recovery drops exactly the unreadable chunks…
        let r = s.recover();
        assert_eq!(r.chunks_checked, 3);
        let mut expect = vec![db, dc];
        expect.sort();
        assert_eq!(r.dropped_digests, expect);
        assert_eq!(r.dropped_bytes, 140);
        assert!(s.contains(&da));
        assert!(!s.contains(&db));
        // …the store is internally consistent again (scrub passes)…
        let scrub = s.scrub().unwrap();
        assert_eq!(scrub.chunks_scanned, 1);
        // …and re-shipping the lost chunks restores bit-identically.
        assert_eq!(s.put(b.clone()), db);
        assert_eq!(s.put(c.clone()), dc);
        assert_eq!(
            s.restore("vm", gen).unwrap(),
            [&a[..], &b[..], &c[..]].concat()
        );
    }

    /// A store holding `a`, `c` (corrupt) and `b` (torn off the log,
    /// so missing) with two snapshots that reference the bad chunks in
    /// opposite orders: `[a, c, b]` and `[a, b, c]`.
    fn store_with_corrupt_and_missing() -> (ChunkStore, [Digest; 3], [u64; 2]) {
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 1 << 20,
            ..StoreConfig::default()
        });
        let da = s.put(payload(300, 1));
        let dc = s.put(payload(200, 3));
        let db = s.put(payload(100, 2));
        let g0 = s
            .commit_snapshot("vm", &[(da, 300), (dc, 200), (db, 100)])
            .unwrap();
        let g1 = s
            .commit_snapshot("vm", &[(da, 300), (db, 100), (dc, 200)])
            .unwrap();
        assert!(s.corrupt_chunk(&dc, 9));
        assert_eq!(s.tear_log_tail(100), 100);
        (s, [da, db, dc], [g0, g1])
    }

    #[test]
    fn restore_reports_the_first_failing_entry() {
        let (s, [_, db, dc], [g0, g1]) = store_with_corrupt_and_missing();
        assert_eq!(s.restore("vm", g0), Err(StoreError::CorruptChunk(dc)));
        assert_eq!(s.restore("vm", g1), Err(StoreError::MissingChunk(db)));
    }

    #[test]
    fn scrub_lists_every_bad_chunk_sorted() {
        let mut s = ChunkStore::with_config(StoreConfig {
            segment_bytes: 1 << 20,
            ..StoreConfig::default()
        });
        // Enough chunks that the batch fills every hash lane.
        let digests: Vec<Digest> = (10..30).map(|k| s.put(payload(k * 37, k as u8))).collect();
        let corrupt: Vec<Digest> = digests.iter().step_by(7).copied().collect();
        for d in &corrupt {
            assert!(s.corrupt_chunk(d, 1));
        }
        // The last chunk torn off the log is missing, which scrub lists
        // too; healthy chunks sort after it, so they must still verify.
        let missing = digests[19];
        assert_eq!(s.tear_log_tail(29 * 37), 29 * 37);
        assert!(digests.iter().any(|d| *d > missing && !corrupt.contains(d)));
        let StoreError::ScrubFailed(r) = s.scrub().unwrap_err() else {
            panic!("expected ScrubFailed");
        };
        assert_eq!(r.chunks_scanned, 20);
        let mut expect = [&corrupt[..], &[missing]].concat();
        expect.sort();
        assert_eq!(r.corrupt, expect);
    }

    #[test]
    fn install_snapshot_rejects_the_first_bad_peer_chunk_and_installs_nothing() {
        let (peer, [_, db, dc], [g0, g1]) = store_with_corrupt_and_missing();
        let mut local = ChunkStore::new();
        assert_eq!(
            local.install_snapshot("vm", g0, &peer),
            Err(StoreError::CorruptChunk(dc))
        );
        assert_eq!(
            local.install_snapshot("vm", g1, &peer),
            Err(StoreError::MissingChunk(db))
        );
        assert_eq!(local.chunk_count(), 0);
        assert!(local.generations("vm").is_empty());
    }

    #[test]
    fn recover_on_consistent_store_is_a_no_op() {
        let mut s = ChunkStore::new();
        s.put(payload(64, 4));
        let before = s.report();
        let r = s.recover();
        assert_eq!(r.chunks_checked, 1);
        assert!(r.dropped_digests.is_empty());
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(s.report(), before);
    }
}
