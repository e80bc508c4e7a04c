//! The staged sink API: where chunk boundaries go *inside* the
//! simulation.
//!
//! The paper's Store thread does not merely emit boundaries: it hashes
//! every chunk and drives dedup-index lookups *concurrently* with
//! chunking (§3.1), and the backup pipeline of §7.2 overlaps
//! fingerprinting, index lookup and network shipping with the GPU
//! work. Before this module, consumers collected a full `Vec<Chunk>`
//! and post-processed it with analytic time formulas, so downstream
//! cost never contended with — or overlapped — the shared pipeline.
//!
//! A [`ChunkSink`] replaces that collect-then-postprocess pattern. It
//! is a typed graph of downstream stages attached to a
//! [`ChunkRequest`](crate::ChunkRequest) with
//! [`with_sink`](crate::ChunkRequest::with_sink):
//!
//! * the *functional* half runs for real: [`ChunkSink::consume`] is
//!   called once per stream with the stream's bytes and its final
//!   chunks, so digests, dedup decisions and ship payloads are computed
//!   for real. A sink that fingerprints its chunks declares it
//!   ([`ChunkSink::fingerprints_chunks`]) and hashes nothing itself: the
//!   engine fingerprints every declaring session's chunks of the run in
//!   one [`sha256_many`] batch and hands each `consume` its slice of
//!   digests;
//! * the *timing* half is the [`SinkDemand`] `consume` returns — per
//!   stage, one row per chunk plus an end-of-stream tail — which the
//!   engine schedules through shared per-stage FIFO servers **inside
//!   the same discrete-event simulation** as the chunking pipeline. A
//!   session's admission slot is held until its buffer clears the
//!   *last* sink stage, so a slow downstream stage backpressures the
//!   kernel FIFO exactly as a slow Store thread would.
//!
//! Three ready-made stages model the §7.2 consumer path:
//! [`FingerprintStage`] (SHA-256 at a configurable `hash_bw`),
//! [`DedupStage`] (fingerprint-index lookup/insert) and [`ShipStage`]
//! (pointer-vs-payload transfer); [`DedupSink`] composes all three into
//! the backup server's graph. Boundaries alone need no sink: a
//! sink-less request (or [`Shredder::chunk_stream`](crate::Shredder::chunk_stream))
//! returns the chunks with no stages and zero sink service.
//!
//! # Examples
//!
//! A fingerprint-only sink inside a shared engine run. It declares that
//! it fingerprints its chunks, so the engine hands it one SHA-256 per
//! chunk and the sink charges each its hashing time:
//!
//! ```
//! use shredder_core::{
//!     ChunkRequest, ChunkSink, FingerprintStage, ShredderConfig, ShredderEngine, SinkDemand,
//!     SliceSource, StageSpec, Workload,
//! };
//! use shredder_des::Dur;
//! use shredder_hash::{sha256, Digest};
//! use shredder_rabin::Chunk;
//!
//! struct HashSink {
//!     stage: FingerprintStage,
//!     digests: Vec<Digest>,
//! }
//! impl ChunkSink for HashSink {
//!     fn stages(&self) -> Vec<StageSpec> {
//!         vec![self.stage.spec()]
//!     }
//!     fn fingerprints_chunks(&self) -> bool {
//!         true
//!     }
//!     fn consume(&mut self, _data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
//!         self.digests.extend_from_slice(digests);
//!         let rows = chunks.iter().map(|c| vec![self.stage.service(c.len)]).collect();
//!         SinkDemand { rows, tail: Vec::new() }
//!     }
//! }
//!
//! let data: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let mut sink = HashSink { stage: FingerprintStage::new(1.5e9), digests: Vec::new() };
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10));
//! engine.submit(
//!     ChunkRequest::new(SliceSource::new(&data))
//!         .named("tenant")
//!         .with_sink(&mut sink),
//! );
//! let outcome = engine.run(&Workload::Batch).unwrap();
//! drop(engine);
//!
//! // Hashing ran inside the shared simulation: the fingerprint stage
//! // reports busy time, and every chunk got its real digest.
//! assert_eq!(outcome.report.sink_stages.len(), 1);
//! assert!(outcome.report.sink_stages[0].busy > Dur::ZERO);
//! let session = outcome.completed().next().unwrap();
//! let expected: Vec<Digest> = session.chunks.iter().map(|c| sha256(c.slice(&data))).collect();
//! assert_eq!(sink.digests, expected);
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shredder_des::Dur;
use shredder_hash::{sha256_many, Digest};
use shredder_rabin::Chunk;

/// The typed identity of a downstream stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// SHA-256 chunk fingerprinting (the Store thread's hashing step).
    Fingerprint,
    /// Fingerprint-index lookup/insert (the §7.2 lookup thread).
    Dedup,
    /// Pointer-vs-payload transfer to the consumer's site.
    Ship,
    /// Chunk-store commit: index lookup/insert plus the segment-log
    /// write of new chunk payloads.
    Store,
    /// An application-defined stage.
    Custom,
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageKind::Fingerprint => f.write_str("fingerprint"),
            StageKind::Dedup => f.write_str("dedup"),
            StageKind::Ship => f.write_str("ship"),
            StageKind::Store => f.write_str("store"),
            StageKind::Custom => f.write_str("custom"),
        }
    }
}

/// Descriptor of one downstream stage in a sink's graph.
///
/// Stages with the same `name` are **shared across sessions** of one
/// engine run — two tenants attaching a `"fingerprint"` stage contend
/// for the same simulated hashing thread, exactly as two buffers
/// contend for the one kernel FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageSpec {
    /// The stage's typed kind.
    pub kind: StageKind,
    /// The stage's (engine-global) name.
    pub name: &'static str,
}

/// A sink's simulated service demand for one stream, each entry
/// aligned with [`ChunkSink::stages`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkDemand {
    /// One row per chunk, in stream order.
    pub rows: Vec<Vec<Dur>>,
    /// End-of-stream work (a manifest write, a held-back split),
    /// charged to the stream's last pipeline buffer. Empty means none.
    pub tail: Vec<Dur>,
}

/// A typed graph of downstream stages consuming chunk boundaries inside
/// the simulation.
///
/// Implementations do the *real* downstream work (dedup, store,
/// collect) in [`consume`](Self::consume) and return the simulated
/// service demand each attached stage charges. A sink that fingerprints
/// its chunks says so with
/// [`fingerprints_chunks`](Self::fingerprints_chunks) and takes the
/// digests the engine hands it; a sink that hashes something else
/// (Inc-HDFS's record-aligned splits) hashes that itself. The engine
/// aggregates the demand per pipeline buffer — chunk `i`'s row goes to
/// the buffer holding `chunks[i].offset`, the tail to the last buffer —
/// and schedules it through shared per-stage FIFO servers in the same
/// simulation as the chunking pipeline, holding the buffer's admission
/// slot until the last stage finishes (backpressure).
pub trait ChunkSink {
    /// The downstream stages, in pipeline order. Must be stable for the
    /// sink's lifetime.
    fn stages(&self) -> Vec<StageSpec>;

    /// Whether the sink needs the SHA-256 of every chunk. The engine
    /// fingerprints the chunks of every declaring session of a run in
    /// one [`sha256_many`] batch, before the timing pass, and hands each
    /// `consume` its slice. Must be stable for the sink's lifetime.
    /// Defaults to `false`: no chunk of the stream is hashed for it.
    fn fingerprints_chunks(&self) -> bool {
        false
    }

    /// Consumes one whole stream: `data` is its bytes and `chunks` its
    /// final chunks, tiling `data` in order. `digests` holds
    /// `sha256(chunk)` for every chunk, in order, when the sink
    /// [fingerprints chunks](Self::fingerprints_chunks), and is empty
    /// otherwise. Called exactly once per stream, an empty one
    /// included. Returns one demand row per chunk plus the
    /// end-of-stream tail.
    fn consume(&mut self, data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand;
}

impl<S: ChunkSink + ?Sized> ChunkSink for &mut S {
    fn stages(&self) -> Vec<StageSpec> {
        (**self).stages()
    }

    fn fingerprints_chunks(&self) -> bool {
        (**self).fingerprints_chunks()
    }

    fn consume(&mut self, data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        (**self).consume(data, chunks, digests)
    }
}

/// A fingerprint index a [`DedupStage`] consults: presence lookup plus
/// insertion. `shredder-backup`'s `DedupIndex` implements this; a plain
/// `HashSet<Digest>` works for tests.
pub trait FingerprintIndex {
    /// True if the fingerprint is present (counts as one lookup).
    fn lookup(&mut self, digest: &Digest) -> bool;
    /// Inserts a fingerprint; returns `true` if it was new.
    fn insert(&mut self, digest: Digest) -> bool;
}

impl FingerprintIndex for HashSet<Digest> {
    fn lookup(&mut self, digest: &Digest) -> bool {
        self.contains(digest)
    }

    fn insert(&mut self, digest: Digest) -> bool {
        HashSet::insert(self, digest)
    }
}

/// SHA-256 fingerprinting at a configurable hashing bandwidth — the
/// Store thread's "computes a hash for the overall chunk" step (§7.2),
/// as an in-simulation stage. The stage keeps no digests: its sink
/// keeps what it needs of them. A sink that
/// [fingerprints chunks](ChunkSink::fingerprints_chunks) gets its
/// digests from the engine and charges each chunk
/// [`service`](Self::service); [`process`](Self::process) is for a sink
/// that hashes something else.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintStage {
    hash_bw: f64,
}

impl FingerprintStage {
    /// Creates a stage hashing at `hash_bw` bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `hash_bw` is not finite and positive.
    pub fn new(hash_bw: f64) -> Self {
        assert!(
            hash_bw.is_finite() && hash_bw > 0.0,
            "invalid hash bandwidth {hash_bw}"
        );
        FingerprintStage { hash_bw }
    }

    /// The stage descriptor.
    pub fn spec(&self) -> StageSpec {
        StageSpec {
            kind: StageKind::Fingerprint,
            name: "fingerprint",
        }
    }

    /// The simulated time to hash `len` bytes.
    pub fn service(&self, len: usize) -> Dur {
        Dur::from_bytes_at(len as u64, self.hash_bw)
    }

    /// Fingerprints `payloads` as one [`sha256_many`] batch and yields
    /// each payload's digest with its simulated service time, in order.
    pub fn process<'p>(&self, payloads: &'p [&[u8]]) -> impl Iterator<Item = (Digest, Dur)> + 'p {
        let stage = *self;
        sha256_many(payloads)
            .into_iter()
            .zip(payloads)
            .map(move |(digest, payload)| (digest, stage.service(payload.len())))
    }
}

/// Fingerprint-index lookup/insert — the §7.2 lookup thread as an
/// in-simulation stage. The index itself is shared (`Rc<RefCell<..>>`)
/// so several sessions of one batch deduplicate against the same state.
#[derive(Clone)]
pub struct DedupStage {
    index: Rc<RefCell<dyn FingerprintIndex>>,
    lookup_cost: Dur,
    insert_cost: Dur,
}

impl DedupStage {
    /// Creates a stage over a shared index with per-fingerprint lookup
    /// and insert costs.
    pub fn new(
        index: Rc<RefCell<dyn FingerprintIndex>>,
        lookup_cost: Dur,
        insert_cost: Dur,
    ) -> Self {
        DedupStage {
            index,
            lookup_cost,
            insert_cost,
        }
    }

    /// The stage descriptor.
    pub fn spec(&self) -> StageSpec {
        StageSpec {
            kind: StageKind::Dedup,
            name: "dedup",
        }
    }

    /// Looks up (and, when absent, inserts) one fingerprint. Returns
    /// whether the chunk was a duplicate plus the service time.
    pub fn process(&mut self, digest: Digest) -> (bool, Dur) {
        let mut index = self.index.borrow_mut();
        if index.lookup(&digest) {
            (true, self.lookup_cost)
        } else {
            index.insert(digest);
            (false, self.lookup_cost + self.insert_cost)
        }
    }
}

impl std::fmt::Debug for DedupStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupStage")
            .field("lookup_cost", &self.lookup_cost)
            .field("insert_cost", &self.insert_cost)
            .finish_non_exhaustive()
    }
}

/// Pointer-vs-payload shipping over the consumer's network link as an
/// in-simulation stage: duplicates ship a fixed-size pointer, new
/// chunks ship their payload plus a per-chunk protocol overhead.
#[derive(Debug, Clone, Copy)]
pub struct ShipStage {
    ship_bw: f64,
    pointer_bytes: usize,
    per_chunk_overhead: Dur,
}

impl ShipStage {
    /// Creates a stage shipping at `ship_bw` bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `ship_bw` is not finite and positive.
    pub fn new(ship_bw: f64, pointer_bytes: usize, per_chunk_overhead: Dur) -> Self {
        assert!(
            ship_bw.is_finite() && ship_bw > 0.0,
            "invalid ship bandwidth {ship_bw}"
        );
        ShipStage {
            ship_bw,
            pointer_bytes,
            per_chunk_overhead,
        }
    }

    /// The stage descriptor.
    pub fn spec(&self) -> StageSpec {
        StageSpec {
            kind: StageKind::Ship,
            name: "ship",
        }
    }

    /// The bytes and service time to ship one chunk decision.
    pub fn process(&self, duplicate: bool, chunk_len: usize) -> (u64, Dur) {
        if duplicate {
            let bytes = self.pointer_bytes as u64;
            (bytes, Dur::from_bytes_at(bytes, self.ship_bw))
        } else {
            let bytes = chunk_len as u64;
            (
                bytes,
                Dur::from_bytes_at(bytes, self.ship_bw) + self.per_chunk_overhead,
            )
        }
    }
}

/// The backup server's `DedupIndex` (re-exported from
/// `shredder-store`) plugs straight into a [`DedupStage`], so the
/// server's sink graph deduplicates against it from inside the
/// simulation.
impl FingerprintIndex for shredder_store::DedupIndex {
    fn lookup(&mut self, digest: &Digest) -> bool {
        shredder_store::DedupIndex::lookup(self, digest)
    }

    fn insert(&mut self, digest: Digest) -> bool {
        shredder_store::DedupIndex::insert(self, digest)
    }
}

/// Chunk-store commit as an in-simulation stage: every chunk pays an
/// index lookup; new chunks additionally pay an index insert and the
/// segment-log write of their payload at the store's write bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct StoreStage {
    write_bw: f64,
    index_lookup: Dur,
    index_insert: Dur,
}

impl StoreStage {
    /// Creates a stage writing at `write_bw` bytes/s with the given
    /// per-fingerprint index costs.
    ///
    /// # Panics
    ///
    /// Panics if `write_bw` is not finite and positive.
    pub fn new(write_bw: f64, index_lookup: Dur, index_insert: Dur) -> Self {
        assert!(
            write_bw.is_finite() && write_bw > 0.0,
            "invalid store write bandwidth {write_bw}"
        );
        StoreStage {
            write_bw,
            index_lookup,
            index_insert,
        }
    }

    /// The stage descriptor.
    pub fn spec(&self) -> StageSpec {
        StageSpec {
            kind: StageKind::Store,
            name: "store-commit",
        }
    }

    /// The service time to commit one chunk decision.
    pub fn process(&self, new: bool, chunk_len: usize) -> Dur {
        if new {
            self.index_lookup
                + self.index_insert
                + Dur::from_bytes_at(chunk_len as u64, self.write_bw)
        } else {
            self.index_lookup
        }
    }
}

/// Configuration of a [`StoreSink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSinkConfig {
    /// Store-thread hashing bandwidth, bytes/s.
    pub hash_bw: f64,
    /// Segment-log write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Per-fingerprint index lookup cost.
    pub index_lookup: Dur,
    /// Additional cost to insert a new fingerprint.
    pub index_insert: Dur,
    /// Bytes charged per manifest entry when the snapshot commits.
    pub manifest_entry_bytes: usize,
}

impl Default for StoreSinkConfig {
    /// A disk-array store behind the §7.3 Store-thread rates: 1.5 GB/s
    /// hashing, 1 GB/s segment writes, the paper's unoptimized
    /// 7 µs/10 µs index.
    fn default() -> Self {
        StoreSinkConfig {
            hash_bw: 1.5e9,
            write_bw: 1.0e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            manifest_entry_bytes: 48,
        }
    }
}

/// A sink that commits every chunk — and, at stream end, the snapshot
/// manifest — into a shared
/// [`ChunkStore`](shredder_store::ChunkStore) *in-simulation*:
/// fingerprint hashing is charged to a [`FingerprintStage`] (the
/// digests come from the engine's batch), store index lookups and
/// segment writes to a [`StoreStage`], and the stream becomes one new
/// generation of its store stream.
///
/// The functional half is real: payloads land in the store's segment
/// log, dedup decisions come from its index, and after the engine run
/// the committed generation restores bit-identical (digest-verified).
///
/// A sink commits **one stream**: [`consume`](ChunkSink::consume)
/// seals the generation, after which a second `consume` panics — build
/// a fresh `StoreSink` (over the same shared store) per stream.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use shredder_core::{Shredder, ShredderConfig, StoreSink, StoreSinkConfig};
/// use shredder_store::ChunkStore;
///
/// let data: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
/// let store = Rc::new(RefCell::new(ChunkStore::new()));
/// let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
///
/// let gpu = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10));
/// let report = gpu.chunk_stream_sink(&data, &mut sink).unwrap();
///
/// let generation = sink.generation().expect("committed at stream end");
/// assert_eq!(store.borrow().restore("vm", generation).unwrap(), data);
/// assert_eq!(report.sink_stages.len(), 2); // fingerprint + store-commit
/// ```
pub struct StoreSink {
    stream: String,
    fingerprint: FingerprintStage,
    stage: StoreStage,
    store: Rc<RefCell<shredder_store::ChunkStore>>,
    manifest_entry_bytes: usize,
    write_bw: f64,
    chunks: usize,
    generation: Option<u64>,
    new_chunks: usize,
    new_bytes: u64,
    dedup_bytes: u64,
}

impl StoreSink {
    /// Builds a sink committing `stream`'s chunks into a shared store.
    pub fn new(
        stream: impl Into<String>,
        config: StoreSinkConfig,
        store: Rc<RefCell<shredder_store::ChunkStore>>,
    ) -> Self {
        StoreSink {
            stream: stream.into(),
            fingerprint: FingerprintStage::new(config.hash_bw),
            stage: StoreStage::new(config.write_bw, config.index_lookup, config.index_insert),
            store,
            manifest_entry_bytes: config.manifest_entry_bytes,
            write_bw: config.write_bw,
            chunks: 0,
            generation: None,
            new_chunks: 0,
            new_bytes: 0,
            dedup_bytes: 0,
        }
    }

    /// The generation committed for this stream (`None` until
    /// [`consume`](ChunkSink::consume) ran, i.e. until the chunking call
    /// returned).
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// Chunks delivered.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Chunks that were new to the store.
    pub fn new_chunks(&self) -> usize {
        self.new_chunks
    }

    /// Bytes appended to the segment log (unique data).
    pub fn new_bytes(&self) -> u64 {
        self.new_bytes
    }

    /// Bytes deduplicated against already-stored chunks.
    pub fn dedup_bytes(&self) -> u64 {
        self.dedup_bytes
    }
}

impl ChunkSink for StoreSink {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec(), self.stage.spec()]
    }

    fn fingerprints_chunks(&self) -> bool {
        true
    }

    fn consume(&mut self, data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        assert!(
            self.generation.is_none(),
            "StoreSink already committed stream '{}' as generation {:?}; \
             use a fresh sink per stream",
            self.stream,
            self.generation
        );
        assert_eq!(digests.len(), chunks.len(), "one digest per chunk");
        let mut store = self.store.borrow_mut();
        let mut recipe = Vec::with_capacity(chunks.len());
        let mut rows = Vec::with_capacity(chunks.len());
        for (chunk, &digest) in chunks.iter().zip(digests) {
            // `put_slice`: a dedup hit copies nothing — only new payloads
            // land in the segment log.
            let new = store.put_slice(digest, chunk.slice(data));
            if new {
                self.new_chunks += 1;
                self.new_bytes += chunk.len as u64;
            } else {
                self.dedup_bytes += chunk.len as u64;
            }
            recipe.push((digest, chunk.len));
            rows.push(vec![
                self.fingerprint.service(chunk.len),
                self.stage.process(new, chunk.len),
            ]);
        }
        let generation = store
            .commit_snapshot(&self.stream, &recipe)
            // shredder-lint: allow(R5) — every recipe digest was stored by this sink, and ChunkStore::with_config rejects retention Some(0)
            .expect("recipe chunks were just stored");
        self.generation = Some(generation);
        self.chunks = chunks.len();
        // The manifest itself is a segment-log write.
        let manifest_bytes = (chunks.len() * self.manifest_entry_bytes) as u64;
        SinkDemand {
            rows,
            tail: vec![Dur::ZERO, Dur::from_bytes_at(manifest_bytes, self.write_bw)],
        }
    }
}

impl std::fmt::Debug for StoreSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSink")
            .field("stream", &self.stream)
            .field("chunks", &self.chunks)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// One chunk's dedup decision, recorded by a [`DedupSink`] during the
/// functional pass so the application can apply it (store payloads,
/// register pointers) after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkVerdict {
    /// The chunk (offsets into the session's stream).
    pub chunk: Chunk,
    /// Its SHA-256 fingerprint.
    pub digest: Digest,
    /// True if the fingerprint was already indexed.
    pub duplicate: bool,
    /// Bytes shipped for it (pointer or payload).
    pub ship_bytes: u64,
}

/// Configuration of a [`DedupSink`] graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedupSinkConfig {
    /// Store-thread hashing bandwidth, bytes/s.
    pub hash_bw: f64,
    /// Per-fingerprint index lookup cost.
    pub index_lookup: Dur,
    /// Additional cost to insert a new fingerprint.
    pub index_insert: Dur,
    /// Ship-link bandwidth, bytes/s.
    pub ship_bw: f64,
    /// Pointer size shipped for a duplicate chunk, bytes.
    pub pointer_bytes: usize,
    /// Per-shipped-chunk protocol overhead.
    pub ship_chunk_overhead: Dur,
}

/// The backup server's consumer graph: fingerprint → dedup → ship, all
/// three executing inside the simulation that also runs the chunking
/// pipeline.
pub struct DedupSink {
    fingerprint: FingerprintStage,
    dedup: DedupStage,
    ship: ShipStage,
    verdicts: Vec<ChunkVerdict>,
}

impl DedupSink {
    /// Builds the graph over a shared fingerprint index.
    pub fn new(config: DedupSinkConfig, index: Rc<RefCell<dyn FingerprintIndex>>) -> Self {
        DedupSink {
            fingerprint: FingerprintStage::new(config.hash_bw),
            dedup: DedupStage::new(index, config.index_lookup, config.index_insert),
            ship: ShipStage::new(
                config.ship_bw,
                config.pointer_bytes,
                config.ship_chunk_overhead,
            ),
            verdicts: Vec::new(),
        }
    }

    /// The per-chunk decisions, in stream order.
    pub fn verdicts(&self) -> &[ChunkVerdict] {
        &self.verdicts
    }

    /// Consumes the sink, returning the decisions.
    pub fn into_verdicts(self) -> Vec<ChunkVerdict> {
        self.verdicts
    }
}

impl ChunkSink for DedupSink {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec(), self.dedup.spec(), self.ship.spec()]
    }

    fn fingerprints_chunks(&self) -> bool {
        true
    }

    fn consume(&mut self, _data: &[u8], chunks: &[Chunk], digests: &[Digest]) -> SinkDemand {
        assert_eq!(digests.len(), chunks.len(), "one digest per chunk");
        let mut rows = Vec::with_capacity(chunks.len());
        for (&chunk, &digest) in chunks.iter().zip(digests) {
            let (duplicate, dedup_service) = self.dedup.process(digest);
            let (ship_bytes, ship_service) = self.ship.process(duplicate, chunk.len);
            self.verdicts.push(ChunkVerdict {
                chunk,
                digest,
                duplicate,
                ship_bytes,
            });
            rows.push(vec![
                self.fingerprint.service(chunk.len),
                dedup_service,
                ship_service,
            ]);
        }
        SinkDemand {
            rows,
            tail: Vec::new(),
        }
    }
}

impl std::fmt::Debug for DedupSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupSink")
            .field("verdicts", &self.verdicts.len())
            .finish_non_exhaustive()
    }
}

/// The shared functional pass over one stream's final chunks: hands
/// the sink the whole stream and its chunk digests
/// ([`ChunkSink::consume`]) and aggregates its demand into `buckets`
/// buckets of `bucket_size` stream bytes (the engine's pipeline
/// buffers), returned as `[bucket][stage]`. Chunk
/// `i`'s row goes to bucket `chunks[i].offset / bucket_size`, clamped
/// to the last; the tail goes to the last bucket.
pub(crate) fn drive_sink_functional(
    sink: &mut dyn ChunkSink,
    chunks: &[Chunk],
    data: &[u8],
    digests: &[Digest],
    buckets: usize,
    bucket_size: usize,
) -> Vec<Vec<Dur>> {
    let stages = sink.stages().len();
    let demand = sink.consume(data, chunks, digests);
    debug_assert_eq!(demand.rows.len(), chunks.len(), "one demand row per chunk");
    let mut per_bucket: Vec<Vec<Dur>> = vec![vec![Dur::ZERO; stages]; buckets];
    let Some(last) = buckets.checked_sub(1) else {
        return per_bucket;
    };
    let placed = chunks
        .iter()
        .map(|chunk| (chunk.offset as usize / bucket_size.max(1)).min(last))
        .zip(&demand.rows)
        .chain(std::iter::once((last, &demand.tail)));
    for (b, services) in placed {
        debug_assert!(
            services.is_empty() || services.len() == stages,
            "sink stage arity mismatch"
        );
        for (acc, d) in per_bucket[b].iter_mut().zip(services) {
            *acc += *d;
        }
    }
    per_bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_hash::sha256;

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(seed)).collect()
    }

    /// Chunks tiling `pieces` laid end to end, and the stream itself.
    fn stream_of(pieces: &[&[u8]]) -> (Vec<u8>, Vec<Chunk>) {
        let mut data = Vec::new();
        let mut chunks = Vec::new();
        for piece in pieces {
            chunks.push(Chunk {
                offset: data.len() as u64,
                len: piece.len(),
            });
            data.extend_from_slice(piece);
        }
        (data, chunks)
    }

    /// What the engine hands a declaring sink: `sha256` of every chunk.
    fn digests_of(data: &[u8], chunks: &[Chunk]) -> Vec<Digest> {
        chunks.iter().map(|c| sha256(c.slice(data))).collect()
    }

    fn dedup_config() -> DedupSinkConfig {
        DedupSinkConfig {
            hash_bw: 1.5e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            ship_bw: 0.9e9,
            pointer_bytes: 40,
            ship_chunk_overhead: Dur::from_micros(2),
        }
    }

    #[test]
    fn fingerprint_stage_hashes_for_real() {
        let stage = FingerprintStage::new(1e9);
        let (a, b) = (payload(1000, 3), payload(70, 5));
        let hashed: Vec<(Digest, Dur)> = stage.process(&[&a, &b]).collect();
        assert_eq!(
            hashed,
            vec![
                (sha256(&a), Dur::from_bytes_at(1000, 1e9)),
                (sha256(&b), Dur::from_bytes_at(70, 1e9)),
            ]
        );
        assert_eq!(stage.service(70), Dur::from_bytes_at(70, 1e9));
    }

    #[test]
    fn dedup_stage_tracks_presence() {
        let index: Rc<RefCell<HashSet<Digest>>> = Rc::default();
        let mut stage = DedupStage::new(index.clone(), Dur::from_micros(7), Dur::from_micros(10));
        let d = sha256(b"chunk");
        let (dup1, cost1) = stage.process(d);
        assert!(!dup1);
        assert_eq!(cost1, Dur::from_micros(17));
        let (dup2, cost2) = stage.process(d);
        assert!(dup2);
        assert_eq!(cost2, Dur::from_micros(7));
        assert_eq!(index.borrow().len(), 1);
    }

    #[test]
    fn ship_stage_pointer_vs_payload() {
        let stage = ShipStage::new(1e9, 40, Dur::from_micros(2));
        let (ptr_bytes, ptr_cost) = stage.process(true, 8192);
        assert_eq!(ptr_bytes, 40);
        let (new_bytes, new_cost) = stage.process(false, 8192);
        assert_eq!(new_bytes, 8192);
        assert!(new_cost > ptr_cost);
    }

    #[test]
    fn dedup_sink_verdicts_match_index_state() {
        let index: Rc<RefCell<HashSet<Digest>>> = Rc::default();
        let mut sink = DedupSink::new(dedup_config(), index);
        let piece = payload(4096, 9);
        let (data, chunks) = stream_of(&[&piece, &piece]);
        assert!(sink.fingerprints_chunks());
        let demand = sink.consume(&data, &chunks, &digests_of(&data, &chunks));
        let (first, second) = (&demand.rows[0], &demand.rows[1]);
        assert_eq!(first.len(), 3);
        assert!(second[2] < first[2], "duplicate ships only a pointer");
        assert!(demand.tail.is_empty());
        let verdicts = sink.verdicts();
        assert!(!verdicts[0].duplicate);
        assert!(verdicts[1].duplicate);
        assert_eq!(verdicts[1].ship_bytes, 40);
        assert_eq!(verdicts[0].digest, sha256(&piece));
    }

    #[test]
    fn store_stage_charges_writes_only_for_new_chunks() {
        let stage = StoreStage::new(1e9, Dur::from_micros(7), Dur::from_micros(10));
        let dup = stage.process(false, 8192);
        let new = stage.process(true, 8192);
        assert_eq!(dup, Dur::from_micros(7));
        assert_eq!(new, Dur::from_micros(17) + Dur::from_bytes_at(8192, 1e9));
    }

    #[test]
    fn store_sink_commits_a_restorable_generation() {
        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
        assert_eq!(sink.stages().len(), 2);

        let a = payload(4096, 3);
        let b = payload(2048, 5);
        // The third chunk repeats the first: it dedups.
        let (stream, chunks) = stream_of(&[&a, &b, &a]);
        assert!(sink.fingerprints_chunks());
        let demand = sink.consume(&stream, &chunks, &digests_of(&stream, &chunks));
        assert_eq!(demand.rows.len(), 3);
        assert_eq!(demand.rows[1].len(), 2);
        assert!(
            demand.rows[2][1] < demand.rows[0][1],
            "duplicate skips the segment write"
        );
        assert_eq!(sink.new_chunks(), 2);
        assert_eq!(sink.dedup_bytes(), a.len() as u64);

        assert_eq!(demand.tail.len(), 2);
        let generation = sink.generation().expect("committed");
        assert_eq!(store.borrow().restore("vm", generation).unwrap(), stream);
        assert_eq!(store.borrow().physical_bytes(), (a.len() + b.len()) as u64);
    }

    /// A stream of 41 chunks of varied lengths, every third one a
    /// repeat of an earlier chunk's content.
    fn stream_with_repeats() -> (Vec<u8>, Vec<Chunk>) {
        let pieces: Vec<Vec<u8>> = (0..41usize)
            .map(|k| {
                let seed = if k % 3 == 2 { (k / 2) as u8 } else { k as u8 };
                payload(64 + (seed as usize * 997) % 6000, seed | 1)
            })
            .collect();
        let pieces: Vec<&[u8]> = pieces.iter().map(Vec::as_slice).collect();
        stream_of(&pieces)
    }

    /// One whole-stream `consume` over the chunks' digests equals
    /// deciding chunk by chunk and charging each stage's formula per
    /// chunk, hashing included.
    #[test]
    fn batched_sinks_match_per_chunk_hashing() {
        let (data, chunks) = stream_with_repeats();
        let hash = |chunk: &Chunk| Dur::from_bytes_at(chunk.len as u64, 1.5e9);

        let config = dedup_config();
        let mut sink = DedupSink::new(config, Rc::new(RefCell::new(HashSet::new())));
        let demand = sink.consume(&data, &chunks, &digests_of(&data, &chunks));
        let ship = ShipStage::new(
            config.ship_bw,
            config.pointer_bytes,
            config.ship_chunk_overhead,
        );
        let mut seen = HashSet::new();
        let mut verdicts = Vec::new();
        let mut rows = Vec::new();
        for &chunk in &chunks {
            let digest = sha256(chunk.slice(&data));
            let duplicate = !seen.insert(digest);
            let (ship_bytes, ship_service) = ship.process(duplicate, chunk.len);
            let dedup_service = if duplicate {
                config.index_lookup
            } else {
                config.index_lookup + config.index_insert
            };
            verdicts.push(ChunkVerdict {
                chunk,
                digest,
                duplicate,
                ship_bytes,
            });
            rows.push(vec![hash(&chunk), dedup_service, ship_service]);
        }
        assert!(verdicts.iter().any(|v| v.duplicate));
        assert_eq!(sink.verdicts(), verdicts);
        assert_eq!(demand, SinkDemand { rows, tail: vec![] });

        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let config = StoreSinkConfig::default();
        let mut sink = StoreSink::new("vm", config, store.clone());
        let demand = sink.consume(&data, &chunks, &digests_of(&data, &chunks));
        let stage = StoreStage::new(config.write_bw, config.index_lookup, config.index_insert);
        let mut seen = HashSet::new();
        let rows: Vec<Vec<Dur>> = chunks
            .iter()
            .map(|chunk| {
                let new = seen.insert(sha256(chunk.slice(&data)));
                vec![hash(chunk), stage.process(new, chunk.len)]
            })
            .collect();
        let manifest = (chunks.len() * config.manifest_entry_bytes) as u64;
        let tail = vec![Dur::ZERO, Dur::from_bytes_at(manifest, config.write_bw)];
        assert_eq!(demand, SinkDemand { rows, tail });
        assert_eq!(sink.new_chunks(), seen.len());
        let generation = sink.generation().expect("committed");
        let store = store.borrow();
        let manifest = store.manifest("vm", generation).expect("manifest");
        let digests: Vec<Digest> = manifest.entries.iter().map(|e| e.digest).collect();
        let expected: Vec<Digest> = chunks.iter().map(|c| sha256(c.slice(&data))).collect();
        assert_eq!(digests, expected);
        assert_eq!(store.restore("vm", generation).unwrap(), data);
    }

    /// Charges each chunk its length in ns, plus 1 ns at the tail.
    struct LenSink;

    impl ChunkSink for LenSink {
        fn stages(&self) -> Vec<StageSpec> {
            vec![StageSpec {
                kind: StageKind::Custom,
                name: "len",
            }]
        }

        fn consume(&mut self, _data: &[u8], chunks: &[Chunk], _digests: &[Digest]) -> SinkDemand {
            SinkDemand {
                rows: chunks
                    .iter()
                    .map(|c| vec![Dur::from_nanos(c.len as u64)])
                    .collect(),
                tail: vec![Dur::from_nanos(1)],
            }
        }
    }

    /// Rows go to the bucket holding the chunk's offset (clamped to the
    /// last); the tail goes to the last bucket. An empty stream is still
    /// consumed, so a `StoreSink` commits its empty generation.
    #[test]
    fn demand_is_bucketed_by_chunk_offset() {
        let (data, chunks) = stream_of(&[&[1; 100], &[2; 150], &[3; 50], &[4; 300]]);
        let ns = |v: &[u64]| {
            v.iter()
                .map(|&n| vec![Dur::from_nanos(n)])
                .collect::<Vec<_>>()
        };
        assert_eq!(
            drive_sink_functional(&mut LenSink, &chunks, &data, &[], 2, 128),
            ns(&[100 + 150, 50 + 300 + 1])
        );
        assert_eq!(
            drive_sink_functional(&mut LenSink, &chunks, &data, &[], 4, 128),
            ns(&[250, 50, 300, 1])
        );

        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
        assert!(drive_sink_functional(&mut sink, &[], &[], &[], 0, 128).is_empty());
        assert_eq!(sink.generation(), Some(0));
        assert_eq!(store.borrow().restore("vm", 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn store_sink_consecutive_streams_form_generations() {
        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let (data, chunks) = stream_of(&[&payload(4096, 9)]);
        for expected_gen in 0..3u64 {
            let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
            sink.consume(&data, &chunks, &digests_of(&data, &chunks));
            assert_eq!(sink.generation(), Some(expected_gen));
        }
        // One physical copy across three generations.
        assert_eq!(store.borrow().physical_bytes(), data.len() as u64);
        assert_eq!(store.borrow().snapshot_count(), 3);
    }

    #[test]
    #[should_panic(expected = "use a fresh sink per stream")]
    fn store_sink_rejects_reuse_after_commit() {
        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store);
        let (data, chunks) = stream_of(&[&payload(512, 2)]);
        let digests = digests_of(&data, &chunks);
        sink.consume(&data, &chunks, &digests);
        // A second stream through the same sink would merge recipes
        // into a corrupt generation — it must panic instead.
        sink.consume(&data, &chunks, &digests);
    }

    #[test]
    fn store_dedup_index_backs_a_dedup_stage() {
        let index: Rc<RefCell<shredder_store::DedupIndex>> = Rc::default();
        let mut stage = DedupStage::new(index.clone(), Dur::from_micros(7), Dur::from_micros(10));
        let d = sha256(b"chunk");
        assert!(!stage.process(d).0);
        assert!(stage.process(d).0);
        assert_eq!(index.borrow().len(), 1);
        assert_eq!(index.borrow().hits(), 1);
    }
}
