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
//! * the *functional* half runs immediately: [`ChunkSink::accept`] is
//!   called once per chunk in stream order with the real payload, so
//!   digests, dedup decisions and ship payloads are computed for real;
//! * the *timing* half is the per-stage service demand `accept`
//!   returns, which the engine schedules through shared per-stage FIFO
//!   servers **inside the same discrete-event simulation** as the
//!   chunking pipeline. A session's admission slot is held until its
//!   buffer clears the *last* sink stage, so a slow downstream stage
//!   backpressures the kernel FIFO exactly as a slow Store thread
//!   would.
//!
//! Three ready-made stages model the §7.2 consumer path:
//! [`FingerprintStage`] (SHA-256 at a configurable `hash_bw`),
//! [`DedupStage`] (fingerprint-index lookup/insert) and [`ShipStage`]
//! (pointer-vs-payload transfer); [`DedupSink`] composes all three into
//! the backup server's graph. [`UpcallSink`] is the stage-less sink —
//! boundaries forwarded to an upcall, the §3.1 delivery path, passed
//! to [`Shredder::chunk_stream_sink`](crate::Shredder::chunk_stream_sink)
//! like any other sink.
//!
//! # Examples
//!
//! A fingerprint-only sink inside a shared engine run:
//!
//! ```
//! use shredder_core::{
//!     ChunkRequest, ChunkSink, FingerprintStage, ShredderConfig, ShredderEngine, SliceSource,
//!     StageSpec, Workload,
//! };
//! use shredder_des::Dur;
//! use shredder_rabin::Chunk;
//!
//! struct HashSink(FingerprintStage);
//! impl ChunkSink for HashSink {
//!     fn stages(&self) -> Vec<StageSpec> {
//!         vec![self.0.spec()]
//!     }
//!     fn accept(&mut self, _chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
//!         let (_digest, service) = self.0.process(payload);
//!         vec![service]
//!     }
//! }
//!
//! let data: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let mut sink = HashSink(FingerprintStage::new(1.5e9));
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
//! // reports busy time, and every chunk got a real digest.
//! assert_eq!(outcome.report.sink_stages.len(), 1);
//! assert!(outcome.report.sink_stages[0].busy > Dur::ZERO);
//! let session = outcome.completed().next().unwrap();
//! assert_eq!(sink.0.digests().len(), session.chunks.len());
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shredder_des::Dur;
use shredder_hash::{sha256, sha256_many, Digest};
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

/// A typed graph of downstream stages consuming chunk boundaries inside
/// the simulation.
///
/// Implementations do the *real* downstream work (hash, dedup, collect)
/// in [`accept`](Self::accept) and return the simulated service demand
/// each attached stage charges for that chunk. The engine aggregates
/// the demand per pipeline buffer and schedules it through shared
/// per-stage FIFO servers in the same simulation as the chunking
/// pipeline, holding the buffer's admission slot until the last stage
/// finishes (backpressure).
pub trait ChunkSink {
    /// The downstream stages, in pipeline order. Must be stable for the
    /// sink's lifetime.
    fn stages(&self) -> Vec<StageSpec>;

    /// Called once per stream, before the first [`accept`](Self::accept),
    /// with every chunk's payload in stream order. A sink that hashes
    /// payloads hashes them here as one batch
    /// ([`FingerprintStage::prehash`]); the default does nothing.
    fn prehash(&mut self, _payloads: &[&[u8]]) {}

    /// Delivers one chunk in stream order with its payload; returns the
    /// service demand per stage, aligned with [`stages`](Self::stages).
    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur>;

    /// Called once after the last chunk. A sink that holds back work
    /// (e.g. record re-alignment) flushes here; the returned demand is
    /// charged to the stream's final buffer. An empty vector means no
    /// extra work.
    fn finish(&mut self) -> Vec<Dur> {
        Vec::new()
    }

    /// Whether [`accept`](Self::accept) reads the payload. Sinks that
    /// only consume boundaries (e.g. [`UpcallSink`]) return `false`,
    /// which lets the engine skip retaining a copy of the stream; such
    /// sinks are handed an empty payload slice.
    fn needs_payload(&self) -> bool {
        true
    }
}

impl<S: ChunkSink + ?Sized> ChunkSink for &mut S {
    fn stages(&self) -> Vec<StageSpec> {
        (**self).stages()
    }

    fn prehash(&mut self, payloads: &[&[u8]]) {
        (**self).prehash(payloads)
    }

    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
        (**self).accept(chunk, payload)
    }

    fn finish(&mut self) -> Vec<Dur> {
        (**self).finish()
    }

    fn needs_payload(&self) -> bool {
        (**self).needs_payload()
    }
}

/// The stage-less sink: every boundary forwarded to an upcall — the
/// §3.1 notification interface expressed as a sink.
pub struct UpcallSink<'f> {
    upcall: &'f mut dyn FnMut(Chunk),
}

impl<'f> UpcallSink<'f> {
    /// Wraps an upcall.
    pub fn new(upcall: &'f mut dyn FnMut(Chunk)) -> Self {
        UpcallSink { upcall }
    }
}

impl ChunkSink for UpcallSink<'_> {
    fn stages(&self) -> Vec<StageSpec> {
        Vec::new()
    }

    fn accept(&mut self, chunk: Chunk, _payload: &[u8]) -> Vec<Dur> {
        (self.upcall)(chunk);
        Vec::new()
    }

    fn needs_payload(&self) -> bool {
        false
    }
}

impl std::fmt::Debug for UpcallSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpcallSink").finish_non_exhaustive()
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
/// as an in-simulation stage.
#[derive(Debug, Clone)]
pub struct FingerprintStage {
    hash_bw: f64,
    digests: Vec<Digest>,
    /// Digests of [`prehash`](Self::prehash)ed payloads not yet
    /// [`process`](Self::process)ed.
    queued: std::vec::IntoIter<Digest>,
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
        FingerprintStage {
            hash_bw,
            digests: Vec::new(),
            queued: Vec::new().into_iter(),
        }
    }

    /// The stage descriptor.
    pub fn spec(&self) -> StageSpec {
        StageSpec {
            kind: StageKind::Fingerprint,
            name: "fingerprint",
        }
    }

    /// Hashes the payloads the next `payloads.len()` calls to
    /// [`process`](Self::process) will receive, in that order, as one
    /// [`sha256_many`] batch.
    pub fn prehash(&mut self, payloads: &[&[u8]]) {
        debug_assert_eq!(self.queued.len(), 0, "prehashed digests left unused");
        self.queued = sha256_many(payloads).into_iter();
    }

    /// Fingerprints one payload — with the next
    /// [`prehash`](Self::prehash)ed digest if one is queued, else by
    /// hashing it now — records the digest, and returns it with the
    /// simulated service time.
    pub fn process(&mut self, payload: &[u8]) -> (Digest, Dur) {
        let digest = match self.queued.next() {
            Some(digest) => {
                debug_assert_eq!(digest, sha256(payload), "prehashed out of order");
                digest
            }
            None => sha256(payload),
        };
        self.digests.push(digest);
        (
            digest,
            Dur::from_bytes_at(payload.len() as u64, self.hash_bw),
        )
    }

    /// Digests computed so far, in delivery order.
    pub fn digests(&self) -> &[Digest] {
        &self.digests
    }

    /// Consumes the stage, returning the digests.
    pub fn into_digests(self) -> Vec<Digest> {
        self.digests
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
/// fingerprints are hashed by a [`FingerprintStage`], store index
/// lookups and segment writes are charged to a [`StoreStage`], and the
/// stream becomes one new generation of its store stream.
///
/// The functional half is real: payloads land in the store's segment
/// log, dedup decisions come from its index, and after the engine run
/// the committed generation restores bit-identical (digest-verified).
///
/// A sink commits **one stream**: [`finish`](ChunkSink::finish) seals
/// the generation, after which delivering further chunks panics —
/// build a fresh `StoreSink` (over the same shared store) per stream.
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
    recipe: Vec<(Digest, usize)>,
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
            recipe: Vec::new(),
            generation: None,
            new_chunks: 0,
            new_bytes: 0,
            dedup_bytes: 0,
        }
    }

    /// The generation committed for this stream (`None` until
    /// [`finish`](ChunkSink::finish) ran, i.e. until the chunking call
    /// returned).
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// Chunks delivered.
    pub fn chunks(&self) -> usize {
        self.recipe.len()
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

    fn prehash(&mut self, payloads: &[&[u8]]) {
        self.fingerprint.prehash(payloads);
    }

    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
        assert!(
            self.generation.is_none(),
            "StoreSink already committed stream '{}' as generation {:?}; \
             use a fresh sink per stream",
            self.stream,
            self.generation
        );
        let (digest, hash_service) = self.fingerprint.process(payload);
        // `put_slice`: a dedup hit copies nothing — only new payloads
        // land in the segment log.
        let new = self.store.borrow_mut().put_slice(digest, payload);
        if new {
            self.new_chunks += 1;
            self.new_bytes += chunk.len as u64;
        } else {
            self.dedup_bytes += chunk.len as u64;
        }
        self.recipe.push((digest, chunk.len));
        vec![hash_service, self.stage.process(new, chunk.len)]
    }

    fn finish(&mut self) -> Vec<Dur> {
        // Idempotent: a second `finish` without new chunks must not
        // commit the same recipe as another generation.
        if self.generation.is_some() {
            return vec![Dur::ZERO, Dur::ZERO];
        }
        let generation = self
            .store
            .borrow_mut()
            .commit_snapshot(&self.stream, &self.recipe)
            // shredder-lint: allow(R5) — every recipe digest was stored by this sink, and ShredderConfig::validate rejects retention Some(0)
            .expect("recipe chunks were just stored");
        self.generation = Some(generation);
        // The manifest itself is a segment-log write.
        let manifest_bytes = (self.recipe.len() * self.manifest_entry_bytes) as u64;
        vec![Dur::ZERO, Dur::from_bytes_at(manifest_bytes, self.write_bw)]
    }
}

impl std::fmt::Debug for StoreSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSink")
            .field("stream", &self.stream)
            .field("chunks", &self.recipe.len())
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

    fn prehash(&mut self, payloads: &[&[u8]]) {
        self.fingerprint.prehash(payloads);
    }

    fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
        let (digest, hash_service) = self.fingerprint.process(payload);
        let (duplicate, dedup_service) = self.dedup.process(digest);
        let (ship_bytes, ship_service) = self.ship.process(duplicate, chunk.len);
        self.verdicts.push(ChunkVerdict {
            chunk,
            digest,
            duplicate,
            ship_bytes,
        });
        vec![hash_service, dedup_service, ship_service]
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
/// the sink every payload at once ([`ChunkSink::prehash`]), delivers
/// every chunk to the sink in stream order and aggregates the returned
/// per-stage service demand into `buckets` buckets of `bucket_size`
/// stream bytes (the engine's pipeline buffers);
/// [`ChunkSink::finish`]'s tail demand is charged to the last bucket. Sinks that don't
/// [`need the payload`](ChunkSink::needs_payload) may be driven with
/// `data` shorter than the stream; they receive empty payload slices.
///
/// Returns the sink's stage list alongside the `[bucket][stage]`
/// demand.
pub(crate) fn drive_sink_functional(
    sink: &mut dyn ChunkSink,
    chunks: &[Chunk],
    data: &[u8],
    buckets: usize,
    bucket_size: usize,
) -> (Vec<StageSpec>, Vec<Vec<Dur>>) {
    let specs = sink.stages();
    let mut per_bucket: Vec<Vec<Dur>> = vec![vec![Dur::ZERO; specs.len()]; buckets];
    let payloads: Vec<&[u8]> = chunks
        .iter()
        .map(|chunk| {
            if data.len() as u64 >= chunk.end() {
                chunk.slice(data)
            } else {
                &[]
            }
        })
        .collect();
    sink.prehash(&payloads);
    for (chunk, payload) in chunks.iter().zip(payloads) {
        let services = sink.accept(*chunk, payload);
        debug_assert_eq!(services.len(), specs.len(), "sink stage arity mismatch");
        if buckets == 0 {
            continue;
        }
        let b = (chunk.offset as usize / bucket_size.max(1)).min(buckets - 1);
        for (k, d) in services.iter().enumerate().take(specs.len()) {
            per_bucket[b][k] += *d;
        }
    }
    let tail = sink.finish();
    if !tail.is_empty() && buckets > 0 {
        debug_assert_eq!(tail.len(), specs.len(), "sink stage arity mismatch");
        for (k, d) in tail.iter().enumerate().take(specs.len()) {
            per_bucket[buckets - 1][k] += *d;
        }
    }
    (specs, per_bucket)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(seed)).collect()
    }

    #[test]
    fn fingerprint_stage_hashes_for_real() {
        let mut stage = FingerprintStage::new(1e9);
        let data = payload(1000, 3);
        let (digest, service) = stage.process(&data);
        assert_eq!(digest, sha256(&data));
        assert_eq!(service, Dur::from_bytes_at(1000, 1e9));
        assert_eq!(stage.digests().len(), 1);
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
        let mut sink = DedupSink::new(
            DedupSinkConfig {
                hash_bw: 1.5e9,
                index_lookup: Dur::from_micros(7),
                index_insert: Dur::from_micros(10),
                ship_bw: 0.9e9,
                pointer_bytes: 40,
                ship_chunk_overhead: Dur::from_micros(2),
            },
            index,
        );
        let data = payload(4096, 9);
        let chunk = Chunk {
            offset: 0,
            len: data.len(),
        };
        let first = sink.accept(chunk, &data);
        assert_eq!(first.len(), 3);
        let second = sink.accept(chunk, &data);
        assert!(second[2] < first[2], "duplicate ships only a pointer");
        let verdicts = sink.verdicts();
        assert!(!verdicts[0].duplicate);
        assert!(verdicts[1].duplicate);
        assert_eq!(verdicts[1].ship_bytes, 40);
        assert_eq!(verdicts[0].digest, sha256(&data));
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
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let ca = Chunk {
            offset: 0,
            len: a.len(),
        };
        let cb = Chunk {
            offset: a.len() as u64,
            len: b.len(),
        };
        let first = sink.accept(ca, &a);
        let second = sink.accept(cb, &b);
        // Same content again: dedups, cheaper store service.
        let third = sink.accept(
            Chunk {
                offset: stream.len() as u64,
                len: a.len(),
            },
            &a,
        );
        assert!(third[1] < first[1], "duplicate skips the segment write");
        assert_eq!(second.len(), 2);
        assert_eq!(sink.new_chunks(), 2);
        assert_eq!(sink.dedup_bytes(), a.len() as u64);
        assert!(sink.generation().is_none(), "not committed mid-stream");

        let tail = sink.finish();
        assert_eq!(tail.len(), 2);
        let generation = sink.generation().expect("committed");
        stream.extend_from_slice(&a);
        assert_eq!(store.borrow().restore("vm", generation).unwrap(), stream);
        assert_eq!(store.borrow().physical_bytes(), (a.len() + b.len()) as u64);
    }

    /// Forwards everything but [`ChunkSink::prehash`], so the wrapped
    /// sink hashes each chunk as it is accepted.
    struct PerChunk<S>(S);

    impl<S: ChunkSink> ChunkSink for PerChunk<S> {
        fn stages(&self) -> Vec<StageSpec> {
            self.0.stages()
        }

        fn accept(&mut self, chunk: Chunk, payload: &[u8]) -> Vec<Dur> {
            self.0.accept(chunk, payload)
        }

        fn finish(&mut self) -> Vec<Dur> {
            self.0.finish()
        }
    }

    /// A stream of 41 chunks of varied lengths, every third one a
    /// repeat of an earlier chunk's content.
    fn stream_with_repeats() -> (Vec<u8>, Vec<Chunk>) {
        let mut data = Vec::new();
        let mut chunks = Vec::new();
        for k in 0..41usize {
            let seed = if k % 3 == 2 { (k / 2) as u8 } else { k as u8 };
            let piece = payload(64 + (seed as usize * 997) % 6000, seed | 1);
            chunks.push(Chunk {
                offset: data.len() as u64,
                len: piece.len(),
            });
            data.extend_from_slice(&piece);
        }
        (data, chunks)
    }

    #[test]
    fn prehashed_sinks_match_per_chunk_hashing() {
        let (data, chunks) = stream_with_repeats();
        let config = DedupSinkConfig {
            hash_bw: 1.5e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            ship_bw: 0.9e9,
            pointer_bytes: 40,
            ship_chunk_overhead: Dur::from_micros(2),
        };
        let index_a: Rc<RefCell<HashSet<Digest>>> = Rc::default();
        let index_b: Rc<RefCell<HashSet<Digest>>> = Rc::default();
        let mut batched = DedupSink::new(config, index_a);
        let mut single = PerChunk(DedupSink::new(config, index_b));
        let demand = drive_sink_functional(&mut batched, &chunks, &data, 4, 64 << 10);
        assert_eq!(
            demand,
            drive_sink_functional(&mut single, &chunks, &data, 4, 64 << 10)
        );
        assert_eq!(batched.verdicts(), single.0.verdicts());
        assert!(batched.verdicts().iter().any(|v| v.duplicate));
        for (v, chunk) in batched.verdicts().iter().zip(&chunks) {
            assert_eq!(v.digest, sha256(chunk.slice(&data)));
        }

        let store_a = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let store_b = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let mut batched = StoreSink::new("vm", StoreSinkConfig::default(), store_a.clone());
        let mut single = PerChunk(StoreSink::new(
            "vm",
            StoreSinkConfig::default(),
            store_b.clone(),
        ));
        let demand = drive_sink_functional(&mut batched, &chunks, &data, 4, 64 << 10);
        assert_eq!(
            demand,
            drive_sink_functional(&mut single, &chunks, &data, 4, 64 << 10)
        );
        assert_eq!(batched.new_chunks(), single.0.new_chunks());
        assert_eq!(batched.dedup_bytes(), single.0.dedup_bytes());
        let generation = batched.generation().expect("committed");
        assert_eq!(single.0.generation(), Some(generation));
        assert_eq!(
            store_a.borrow().manifest("vm", generation),
            store_b.borrow().manifest("vm", generation)
        );
        assert_eq!(store_a.borrow().restore("vm", generation).unwrap(), data);
    }

    #[test]
    fn store_sink_consecutive_streams_form_generations() {
        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let data = payload(4096, 9);
        let chunk = Chunk {
            offset: 0,
            len: data.len(),
        };
        for expected_gen in 0..3u64 {
            let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
            sink.accept(chunk, &data);
            sink.finish();
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
        let data = payload(512, 2);
        let chunk = Chunk {
            offset: 0,
            len: data.len(),
        };
        sink.accept(chunk, &data);
        sink.finish();
        // A second stream through the same sink would merge recipes
        // into a corrupt generation — it must panic instead.
        sink.accept(chunk, &data);
    }

    #[test]
    fn store_sink_double_finish_commits_once() {
        let store = Rc::new(RefCell::new(shredder_store::ChunkStore::new()));
        let mut sink = StoreSink::new("vm", StoreSinkConfig::default(), store.clone());
        let data = payload(512, 4);
        sink.accept(
            Chunk {
                offset: 0,
                len: data.len(),
            },
            &data,
        );
        sink.finish();
        let tail = sink.finish();
        assert_eq!(tail, vec![Dur::ZERO, Dur::ZERO]);
        assert_eq!(sink.generation(), Some(0));
        assert_eq!(store.borrow().snapshot_count(), 1, "no duplicate commit");
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

    #[test]
    fn upcall_sink_is_stage_less() {
        let mut seen = Vec::new();
        let mut upcall = |c: Chunk| seen.push(c);
        let mut sink = UpcallSink::new(&mut upcall);
        assert!(sink.stages().is_empty());
        assert!(sink
            .accept(Chunk { offset: 0, len: 5 }, b"abcde")
            .is_empty());
        assert_eq!(seen.len(), 1);
    }
}
