//! The Inc-HDFS ingestion sink: record alignment + fingerprinting as
//! in-simulation stages.
//!
//! §6.3's semantic chunking snaps content-defined cuts forward to
//! record boundaries; the client then fingerprints every aligned split
//! for cluster-wide dedup. A [`RecordAlignedSink`] does both inside the
//! engine's simulation: it aligns the stream's final chunks with
//! [`apply_input_format`] and hashes the splits as one batch, charging
//! the hashing to a [`FingerprintStage`] scheduled in the shared
//! simulation, so split fingerprinting overlaps chunking.
//!
//! The charge lands where a streaming client would pay it: when the
//! split's end record boundary becomes visible. Every split but the
//! last is charged to the chunk holding its end offset (the first byte
//! of the next split); the last split, which ends at the stream end, is
//! charged to the end-of-stream tail.

use shredder_core::{ChunkSink, FingerprintStage, SinkDemand, StageSpec};
use shredder_des::Dur;
use shredder_hash::Digest;
use shredder_rabin::Chunk;

use crate::input_format::{apply_input_format, InputFormat};

/// Default client-side fingerprinting bandwidth (the Store thread's
/// SHA-256 rate, matching the §7.3 backup emulation).
pub const CLIENT_HASH_BW: f64 = 1.5e9;

/// A sink that re-tiles content-defined chunks to record boundaries and
/// fingerprints every aligned split inside the simulation.
pub struct RecordAlignedSink<'f> {
    format: &'f dyn InputFormat,
    fingerprint: FingerprintStage,
    /// Aligned splits emitted so far, with their fingerprints.
    aligned: Vec<(Chunk, Digest)>,
}

impl<'f> RecordAlignedSink<'f> {
    /// Creates a sink aligning to `format` and hashing at the default
    /// client rate.
    pub fn new(format: &'f dyn InputFormat) -> Self {
        RecordAlignedSink::with_hash_bw(format, CLIENT_HASH_BW)
    }

    /// Creates a sink hashing at `hash_bw` bytes/s.
    pub fn with_hash_bw(format: &'f dyn InputFormat, hash_bw: f64) -> Self {
        RecordAlignedSink {
            format,
            fingerprint: FingerprintStage::new(hash_bw),
            aligned: Vec::new(),
        }
    }

    /// The aligned splits emitted so far, in stream order.
    pub fn aligned(&self) -> &[(Chunk, Digest)] {
        &self.aligned
    }

    /// Consumes the sink, returning the aligned splits.
    pub fn into_aligned(self) -> Vec<(Chunk, Digest)> {
        self.aligned
    }
}

impl ChunkSink for RecordAlignedSink<'_> {
    fn stages(&self) -> Vec<StageSpec> {
        vec![self.fingerprint.spec()]
    }

    /// Hashes the record-aligned splits, not the chunks: the sink
    /// leaves [`fingerprints_chunks`](ChunkSink::fingerprints_chunks)
    /// at `false`, so `digests` is empty and no chunk is hashed for it.
    fn consume(&mut self, data: &[u8], chunks: &[Chunk], _digests: &[Digest]) -> SinkDemand {
        // Every chunk start but the stream's first is a proposed cut.
        let cuts: Vec<u64> = chunks.iter().skip(1).map(|c| c.offset).collect();
        let splits = apply_input_format(data, &cuts, self.format);
        let payloads: Vec<&[u8]> = splits.iter().map(|s| s.slice(data)).collect();
        let mut rows = vec![vec![Dur::ZERO]; chunks.len()];
        let mut tail = Dur::ZERO;
        for (split, (digest, service)) in splits.iter().zip(self.fingerprint.process(&payloads)) {
            let end = split.end();
            if end == data.len() as u64 {
                tail += service;
            } else {
                rows[chunks.partition_point(|c| c.end() <= end)][0] += service;
            }
            self.aligned.push((*split, digest));
        }
        SinkDemand {
            rows,
            tail: vec![tail],
        }
    }
}

impl std::fmt::Debug for RecordAlignedSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordAlignedSink")
            .field("format", &self.format.format_name())
            .field("aligned", &self.aligned.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::TextInputFormat;
    use shredder_hash::sha256;
    use shredder_rabin::chunker::{cuts_to_chunks, raw_cuts};
    use shredder_rabin::ChunkParams;

    /// Feeds `data`, pre-chunked at `cuts`, through the sink and checks
    /// its splits and digests against [`apply_input_format`]; returns
    /// the demand.
    fn run_sink(data: &[u8], cuts: &[u64]) -> SinkDemand {
        let chunks = cuts_to_chunks(cuts, data.len() as u64);
        let mut sink = RecordAlignedSink::new(&TextInputFormat);
        // It hashes splits, so the engine hashes no chunk for it.
        assert!(!sink.fingerprints_chunks());
        let demand = sink.consume(data, &chunks, &[]);
        let splits: Vec<Chunk> = sink.aligned().iter().map(|(c, _)| *c).collect();
        assert_eq!(splits, apply_input_format(data, cuts, &TextInputFormat));
        for (c, d) in sink.aligned() {
            assert_eq!(*d, sha256(c.slice(data)), "digest of {c:?}");
        }
        demand
    }

    /// Asserts the demand charges, per chunk row and at the tail, the
    /// hashing of splits of the given lengths.
    fn assert_charged(demand: &SinkDemand, rows: &[&[usize]], tail: &[usize]) {
        let hashing = |lens: &[usize]| {
            vec![lens
                .iter()
                .map(|&len| Dur::from_bytes_at(len as u64, CLIENT_HASH_BW))
                .sum::<Dur>()]
        };
        let expected = SinkDemand {
            rows: rows.iter().map(|lens| hashing(lens)).collect(),
            tail: hashing(tail),
        };
        assert_eq!(*demand, expected);
    }

    #[test]
    fn streaming_alignment_equals_batch_snapping() {
        let record = b"some record content here\n";
        let data: Vec<u8> = record.iter().copied().cycle().take(100_000).collect();
        let cuts = raw_cuts(&data, &ChunkParams::paper().with_expected_size(2048));
        let demand = run_sink(&data, &cuts);
        // Every split's hashing is charged exactly once.
        let charged: Dur = demand.rows.iter().chain([&demand.tail]).map(|r| r[0]).sum();
        let hashing: Dur = apply_input_format(&data, &cuts, &TextInputFormat)
            .iter()
            .map(|s| Dur::from_bytes_at(s.len as u64, CLIENT_HASH_BW))
            .sum();
        assert_eq!(charged, hashing);
    }

    #[test]
    fn collapsing_cuts_merge() {
        // One giant record: every cut snaps to the same end boundary,
        // which is the stream end, so all hashing lands on the tail.
        let mut data = vec![b'x'; 50_000];
        data.push(b'\n');
        let demand = run_sink(&data, &[100, 5000, 20000]);
        assert_charged(&demand, &[&[], &[], &[], &[]], &[50_001]);
        // A record after it: the giant split ends inside the fourth
        // chunk, which is charged for it.
        data.extend_from_slice(b"tail\n");
        let demand = run_sink(&data, &[100, 5000, 20000, 50_003]);
        assert_charged(&demand, &[&[], &[], &[], &[50_001], &[]], &[5]);
    }

    #[test]
    fn cut_on_existing_boundary_stays() {
        let data = b"aaa\nbbb\nccc\n".to_vec();
        let demand = run_sink(&data, &[4, 9]);
        assert_charged(&demand, &[&[], &[4], &[]], &[8]);
    }

    #[test]
    fn no_trailing_newline() {
        let data = b"abc\ndef\nghij".to_vec();
        let demand = run_sink(&data, &[2, 6, 10]);
        assert_charged(&demand, &[&[], &[4], &[4], &[]], &[4]);
    }

    #[test]
    fn empty_stream_emits_nothing() {
        let demand = run_sink(&[], &[]);
        assert_charged(&demand, &[], &[]);
    }

    #[test]
    fn boundary_exactly_at_chunk_edge_defers_correctly() {
        // Newline as the last byte of a chunk: the split it ends is
        // charged to the next chunk, whose first byte starts the next
        // split.
        let data = b"aaaa\nbbbb\ncccc\n".to_vec();
        let demand = run_sink(&data, &[5, 10]);
        assert_charged(&demand, &[&[], &[5], &[5]], &[5]);
        // A newline as the stream's last byte must not produce an empty
        // split: the whole stream is one split, charged to the tail.
        assert_charged(&run_sink(&data, &[15]), &[&[]], &[15]);
        assert_charged(&run_sink(&data, &[14]), &[&[], &[]], &[15]);
    }
}
