//! Property-based tests for Rabin fingerprinting and chunking invariants.

use proptest::prelude::*;
use shredder_rabin::chunker::{apply_min_max, cuts_to_chunks, raw_cuts, Chunk};
use shredder_rabin::{
    chunk_all, BoundaryKernel, ChunkParams, Chunker, Polynomial, RabinKernel, RabinTables,
};

/// Strategy: data with enough repetition to produce marker hits but
/// arbitrary structure.
fn data_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

/// Chunks `data` from the candidates of `threads` overlapped
/// substreams.
fn substream_chunks(data: &[u8], params: &ChunkParams, threads: usize) -> Vec<Chunk> {
    let kernel = RabinKernel::new(params);
    let len = data.len() as u64;
    let raw = kernel.raw_cuts_substreams(data, threads);
    cuts_to_chunks(&kernel.apply_policy(&raw, len), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunks always tile the input exactly, in order, with no gaps.
    #[test]
    fn chunks_tile_input(data in data_strategy(64 * 1024)) {
        let chunks = chunk_all(&data, &ChunkParams::paper());
        let mut off = 0u64;
        for c in &chunks {
            prop_assert_eq!(c.offset, off);
            prop_assert!(c.len > 0);
            off = c.end();
        }
        prop_assert_eq!(off, data.len() as u64);
    }

    /// The §3.1 SPMD split (one overlapped substream per thread), with
    /// the size policy applied to the merged candidates, chunks
    /// bit-identically to sequential chunking.
    #[test]
    fn parallel_equals_sequential(data in data_strategy(128 * 1024), threads in 1usize..9) {
        let params = ChunkParams::paper();
        prop_assert_eq!(
            substream_chunks(&data, &params, threads),
            chunk_all(&data, &params)
        );
    }

    /// Parallel equality also holds with min/max constraints enabled.
    #[test]
    fn parallel_equals_sequential_min_max(data in data_strategy(128 * 1024), threads in 2usize..9) {
        let params = ChunkParams {
            min_size: 512,
            max_size: 4096,
            ..ChunkParams::paper()
        };
        prop_assert_eq!(
            substream_chunks(&data, &params, threads),
            chunk_all(&data, &params)
        );
    }

    /// min/max constraints hold for all chunks (except possibly the tail
    /// below min).
    #[test]
    fn min_max_enforced(data in data_strategy(128 * 1024)) {
        let params = ChunkParams {
            min_size: 1024,
            max_size: 8192,
            ..ChunkParams::paper()
        };
        let chunks = chunk_all(&data, &params);
        for (i, c) in chunks.iter().enumerate() {
            prop_assert!(c.len <= params.max_size);
            if i + 1 != chunks.len() {
                prop_assert!(c.len >= params.min_size, "chunk {} len {}", i, c.len);
            }
        }
    }

    /// Feeding the stream in arbitrary pieces produces identical cuts.
    #[test]
    fn streaming_split_invariance(data in data_strategy(32 * 1024), pieces in 1usize..17) {
        let params = ChunkParams::paper();
        let oneshot = chunk_all(&data, &params);

        let mut chunker = Chunker::new(&params);
        let mut cuts = Vec::new();
        let size = (data.len() / pieces).max(1);
        let mut fed = 0;
        while fed < data.len() {
            let end = (fed + size).min(data.len());
            chunker.update(&data[fed..end], |c| cuts.push(c));
            fed = end;
        }
        let len = chunker.finish();
        prop_assert_eq!(cuts_to_chunks(&cuts, len), oneshot);
    }

    /// The batch Store-thread min/max post-pass equals online filtering.
    #[test]
    fn batch_filter_equals_online(data in data_strategy(64 * 1024), min_kb in 0usize..4, max_kb in 1usize..16) {
        let params = ChunkParams {
            min_size: min_kb * 1024,
            max_size: max_kb * 1024 + 1024, // keep max > min
            ..ChunkParams::paper()
        };
        let online = chunk_all(&data, &params);
        let raw = raw_cuts(&data, &params);
        let filtered = apply_min_max(&raw, data.len() as u64, &params);
        prop_assert_eq!(cuts_to_chunks(&filtered, data.len() as u64), online);
    }

    /// Appending data never changes cuts strictly before the old end
    /// minus the window (stream-prefix stability).
    #[test]
    fn prefix_stability(data in data_strategy(32 * 1024), extra in data_strategy(4096)) {
        let params = ChunkParams::paper();
        let cuts_before = raw_cuts(&data, &params);
        let mut extended = data.clone();
        extended.extend_from_slice(&extra);
        let cuts_after = raw_cuts(&extended, &params);
        // All cuts of the original stream are still cuts of the extension.
        for c in &cuts_before {
            prop_assert!(cuts_after.contains(c));
        }
    }

    /// Sliding-window fingerprints match from-scratch fingerprints at
    /// random positions.
    #[test]
    fn sliding_matches_scratch(data in proptest::collection::vec(any::<u8>(), 49..4096), idx in 48usize..4095) {
        let t = RabinTables::paper();
        let w = t.window();
        prop_assume!(idx < data.len());
        let mut fp = t.fingerprint(&data[..w]);
        for i in w..=idx {
            fp = t.slide(fp, data[i - w], data[i]);
        }
        prop_assert_eq!(fp, t.fingerprint(&data[idx + 1 - w..=idx]));
    }

    /// Random irreducible polynomials are accepted by the irreducibility
    /// test and have the requested degree.
    #[test]
    fn random_irreducible_valid(seed in any::<u64>(), degree in 9u32..33) {
        let mut state = seed | 1;
        let p = Polynomial::random_irreducible(degree, move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        });
        prop_assert_eq!(p.degree(), Some(degree));
        prop_assert!(p.is_irreducible());
    }

    /// Chunking with a different random irreducible polynomial still
    /// tiles the input and respects expected-size statistics loosely.
    #[test]
    fn alternate_polynomial_chunks(seed in any::<u64>()) {
        let mut state = seed | 1;
        let poly = Polynomial::random_irreducible(31, move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        });
        let params = ChunkParams { poly, ..ChunkParams::paper() };
        let data: Vec<u8> = (0..32768u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        let chunks = chunk_all(&data, &params);
        prop_assert_eq!(chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
    }
}
