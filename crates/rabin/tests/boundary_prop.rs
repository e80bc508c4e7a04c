//! Property tests for the [`BoundaryKernel`] family: Gear/FastCDC
//! tiling and determinism (sequential ≡ substream split), and
//! shift-resilience — inserting bytes mid-stream perturbs
//! only a bounded neighborhood of the edit — for both the Rabin and
//! Gear kernels.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use shredder_rabin::{
    BoundaryKernel, ChunkParams, GearKernel, GearParams, RabinKernel, RawCut, GEAR_SEED,
};

/// Gear parameters scaled down so small proptest inputs still produce
/// many cuts (256-byte average).
fn small_gear() -> GearKernel {
    GearKernel::new(&GearParams {
        mask_bits: 8,
        min_size: 64,
        max_size: 8 << 10,
        norm_level: 2,
        seed: GEAR_SEED,
    })
    .expect("valid test params")
}

fn data_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

/// The exact raw-level shift-resilience property every
/// [`BoundaryKernel`] must satisfy: after inserting `insert` at `pos`,
/// every raw candidate past the edit's overlap horizon is the old
/// candidate shifted by the insertion length — nothing downstream of
/// the edit (plus one lookback window) moves.
fn assert_raw_shift_resilience(
    kernel: &dyn BoundaryKernel,
    data: &[u8],
    pos: usize,
    insert: &[u8],
) {
    let mut edited = data[..pos].to_vec();
    edited.extend_from_slice(insert);
    edited.extend_from_slice(&data[pos..]);
    let k = insert.len() as u64;
    // A candidate at offset c depends on bytes [c - overlap - 1, c), so
    // candidates at or past this fence see only pre-edit bytes (below)
    // or shifted post-edit bytes (above).
    let fence = (pos + kernel.overlap() + 1) as u64;

    let downstream_before: Vec<RawCut> = kernel
        .raw_cuts(data)
        .into_iter()
        .filter(|c| c.offset >= fence)
        .collect();
    let downstream_after: Vec<RawCut> = kernel
        .raw_cuts(&edited)
        .into_iter()
        .filter(|c| c.offset >= fence + k)
        .map(|c| RawCut {
            offset: c.offset - k,
            strict: c.strict,
        })
        .collect();
    assert_eq!(downstream_after, downstream_before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gear chunks always tile the input exactly, in order, no gaps.
    #[test]
    fn gear_chunks_tile_input(data in data_strategy(64 * 1024)) {
        let kernel = small_gear();
        let chunks = kernel.chunks(&data);
        let mut off = 0u64;
        for c in &chunks {
            prop_assert_eq!(c.offset, off);
            prop_assert!(c.len > 0);
            off = c.end();
        }
        prop_assert_eq!(off, data.len() as u64);
    }

    /// Gear min/max bounds hold for every chunk (except the tail below
    /// min).
    #[test]
    fn gear_min_max_enforced(data in data_strategy(64 * 1024)) {
        let kernel = small_gear();
        let (min, max) = (kernel.params().min_size, kernel.params().max_size);
        let chunks = kernel.chunks(&data);
        for (i, c) in chunks.iter().enumerate() {
            prop_assert!(c.len <= max);
            if i + 1 != chunks.len() {
                prop_assert!(c.len >= min, "chunk {} len {}", i, c.len);
            }
        }
    }

    /// The §3.1 substream split (sequential scan of N overlapped
    /// regions) yields candidates bit-identical to one sequential scan.
    #[test]
    fn gear_substream_split_invariance(data in data_strategy(64 * 1024), substreams in 1usize..9) {
        let kernel = small_gear();
        prop_assert_eq!(
            kernel.raw_cuts_substreams(&data, substreams),
            kernel.raw_cuts(&data)
        );
    }

    /// Two independently constructed kernels from the same parameters
    /// chunk identically: the seed-derived gear table is pure.
    #[test]
    fn gear_runs_are_deterministic(data in data_strategy(32 * 1024)) {
        let a = small_gear();
        let b = small_gear();
        prop_assert_eq!(a.chunks(&data), b.chunks(&data));
    }

    /// Raw shift-resilience, Gear: all candidates past the edit plus
    /// one 64-byte gear window are the old candidates shifted.
    #[test]
    fn gear_raw_shift_resilience(
        data in data_strategy(32 * 1024),
        insert in proptest::collection::vec(any::<u8>(), 1..64),
        pos_mil in 0usize..1000,
    ) {
        let kernel = small_gear();
        let pos = data.len() * pos_mil / 1000;
        assert_raw_shift_resilience(&kernel, &data, pos, &insert);
    }

    /// Raw shift-resilience, Rabin: same property over the 48-byte
    /// fingerprint window.
    #[test]
    fn rabin_raw_shift_resilience(
        data in data_strategy(32 * 1024),
        insert in proptest::collection::vec(any::<u8>(), 1..64),
        pos_mil in 0usize..1000,
    ) {
        let kernel = RabinKernel::new(&ChunkParams::paper());
        let pos = data.len() * pos_mil / 1000;
        assert_raw_shift_resilience(&kernel, &data, pos, &insert);
    }
}

/// Deterministic pseudo-random stream (xorshift) for the digest-level
/// resilience tests below.
fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Multiset of chunk-payload identities (hashed) for dedup-style
/// comparison.
fn payload_multiset(kernel: &dyn BoundaryKernel, data: &[u8]) -> (usize, HashMap<u64, usize>) {
    let chunks = kernel.chunks(data);
    let mut set = HashMap::new();
    for c in &chunks {
        let mut h = DefaultHasher::new();
        c.slice(data).hash(&mut h);
        *set.entry(h.finish()).or_insert(0) += 1;
    }
    (chunks.len(), set)
}

/// The dedup guarantee chunking exists for (§2.1): a localized edit
/// leaves all but O(1) chunk payloads shared with the original stream.
fn assert_digest_shift_resilience(kernel: &dyn BoundaryKernel, changed_bound: usize) {
    let data = pseudo_random(1 << 20, 0x5e11);
    let mut edited = data[..512 << 10].to_vec();
    edited.extend_from_slice(b"inserted");
    edited.extend_from_slice(&data[512 << 10..]);

    let (n_before, before) = payload_multiset(kernel, &data);
    let (n_after, after) = payload_multiset(kernel, &edited);
    let shared: usize = before
        .iter()
        .map(|(k, &count)| count.min(after.get(k).copied().unwrap_or(0)))
        .sum();

    assert!(
        n_before > 64,
        "stream must split into many chunks: {n_before}"
    );
    assert!(
        shared + changed_bound >= n_before && shared + changed_bound >= n_after,
        "{}: only {shared} of {n_before}/{n_after} chunks survive an 8-byte insert",
        kernel.name()
    );
}

#[test]
fn rabin_digest_shift_resilience() {
    assert_digest_shift_resilience(&RabinKernel::new(&ChunkParams::paper()), 3);
}

#[test]
fn gear_digest_shift_resilience() {
    assert_digest_shift_resilience(&GearKernel::matched(&ChunkParams::paper()), 4);
}
