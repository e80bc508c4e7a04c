//! Property-based tests for the hashing primitives.

use proptest::prelude::*;
use shredder_hash::{fnv1a_64, sha256, sha256_many, Digest, Fnv1a64, Sha256};

/// Message lengths at the padding edges: empty, one byte, the last
/// length whose padding fits one block (55), the first that needs two
/// (56), a block minus one, one block, and the same edge one block on
/// (119–121).
const EDGE_LENGTHS: [usize; 9] = [0, 1, 55, 56, 63, 64, 119, 120, 121];

/// Batch sizes around the lane counts (8 portable lanes, 16 with
/// AVX-512) and the thresholds below which a batch is hashed one
/// message at a time (3 portable; 9 with AVX-512 and SHA-NI): none,
/// one, each threshold and one below it, sixteen and one either side,
/// and two rounds of sixteen plus one.
const BATCH_SIZES: [usize; 10] = [0, 1, 2, 3, 8, 9, 15, 16, 17, 33];

/// `sha256` of every message, one at a time.
fn one_by_one(messages: &[&[u8]]) -> Vec<Digest> {
    messages.iter().map(|m| sha256(m)).collect()
}

proptest! {
    /// Incremental hashing at any split point matches one-shot hashing.
    #[test]
    fn sha256_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), splits in proptest::collection::vec(0usize..2048, 0..4)) {
        let mut h = Sha256::new();
        let mut cursor = 0usize;
        let mut points: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        points.sort_unstable();
        for p in points {
            if p >= cursor {
                h.update(&data[cursor..p]);
                cursor = p;
            }
        }
        h.update(&data[cursor..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Different inputs essentially never produce equal digests.
    #[test]
    fn sha256_injective_in_practice(a in proptest::collection::vec(any::<u8>(), 0..256), b in proptest::collection::vec(any::<u8>(), 0..256)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        } else {
            prop_assert_eq!(sha256(&a), sha256(&b));
        }
    }

    /// Digest hex round-trips.
    #[test]
    fn digest_hex_roundtrip(raw in any::<[u8; 32]>()) {
        let d = Digest(raw);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    /// FNV incremental == one-shot for arbitrary splits.
    #[test]
    fn fnv_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split % (data.len() + 1);
        let mut h = Fnv1a64::new();
        h.write(&data[..split]);
        h.write(&data[split..]);
        prop_assert_eq!(h.finish(), fnv1a_64(&data));
    }

    /// SHA-256 is deterministic.
    #[test]
    fn sha256_deterministic(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
    }

    /// Batch hashing equals hashing one message at a time, for every
    /// listed batch size over padding-edge lengths, with up to two long
    /// messages (to 110 KiB) anywhere in the batch: the short messages'
    /// lanes refill around them, and they finish alone from mid-message
    /// once too few lanes are busy.
    #[test]
    fn sha256_many_matches_sha256(
        batch in 0usize..BATCH_SIZES.len(),
        lengths in proptest::collection::vec(0usize..EDGE_LENGTHS.len(), 33..34),
        long_count in 0usize..3,
        long_at in proptest::collection::vec(0usize..33, 2..3),
        long_len in proptest::collection::vec(
            prop_oneof![200usize..3000, 100_000usize..110_000],
            2..3,
        ),
        data in proptest::collection::vec(any::<u8>(), 3000..3001),
    ) {
        let n = BATCH_SIZES[batch];
        let long: Vec<u8> = data.iter().copied().cycle().take(110_000).collect();
        let mut messages: Vec<&[u8]> = lengths[..n]
            .iter()
            .enumerate()
            .map(|(k, &e)| &data[k * 7..k * 7 + EDGE_LENGTHS[e]])
            .collect();
        for (&at, &len) in long_at.iter().zip(&long_len).take(long_count) {
            if n > 0 {
                messages[at % n] = &long[..len];
            }
        }
        prop_assert_eq!(sha256_many(&messages), one_by_one(&messages));
    }

    /// Batch hashing equals hashing one message at a time for random
    /// batches of random lengths.
    #[test]
    fn sha256_many_matches_sha256_on_random_batches(
        lengths in proptest::collection::vec(0usize..700, 0..70),
        data in proptest::collection::vec(any::<u8>(), 700..701),
    ) {
        let messages: Vec<&[u8]> = lengths.iter().map(|&len| &data[..len]).collect();
        prop_assert_eq!(sha256_many(&messages), one_by_one(&messages));
    }
}
