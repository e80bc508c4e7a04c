//! Property tests for the [`BoundaryKernel`] family: Gear/FastCDC
//! tiling and determinism (sequential ≡ substream split), the
//! two-lane region scan against one rolling chain, and
//! shift-resilience — inserting bytes mid-stream perturbs
//! only a bounded neighborhood of the edit — for both the Rabin and
//! Gear kernels.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use shredder_rabin::chunker::raw_cuts;
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

/// The single-chain Rabin reference: the streaming `Chunker`'s raw
/// marker cuts over `region`, moved to absolute offsets from `base` and
/// kept past `own_from`.
fn rabin_reference(
    params: &ChunkParams,
    region: &[u8],
    base: usize,
    own_from: usize,
) -> Vec<RawCut> {
    raw_cuts(region, params)
        .into_iter()
        .map(|c| c + base as u64)
        .filter(|&c| c > own_from as u64)
        .map(RawCut::strict)
        .collect()
}

/// The single-chain Gear reference: one shift-add hash over the whole
/// region, each loose-mask hit tagged with the strict mask.
fn gear_reference(kernel: &GearKernel, region: &[u8], base: usize, own_from: usize) -> Vec<RawCut> {
    let (loose, strict) = (kernel.params().loose_mask(), kernel.params().strict_mask());
    let mut hash = 0u64;
    let mut out = Vec::new();
    for (i, &b) in region.iter().enumerate() {
        hash = kernel.step(hash, b);
        let cut = base + i + 1;
        if cut > own_from && hash & loose == 0 {
            out.push(RawCut {
                offset: cut as u64,
                strict: hash & strict == 0,
            });
        }
    }
    out
}

/// Rolling chains the lane scan runs (`LANES` in `boundary.rs`).
const LANES: usize = 2;

/// Shortest region the lane scan splits for a hash over `width` bytes:
/// one head window plus `LANES` lanes of `max(256, width)` bytes each
/// (`MIN_LANE_SPAN` in `boundary.rs`).
fn lane_threshold(width: usize) -> usize {
    width + LANES * width.max(256)
}

/// The lane scan's seams: where lanes 1.. start owning, relative to the
/// region start.
fn lane_seams(width: usize, len: usize) -> [usize; LANES - 1] {
    let span = len.saturating_sub(width) / LANES;
    std::array::from_fn(|j| (width + (j + 1) * span).min(len))
}

/// A region length drawn from the lane scan's edge classes: within two
/// overlaps of empty, within 8 bytes of the split threshold, every
/// residue mod `LANES` just past it, or anywhere up to 6 KiB.
fn pick_len(width: usize, class: usize, r: usize) -> usize {
    let threshold = lane_threshold(width);
    match class {
        0 => r % (2 * width - 1),
        1 => threshold - 8 + r % 17,
        2 => threshold + r % 64,
        _ => r % (6 << 10),
    }
}

/// An `own_from` for a region at `base`: the region start, a point
/// inside it, exactly a lane seam, or one byte either side of a seam.
fn pick_own_from(width: usize, len: usize, base: usize, pick: usize, r: usize) -> usize {
    let seams = lane_seams(width, len);
    let seam = seams[r % seams.len()];
    base + match pick {
        0 => 0,
        1 => r % (len + 1),
        2 | 3 => seam,
        _ => (seam + (r / seams.len()) % 3).saturating_sub(1),
    }
}

/// Runs `scan_region` after a sentinel candidate and checks that it
/// appends exactly `expected`, leaving what `out` held untouched.
fn check_scan(
    kernel: &dyn BoundaryKernel,
    region: &[u8],
    (base, own_from): (usize, usize),
    expected: &[RawCut],
) -> Result<(), TestCaseError> {
    let sentinel = RawCut::strict(u64::MAX);
    let mut out = vec![sentinel];
    kernel.scan_region(region, base, own_from, &mut out);
    prop_assert_eq!(out[0], sentinel);
    prop_assert_eq!(
        &out[1..],
        expected,
        "{} width {} len {} base {} own_from {}",
        kernel.name(),
        kernel.overlap() + 1,
        region.len(),
        base,
        own_from
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rabin's lane scan finds exactly the streaming chunker's raw
    /// cuts, for windows 1..=64, masks of 3–6 bits (a hit every 8–64
    /// bytes, so hits land on seams and in the last lane's leftover
    /// bytes), nonzero bases and `own_from` on or around the seams.
    #[test]
    fn rabin_lanes_match_one_chain(
        window in 1usize..=64,
        mask_bits in 3u32..=6,
        class in 0usize..4,
        r in 0usize..1 << 20,
        seed in any::<u64>(),
        base_raw in 0usize..1 << 30,
        own_pick in 0usize..6,
    ) {
        let params = ChunkParams { window, mask_bits, ..ChunkParams::paper() };
        let kernel = RabinKernel::new(&params);
        let len = pick_len(window, class, r);
        let data = pseudo_random(len, seed);
        let base = if base_raw % 2 == 0 { 0 } else { base_raw };
        let own_from = pick_own_from(window, len, base, own_pick, r / 7);
        let expected = rabin_reference(&params, &data, base, own_from);
        check_scan(&kernel, &data, (base, own_from), &expected)?;
    }

    /// Gear's lane scan finds exactly the one-chain loop's candidates,
    /// `strict` bits included, under the same edge cases.
    #[test]
    fn gear_lanes_match_one_chain(
        mask_bits in 3u32..=6,
        norm_level in 1u32..=2,
        class in 0usize..4,
        r in 0usize..1 << 20,
        seed in any::<u64>(),
        table_seed in any::<u64>(),
        base_raw in 0usize..1 << 30,
        own_pick in 0usize..6,
    ) {
        let kernel = GearKernel::new(&GearParams {
            mask_bits,
            min_size: 0,
            max_size: 1 << 10,
            norm_level,
            seed: table_seed,
        })
        .expect("valid test params");
        let width = kernel.overlap() + 1;
        let len = pick_len(width, class, r);
        let data = pseudo_random(len, seed);
        let base = if base_raw % 2 == 0 { 0 } else { base_raw };
        let own_from = pick_own_from(width, len, base, own_pick, r / 7);
        let expected = gear_reference(&kernel, &data, base, own_from);
        check_scan(&kernel, &data, (base, own_from), &expected)?;
    }
}

/// Every length up to just past the lane split, for both detectors at
/// hit-dense masks: the lane scan equals one chain at each length.
#[test]
fn lanes_match_one_chain_at_every_length_to_the_split() {
    let params = ChunkParams {
        mask_bits: 3,
        ..ChunkParams::paper()
    };
    let rabin = RabinKernel::new(&params);
    let gear = GearKernel::new(&GearParams {
        mask_bits: 4,
        min_size: 0,
        max_size: 1 << 10,
        norm_level: 2,
        seed: GEAR_SEED,
    })
    .expect("valid test params");
    let data = pseudo_random(lane_threshold(64) + 16, 0x1a7e5);
    for len in 0..=data.len() {
        let region = &data[..len];
        let own_from = lane_seams(params.window, len)[0];
        let mut out = Vec::new();
        rabin.scan_region(region, 0, own_from, &mut out);
        assert_eq!(
            out,
            rabin_reference(&params, region, 0, own_from),
            "rabin len {len}"
        );
        out.clear();
        gear.scan_region(region, 0, 0, &mut out);
        assert_eq!(out, gear_reference(&gear, region, 0, 0), "gear len {len}");
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
