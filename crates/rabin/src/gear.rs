//! Gear rolling hash with a FastCDC-style normalized cut decision.
//!
//! The Gear hash replaces Rabin's table-driven push/pop update with a
//! single shift-add per byte:
//!
//! ```text
//! hash = (hash << 1) + TABLE[byte]    (mod 2^64)
//! ```
//!
//! over a 256-entry random table derived deterministically from a seed
//! (splitmix64). Because each byte's table value is shifted left once
//! per subsequent byte and the arithmetic is mod 2⁶⁴, contributions
//! older than 64 bytes vanish exactly: the hash is a pure function of
//! the trailing [`GEAR_WINDOW`] = 64 bytes, which gives the kernel the
//! same shift-resilience and SPMD-splittability properties as Rabin
//! fingerprinting (with a 63-byte region overlap instead of 47).
//!
//! **Masks must cover the *high* bits.** A byte just consumed only
//! reaches the high bits of the hash after ~64 more shifts, so the
//! low-order bits are dominated by the newest few bytes; testing them
//! (as Rabin does) would collapse the effective window. FastCDC
//! therefore tests `hash & mask == 0` with masks packed into the top
//! bits, and its *normalized chunking* uses two nested masks: a
//! **strict** mask (`mask_bits + norm_level` high bits) before the
//! average target size, and a **loose** mask (`mask_bits − norm_level`
//! high bits) after it, squeezing the size distribution toward the
//! average. Nesting (strict ⊃ loose) means every strict hit is also a
//! loose hit, so the raw scan can emit position-independent
//! [`RawCut`]s — loose hits tagged with strictness — and leave the
//! position-*dependent* two-mask decision to the deterministic
//! [`FastCdcFilter`] post-pass, mirroring how Rabin leaves min/max to
//! [`CutFilter`](crate::chunker::CutFilter).

use serde::{Deserialize, Serialize};

use crate::boundary::{scan_lanes, BoundaryKernel, RawCut, RollingHash};
use crate::chunker::ParamError;

/// Bytes of history the Gear hash depends on: table values shifted
/// left 64 or more times are exactly zero mod 2⁶⁴.
pub const GEAR_WINDOW: usize = 64;

/// Default seed for the gear table derivation. Fixed so every engine
/// (CPU, simulated GPU) chunks identically without plumbing.
pub const GEAR_SEED: u64 = 0x5368_7265_6464_6572; // "Shredder"

/// Parameters of the Gear/FastCDC chunking scheme.
///
/// # Examples
///
/// ```
/// use shredder_rabin::GearParams;
///
/// let p = GearParams::default();
/// assert_eq!(p.avg_size(), 8192);
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GearParams {
    /// Target average chunk size is `2^mask_bits` bytes (13 → 8 KiB,
    /// matching the Rabin paper parameters).
    pub mask_bits: u32,
    /// Minimum chunk size in bytes; loose/strict hits closer than this
    /// to the previous cut are discarded.
    pub min_size: usize,
    /// Maximum chunk size in bytes; a cut is forced at this distance.
    pub max_size: usize,
    /// FastCDC normalization level: the strict mask tests
    /// `mask_bits + norm_level` bits, the loose mask
    /// `mask_bits − norm_level`. 0 disables normalization (one mask).
    pub norm_level: u32,
    /// Seed for the 256-entry gear table derivation.
    pub seed: u64,
}

impl GearParams {
    /// The target average chunk size, `2^mask_bits` bytes.
    pub fn avg_size(&self) -> usize {
        1usize << self.mask_bits
    }

    /// The strict (pre-average) boundary mask: the top
    /// `mask_bits + norm_level` bits.
    pub fn strict_mask(&self) -> u64 {
        high_mask(self.mask_bits + self.norm_level)
    }

    /// The loose (post-average) boundary mask: the top
    /// `mask_bits − norm_level` bits.
    pub fn loose_mask(&self) -> u64 {
        high_mask(self.mask_bits - self.norm_level)
    }

    /// Validates the parameters, mirroring
    /// [`ChunkParams::validate`](crate::ChunkParams::validate).
    ///
    /// # Errors
    ///
    /// A [`ParamError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.mask_bits == 0 {
            return Err(ParamError::ZeroMask);
        }
        if self.norm_level >= self.mask_bits {
            return Err(ParamError::NormalizationTooWide {
                norm_level: self.norm_level,
                mask_bits: self.mask_bits,
            });
        }
        if self.mask_bits + self.norm_level > 63 {
            return Err(ParamError::MaskTooWide {
                bits: self.mask_bits + self.norm_level,
            });
        }
        if self.min_size > self.avg_size() || self.avg_size() > self.max_size {
            return Err(ParamError::SizeOrder {
                min: self.min_size,
                avg: self.avg_size(),
                max: self.max_size,
            });
        }
        Ok(())
    }

    /// Derives Gear parameters matched to a Rabin
    /// [`ChunkParams`](crate::ChunkParams): same
    /// expected chunk size (`mask_bits`), same min/max where the Rabin
    /// side sets them, FastCDC defaults (min = avg/4, max = 8·avg)
    /// where it leaves them open — FastCDC's normalization needs real
    /// min/max bounds, unlike the paper's unconstrained Rabin scan.
    ///
    /// Normalization is level 1 (not [`Default`]'s 2): the engine's
    /// Store thread scans every raw candidate the kernel ships back,
    /// and the loose mask sets the candidate density — `mask_bits − 1`
    /// bits means 2× the Rabin marker rate, where level 2 would mean
    /// 4× and give back the kernel's cycle savings as host-side policy
    /// work on pipelines that are not compute-bound.
    pub fn matched(params: &crate::ChunkParams) -> Self {
        let mask_bits = params.mask_bits;
        let avg = 1usize << mask_bits;
        GearParams {
            mask_bits,
            min_size: if params.min_size > 0 {
                params.min_size.min(avg)
            } else {
                avg / 4
            },
            max_size: if params.max_size != usize::MAX {
                params.max_size.max(avg)
            } else {
                avg.saturating_mul(8)
            },
            norm_level: 1.min(mask_bits.saturating_sub(1)),
            seed: GEAR_SEED,
        }
    }
}

impl Default for GearParams {
    /// Paper-matched defaults: 8 KiB average (13 mask bits), 2 KiB min,
    /// 64 KiB max, normalization level 2.
    fn default() -> Self {
        GearParams {
            mask_bits: 13,
            min_size: 2 * 1024,
            max_size: 64 * 1024,
            norm_level: 2,
            seed: GEAR_SEED,
        }
    }
}

/// A mask covering the top `bits` bits of a u64.
fn high_mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        ((1u64 << bits) - 1) << (64 - bits)
    }
}

/// Derives the 256-entry gear table from a seed with splitmix64 — a
/// deterministic stand-in for the BLAKE3-derived tables real gear
/// implementations ship.
pub fn gear_table(seed: u64) -> [u64; 256] {
    let mut state = seed;
    let mut table = [0u64; 256];
    for entry in table.iter_mut() {
        *entry = shredder_hash::mix::splitmix64(&mut state);
    }
    table
}

/// Deterministic FastCDC cut decision over a raw candidate sequence.
///
/// Feed loose-mask candidates (strictness-tagged) in increasing offset
/// order with [`offer`](FastCdcFilter::offer):
///
/// * a cut is **forced** every `max_size` bytes without an accepted
///   candidate;
/// * candidates closer than `min_size` to the last cut are discarded;
/// * candidates before the `avg_size` point must be **strict**;
/// * candidates at or past it are accepted on the loose criterion.
///
/// Like [`CutFilter`](crate::chunker::CutFilter), the filter is a pure
/// function of the candidate sequence, so batch (GPU store-thread) and
/// online paths always agree.
#[derive(Debug, Clone)]
pub struct FastCdcFilter {
    min: u64,
    avg: u64,
    max: u64,
    last: u64,
}

impl FastCdcFilter {
    /// Creates a filter for the given parameters, starting at offset 0.
    pub fn new(params: &GearParams) -> Self {
        FastCdcFilter {
            min: params.min_size as u64,
            avg: params.avg_size() as u64,
            max: params.max_size as u64,
            last: 0,
        }
    }

    /// Offers a candidate, invoking `emit` for every accepted cut
    /// (forced max-size cuts first, then the candidate itself if it
    /// survives the normalized decision).
    pub fn offer(&mut self, cut: RawCut, mut emit: impl FnMut(u64)) {
        debug_assert!(cut.offset >= self.last, "cuts must be offered in order");
        self.force_up_to(cut.offset, &mut emit);
        let gap = cut.offset - self.last;
        if gap < self.min.max(1) {
            return;
        }
        if gap < self.avg && !cut.strict {
            return;
        }
        self.last = cut.offset;
        emit(cut.offset);
    }

    /// Signals end-of-stream at `len`, emitting any forced cuts
    /// strictly before `len`.
    pub fn finish(&mut self, len: u64, mut emit: impl FnMut(u64)) {
        self.force_up_to(len, &mut emit);
    }

    fn force_up_to(&mut self, upto: u64, emit: &mut impl FnMut(u64)) {
        while upto - self.last > self.max {
            self.last += self.max;
            emit(self.last);
        }
    }
}

/// The Gear/FastCDC chunking kernel.
///
/// # Examples
///
/// ```
/// use shredder_rabin::{BoundaryKernel, GearKernel, GearParams};
///
/// let kernel = GearKernel::new(&GearParams::default()).unwrap();
/// let data: Vec<u8> = (0..1u32 << 18).map(|i| (i.wrapping_mul(2654435761) >> 9) as u8).collect();
/// let chunks = kernel.chunks(&data);
/// // Chunks tile the input and respect min/max bounds.
/// assert_eq!(chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
/// ```
#[derive(Debug, Clone)]
pub struct GearKernel {
    params: GearParams,
    table: Box<[u64; 256]>,
    strict_mask: u64,
    loose_mask: u64,
}

impl GearKernel {
    /// Builds the kernel, deriving the gear table from the seed.
    ///
    /// # Errors
    ///
    /// A [`ParamError`] if the parameters fail
    /// [`GearParams::validate`].
    pub fn new(params: &GearParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(GearKernel {
            table: Box::new(gear_table(params.seed)),
            strict_mask: params.strict_mask(),
            loose_mask: params.loose_mask(),
            params: params.clone(),
        })
    }

    /// A kernel matched to Rabin [`ChunkParams`](crate::ChunkParams)
    /// (see [`GearParams::matched`]).
    ///
    /// # Panics
    ///
    /// Panics if the derived parameters are invalid (possible only for
    /// degenerate `mask_bits`).
    pub fn matched(params: &crate::ChunkParams) -> Self {
        GearKernel::new(&GearParams::matched(params)).expect("matched gear parameters are valid")
    }

    /// The kernel's parameters.
    pub fn params(&self) -> &GearParams {
        &self.params
    }

    /// One gear update step — exposed for the micro-benchmarks.
    #[inline]
    pub fn step(&self, hash: u64, byte: u8) -> u64 {
        (hash << 1).wrapping_add(self.table[byte as usize])
    }
}

impl BoundaryKernel for GearKernel {
    fn name(&self) -> &'static str {
        "gear"
    }

    fn overlap(&self) -> usize {
        GEAR_WINDOW - 1
    }

    fn scan_region(&self, region: &[u8], base: usize, own_from: usize, out: &mut Vec<RawCut>) {
        scan_lanes(self, region, base, own_from, out);
    }

    fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64> {
        let mut filter = FastCdcFilter::new(&self.params);
        let mut out = Vec::new();
        for &c in raw {
            if c.offset == 0 || c.offset >= len {
                continue;
            }
            filter.offer(c, |x| out.push(x));
        }
        filter.finish(len, |x| out.push(x));
        out
    }
}

impl RollingHash for GearKernel {
    fn width(&self) -> usize {
        GEAR_WINDOW
    }

    fn first_cut(&self) -> usize {
        1
    }

    #[inline(always)]
    fn push(&self, h: u64, b: u8) -> u64 {
        self.step(h, b)
    }

    /// The shifts already drop `b_out`: it has been shifted 64 times.
    #[inline(always)]
    fn roll(&self, h: u64, _b_out: u8, b_in: u8) -> u64 {
        self.step(h, b_in)
    }

    #[inline(always)]
    fn is_cut(&self, h: u64) -> bool {
        h & self.loose_mask == 0
    }

    #[inline(always)]
    fn is_strict(&self, h: u64) -> bool {
        h & self.strict_mask == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::cut_offsets;

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

    #[test]
    fn table_is_deterministic_and_seed_sensitive() {
        assert_eq!(gear_table(1), gear_table(1));
        assert_ne!(gear_table(1), gear_table(2));
        // Entries look random: no zero entries, all distinct.
        let t = gear_table(GEAR_SEED);
        assert!(t.iter().all(|&v| v != 0));
        let set: std::collections::HashSet<u64> = t.iter().copied().collect();
        assert_eq!(set.len(), 256);
    }

    #[test]
    fn masks_nest() {
        let p = GearParams::default();
        // Every strict-mask bit set implies the loose bits are inside it.
        assert_eq!(p.strict_mask() & p.loose_mask(), p.loose_mask());
        assert!(p.strict_mask().count_ones() == p.mask_bits + p.norm_level);
        assert!(p.loose_mask().count_ones() == p.mask_bits - p.norm_level);
        // High-order masks: the top bit is set.
        assert!(p.strict_mask() & (1 << 63) != 0);
    }

    #[test]
    fn hash_depends_only_on_trailing_window() {
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let a = pseudo_random(200, 1);
        let b = pseudo_random(200, 2);
        let tail = pseudo_random(GEAR_WINDOW, 3);
        let run = |prefix: &[u8]| {
            let mut h = 0u64;
            for &x in prefix.iter().chain(tail.iter()) {
                h = kernel.step(h, x);
            }
            h
        };
        assert_eq!(run(&a), run(&b));
    }

    #[test]
    fn chunks_tile_and_respect_bounds() {
        let params = GearParams::default();
        let kernel = GearKernel::new(&params).unwrap();
        let data = pseudo_random(2 << 20, 5);
        let chunks = kernel.chunks(&data);
        let mut off = 0u64;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.offset, off);
            off = c.end();
            assert!(c.len <= params.max_size, "chunk {i} exceeds max");
            if i + 1 != chunks.len() {
                assert!(c.len >= params.min_size, "chunk {i} below min: {}", c.len);
            }
        }
        assert_eq!(off, data.len() as u64);
    }

    #[test]
    fn mean_chunk_size_near_expectation() {
        let params = GearParams::default();
        let kernel = GearKernel::new(&params).unwrap();
        let data = pseudo_random(8 << 20, 9);
        let chunks = kernel.chunks(&data);
        let mean = data.len() as f64 / chunks.len() as f64;
        let expected = params.avg_size() as f64;
        // Normalization squeezes the distribution around the average.
        assert!(
            mean > expected * 0.6 && mean < expected * 1.6,
            "mean chunk size {mean} far from expected {expected}"
        );
    }

    #[test]
    fn substreams_match_sequential() {
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let data = pseudo_random(1 << 20, 13);
        let seq = kernel.raw_cuts(&data);
        assert!(!seq.is_empty());
        for n in [1usize, 2, 16, 100, 1000] {
            assert_eq!(kernel.raw_cuts_substreams(&data, n), seq, "{n} substreams");
        }
    }

    #[test]
    fn strict_hits_are_loose_hits() {
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let data = pseudo_random(4 << 20, 17);
        let raw = kernel.raw_cuts(&data);
        // Some candidates are strict, most are loose-only (the strict
        // mask has 4x fewer expected hits).
        let strict = raw.iter().filter(|c| c.strict).count();
        assert!(strict > 0);
        assert!(strict < raw.len());
    }

    #[test]
    fn batch_policy_is_deterministic_across_splits() {
        // Applying the policy to raw cuts from different SPMD splits
        // gives identical final cuts (the filter only sees the merged
        // candidate list, which is split-invariant).
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let data = pseudo_random(1 << 20, 19);
        let seq = kernel.apply_policy(&kernel.raw_cuts(&data), data.len() as u64);
        let par = kernel.apply_policy(&kernel.raw_cuts_substreams(&data, 64), data.len() as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn constant_data_forces_max_size_cuts() {
        let params = GearParams::default();
        let kernel = GearKernel::new(&params).unwrap();
        let data = vec![0u8; 300_000];
        let chunks = kernel.chunks(&data);
        // Either the constant stream hits the mask everywhere at min
        // size or nowhere (forced cuts); both are bounded.
        assert!(chunks.iter().all(|c| c.len <= params.max_size));
    }

    #[test]
    fn validate_rejects_bad_params() {
        let p = GearParams {
            mask_bits: 0,
            ..Default::default()
        };
        assert_eq!(p.validate(), Err(ParamError::ZeroMask));

        let base = GearParams::default();
        let p = GearParams {
            norm_level: base.mask_bits,
            ..base
        };
        assert!(matches!(
            p.validate(),
            Err(ParamError::NormalizationTooWide { .. })
        ));

        let p = GearParams {
            mask_bits: 62,
            norm_level: 2,
            min_size: 0,
            max_size: usize::MAX,
            ..Default::default()
        };
        assert!(matches!(p.validate(), Err(ParamError::MaskTooWide { .. })));

        let base = GearParams::default();
        let p = GearParams {
            min_size: base.max_size + 1,
            ..base
        };
        assert!(matches!(p.validate(), Err(ParamError::SizeOrder { .. })));
    }

    #[test]
    fn matched_params_track_rabin() {
        let rabin = crate::ChunkParams::paper();
        let g = GearParams::matched(&rabin);
        assert_eq!(g.avg_size(), rabin.expected_chunk_size());
        assert_eq!(g.min_size, g.avg_size() / 4);
        assert_eq!(g.max_size, g.avg_size() * 8);
        assert!(g.validate().is_ok());

        let backup = crate::ChunkParams::backup();
        let g = GearParams::matched(&backup);
        assert_eq!(g.min_size, backup.min_size);
        assert_eq!(g.max_size, backup.max_size);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn shift_resilience_smoke() {
        // Inserting bytes mid-stream leaves downstream chunk contents
        // largely intact (full property suite lives in tests/).
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let data = pseudo_random(256 * 1024, 23);
        let before = kernel.chunks(&data);

        let mut edited = data[..100_000].to_vec();
        edited.extend_from_slice(b"INSERTED CONTENT");
        edited.extend_from_slice(&data[100_000..]);
        let after = kernel.chunks(&edited);

        let before_contents: std::collections::HashSet<&[u8]> =
            before.iter().map(|c| c.slice(&data)).collect();
        let reused = after
            .iter()
            .filter(|c| before_contents.contains(c.slice(&edited)))
            .count();
        assert!(
            reused >= after.len().saturating_sub(4),
            "only {reused} of {} chunks reused after insertion",
            after.len()
        );
    }

    #[test]
    fn raw_cuts_offsets_sorted_strictly() {
        let kernel = GearKernel::new(&GearParams::default()).unwrap();
        let data = pseudo_random(1 << 20, 29);
        let offs = cut_offsets(&kernel.raw_cuts(&data));
        assert!(offs.windows(2).all(|p| p[0] < p[1]));
    }
}
