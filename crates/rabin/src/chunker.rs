//! Streaming content-defined chunking (CDC).
//!
//! A chunk boundary ("cut") is declared at stream offset `c` when the
//! Rabin fingerprint of the `w`-byte window ending at byte `c−1` matches
//! a marker in its low-order `mask_bits` bits (paper §2.1/§3.1: 48-byte
//! window, 13 bits, expected chunk size `2^13` bytes).
//!
//! The fingerprint is a pure function of the window contents — cuts do
//! *not* reset the rolling state — which is what makes the GPU kernels'
//! §3.1 substream split produce boundaries identical to the sequential
//! scan. Minimum/maximum chunk-size constraints are applied by a separate
//! deterministic [`CutFilter`] state machine, mirroring the paper's Store
//! thread which "discards all chunk boundaries within the minimum chunk
//! size limit" after collection (§7.3).

use serde::{Deserialize, Serialize};

use crate::poly::Polynomial;
use crate::tables::RabinTables;

/// A typed chunking-parameter violation, mirroring the host
/// `ShredderConfig::validate()` style: constructors validate eagerly
/// and name the first violated constraint instead of panicking deep in
/// the scan loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// The sliding window is zero bytes wide.
    ZeroWindow,
    /// The boundary mask selects zero bits (every offset would be a cut).
    ZeroMask,
    /// The boundary mask (including any normalization widening) does
    /// not fit a 64-bit fingerprint.
    MaskTooWide {
        /// Total mask bits requested.
        bits: u32,
    },
    /// `min_size` ≤ average ≤ `max_size` is violated.
    SizeOrder {
        /// Configured minimum chunk size.
        min: usize,
        /// Expected (average) chunk size.
        avg: usize,
        /// Configured maximum chunk size.
        max: usize,
    },
    /// The FastCDC normalization level is at least as wide as the mask
    /// itself (the loose mask would select zero bits).
    NormalizationTooWide {
        /// Configured normalization level.
        norm_level: u32,
        /// Configured mask bits.
        mask_bits: u32,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::ZeroWindow => write!(f, "window must be non-zero"),
            ParamError::ZeroMask => write!(f, "mask_bits must be non-zero"),
            ParamError::MaskTooWide { bits } => {
                write!(f, "mask of {bits} bits does not fit a 64-bit fingerprint")
            }
            ParamError::SizeOrder { min, avg, max } => write!(
                f,
                "chunk sizes must satisfy min <= avg <= max (min {min}, avg {avg}, max {max})"
            ),
            ParamError::NormalizationTooWide {
                norm_level,
                mask_bits,
            } => write!(
                f,
                "normalization level {norm_level} must be below mask_bits {mask_bits}"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// Parameters of a content-defined chunking scheme.
///
/// # Examples
///
/// ```
/// use shredder_rabin::ChunkParams;
///
/// let p = ChunkParams::paper();
/// assert_eq!(p.window, 48);
/// assert_eq!(p.mask_bits, 13);
/// assert_eq!(p.expected_chunk_size(), 8192);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkParams {
    /// Sliding-window width in bytes (paper: 48).
    pub window: usize,
    /// Number of low-order fingerprint bits compared against the marker
    /// (paper: 13; expected chunk size `2^mask_bits`).
    pub mask_bits: u32,
    /// Marker value the masked fingerprint must equal at a boundary.
    pub marker: u64,
    /// Minimum chunk size in bytes; cuts closer than this to the previous
    /// accepted cut are discarded. `0` disables (paper default, §2.1).
    pub min_size: usize,
    /// Maximum chunk size in bytes; a cut is forced at this distance.
    /// `usize::MAX` disables (paper default, §2.1).
    pub max_size: usize,
    /// The irreducible modulus polynomial.
    pub poly: Polynomial,
}

impl ChunkParams {
    /// The paper's defaults (§3.1): 48-byte window, low-order 13 bits,
    /// no min/max. The paper quotes an expected chunk size of 4 KB for
    /// these parameters; mathematically the expected marker spacing is
    /// `2^13` = 8 KiB, and our distribution tests check the latter.
    pub fn paper() -> Self {
        ChunkParams {
            window: 48,
            mask_bits: 13,
            marker: 0x78,
            min_size: 0,
            max_size: usize::MAX,
            poly: Polynomial::LBFS,
        }
    }

    /// The backup case-study configuration (§7.3): min and max chunk
    /// sizes enabled "as used in practice by many commercial backup
    /// systems" — min 2 KiB, max 16 KiB around the 8 KiB expectation.
    pub fn backup() -> Self {
        ChunkParams {
            min_size: 2 * 1024,
            max_size: 16 * 1024,
            ..ChunkParams::paper()
        }
    }

    /// Returns a copy with the given expected chunk size (must be a
    /// power of two), adjusting `mask_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is zero.
    pub fn with_expected_size(mut self, size: usize) -> Self {
        assert!(
            size.is_power_of_two(),
            "expected size must be a power of two"
        );
        self.mask_bits = size.trailing_zeros();
        self
    }

    /// The mean distance between markers, `2^mask_bits` bytes.
    pub fn expected_chunk_size(&self) -> usize {
        1usize << self.mask_bits
    }

    /// Validates the parameters: non-zero window, a mask that selects
    /// at least one but at most 63 fingerprint bits, and
    /// `min_size ≤ max_size`. (The expected size may legitimately fall
    /// outside `[min, max]` — min/max then dominate the marker
    /// spacing — so only the min/max ordering itself is enforced.)
    ///
    /// # Errors
    ///
    /// A [`ParamError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.window == 0 {
            return Err(ParamError::ZeroWindow);
        }
        if self.mask_bits == 0 {
            return Err(ParamError::ZeroMask);
        }
        if self.mask_bits > 63 {
            return Err(ParamError::MaskTooWide {
                bits: self.mask_bits,
            });
        }
        if self.min_size > self.max_size {
            return Err(ParamError::SizeOrder {
                min: self.min_size,
                avg: self.expected_chunk_size(),
                max: self.max_size,
            });
        }
        Ok(())
    }

    /// The fingerprint mask, `2^mask_bits − 1`.
    pub fn mask(&self) -> u64 {
        (1u64 << self.mask_bits) - 1
    }

    /// Builds the Rabin tables for these parameters.
    pub fn tables(&self) -> RabinTables {
        RabinTables::new(self.poly, self.window)
    }
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams::paper()
    }
}

/// A chunk: a half-open byte range `[offset, offset + len)` of the
/// original stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Chunk {
    /// Byte offset of the chunk's first byte in the stream.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: usize,
}

impl Chunk {
    /// The exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// Borrows the chunk's bytes out of the backing stream.
    ///
    /// # Panics
    ///
    /// Panics if the chunk range is out of bounds for `data`.
    pub fn slice<'d>(&self, data: &'d [u8]) -> &'d [u8] {
        &data[self.offset as usize..self.offset as usize + self.len]
    }
}

/// Deterministic min/max chunk-size enforcement over a cut sequence.
///
/// Feed raw marker positions in increasing order with
/// [`offer`](CutFilter::offer); forced cuts (max size) and discarded cuts
/// (min size) are handled internally. The same state machine drives the
/// online CPU chunker and the GPU Store thread's post-pass, so both paths
/// always agree.
#[derive(Debug, Clone)]
pub struct CutFilter {
    min: usize,
    max: usize,
    last: u64,
}

impl CutFilter {
    /// Creates a filter with the given constraints, starting at offset 0.
    pub fn new(params: &ChunkParams) -> Self {
        CutFilter {
            min: params.min_size,
            max: params.max_size,
            last: 0,
        }
    }

    /// Offers a raw marker cut at absolute offset `cut`, invoking `emit`
    /// for every accepted cut (forced max-size cuts first, then `cut`
    /// itself if it survives the min-size rule).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if cuts are offered out of order.
    pub fn offer(&mut self, cut: u64, mut emit: impl FnMut(u64)) {
        debug_assert!(cut >= self.last, "cuts must be offered in order");
        self.force_up_to(cut, &mut emit);
        let gap = (cut - self.last) as usize;
        if gap >= self.min.max(1) {
            self.last = cut;
            emit(cut);
        }
    }

    /// Signals end-of-stream at `len`, emitting any forced cuts strictly
    /// before `len`. The final partial chunk (which may be shorter than
    /// `min`) is implicit: it spans from the last emitted cut to `len`.
    pub fn finish(&mut self, len: u64, mut emit: impl FnMut(u64)) {
        self.force_up_to(len, &mut emit);
    }

    /// Emits forced max-size cuts so the gap to `upto` is ≤ max.
    fn force_up_to(&mut self, upto: u64, emit: &mut impl FnMut(u64)) {
        if self.max == usize::MAX {
            return;
        }
        while upto - self.last > self.max as u64 {
            self.last += self.max as u64;
            emit(self.last);
        }
    }
}

/// Applies min/max constraints to a batch of raw marker cuts, returning
/// the accepted cut offsets (excluding 0 and `len`).
///
/// This is the paper's Store-thread adjustment (§7.3) as a pure function.
pub fn apply_min_max(raw_cuts: &[u64], len: u64, params: &ChunkParams) -> Vec<u64> {
    let mut filter = CutFilter::new(params);
    let mut out = Vec::new();
    for &c in raw_cuts {
        if c == 0 || c >= len {
            continue;
        }
        filter.offer(c, |x| out.push(x));
    }
    filter.finish(len, |x| out.push(x));
    out
}

/// Converts a sorted cut-offset list into [`Chunk`]s tiling `[0, len)`.
///
/// Cuts at 0, at or beyond `len`, or out of order are ignored, so a raw
/// cut list (which may end with a marker exactly at the stream end) can
/// be passed directly.
pub fn cuts_to_chunks(cuts: &[u64], len: u64) -> Vec<Chunk> {
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0u64;
    for &c in cuts {
        if c <= start || c >= len {
            continue;
        }
        chunks.push(Chunk {
            offset: start,
            len: (c - start) as usize,
        });
        start = c;
    }
    if len > start {
        chunks.push(Chunk {
            offset: start,
            len: (len - start) as usize,
        });
    }
    chunks
}

/// A streaming content-defined chunker.
///
/// Bytes are fed incrementally with [`update`](Chunker::update); accepted
/// cut offsets are delivered through a callback (the paper's "upcall",
/// §3.1). Call [`finish`](Chunker::finish) at end of stream.
///
/// # Examples
///
/// ```
/// use shredder_rabin::{ChunkParams, Chunker};
///
/// let params = ChunkParams::paper();
/// let mut chunker = Chunker::new(&params);
/// let data = vec![7u8; 1 << 14];
/// let mut cuts = Vec::new();
/// chunker.update(&data, |c| cuts.push(c));
/// let total = chunker.finish();
/// assert_eq!(total, data.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct Chunker {
    tables: RabinTables,
    mask: u64,
    marker: u64,
    filter: CutFilter,
    /// Ring buffer of the last `window` bytes.
    win: Vec<u8>,
    /// Next write position in `win`.
    pos: usize,
    /// Number of window bytes seen so far (saturates at `window`).
    filled: usize,
    fp: u64,
    /// Absolute offset of the next byte to be consumed.
    offset: u64,
}

impl Chunker {
    /// Creates a chunker for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`ChunkParams::validate`].
    pub fn new(params: &ChunkParams) -> Self {
        params.validate().expect("invalid chunking parameters");
        let tables = params.tables();
        Chunker {
            mask: params.mask(),
            marker: params.marker & params.mask(),
            filter: CutFilter::new(params),
            win: vec![0; tables.window()],
            pos: 0,
            filled: 0,
            fp: 0,
            offset: 0,
            tables,
        }
    }

    /// Total bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Feeds `data`, invoking `on_cut` with each accepted cut offset (an
    /// absolute stream offset; the chunk ending there is
    /// `[previous cut, cut)`).
    pub fn update(&mut self, data: &[u8], mut on_cut: impl FnMut(u64)) {
        let w = self.win.len();
        for &b in data {
            if self.filled == w {
                let out = self.win[self.pos];
                self.fp = self.tables.pop(self.fp, out);
            } else {
                self.filled += 1;
            }
            self.fp = self.tables.push(self.fp, b);
            self.win[self.pos] = b;
            self.pos = (self.pos + 1) % w;
            self.offset += 1;

            if self.filled == w && (self.fp & self.mask) == self.marker {
                self.filter.offer(self.offset, &mut on_cut);
            } else {
                // A forced max-size cut may be due even without a marker.
                self.filter.force_up_to(self.offset, &mut on_cut);
            }
        }
    }

    /// Ends the stream: emits any final forced cuts through `on_cut`
    /// beforehand via `update`; returns the total stream length. The
    /// final chunk spans from the last emitted cut to this length.
    pub fn finish(self) -> u64 {
        self.offset
    }
}

/// Chunks an in-memory buffer in one call, returning the chunk list.
///
/// # Examples
///
/// ```
/// use shredder_rabin::{chunk_all, ChunkParams};
///
/// let mut s = 0x1234_5678_9abc_def0u64;
/// let data: Vec<u8> = (0..100_000)
///     .map(|_| {
///         s ^= s << 13;
///         s ^= s >> 7;
///         s ^= s << 17;
///         (s >> 32) as u8
///     })
///     .collect();
/// let chunks = chunk_all(&data, &ChunkParams::paper());
/// assert_eq!(chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
/// assert!(chunks.len() > 1);
/// ```
pub fn chunk_all(data: &[u8], params: &ChunkParams) -> Vec<Chunk> {
    let mut chunker = Chunker::new(params);
    let mut cuts = Vec::new();
    chunker.update(data, |c| cuts.push(c));
    let len = chunker.finish();
    cuts_to_chunks(&cuts, len)
}

/// Returns the raw marker cut offsets of `data` with **no** min/max
/// filtering — the exact set every Shredder execution engine (sequential,
/// host executor, GPU basic, GPU coalesced) must discover.
pub fn raw_cuts(data: &[u8], params: &ChunkParams) -> Vec<u64> {
    let unfiltered = ChunkParams {
        min_size: 0,
        max_size: usize::MAX,
        ..params.clone()
    };
    let mut chunker = Chunker::new(&unfiltered);
    let mut cuts = Vec::new();
    chunker.update(data, |c| cuts.push(c));
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn chunks_tile_input() {
        let data = pseudo_random(200_000, 42);
        let chunks = chunk_all(&data, &ChunkParams::paper());
        let mut expected_offset = 0u64;
        for c in &chunks {
            assert_eq!(c.offset, expected_offset);
            assert!(c.len > 0);
            expected_offset = c.end();
        }
        assert_eq!(expected_offset, data.len() as u64);
    }

    #[test]
    fn empty_input_has_no_chunks() {
        assert!(chunk_all(&[], &ChunkParams::paper()).is_empty());
    }

    #[test]
    fn input_smaller_than_window_is_one_chunk() {
        let data = vec![1u8; 10];
        let chunks = chunk_all(&data, &ChunkParams::paper());
        assert_eq!(chunks, vec![Chunk { offset: 0, len: 10 }]);
    }

    #[test]
    fn mean_chunk_size_near_expectation() {
        let params = ChunkParams::paper();
        let data = pseudo_random(4 << 20, 7);
        let chunks = chunk_all(&data, &params);
        let mean = data.len() as f64 / chunks.len() as f64;
        let expected = params.expected_chunk_size() as f64;
        assert!(
            mean > expected * 0.7 && mean < expected * 1.4,
            "mean chunk size {mean} far from expected {expected}"
        );
    }

    #[test]
    fn min_max_constraints_hold() {
        let params = ChunkParams::backup();
        let data = pseudo_random(2 << 20, 3);
        let chunks = chunk_all(&data, &params);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len <= params.max_size, "chunk {i} exceeds max");
            if i + 1 != chunks.len() {
                assert!(c.len >= params.min_size, "chunk {i} below min: {}", c.len);
            }
        }
    }

    #[test]
    fn max_size_forces_cuts_on_constant_data() {
        // Constant data never hits the (non-zero) marker: only forced cuts.
        let params = ChunkParams {
            max_size: 4096,
            ..ChunkParams::paper()
        };
        let data = vec![0u8; 20_000];
        let chunks = chunk_all(&data, &params);
        assert_eq!(chunks.len(), 5); // 4 full 4096 chunks + 3616 tail
        assert!(chunks[..4].iter().all(|c| c.len == 4096));
        assert_eq!(chunks[4].len, 20_000 - 4 * 4096);
    }

    #[test]
    fn streaming_updates_match_oneshot() {
        let params = ChunkParams::paper();
        let data = pseudo_random(100_000, 99);
        let oneshot = chunk_all(&data, &params);

        for split_count in [2usize, 3, 7, 100] {
            let mut chunker = Chunker::new(&params);
            let mut cuts = Vec::new();
            let piece = data.len() / split_count;
            let mut fed = 0;
            while fed < data.len() {
                let end = (fed + piece.max(1)).min(data.len());
                chunker.update(&data[fed..end], |c| cuts.push(c));
                fed = end;
            }
            let len = chunker.finish();
            assert_eq!(cuts_to_chunks(&cuts, len), oneshot, "{split_count} pieces");
        }
    }

    #[test]
    fn cut_filter_batch_equals_online() {
        let params = ChunkParams {
            min_size: 3000,
            max_size: 9000,
            ..ChunkParams::paper()
        };
        let data = pseudo_random(300_000, 5);
        // Online path.
        let online = chunk_all(&data, &params);
        // Batch path: raw cuts then post-filter (the GPU store-thread way).
        let raw = raw_cuts(&data, &params);
        let filtered = apply_min_max(&raw, data.len() as u64, &params);
        let batch = cuts_to_chunks(&filtered, data.len() as u64);
        assert_eq!(online, batch);
    }

    #[test]
    fn cdc_locality_under_edit() {
        // Flipping one byte changes only a bounded number of chunks.
        let params = ChunkParams::paper();
        let mut data = pseudo_random(512 * 1024, 11);
        let before = chunk_all(&data, &params);
        data[200_000] ^= 0xff;
        let after = chunk_all(&data, &params);

        let before_set: std::collections::HashSet<_> = before.iter().collect();
        let changed = after.iter().filter(|c| !before_set.contains(c)).count();
        assert!(changed <= 3, "one-byte edit changed {changed} chunks");
    }

    #[test]
    fn cdc_realigns_after_insertion() {
        // Inserting bytes near the front shifts offsets but chunk
        // *contents* downstream realign (the whole point of CDC).
        let params = ChunkParams::paper();
        let data = pseudo_random(256 * 1024, 13);
        let before = chunk_all(&data, &params);

        let mut edited = data[..1000].to_vec();
        edited.extend_from_slice(b"INSERTED CONTENT");
        edited.extend_from_slice(&data[1000..]);
        let after = chunk_all(&edited, &params);

        let before_contents: std::collections::HashSet<Vec<u8>> =
            before.iter().map(|c| c.slice(&data).to_vec()).collect();
        let reused = after
            .iter()
            .filter(|c| before_contents.contains(c.slice(&edited)))
            .count();
        assert!(
            reused >= after.len() - 4,
            "only {reused} of {} chunks reused after insertion",
            after.len()
        );
    }

    #[test]
    fn fixed_marker_different_data_different_cuts() {
        let params = ChunkParams::paper();
        let a = raw_cuts(&pseudo_random(100_000, 1), &params);
        let b = raw_cuts(&pseudo_random(100_000, 2), &params);
        assert_ne!(a, b);
    }

    #[test]
    fn validate_accepts_presets_and_rejects_degenerate() {
        assert!(ChunkParams::paper().validate().is_ok());
        assert!(ChunkParams::backup().validate().is_ok());

        let mut p = ChunkParams::paper();
        p.window = 0;
        assert_eq!(p.validate(), Err(ParamError::ZeroWindow));

        let mut p = ChunkParams::paper();
        p.mask_bits = 0;
        assert_eq!(p.validate(), Err(ParamError::ZeroMask));

        let mut p = ChunkParams::paper();
        p.mask_bits = 64;
        assert_eq!(p.validate(), Err(ParamError::MaskTooWide { bits: 64 }));

        let mut p = ChunkParams::backup();
        p.min_size = p.max_size + 1;
        assert!(matches!(p.validate(), Err(ParamError::SizeOrder { .. })));
    }

    #[test]
    #[should_panic(expected = "invalid chunking parameters")]
    fn chunker_rejects_invalid_params() {
        let mut p = ChunkParams::paper();
        p.window = 0;
        let _ = Chunker::new(&p);
    }

    #[test]
    fn with_expected_size_sets_mask_bits() {
        let p = ChunkParams::paper().with_expected_size(4096);
        assert_eq!(p.mask_bits, 12);
        assert_eq!(p.expected_chunk_size(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_expected_size_rejects_non_power() {
        let _ = ChunkParams::paper().with_expected_size(5000);
    }

    #[test]
    fn cuts_to_chunks_handles_edges() {
        assert!(cuts_to_chunks(&[], 0).is_empty());
        assert_eq!(cuts_to_chunks(&[], 10), vec![Chunk { offset: 0, len: 10 }]);
        assert_eq!(
            cuts_to_chunks(&[4], 10),
            vec![Chunk { offset: 0, len: 4 }, Chunk { offset: 4, len: 6 }]
        );
    }
}
