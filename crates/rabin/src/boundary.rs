//! The [`BoundaryKernel`] abstraction: a pluggable content-defined
//! boundary detector.
//!
//! Shredder's execution engines (the sequential CPU chunkers and the
//! simulated GPU kernels) all share one structure: a *raw scan* that
//! emits position-independent boundary candidates, followed by a
//! deterministic *policy post-pass* that enforces min/avg/max chunk
//! sizes (the paper's Store-thread adjustment, §7.3). This module
//! factors that structure into a trait so the Rabin scheme (§2.1/§3.1)
//! and the Gear/FastCDC kernel ([`crate::gear`]) are interchangeable end
//! to end. The §3.1 substream split
//! ([`raw_cuts_substreams`](BoundaryKernel::raw_cuts_substreams)) only
//! needs to know how many bytes of lookback a kernel's rolling state
//! requires.
//!
//! Raw candidates are [`RawCut`]s: an absolute offset plus a `strict`
//! bit. The Rabin kernel only produces strict candidates; the Gear
//! kernel tags each loose-mask hit with whether the stricter
//! normalization mask also matched, so the position-dependent FastCDC
//! two-mask decision can run entirely in the post-pass (and therefore
//! commutes with region splitting, exactly like Rabin's `CutFilter`).
//!
//! Both kernels scan through one lane driver: a long region runs as
//! two rolling chains in lockstep, the §3.1 split executed as
//! instruction-level parallelism on one core, with the cuts of one
//! sequential chain.

use crate::chunker::{apply_min_max, cuts_to_chunks, Chunk, ChunkParams};
use crate::tables::RabinTables;
use serde::{Deserialize, Serialize};

/// A raw boundary candidate emitted by a kernel scan, before any
/// chunk-size policy is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RawCut {
    /// Absolute stream offset of the candidate cut (the chunk ending
    /// here spans `[previous cut, offset)`).
    pub offset: u64,
    /// Whether the candidate also satisfies the kernel's *strict*
    /// criterion. Kernels with a single criterion (Rabin) always set
    /// this; the Gear kernel sets it only when the
    /// higher-normalization mask matched too.
    pub strict: bool,
}

impl RawCut {
    /// A strict candidate at `offset` — what single-criterion kernels
    /// emit.
    pub fn strict(offset: u64) -> Self {
        RawCut {
            offset,
            strict: true,
        }
    }
}

/// Extracts the offsets of a candidate list (test/report helper).
pub fn cut_offsets(raw: &[RawCut]) -> Vec<u64> {
    raw.iter().map(|c| c.offset).collect()
}

/// A content-defined boundary detection kernel: raw scan plus size
/// policy.
///
/// Implementations must make `scan_region` a *pure function of the
/// trailing [`overlap`](BoundaryKernel::overlap)`+1` bytes*: a
/// candidate at offset `c` depends only on bytes
/// `[c − overlap − 1, c)`. That property is what makes the §3.1
/// substream split ([`raw_cuts_substreams`](BoundaryKernel::raw_cuts_substreams))
/// produce candidate lists bit-identical to a sequential scan.
pub trait BoundaryKernel {
    /// Short kernel name for reports ("rabin", "gear").
    fn name(&self) -> &'static str;

    /// Bytes of lookback a region scan needs before its owned range so
    /// candidates near the region seam are evaluated with full rolling
    /// state (`window − 1` for Rabin, 63 for Gear).
    fn overlap(&self) -> usize;

    /// Scans `region`, whose first byte sits at absolute stream offset
    /// `base`, appending candidates at absolute offsets strictly greater
    /// than `own_from` (the first byte of the scanner's owned range) to
    /// `out`, in increasing offset order.
    ///
    /// The Rabin and Gear kernels run a long region as two rolling
    /// chains in lockstep (the §3.1 split on one core); the candidates
    /// are exactly those of one sequential chain, so the contract is
    /// the same.
    fn scan_region(&self, region: &[u8], base: usize, own_from: usize, out: &mut Vec<RawCut>);

    /// Applies the kernel's chunk-size policy to a full raw candidate
    /// list over a stream of `len` bytes, returning accepted cut
    /// offsets (excluding 0 and `len`).
    fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64>;

    /// Scans a whole stream for raw candidates: the candidates of one
    /// sequential scan, in increasing offset order, however
    /// [`scan_region`](Self::scan_region) schedules its bytes.
    fn raw_cuts(&self, data: &[u8]) -> Vec<RawCut> {
        let mut out = Vec::new();
        self.scan_region(data, 0, 0, &mut out);
        out
    }

    /// Scans `substreams` equal-size regions *sequentially*, each with
    /// the kernel's overlap lookback — the work distribution of the
    /// paper's GPU chunking kernel (§3.1). Produces the same candidates
    /// as [`raw_cuts`](Self::raw_cuts) (property-tested), so the
    /// simulated kernels scan once with `raw_cuts` and keep this split
    /// as the test oracle for what their modeled threads would find.
    ///
    /// # Panics
    ///
    /// Panics if `substreams` is zero.
    fn raw_cuts_substreams(&self, data: &[u8], substreams: usize) -> Vec<RawCut> {
        assert!(substreams > 0, "substream count must be non-zero");
        let step = self.overlap() + 1;
        if data.len() <= step || substreams == 1 {
            return self.raw_cuts(data);
        }
        let n = substreams.min(data.len() / step).max(1);
        let region = data.len().div_ceil(n);
        let mut cuts = Vec::new();
        for t in 0..n {
            let start = t * region;
            let end = ((t + 1) * region).min(data.len());
            if start >= end {
                break;
            }
            let scan_start = start.saturating_sub(self.overlap());
            self.scan_region(&data[scan_start..end], scan_start, start, &mut cuts);
        }
        debug_assert!(cuts.windows(2).all(|p| p[0].offset < p[1].offset));
        cuts
    }

    /// Chunks a whole stream: raw scan, policy, chunk tiling.
    fn chunks(&self, data: &[u8]) -> Vec<Chunk> {
        let raw = self.raw_cuts(data);
        let cuts = self.apply_policy(&raw, data.len() as u64);
        cuts_to_chunks(&cuts, data.len() as u64)
    }
}

/// The Rabin fingerprinting scheme of §2.1/§3.1 as a [`BoundaryKernel`]:
/// a `window`-byte polynomial fingerprint over GF(2), cut where the
/// low-order `mask_bits` bits equal the marker, min/max sizes enforced
/// by the [`CutFilter`](crate::chunker::CutFilter) post-pass.
///
/// # Examples
///
/// ```
/// use shredder_rabin::{chunk_all, BoundaryKernel, ChunkParams, RabinKernel};
///
/// let params = ChunkParams::paper();
/// let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
/// let kernel = RabinKernel::new(&params);
/// assert_eq!(kernel.chunks(&data), chunk_all(&data, &params));
/// ```
#[derive(Debug, Clone)]
pub struct RabinKernel {
    params: ChunkParams,
    steps: HighTables,
}

impl RabinKernel {
    /// Builds the kernel (precomputing push/pop tables).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`ChunkParams::validate`].
    pub fn new(params: &ChunkParams) -> Self {
        params.validate().expect("invalid chunking parameters");
        RabinKernel {
            steps: HighTables::new(&params.tables(), params.mask(), params.marker),
            params: params.clone(),
        }
    }

    /// The chunking parameters.
    pub fn params(&self) -> &ChunkParams {
        &self.params
    }
}

/// Rabin's tables for a fingerprint kept in the high `degree` bits of
/// a `u64` (`fp << (64 − degree)`), the form the kernel rolls. The top
/// byte is then `h >> 56` and the `<< 8` of a push drops it by itself,
/// so a step needs neither a variable shift nor the fingerprint mask.
/// One chain of it ran 1.4–1.6x the rate of the same loop over
/// [`RabinTables::slide`], with the same cuts.
#[derive(Clone)]
struct HighTables {
    /// `pop[b]`: [`RabinTables::pop`] of byte `b`, shifted up.
    pop: [u64; 256],
    /// `push[t]`: the reduction of top byte `t`, shifted up.
    push: [u64; 256],
    /// `byte[b]`: byte `b` at the fingerprint's lowest bit.
    byte: [u64; 256],
    /// The marker test's mask, shifted up.
    cut_mask: u64,
    /// The marker, shifted up; 1 (a bit no shifted hash sets) when the
    /// marker needs bits above the degree and so never matches.
    cut_marker: u64,
}

impl HighTables {
    fn new(tables: &RabinTables, mask: u64, marker: u64) -> Self {
        let degree = tables.degree();
        let up = 64 - degree;
        let marker = marker & mask;
        let each = |f: &dyn Fn(u8) -> u64| std::array::from_fn(|b| f(b as u8) << up);
        HighTables {
            pop: each(&|b| tables.pop(0, b)),
            push: each(&|t| tables.push(u64::from(t) << (degree - 8), 0)),
            byte: each(&u64::from),
            cut_mask: mask << up,
            cut_marker: if marker >> degree == 0 {
                marker << up
            } else {
                1
            },
        }
    }
}

impl std::fmt::Debug for HighTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HighTables").finish_non_exhaustive()
    }
}

impl BoundaryKernel for RabinKernel {
    fn name(&self) -> &'static str {
        "rabin"
    }

    fn overlap(&self) -> usize {
        self.params.window - 1
    }

    fn scan_region(&self, region: &[u8], base: usize, own_from: usize, out: &mut Vec<RawCut>) {
        scan_lanes(self, region, base, own_from, out);
    }

    fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64> {
        let offsets = cut_offsets(raw);
        apply_min_max(&offsets, len, &self.params)
    }
}

impl RollingHash for RabinKernel {
    fn width(&self) -> usize {
        self.params.window
    }

    fn first_cut(&self) -> usize {
        self.params.window
    }

    #[inline(always)]
    fn push(&self, h: u64, b: u8) -> u64 {
        let t = &self.steps;
        (h << 8) ^ t.byte[b as usize] ^ t.push[(h >> 56) as usize]
    }

    #[inline(always)]
    fn roll(&self, h: u64, b_out: u8, b_in: u8) -> u64 {
        self.push(h ^ self.steps.pop[b_out as usize], b_in)
    }

    #[inline(always)]
    fn is_cut(&self, h: u64) -> bool {
        h & self.steps.cut_mask == self.steps.cut_marker
    }

    #[inline(always)]
    fn is_strict(&self, _h: u64) -> bool {
        true
    }
}

/// The per-byte step of a rolling detector, as [`scan_lanes`] drives
/// it. The hash after byte `i` must depend only on bytes
/// `[i + 1 − width, i]` once at least `width` bytes went in.
pub(crate) trait RollingHash {
    /// Bytes the hash depends on: the kernel's `overlap + 1`.
    fn width(&self) -> usize;

    /// Bytes a scan must take in before its first candidate: the full
    /// window for Rabin, one byte for Gear.
    fn first_cut(&self) -> usize;

    /// Appends `b` to a hash over fewer than `width` bytes.
    fn push(&self, h: u64, b: u8) -> u64;

    /// Appends `b_in` to a hash over `width` bytes and drops `b_out`,
    /// the byte `width` places before `b_in`.
    fn roll(&self, h: u64, b_out: u8, b_in: u8) -> u64;

    /// Whether the hash marks a candidate cut.
    fn is_cut(&self, h: u64) -> bool;

    /// The candidate's [`RawCut::strict`] bit; read only when
    /// [`is_cut`](Self::is_cut) holds.
    fn is_strict(&self, h: u64) -> bool;
}

/// Rolling chains a region scan runs in lockstep. Two chains of the
/// Rabin step are bound by their own latency, so they keep one rate
/// whatever else shares the core; with three or four the loop is bound
/// by issue slots, and its rate rises and falls with a neighbour's load
/// (4 lanes: 450–900 MB/s, 2 lanes: 450–550 MB/s on one 2-vCPU host,
/// timed in the same rounds).
const LANES: usize = 2;

/// Fewest bytes each lane must own for a region to be split into
/// lanes. The split costs a `width`-byte priming per extra lane and a
/// sort of the candidates; at 256 bytes a lane's priming is at most a
/// quarter of its span for Rabin's 48-byte and Gear's 64-byte windows.
const MIN_LANE_SPAN: usize = 256;

/// Pushes a candidate at absolute offset `cut` if `h` marks one and
/// `cut` lies past `own_from`.
#[inline(always)]
fn emit<R: RollingHash>(r: &R, h: u64, cut: usize, own_from: usize, out: &mut Vec<RawCut>) {
    if r.is_cut(h) && cut > own_from {
        out.push(RawCut {
            offset: cut as u64,
            strict: r.is_strict(h),
        });
    }
}

/// [`emit`] for each lane's hash, at `step` bytes past the lane's seam.
/// Kept out of line so that the lockstep loop spends its registers on
/// hashes and byte pointers.
#[cold]
#[inline(never)]
fn emit_lanes<R: RollingHash>(
    r: &R,
    hashes: [u64; LANES],
    seams: &[usize; LANES],
    step: usize,
    own_from: usize,
    out: &mut Vec<RawCut>,
) {
    for (h, seam) in hashes.into_iter().zip(seams) {
        emit(r, h, seam + step, own_from, out);
    }
}

/// Rolls `h`, the hash over `bytes[..width]`, on through the rest of
/// `bytes` (whose first byte sits at absolute offset `base`), emitting
/// each candidate. Returns the hash after the last byte.
fn roll_on<R: RollingHash>(
    r: &R,
    bytes: &[u8],
    mut h: u64,
    base: usize,
    own_from: usize,
    out: &mut Vec<RawCut>,
) -> u64 {
    let w = r.width();
    for (i, win) in bytes.windows(w + 1).enumerate() {
        h = r.roll(h, win[0], win[w]);
        emit(r, h, base + w + i + 1, own_from, out);
    }
    h
}

/// Scans `region` with one rolling chain (the contract of
/// [`BoundaryKernel::scan_region`]) and returns the hash after its
/// last byte.
fn scan_chain<R: RollingHash>(
    r: &R,
    region: &[u8],
    base: usize,
    own_from: usize,
    out: &mut Vec<RawCut>,
) -> u64 {
    let head = r.width().min(region.len());
    let mut h = 0;
    for (i, &b) in region[..head].iter().enumerate() {
        h = r.push(h, b);
        if i + 1 >= r.first_cut() {
            emit(r, h, base + i + 1, own_from, out);
        }
    }
    roll_on(r, region, h, base, own_from, out)
}

/// [`BoundaryKernel::scan_region`] as [`LANES`] rolling chains run in
/// lockstep on one core: the §3.1 substream split, run as
/// instruction-level parallelism instead of as threads.
///
/// One chain scans the region's first `width` bytes. The rest splits
/// into equal lanes, the last of which also takes the
/// `(len − width) mod LANES` leftover bytes. Lane 0 carries on from the
/// head's hash; every other lane primes on the `width` bytes before
/// its seam, so each lane computes exactly the hashes of one
/// sequential scan. The chains do not depend on each other, so the CPU
/// overlaps their table loads. Candidates are pushed as they occur and
/// the appended tail is sorted once. A region whose lanes would own
/// fewer than `max(MIN_LANE_SPAN, width)` bytes each is scanned by one
/// chain.
pub(crate) fn scan_lanes<R: RollingHash>(
    r: &R,
    region: &[u8],
    base: usize,
    own_from: usize,
    out: &mut Vec<RawCut>,
) {
    let w = r.width();
    let span = region.len().saturating_sub(w) / LANES;
    if span < MIN_LANE_SPAN.max(w) {
        scan_chain(r, region, base, own_from, out);
        return;
    }
    let first = out.len();
    let seams: [usize; LANES] = std::array::from_fn(|j| w + j * span);
    let head = scan_chain(r, &region[..w], base, own_from, out);
    let mut hashes = seams.map(|seam| match seam - w {
        0 => head,
        start => region[start..seam].iter().fold(0, |h, &b| r.push(h, b)),
    });
    // Lane j rolls in the bytes it owns and rolls out those `w` earlier.
    let rolled_in = seams.map(|seam| &region[seam..][..span]);
    let rolled_out = seams.map(|seam| &region[seam - w..][..span]);
    // Rolls every lane one byte; true when any lane's hash marks a cut.
    let step = |hashes: &mut [u64; LANES], k: usize| {
        let mut hit = false;
        for j in 0..LANES {
            hashes[j] = r.roll(hashes[j], rolled_out[j][k], rolled_in[j][k]);
            hit |= r.is_cut(hashes[j]);
        }
        hit
    };
    // The hot loop stops only at a hit, so no call clobbers its registers.
    let mut from = 0;
    while let Some(k) = (from..span).find(|&k| step(&mut hashes, k)) {
        emit_lanes(r, hashes, &seams, base + k + 1, own_from, out);
        from = k + 1;
    }
    let tail = seams[LANES - 1] + span - w;
    roll_on(
        r,
        &region[tail..],
        hashes[LANES - 1],
        base + tail,
        own_from,
        out,
    );
    out[first..].sort_unstable_by_key(|cut| cut.offset);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::{chunk_all, raw_cuts};

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
    fn rabin_kernel_matches_free_functions() {
        let params = ChunkParams::backup();
        let data = pseudo_random(1 << 20, 3);
        let kernel = RabinKernel::new(&params);
        assert_eq!(
            cut_offsets(&kernel.raw_cuts(&data)),
            raw_cuts(&data, &params)
        );
        assert_eq!(kernel.chunks(&data), chunk_all(&data, &params));
    }

    /// Masks wider than the 53-bit fingerprint, and markers with bits
    /// above it (never matched), give the chunker's cuts.
    #[test]
    fn rabin_wide_masks_and_high_markers_match_free_functions() {
        let data = pseudo_random(1 << 16, 5);
        for mask_bits in [3, 8, 52, 53, 54, 63] {
            for marker in [0, 0x78, 1 << 52, 1 << 53, u64::MAX] {
                let params = ChunkParams {
                    mask_bits,
                    marker,
                    ..ChunkParams::paper()
                };
                let kernel = RabinKernel::new(&params);
                assert_eq!(
                    cut_offsets(&kernel.raw_cuts(&data)),
                    raw_cuts(&data, &params),
                    "mask_bits {mask_bits} marker {marker:#x}"
                );
            }
        }
    }

    #[test]
    fn rabin_substreams_match_sequential() {
        let params = ChunkParams::paper();
        let data = pseudo_random(400_000, 7);
        let kernel = RabinKernel::new(&params);
        let seq = kernel.raw_cuts(&data);
        for n in [1usize, 2, 16, 100, 1000] {
            assert_eq!(kernel.raw_cuts_substreams(&data, n), seq, "{n} substreams");
        }
    }

    #[test]
    fn tiny_inputs_all_kernels() {
        let rabin = RabinKernel::new(&ChunkParams::paper());
        // A one-byte window has no lookback (the overlap-0 split); the
        // 4-bit mask makes it hit on about one byte in 16.
        let rabin_w1 = RabinKernel::new(&ChunkParams {
            window: 1,
            mask_bits: 4,
            ..ChunkParams::paper()
        });
        assert_eq!(rabin_w1.overlap(), 0);
        assert!(!rabin_w1.raw_cuts(&pseudo_random(100, 101)).is_empty());
        for len in [0usize, 1, 47, 48, 63, 64, 65, 100] {
            let data = pseudo_random(len, len as u64 + 1);
            for kernel in [&rabin as &dyn BoundaryKernel, &rabin_w1] {
                assert_eq!(
                    kernel.raw_cuts_substreams(&data, 16),
                    kernel.raw_cuts(&data),
                    "{} overlap {} len {len}",
                    kernel.name(),
                    kernel.overlap()
                );
            }
        }
    }
}
