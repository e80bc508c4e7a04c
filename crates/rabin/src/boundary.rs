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
    fn scan_region(&self, region: &[u8], base: usize, own_from: usize, out: &mut Vec<RawCut>);

    /// Applies the kernel's chunk-size policy to a full raw candidate
    /// list over a stream of `len` bytes, returning accepted cut
    /// offsets (excluding 0 and `len`).
    fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64>;

    /// Sequentially scans a whole stream for raw candidates.
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
    tables: RabinTables,
    mask: u64,
    marker: u64,
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
            tables: params.tables(),
            mask: params.mask(),
            marker: params.marker & params.mask(),
            params: params.clone(),
        }
    }

    /// The chunking parameters.
    pub fn params(&self) -> &ChunkParams {
        &self.params
    }
}

impl BoundaryKernel for RabinKernel {
    fn name(&self) -> &'static str {
        "rabin"
    }

    fn overlap(&self) -> usize {
        self.tables.window() - 1
    }

    fn scan_region(&self, region: &[u8], base: usize, own_from: usize, out: &mut Vec<RawCut>) {
        let w = self.tables.window();
        if region.len() < w {
            return;
        }
        let mut fp = 0u64;
        for &b in &region[..w] {
            fp = self.tables.push(fp, b);
        }
        // Window ends at local index w-1 -> absolute cut offset base + w.
        if (fp & self.mask) == self.marker && base + w > own_from {
            out.push(RawCut::strict((base + w) as u64));
        }
        for i in w..region.len() {
            fp = self.tables.slide(fp, region[i - w], region[i]);
            let cut = base + i + 1;
            if (fp & self.mask) == self.marker && cut > own_from {
                out.push(RawCut::strict(cut as u64));
            }
        }
    }

    fn apply_policy(&self, raw: &[RawCut], len: u64) -> Vec<u64> {
        let offsets = cut_offsets(raw);
        apply_min_max(&offsets, len, &self.params)
    }
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
