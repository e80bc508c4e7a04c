//! Rabin fingerprinting and content-defined chunking.
//!
//! This crate implements step 1 of duplicate identification as described
//! in the Shredder paper (§2.1): *chunking*, the process of dividing a
//! data stream into variable-size chunks whose boundaries are dictated by
//! content rather than by offset, so that localized edits perturb only a
//! bounded number of chunks.
//!
//! The fingerprinting scheme is Rabin's: a window of `w` contiguous bytes
//! is interpreted as a polynomial over GF(2) and reduced modulo a fixed
//! irreducible polynomial; a chunk boundary is declared wherever the
//! low-order `mask_bits` bits of the fingerprint equal a marker value
//! (paper §2.1 and §3.1: 48-byte window, 13 low-order bits).
//!
//! Modules:
//!
//! * [`poly`] — polynomial arithmetic over GF(2), irreducibility testing,
//!   and generation of random irreducible polynomials.
//! * [`tables`] — precomputed push/pop tables that make the sliding-window
//!   fingerprint update O(1) per byte.
//! * [`chunker`] — the streaming content-defined chunker with `min`/`max`
//!   chunk-size support.
//! * [`boundary`] — the [`BoundaryKernel`] trait: pluggable boundary
//!   detectors (Rabin, Gear) sharing one raw-scan/policy split and the
//!   §3.1 overlapped substream split.
//! * [`gear`] — the Gear rolling hash with a FastCDC-style normalized
//!   two-mask cut decision, a cheaper alternative kernel to Rabin.
//! * [`fixed`] — the fixed-size chunking baseline (what plain HDFS does).
//!
//! # Examples
//!
//! ```
//! use shredder_rabin::{ChunkParams, chunk_all};
//!
//! let data = vec![0xabu8; 1 << 16];
//! let params = ChunkParams::paper();
//! let chunks = chunk_all(&data, &params);
//! // Chunks tile the input exactly.
//! assert_eq!(chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod chunker;
pub mod fixed;
pub mod gear;
pub mod poly;
pub mod skip;
pub mod tables;

pub use boundary::{cut_offsets, BoundaryKernel, RabinKernel, RawCut};
pub use chunker::{chunk_all, Chunk, ChunkParams, Chunker, ParamError};
pub use fixed::chunk_fixed;
pub use gear::{gear_table, FastCdcFilter, GearKernel, GearParams, GEAR_SEED, GEAR_WINDOW};
pub use poly::Polynomial;
pub use skip::{chunk_all_skipping, SkipScan};
pub use tables::RabinTables;

/// Tests of the §3.1 parallel substream split on the Rabin detector: the
/// modeled GPU threads, each scanning its own overlapped region, find
/// exactly the cuts of one sequential scan.
#[cfg(test)]
mod parallel {
    #[cfg(test)]
    mod tests {
        use crate::chunker::raw_cuts;
        use crate::{cut_offsets, BoundaryKernel, ChunkParams, RabinKernel};

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

        fn raw_cuts_substreams(data: &[u8], params: &ChunkParams, n: usize) -> Vec<u64> {
            cut_offsets(&RabinKernel::new(params).raw_cuts_substreams(data, n))
        }

        #[test]
        fn substream_scan_equals_sequential() {
            let params = ChunkParams::paper();
            let data = pseudo_random(400_000, 77);
            let seq = raw_cuts(&data, &params);
            for n in [1usize, 2, 16, 100, 1000, 5000] {
                assert_eq!(
                    raw_cuts_substreams(&data, &params, n),
                    seq,
                    "{n} substreams"
                );
            }
        }

        #[test]
        fn substream_scan_tiny_input() {
            let params = ChunkParams::paper();
            for len in [0usize, 1, 48, 100] {
                let data = pseudo_random(len, 3);
                assert_eq!(
                    raw_cuts_substreams(&data, &params, 64),
                    raw_cuts(&data, &params),
                    "len {len}"
                );
            }
        }
    }
}
