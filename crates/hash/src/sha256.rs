//! A from-scratch SHA-256 (FIPS 180-4) implementation.
//!
//! Used for chunk fingerprints in the dedup index and for end-to-end
//! integrity verification in the backup case study. Implemented here
//! because the offline crate set contains no cryptographic hash; tested
//! against the NIST example vectors.
//!
//! Every digest path runs one block function, `compress_blocks`. On
//! an x86-64 CPU with the SHA extensions (SHA-NI) it runs the hardware
//! rounds; elsewhere it runs the portable `compress` block by block.
//! The choice is made at run time from the CPU's feature flags, which
//! the standard library detects once per process.
//!
//! [`sha256_many`] hashes a batch of independent messages side by side
//! in vector lanes, through one driver generic over the lane count. On
//! an x86-64 CPU with AVX-512F it runs sixteen lanes on an intrinsics
//! kernel, about twice the SHA-NI rate. Otherwise, with SHA-NI, it
//! hashes the messages one by one on the hardware rounds, which beat
//! eight AVX2 lanes; on any other CPU it runs eight portable lanes,
//! which need an AVX2 build target (the workspace's
//! `.cargo/config.toml`) to beat the scalar [`sha256`]. A batch too
//! small to pay for a lane step is hashed one message at a time.
//!
//! Calling the SHA-NI rounds (in `compress_blocks`) and the AVX-512
//! kernel (in `avx512_rounds`) are the workspace's two `unsafe` blocks,
//! each right after the detection that makes it sound.

use crate::Digest;

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Messages the portable lanes hash side by side: each state word of
/// eight lanes is one 256-bit vector under AVX2.
const LANES: usize = 8;

/// With no message left to refill from, the portable lanes finish the
/// last messages one at a time once fewer than this many lanes are
/// busy: a lockstep step costs two to three scalar blocks. A smaller
/// batch skips the lanes.
const MIN_BUSY_LANES: usize = 3;

/// The block an idle lane compresses; its result is discarded.
const IDLE_BLOCK: [u8; 64] = [0; 64];

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = shredder_hash::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let (blocks, tail) = data.as_chunks::<64>();
    let mut state = H0;
    compress_blocks(&mut state, blocks);
    finish(state, tail, data.len() as u64)
}

/// Computes the SHA-256 digest of every message, in order — the same
/// digests as `messages.iter().map(|m| sha256(m))`.
///
/// Lanes each hold one message's state and compress one block per
/// step, in lockstep; a lane whose message is done refills with the
/// next one. On an x86-64 CPU with AVX-512 there are sixteen lanes.
/// Otherwise, on a CPU with SHA-NI, the messages are hashed one at a
/// time on the hardware rounds, which beat eight AVX2 lanes; on any
/// other CPU there are eight portable lanes. Once no message is left
/// and fewer lanes are busy than a step costs in one-message blocks,
/// those messages finish one at a time, and a batch smaller than that
/// skips the lanes, so a batch of one costs what [`sha256`] does.
///
/// # Examples
///
/// ```
/// use shredder_hash::{sha256, sha256_many};
///
/// let messages: [&[u8]; 3] = [b"", b"abc", &[7u8; 1000]];
/// assert_eq!(sha256_many(&messages), messages.map(sha256));
/// ```
pub fn sha256_many(messages: &[&[u8]]) -> Vec<Digest> {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        let min_busy = if sha_ni() {
            avx512::MIN_BUSY_NI
        } else {
            avx512::MIN_BUSY_PORTABLE
        };
        return sha256_lanes(messages, min_busy, avx512_rounds);
    }
    if sha_ni() {
        return messages.iter().map(|m| sha256(m)).collect();
    }
    sha256_lanes(messages, MIN_BUSY_LANES, compress_lanes::<LANES>)
}

/// [`sha256_many`] on `N` lanes: `step` compresses one block of each
/// lane's message into `state[word][lane]`. A batch of fewer than
/// `min_busy` messages is hashed one at a time; otherwise, once no
/// message is left to refill from and fewer than `min_busy` lanes are
/// busy, those messages finish one at a time from their lane state.
fn sha256_lanes<const N: usize>(
    messages: &[&[u8]],
    min_busy: usize,
    mut step: impl FnMut(&mut [[u32; N]; 8], &[&[u8; 64]; N]),
) -> Vec<Digest> {
    if messages.len() < min_busy {
        return messages.iter().map(|m| sha256(m)).collect();
    }
    let mut out = vec![Digest::ZERO; messages.len()];
    let mut queue = messages.iter().enumerate();
    let mut lanes: [Option<Lane<'_>>; N] = std::array::from_fn(|_| None);
    let mut state = [[0u32; N]; 8];
    loop {
        for (l, slot) in lanes.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some((index, message)) = queue.next() {
                    *slot = Some(Lane::new(index, message));
                    for (word, h) in state.iter_mut().zip(H0) {
                        word[l] = h;
                    }
                }
            }
        }
        if queue.len() == 0 && lanes.iter().flatten().count() < min_busy {
            break;
        }
        let blocks = lanes
            .each_ref()
            .map(|slot| slot.as_ref().map_or(&IDLE_BLOCK, Lane::block));
        step(&mut state, &blocks);
        for (l, slot) in lanes.iter_mut().enumerate() {
            if let Some(lane) = slot {
                lane.next += 1;
                if lane.done() {
                    out[lane.index] = digest_of(&state.map(|word| word[l]));
                    *slot = None;
                }
            }
        }
    }
    for (l, lane) in lanes.iter().enumerate() {
        if let Some(lane) = lane {
            out[lane.index] = lane.finish(state.map(|word| word[l]));
        }
    }
    out
}

/// One message in flight in a [`sha256_many`] lane: its full blocks,
/// then its one or two padded blocks.
struct Lane<'a> {
    index: usize,
    blocks: &'a [[u8; 64]],
    pad: [[u8; 64]; 2],
    pad_len: usize,
    /// Blocks already compressed into the lane's state.
    next: usize,
}

impl<'a> Lane<'a> {
    fn new(index: usize, message: &'a [u8]) -> Self {
        let (blocks, tail) = message.as_chunks::<64>();
        let (pad, pad_len) = pad(tail, message.len() as u64);
        Lane {
            index,
            blocks,
            pad,
            pad_len,
            next: 0,
        }
    }

    /// The next block to compress.
    fn block(&self) -> &[u8; 64] {
        match self.blocks.get(self.next) {
            Some(block) => block,
            None => &self.pad[self.next - self.blocks.len()],
        }
    }

    fn done(&self) -> bool {
        self.next == self.blocks.len() + self.pad_len
    }

    /// The digest, from the lane's `state`: its remaining full blocks
    /// in one [`compress_blocks`] call, then its remaining padding.
    fn finish(&self, mut state: [u32; 8]) -> Digest {
        let full = self.next.min(self.blocks.len());
        let pad = self.next - full;
        compress_blocks(&mut state, &self.blocks[full..]);
        compress_blocks(&mut state, &self.pad[pad..self.pad_len]);
        digest_of(&state)
    }
}

/// The final padded blocks of a message of `total_len` bytes whose
/// last partial block is `tail` (shorter than 64 bytes): `tail`, 0x80,
/// zeros, then the 64-bit big-endian bit length. Returns the blocks
/// and how many of them (one or two) are used.
fn pad(tail: &[u8], total_len: u64) -> ([[u8; 64]; 2], usize) {
    debug_assert!(tail.len() < 64, "tail of {} bytes", tail.len());
    let mut blocks = [[0u8; 64]; 2];
    let used = if tail.len() < 56 { 1 } else { 2 };
    blocks[0][..tail.len()].copy_from_slice(tail);
    blocks[0][tail.len()] = 0x80;
    blocks[used - 1][56..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    (blocks, used)
}

/// Compresses a message's padded blocks into `state` (which holds all
/// its full blocks) and returns the digest.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> Digest {
    let (blocks, used) = pad(tail, total_len);
    compress_blocks(&mut state, &blocks[..used]);
    digest_of(&state)
}

/// The digest: the state words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    Digest(out)
}

/// The SHA-256 block function over consecutive blocks of one message,
/// which every digest path runs: on the SHA-NI rounds when the CPU has
/// them, else on the portable [`compress`] block by block.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni() {
        // SAFETY: `ni::rounds` is safe to run on a CPU with every
        // feature it enables: SHA, SSSE3 and SSE4.1 were detected just
        // above by `sha_ni()`, and SSE2 is part of every x86-64 CPU.
        #[allow(unsafe_code)]
        unsafe {
            ni::rounds(state, blocks)
        };
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// True when the CPU has SHA-NI and the SSE levels `ni::rounds` uses.
/// The standard library detects the features once per process and
/// caches them, so after the first call this is a few loads.
fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU has AVX-512F, the one feature `avx512::rounds`
/// enables beyond those it implies. Detected once per process, as
/// [`sha_ni`] is.
#[cfg(target_arch = "x86_64")]
fn avx512() -> bool {
    std::is_x86_feature_detected!("avx512f")
}

/// One step of the sixteen AVX-512 lanes: `state[word][lane]` absorbs
/// `blocks[lane]`.
///
/// # Panics
///
/// On a CPU without AVX-512F.
#[cfg(target_arch = "x86_64")]
fn avx512_rounds(state: &mut [[u32; avx512::LANES]; 8], blocks: &[&[u8; 64]; avx512::LANES]) {
    assert!(avx512(), "the CPU has no AVX-512F");
    // SAFETY: `avx512::rounds` is safe to run on a CPU with every
    // feature it enables: AVX-512F was detected just above by
    // `avx512()`, and it implies the rest.
    #[allow(unsafe_code)]
    unsafe {
        avx512::rounds(state, blocks)
    }
}

/// The portable SHA-256 block function on one message.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut lanes = state.map(|word| [word]);
    compress_lanes(&mut lanes, &[block]);
    *state = lanes.map(|[word]| word);
}

/// The SHA-256 block function on `N` messages in lockstep:
/// `state[word][lane]` absorbs `blocks[lane]`. Every step is a loop
/// over the lanes, which LLVM turns into vector instructions.
fn compress_lanes<const N: usize>(state: &mut [[u32; N]; 8], blocks: &[&[u8; 64]; N]) {
    let mut w = [[0u32; N]; 64];
    for (l, block) in blocks.iter().enumerate() {
        for (i, word) in block.as_chunks::<4>().0.iter().enumerate() {
            w[i][l] = u32::from_be_bytes(*word);
        }
    }
    for i in 16..64 {
        let [w16, w15, w7, w2] = [w[i - 16], w[i - 15], w[i - 7], w[i - 2]];
        w[i] = std::array::from_fn(|l| {
            let (x, y) = (w15[l], w2[l]);
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w16[l].wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1)
        });
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, w) in K.iter().zip(&w) {
        for l in 0..N {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            let t1 = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*k)
                .wrapping_add(w[l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            let t2 = s0.wrapping_add(maj);
            h[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l].wrapping_add(t1);
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1.wrapping_add(t2);
        }
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for (x, y) in word.iter_mut().zip(v) {
            *x = x.wrapping_add(y);
        }
    }
}

/// The SHA-256 block function on the x86 SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// The block function over a slice of blocks. The state stays in
    /// two registers across the slice, as the SHA-NI rounds want it:
    /// ABEF holds words a, b, e, f and CDGH words c, d, g, h, highest
    /// lane first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn rounds(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let k = K.as_chunks::<4>().0;
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let [mut w0, mut w1, mut w2, mut w3] = message_words(block);
            rounds4(&mut abef, &mut cdgh, w0, &k[0]);
            rounds4(&mut abef, &mut cdgh, w1, &k[1]);
            rounds4(&mut abef, &mut cdgh, w2, &k[2]);
            rounds4(&mut abef, &mut cdgh, w3, &k[3]);
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, &k[i]);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, &k[i + 1]);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, &k[i + 2]);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, &k[i + 3]);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }

    /// The block's sixteen big-endian message words, four per vector,
    /// the first word in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn message_words(block: &[u8; 64]) -> [__m128i; 4] {
        let mut w = [0i32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes) as i32;
        }
        [0, 4, 8, 12].map(|i| _mm_set_epi32(w[i + 3], w[i + 2], w[i + 1], w[i]))
    }

    /// Four rounds on message words `w` with round constants `k`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32; 4]) {
        let k = k.map(|k| k as i32);
        let wk = _mm_add_epi32(w, _mm_set_epi32(k[3], k[2], k[1], k[0]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        // The second two rounds take the upper two words.
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The next four message words from the previous sixteen, oldest
    /// first.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w3)
    }
}

/// The SHA-256 block function on sixteen messages at once, one per
/// 32-bit lane of the AVX-512 vectors.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_extracti32x4_epi32, _mm512_ror_epi32, _mm512_set1_epi32,
        _mm512_set_epi32, _mm512_setzero_si512, _mm512_shuffle_i32x4, _mm512_srli_epi32,
        _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_extract_epi32,
    };

    use super::K;

    /// Messages in flight: one per 32-bit lane of a 512-bit vector.
    pub(super) const LANES: usize = 16;

    /// With SHA-NI, fewer busy lanes than this finish one at a time,
    /// and a smaller batch skips the lanes: one 16-lane step costs
    /// about nine SHA-NI blocks. Batches of 2-16 KiB messages ran 4%
    /// slower in the lanes at eight messages and 1% faster at nine.
    pub(super) const MIN_BUSY_NI: usize = 9;

    /// The same threshold without SHA-NI: one 16-lane step costs about
    /// one and a half portable blocks.
    pub(super) const MIN_BUSY_PORTABLE: usize = 2;

    /// `state[word][lane]` absorbs `blocks[lane]`, as in the portable
    /// `compress_lanes`. Each state word is one vector, and the message
    /// schedule is a rolling window of sixteen vectors.
    ///
    /// No closure here or in the helpers below takes or returns a
    /// vector: a closure inherits `target_feature`, so LLVM cannot
    /// inline it into `array::from_fn` or `map`, and every vector it
    /// returns would go through memory (2.4x slower when the crate
    /// builds in several codegen units).
    #[target_feature(enable = "avx512f")]
    pub(super) fn rounds(state: &mut [[u32; LANES]; 8], blocks: &[&[u8; 64]; LANES]) {
        let mut start = [_mm512_setzero_si512(); 8];
        for (v, word) in start.iter_mut().zip(state.iter()) {
            *v = vector(word);
        }
        // One vector per block, lane `i` holding its word `i`, then
        // transposed: `w[i]` holds word `i` of every block.
        let mut w = [_mm512_setzero_si512(); 16];
        for (w, block) in w.iter_mut().zip(blocks) {
            let mut words = [0u32; LANES];
            for (word, bytes) in words.iter_mut().zip(block.as_chunks::<4>().0) {
                *word = u32::from_be_bytes(*bytes);
            }
            *w = vector(&words);
        }
        transpose(&mut w);
        let mut v = start;
        let k = K.as_chunks::<16>().0;
        for k in &k[..3] {
            sixteen_rounds::<true>(&mut v, &mut w, k);
        }
        sixteen_rounds::<false>(&mut v, &mut w, &k[3]);
        for ((word, v), start) in state.iter_mut().zip(v).zip(start) {
            *word = words(_mm512_add_epi32(v, start));
        }
    }

    /// Sixteen rounds, one per word of the window `w`. With `SCHEDULE`,
    /// each round then replaces its word with the one sixteen rounds
    /// on, for the next sixteen.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sixteen_rounds<const SCHEDULE: bool>(
        v: &mut [__m512i; 8],
        w: &mut [__m512i; 16],
        k: &[u32; 16],
    ) {
        round::<0, SCHEDULE>(v, w, k[0]);
        round::<1, SCHEDULE>(v, w, k[1]);
        round::<2, SCHEDULE>(v, w, k[2]);
        round::<3, SCHEDULE>(v, w, k[3]);
        round::<4, SCHEDULE>(v, w, k[4]);
        round::<5, SCHEDULE>(v, w, k[5]);
        round::<6, SCHEDULE>(v, w, k[6]);
        round::<7, SCHEDULE>(v, w, k[7]);
        round::<8, SCHEDULE>(v, w, k[8]);
        round::<9, SCHEDULE>(v, w, k[9]);
        round::<10, SCHEDULE>(v, w, k[10]);
        round::<11, SCHEDULE>(v, w, k[11]);
        round::<12, SCHEDULE>(v, w, k[12]);
        round::<13, SCHEDULE>(v, w, k[13]);
        round::<14, SCHEDULE>(v, w, k[14]);
        round::<15, SCHEDULE>(v, w, k[15]);
    }

    /// Round `J` of sixteen on message word `w[J]` and round constant
    /// `k`. The state does not shift: round `J` reads word `a` from
    /// `v[(8 - J) % 8]`, `b` from the next slot, and so on, and writes
    /// the new `a` over `h` and the new `e` over `d`. `0x96` is the
    /// three-way XOR of Σ0 and Σ1, `0xca` is Ch and `0xe8` is Maj.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn round<const J: usize, const SCHEDULE: bool>(
        v: &mut [__m512i; 8],
        w: &mut [__m512i; 16],
        k: u32,
    ) {
        let slot = |word: usize| (word + 8 - J % 8) % 8;
        let [a, b, c, d] = [v[slot(0)], v[slot(1)], v[slot(2)], v[slot(3)]];
        let [e, f, g, h] = [v[slot(4)], v[slot(5)], v[slot(6)], v[slot(7)]];
        let s1 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<6>(e),
            _mm512_ror_epi32::<11>(e),
            _mm512_ror_epi32::<25>(e),
        );
        let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
        let wk = _mm512_add_epi32(w[J], _mm512_set1_epi32(k as i32));
        let t1 = _mm512_add_epi32(_mm512_add_epi32(h, s1), _mm512_add_epi32(ch, wk));
        let s0 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<2>(a),
            _mm512_ror_epi32::<13>(a),
            _mm512_ror_epi32::<22>(a),
        );
        let maj = _mm512_ternarylogic_epi32::<0xe8>(a, b, c);
        v[slot(3)] = _mm512_add_epi32(d, t1);
        v[slot(7)] = _mm512_add_epi32(_mm512_add_epi32(s0, maj), t1);
        if SCHEDULE {
            // Words before `J` already hold the next sixteen, the rest
            // this sixteen: W[t-2], W[t-7], W[t-15] and W[t-16] of the
            // new word W[t] are all in place.
            let (x, y) = (w[(J + 1) % 16], w[(J + 14) % 16]);
            let s0 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<7>(x),
                _mm512_ror_epi32::<18>(x),
                _mm512_srli_epi32::<3>(x),
            );
            let s1 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<17>(y),
                _mm512_ror_epi32::<19>(y),
                _mm512_srli_epi32::<10>(y),
            );
            w[J] = _mm512_add_epi32(
                _mm512_add_epi32(w[J], s0),
                _mm512_add_epi32(w[(J + 9) % 16], s1),
            );
        }
    }

    /// Transposes the 16 x 16 matrix of 32-bit words whose row `i` is
    /// `r[i]`, in four rounds of in-register shuffles.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: &mut [__m512i; 16]) {
        // Within each 128-bit quarter `q`, `t[2k]` and `t[2k + 1]`
        // interleave rows `2k` and `2k + 1`: columns `4q, 4q + 1`, then
        // `4q + 2, 4q + 3`.
        let mut t = [_mm512_setzero_si512(); 16];
        for k in 0..8 {
            t[2 * k] = _mm512_unpacklo_epi32(r[2 * k], r[2 * k + 1]);
            t[2 * k + 1] = _mm512_unpackhi_epi32(r[2 * k], r[2 * k + 1]);
        }
        // Quarter `q` of `u[4m + c]` is column `4q + c` of rows `4m` to
        // `4m + 3`.
        let mut u = [_mm512_setzero_si512(); 16];
        for m in 0..4 {
            let (lo, hi) = (t[4 * m], t[4 * m + 1]);
            let (lo2, hi2) = (t[4 * m + 2], t[4 * m + 3]);
            u[4 * m] = _mm512_unpacklo_epi64(lo, lo2);
            u[4 * m + 1] = _mm512_unpackhi_epi64(lo, lo2);
            u[4 * m + 2] = _mm512_unpacklo_epi64(hi, hi2);
            u[4 * m + 3] = _mm512_unpackhi_epi64(hi, hi2);
        }
        // Column `4q + c` gathers quarter `q` of `u[c]`, `u[4 + c]`,
        // `u[8 + c]` and `u[12 + c]`: a 4 x 4 transpose of quarters.
        for c in 0..4 {
            let even01 = _mm512_shuffle_i32x4::<0x88>(u[c], u[4 + c]);
            let odd01 = _mm512_shuffle_i32x4::<0xdd>(u[c], u[4 + c]);
            let even23 = _mm512_shuffle_i32x4::<0x88>(u[8 + c], u[12 + c]);
            let odd23 = _mm512_shuffle_i32x4::<0xdd>(u[8 + c], u[12 + c]);
            r[c] = _mm512_shuffle_i32x4::<0x88>(even01, even23);
            r[4 + c] = _mm512_shuffle_i32x4::<0x88>(odd01, odd23);
            r[8 + c] = _mm512_shuffle_i32x4::<0xdd>(even01, even23);
            r[12 + c] = _mm512_shuffle_i32x4::<0xdd>(odd01, odd23);
        }
    }

    /// The vector holding `x`, lane 0 lowest.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn vector(x: &[u32; LANES]) -> __m512i {
        let x = x.map(|x| x as i32);
        _mm512_set_epi32(
            x[15], x[14], x[13], x[12], x[11], x[10], x[9], x[8], x[7], x[6], x[5], x[4], x[3],
            x[2], x[1], x[0],
        )
    }

    /// The lanes of `v`, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn words(v: __m512i) -> [u32; LANES] {
        let mut out = [0u32; LANES];
        let quads = [
            _mm512_extracti32x4_epi32::<0>(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ];
        for (out, q) in out.as_chunks_mut::<4>().0.iter_mut().zip(quads) {
            *out = [
                _mm_extract_epi32::<0>(q),
                _mm_extract_epi32::<1>(q),
                _mm_extract_epi32::<2>(q),
                _mm_extract_epi32::<3>(q),
            ]
            .map(|word| word as u32);
        }
        out
    }
}

/// An incremental SHA-256 hasher.
///
/// Feed data with [`update`](Sha256::update) and extract the digest with
/// [`finalize`](Sha256::finalize). Incremental hashing produces the same
/// digest as one-shot hashing of the concatenated input (property-tested).
///
/// # Examples
///
/// ```
/// use shredder_hash::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;

        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                debug_assert!(rest.is_empty());
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }

        let (blocks, tail) = rest.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher, returning the digest of everything fed so far.
    pub fn finalize(self) -> Digest {
        finish(self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// NIST FIPS 180-4 / common reference vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    /// The one-million-`a` vector (FIPS 180-4 example C.3).
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    /// The digest of `data` with `blocks` as the block function.
    fn digest_with(data: &[u8], mut blocks: impl FnMut(&mut [u32; 8], &[[u8; 64]])) -> Digest {
        let (full, tail) = data.as_chunks::<64>();
        let (pad, used) = pad(tail, data.len() as u64);
        let mut state = H0;
        blocks(&mut state, full);
        blocks(&mut state, &pad[..used]);
        digest_of(&state)
    }

    /// The portable block function, block by block.
    fn portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        for block in blocks {
            compress(state, block);
        }
    }

    /// The SHA-NI block function: [`compress_blocks`] once `sha_ni()`
    /// holds.
    fn hardware(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(sha_ni(), "SHA-NI went away");
        compress_blocks(state, blocks);
    }

    /// The portable digest of every message, one at a time.
    fn portable_each(messages: &[&[u8]]) -> Vec<Digest> {
        messages.iter().map(|m| digest_with(m, portable)).collect()
    }

    /// The eight portable lanes, as [`sha256_many`] runs them on a CPU
    /// with neither SHA-NI nor AVX-512.
    fn portable_lanes(messages: &[&[u8]]) -> Vec<Digest> {
        sha256_lanes(messages, MIN_BUSY_LANES, compress_lanes::<LANES>)
    }

    /// The sixteen AVX-512 lanes with stragglers leaving below
    /// `min_busy` busy lanes, or `None` on a CPU without AVX-512F.
    fn avx512_lanes(messages: &[&[u8]], min_busy: usize) -> Option<Vec<Digest>> {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            return Some(sha256_lanes(messages, min_busy, avx512_rounds));
        }
        let _ = (messages, min_busy);
        None
    }

    /// The busy thresholds the sixteen lanes run with: with SHA-NI, and
    /// with the portable block function.
    #[cfg(target_arch = "x86_64")]
    const AVX512_MIN_BUSY: [usize; 2] = [avx512::MIN_BUSY_NI, avx512::MIN_BUSY_PORTABLE];
    #[cfg(not(target_arch = "x86_64"))]
    const AVX512_MIN_BUSY: [usize; 2] = [MIN_BUSY_LANES; 2];

    /// Says why an AVX-512 test checked nothing.
    fn no_avx512() {
        eprintln!("no AVX-512F on this CPU: the 16-lane kernel is not tested");
    }

    /// Message lengths at the padding edges: empty, one byte, the last
    /// length whose padding fits one block (55), the first that needs
    /// two (56), a block minus one, one block, and the same edge one
    /// block on (119–121).
    const EDGE_LENGTHS: [usize; 9] = [0, 1, 55, 56, 63, 64, 119, 120, 121];

    /// Batch sizes around the lane counts (8 portable, 16 with AVX-512)
    /// and the busy thresholds below which a batch skips the lanes (3,
    /// and 9 with SHA-NI): none, one, each threshold and one below it,
    /// each lane count and one either side, and two full rounds of
    /// sixteen plus one.
    const BATCH_SIZES: [usize; 11] = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33];

    #[test]
    fn portable_compress_reproduces_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(
                &digest_with(input, portable).to_hex(),
                expected,
                "input {input:?}"
            );
        }
        let a = vec![b'a'; 1_000_000];
        assert_eq!(digest_with(&a, portable).to_hex(), MILLION_A);
    }

    #[test]
    fn lanes_reproduce_vectors() {
        // Three copies: lanes refill, and the last ones finish on the
        // scalar fallback.
        let batch: Vec<&[u8]> = (0..3)
            .flat_map(|_| VECTORS.iter().map(|(input, _)| *input))
            .collect();
        let digests = portable_lanes(&batch);
        assert_eq!(digests.len(), batch.len());
        for (digest, (input, expected)) in digests.iter().zip(VECTORS.iter().cycle()) {
            assert_eq!(&digest.to_hex(), expected, "input {input:?}");
        }
        // Three busy lanes run in lockstep to the end.
        let a = vec![b'a'; 1_000_000];
        for digest in portable_lanes(&[&a, &a, &a]) {
            assert_eq!(digest.to_hex(), MILLION_A);
        }
    }

    #[test]
    fn avx512_lanes_reproduce_vectors() {
        // Four copies: twenty messages, so four lanes refill.
        let batch: Vec<&[u8]> = (0..4)
            .flat_map(|_| VECTORS.iter().map(|(input, _)| *input))
            .collect();
        let Some(digests) = avx512_lanes(&batch, AVX512_MIN_BUSY[0]) else {
            return no_avx512();
        };
        assert_eq!(digests.len(), batch.len());
        for (digest, (input, expected)) in digests.iter().zip(VECTORS.iter().cycle()) {
            assert_eq!(&digest.to_hex(), expected, "input {input:?}");
        }
        // Sixteen busy lanes run in lockstep to the end.
        let a = vec![b'a'; 1_000_000];
        let sixteen = [&a[..]; 16];
        for digest in avx512_lanes(&sixteen, AVX512_MIN_BUSY[0]).unwrap() {
            assert_eq!(digest.to_hex(), MILLION_A);
        }
    }

    #[test]
    fn lanes_start_at_the_busy_threshold() {
        // 200 bytes: three full blocks and one padded block.
        let message = [7u8; 200];
        // (threshold, batch size, lane steps): a batch below its
        // threshold takes no lane step; from it on, equal messages run
        // in lockstep to the end.
        let mut cases = vec![(MIN_BUSY_LANES, 2, 0), (MIN_BUSY_LANES, 3, 4)];
        #[cfg(target_arch = "x86_64")]
        cases.extend([
            (avx512::MIN_BUSY_NI, 8, 0),
            (avx512::MIN_BUSY_NI, 9, 4),
            (avx512::MIN_BUSY_PORTABLE, 1, 0),
            (avx512::MIN_BUSY_PORTABLE, 2, 4),
        ]);
        for (min_busy, n, expected_steps) in cases {
            let batch = vec![&message[..]; n];
            let mut steps = 0;
            let digests = sha256_lanes(&batch, min_busy, |state, blocks: &[&[u8; 64]; 16]| {
                steps += 1;
                compress_lanes(state, blocks);
            });
            assert_eq!(digests, vec![sha256(&message); n], "{n} messages");
            assert_eq!(steps, expected_steps, "{n} messages, threshold {min_busy}");
        }
    }

    #[test]
    fn ni_reproduces_vectors() {
        if !sha_ni() {
            return;
        }
        for (input, expected) in VECTORS {
            assert_eq!(
                &digest_with(input, hardware).to_hex(),
                expected,
                "input {input:?}"
            );
        }
        let a = vec![b'a'; 1_000_000];
        assert_eq!(digest_with(&a, hardware).to_hex(), MILLION_A);
    }

    proptest! {
        /// The SHA-NI rounds equal the portable ones on any message,
        /// the padding edges and multi-block slices included.
        #[test]
        fn ni_matches_portable(
            data in proptest::collection::vec(any::<u8>(), 1100..1101),
            len in prop_oneof![0usize..1, 55..57, 63..65, 119..121, 0..1100],
        ) {
            if sha_ni() {
                let message = &data[..len];
                prop_assert_eq!(digest_with(message, hardware), digest_with(message, portable));
                let (blocks, _) = message.as_chunks::<64>();
                let (mut ni_state, mut state) = (H0, H0);
                hardware(&mut ni_state, blocks);
                portable(&mut state, blocks);
                prop_assert_eq!(ni_state, state);
            }
        }

        /// Both lane counts equal the portable digests for every listed
        /// batch size over padding-edge lengths, with up to two long
        /// messages anywhere in the batch: the short messages' lanes
        /// refill around them, and they finish their remaining blocks
        /// alone once too few lanes are busy. The sixteen AVX-512 lanes
        /// run, at either busy threshold, where the CPU has AVX-512F.
        #[test]
        fn lanes_match_portable(
            batch in 0usize..BATCH_SIZES.len(),
            lengths in proptest::collection::vec(0usize..EDGE_LENGTHS.len(), 33..34),
            long_count in 0usize..3,
            long_at in proptest::collection::vec(0usize..33, 2..3),
            long_len in proptest::collection::vec(200usize..3000, 2..3),
            threshold in 0usize..2,
            data in proptest::collection::vec(any::<u8>(), 3000..3001),
        ) {
            let n = BATCH_SIZES[batch];
            let mut messages: Vec<&[u8]> = lengths[..n]
                .iter()
                .enumerate()
                .map(|(k, &e)| &data[k * 7..k * 7 + EDGE_LENGTHS[e]])
                .collect();
            for (&at, &len) in long_at.iter().zip(&long_len).take(long_count) {
                if n > 0 {
                    messages[at % n] = &data[..len];
                }
            }
            let expected = portable_each(&messages);
            prop_assert_eq!(&portable_lanes(&messages), &expected);
            if let Some(digests) = avx512_lanes(&messages, AVX512_MIN_BUSY[threshold]) {
                prop_assert_eq!(&digests, &expected);
            }
        }

        /// Both lane counts equal the portable digests for random
        /// batches of random lengths.
        #[test]
        fn lanes_match_portable_on_random_batches(
            lengths in proptest::collection::vec(0usize..700, 0..70),
            threshold in 0usize..2,
            data in proptest::collection::vec(any::<u8>(), 700..701),
        ) {
            let messages: Vec<&[u8]> = lengths.iter().map(|&len| &data[..len]).collect();
            let expected = portable_each(&messages);
            prop_assert_eq!(&portable_lanes(&messages), &expected);
            if let Some(digests) = avx512_lanes(&messages, AVX512_MIN_BUSY[threshold]) {
                prop_assert_eq!(&digests, &expected);
            }
        }
    }

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(&sha256(input).to_hex(), expected, "input {input:?}");
        }
    }

    #[test]
    fn nist_vectors_through_sha256_many() {
        // Three copies, on whichever path this CPU takes.
        let batch: Vec<&[u8]> = (0..3)
            .flat_map(|_| VECTORS.iter().map(|(input, _)| *input))
            .collect();
        let digests = sha256_many(&batch);
        assert_eq!(digests.len(), batch.len());
        for (digest, (input, expected)) in digests.iter().zip(VECTORS.iter().cycle()) {
            assert_eq!(&digest.to_hex(), expected, "input {input:?}");
        }
        assert_eq!(sha256_many(&[]), Vec::new());
    }

    #[test]
    fn one_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha256(&data).to_hex(), MILLION_A);
    }

    #[test]
    fn incremental_equals_oneshot_across_block_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn lengths_around_padding_edge() {
        // 55/56/57 bytes straddle the single-block vs two-block padding edge.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn default_is_new() {
        let a = Sha256::default().finalize();
        let b = Sha256::new().finalize();
        assert_eq!(a, b);
    }
}
