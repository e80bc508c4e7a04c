//! A from-scratch SHA-256 (FIPS 180-4) implementation.
//!
//! Used for chunk fingerprints in the dedup index and for end-to-end
//! integrity verification in the backup case study. Implemented here
//! because the offline crate set contains no cryptographic hash; tested
//! against the NIST example vectors.
//!
//! [`sha256_many`] hashes a batch of independent messages eight at a
//! time in vector lanes; it needs an AVX2 build target (the workspace's
//! `.cargo/config.toml`) to beat the scalar [`sha256`].

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

/// Messages [`sha256_many`] hashes side by side: each state word of
/// eight lanes is one 256-bit vector under AVX2.
const LANES: usize = 8;

/// With no message left to refill from, [`sha256_many`] finishes the
/// last messages on the scalar [`compress`] once fewer than this many
/// lanes are busy: a lockstep step costs two to three scalar blocks.
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
    for block in blocks {
        compress(&mut state, block);
    }
    finish(state, tail, data.len() as u64)
}

/// Computes the SHA-256 digest of every message, in order — the same
/// digests as `messages.iter().map(|m| sha256(m))`, eight messages at
/// a time.
///
/// Eight lanes each hold one message's state and compress one block
/// per step, in lockstep; a lane whose message is done refills with
/// the next one. Once no message is left and fewer than three lanes
/// are busy, those messages finish on the scalar block function, so a
/// batch of one costs what [`sha256`] does.
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
    let mut out = vec![Digest::ZERO; messages.len()];
    let mut queue = messages.iter().enumerate();
    let mut lanes: [Option<Lane<'_>>; LANES] = Default::default();
    // `state[word][lane]`: each state word of all lanes is one vector.
    let mut state = [[0u32; LANES]; 8];
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
        if queue.len() == 0 && lanes.iter().flatten().count() < MIN_BUSY_LANES {
            break;
        }
        let blocks = lanes
            .each_ref()
            .map(|slot| slot.as_ref().map_or(&IDLE_BLOCK, Lane::block));
        compress_lanes(&mut state, &blocks);
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
            let mut scalar = state.map(|word| word[l]);
            for block in lane.remaining() {
                compress(&mut scalar, block);
            }
            out[lane.index] = digest_of(&scalar);
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

    /// The blocks not yet compressed.
    fn remaining(&self) -> impl Iterator<Item = &[u8; 64]> {
        self.blocks
            .iter()
            .chain(&self.pad[..self.pad_len])
            .skip(self.next)
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
    for block in &blocks[..used] {
        compress(&mut state, block);
    }
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

/// The SHA-256 block function on one message.
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
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
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

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(&sha256(input).to_hex(), expected, "input {input:?}");
        }
    }

    #[test]
    fn nist_vectors_through_sha256_many() {
        // Three copies: lanes refill, and the last ones finish on the
        // scalar fallback.
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
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
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
