//! FNV-1a: a fast non-cryptographic hash.
//!
//! Used for in-memory index bucketing (e.g. the backup dedup index shards
//! chunk digests across buckets) where collision resistance is provided by
//! the full [`crate::Digest`] comparison, and the hash only needs to be
//! fast and well-distributed.

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the 64-bit FNV-1a hash of `data`.
///
/// # Examples
///
/// ```
/// // Well-known FNV-1a test vectors.
/// assert_eq!(shredder_hash::fnv1a_64(b""), 0xcbf29ce484222325);
/// assert_eq!(shredder_hash::fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(data);
    h.finish()
}

/// An incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use shredder_hash::{fnv1a_64, Fnv1a64};
///
/// let mut h = Fnv1a64::new();
/// h.write(b"chunk");
/// h.write(b"data");
/// assert_eq!(h.finish(), fnv1a_64(b"chunkdata"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a64 {
            state: FNV64_OFFSET,
        }
    }

    /// Absorbs bytes.
    pub fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV64_PRIME);
        }
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        Fnv1a64::write(self, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_64() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"some longer chunk of data for hashing";
        for split in 0..data.len() {
            let mut h = Fnv1a64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), fnv1a_64(data));
        }
    }

    #[test]
    fn hasher_trait_works_with_std() {
        use std::hash::Hash;
        let mut h = Fnv1a64::new();
        42u64.hash(&mut h);
        let a = h.finish();
        let mut h2 = Fnv1a64::new();
        42u64.hash(&mut h2);
        assert_eq!(a, h2.finish());
    }

    #[test]
    fn distribution_sanity() {
        // Hashes of consecutive integers should not collide in 10k tries.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0u32..10_000 {
            assert!(seen.insert(fnv1a_64(&i.to_le_bytes())), "collision at {i}");
        }
    }
}
