//! Hashing primitives for the Shredder reproduction.
//!
//! Duplicate identification (paper §2.1) consists of *chunking*, *hashing*,
//! and *matching*. This crate provides the hashing half: a from-scratch
//! [SHA-256](fn@sha256) implementation used to compute collision-resistant
//! chunk fingerprints (the paper's Store thread "computes a hash for the
//! overall chunk", §7.2) — one message at a time, or a batch eight at a
//! time with [`sha256_many`] — a fast non-cryptographic [FNV-1a](fnv) hash used
//! by in-memory dedup indexes, the [`Digest`] newtype that the rest of
//! the workspace uses as a chunk identity, and the shared seeded-hash /
//! deterministic-PRNG utilities ([`mix`]) behind every reproducible
//! pseudo-random stream in the simulation (workload arrivals, fault
//! plans, gear tables, the cluster hash ring).
//!
//! SHA-256 is implemented here because the offline dependency set contains
//! no cryptographic hash crate; it is tested against the NIST FIPS 180-4
//! vectors.
//!
//! # Examples
//!
//! ```
//! use shredder_hash::{sha256, Digest};
//!
//! let d: Digest = sha256(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod fnv;
pub mod mix;
pub mod sha256;

pub use digest::Digest;
pub use fnv::{fnv1a_32, fnv1a_64, Fnv1a64};
pub use mix::{scramble_seed, splitmix64, SeededRng};
pub use sha256::{sha256, sha256_many, Sha256};
