//! Stream ingestion: the [`StreamSource`] abstraction.
//!
//! A [`StreamSource`] is an in-memory stream that exposes its whole
//! byte range. The engine scans it in place, one pipeline buffer (plus
//! the kernel's `window − 1` byte carry before it) at a time, and hands
//! a sink the very same bytes, uncopied.
//!
//! Two ready-made sources cover the common cases: [`SliceSource`]
//! borrows an in-memory stream, [`MemorySource`] owns one. Any `&mut S`
//! or `Box<S>` where `S: StreamSource` is itself a source, so callers
//! can keep ownership while an engine session reads.

/// An in-memory byte stream feeding a chunking session.
///
/// # Examples
///
/// ```
/// use shredder_core::{SliceSource, StreamSource};
///
/// let data = b"hello world";
/// let src = SliceSource::new(data);
/// assert_eq!(src.bytes(), b"hello world");
/// assert_eq!(src.bytes().as_ptr(), data.as_ptr()); // borrowed, not copied
/// ```
pub trait StreamSource {
    /// The whole stream.
    fn bytes(&self) -> &[u8];
}

impl<S: StreamSource + ?Sized> StreamSource for &mut S {
    fn bytes(&self) -> &[u8] {
        (**self).bytes()
    }
}

impl<S: StreamSource + ?Sized> StreamSource for Box<S> {
    fn bytes(&self) -> &[u8] {
        (**self).bytes()
    }
}

/// A source borrowing an in-memory stream.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    data: &'a [u8],
}

impl<'a> SliceSource<'a> {
    /// Creates a source over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data }
    }
}

impl StreamSource for SliceSource<'_> {
    fn bytes(&self) -> &[u8] {
        self.data
    }
}

impl<'a> From<&'a [u8]> for SliceSource<'a> {
    fn from(data: &'a [u8]) -> Self {
        SliceSource::new(data)
    }
}

impl<'a> From<&'a Vec<u8>> for SliceSource<'a> {
    fn from(data: &'a Vec<u8>) -> Self {
        SliceSource::new(data)
    }
}

/// A source owning its stream — lets a session outlive the caller's
/// borrow (e.g. sessions built inside a loop).
#[derive(Debug, Clone)]
pub struct MemorySource {
    data: Vec<u8>,
}

impl MemorySource {
    /// Creates a source owning `data`.
    pub fn new(data: Vec<u8>) -> Self {
        MemorySource { data }
    }

    /// Creates a source over `len` seeded pseudo-random bytes
    /// (xorshift64) — convenient for service-frontend workloads where
    /// each request owns its stream. Deterministic per seed.
    pub fn pseudo_random(len: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        MemorySource::new(data)
    }
}

impl StreamSource for MemorySource {
    fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for MemorySource {
    fn from(data: Vec<u8>) -> Self {
        MemorySource::new(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_borrows_callers_bytes() {
        let data: Vec<u8> = (0..=255u8).collect();
        let src = SliceSource::new(&data);
        assert_eq!(src.bytes(), &data[..]);
        assert_eq!(src.bytes().as_ptr(), data.as_ptr());
        assert_eq!(SliceSource::from(&data).bytes().as_ptr(), data.as_ptr());
    }

    #[test]
    fn memory_source_roundtrip() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        assert_eq!(MemorySource::new(data.clone()).bytes(), &data[..]);
        assert_eq!(MemorySource::from(data.clone()).bytes(), &data[..]);
    }

    #[test]
    fn mut_reference_is_a_source() {
        let data = vec![1u8; 10];
        let mut src = SliceSource::new(&data);
        let via_ref: &mut SliceSource = &mut src;
        assert_eq!(via_ref.bytes(), &data[..]);
        let boxed: Box<dyn StreamSource + '_> = Box::new(via_ref);
        assert_eq!(boxed.bytes().as_ptr(), data.as_ptr());
    }

    #[test]
    fn empty_stream_reads_zero() {
        assert!(SliceSource::new(&[]).bytes().is_empty());
        assert!(MemorySource::new(Vec::new()).bytes().is_empty());
    }
}
