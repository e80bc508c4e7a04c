//! The MapReduce job abstraction, the word scanner that both text maps
//! share, and the in-memory combiner that the text maps and the
//! runner's shuffle group keys through.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// A MapReduce job: map over splits, reduce grouped values.
///
/// The map output for a split may be memoized; [`aux_key`] must capture
/// any job state the map function reads besides the split bytes (e.g.
/// the current K-means centroids), so a state change invalidates memo
/// entries naturally.
///
/// Map functions are expected to act as their own combiners (pre-
/// aggregating within the split), as Hadoop jobs do in practice — this
/// is also what makes memoized map outputs compact enough to store.
/// The built-in jobs return their pairs sorted by key; the runner
/// hands `reduce` each key's values in split order, then in map-output
/// order, whatever the map's order.
///
/// [`aux_key`]: MapReduceJob::aux_key
pub trait MapReduceJob {
    /// Intermediate/output key type.
    type Key: Ord + Clone + std::hash::Hash + Eq + std::fmt::Debug;
    /// Intermediate/output value type.
    type Value: Clone + PartialEq + std::fmt::Debug;

    /// Maps one split to (already combined) key/value pairs.
    fn map(&self, split: &[u8]) -> Vec<(Self::Key, Self::Value)>;

    /// Reduces all values of one key to the final value.
    fn reduce(&self, key: &Self::Key, values: &[Self::Value]) -> Self::Value;

    /// Job name for reports.
    fn job_name(&self) -> String;

    /// Hash of the job state the map output depends on (0 for stateless
    /// jobs). Part of the memoization key.
    fn aux_key(&self) -> u64 {
        0
    }

    /// Relative per-byte map cost against a plain scan (drives the
    /// cluster timing model; e.g. pair-emitting co-occurrence maps cost
    /// more than word counting).
    fn map_cost_factor(&self) -> f64 {
        1.0
    }
}

/// `char::is_whitespace` over ASCII: `\t`, `\n`, `\x0B`, `\x0C`, `\r`
/// and space. Other characters are decoded and asked (see [`decode`]).
const ASCII_SPACE: [bool; 128] = {
    let mut table = [false; 128];
    table[b'\t' as usize] = true;
    table[b'\n' as usize] = true;
    table[0x0B] = true;
    table[0x0C] = true;
    table[b'\r' as usize] = true;
    table[b' ' as usize] = true;
    table
};

/// Whether the non-ASCII character at byte `at` of `text` is
/// whitespace, and its length in bytes. Only characters led by 0xC2 or
/// 0xE1–0xE3 can be (U+0085, U+00A0 and U+1680–U+3000), so only those
/// are decoded; the lead byte alone gives any other's length.
fn decode(text: &str, at: usize) -> (bool, usize) {
    let lead = text.as_bytes()[at];
    if matches!(lead, 0xC2 | 0xE1..=0xE3) {
        let c = text[at..]
            .chars()
            .next()
            .expect("`at` is a character boundary before the end");
        return (c.is_whitespace(), c.len_utf8());
    }
    // A lead byte's leading ones count the character's bytes.
    (false, lead.leading_ones() as usize)
}

/// The `n.min(8)` bytes at `bytes[at..]` as a big-endian `u64`,
/// zero-padded: one 8-byte load, masked, wherever 8 bytes remain.
fn chunk(bytes: &[u8], at: usize, n: usize) -> u64 {
    let loaded = match bytes[at..].first_chunk() {
        Some(&eight) => u64::from_be_bytes(eight),
        None => bytes[at..]
            .iter()
            .enumerate()
            .fold(0, |v, (i, &b)| v | u64::from(b) << (56 - 8 * i)),
    };
    if n >= 8 {
        loaded
    } else {
        loaded & !(u64::MAX >> (8 * n))
    }
}

/// Folds `v` into the hash `h`: a 64 × 64 → 128-bit multiply whose two
/// halves are xored (the "folded multiply" of wyhash and foldhash).
/// The constants make it asymmetric, so `mix(a, b)` and `mix(b, a)`
/// differ.
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let m = u128::from(h ^ 0x243f_6a88_85a3_08d3) * u128::from(v ^ 0x1319_8a2e_0370_7344);
    (m as u64) ^ (m >> 64) as u64
}

/// The crate's one hash: the `n` bytes at `bytes[at..]`, mixed 8 at a
/// time into `seed` and their length. Returns the hash and the first
/// chunk (see [`chunk`]). Reads past the span, but never past `bytes`.
fn span_hash(seed: u64, bytes: &[u8], at: usize, n: usize) -> (u64, u64) {
    let head = chunk(bytes, at, n);
    let mut hash = mix(seed ^ n as u64, head);
    let mut i = 8;
    while i < n {
        hash = mix(hash, chunk(bytes, at + i, n - i));
        i += 8;
    }
    (hash, head)
}

/// [`span_hash`] as a [`Hasher`], for keys that [`Combiner::slot`]
/// hashes itself.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = span_hash(self.0, bytes, 0, bytes.len()).0;
    }

    // Every `str` hash ends with a 0xFF byte: mix it in directly.
    fn write_u8(&mut self, b: u8) {
        self.0 = mix(self.0, b.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One word of a split's text, with its first 8 bytes big-endian and
/// zero-padded (its `head`). Equality compares the head and the length,
/// and the rest of the bytes only for words longer than 8. Order is
/// `str` order: by head first, then by the bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Word<'a> {
    head: u64,
    /// Whole characters of a `str`.
    bytes: &'a [u8],
}

impl<'a> Word<'a> {
    /// The word's text.
    pub(crate) fn as_str(&self) -> &'a str {
        std::str::from_utf8(self.bytes).expect("a word is whole characters of a str")
    }

    /// The order of the two words each followed by a `' '`: the order of
    /// `"left right"` keys whose left words differ.
    pub(crate) fn cmp_spaced(&self, other: &Self) -> Ordering {
        fn head(w: &Word) -> u64 {
            match w.bytes.len() {
                n @ ..8 => w.head | 0x20 << (56 - 8 * n),
                _ => w.head,
            }
        }
        fn bytes<'a>(w: &Word<'a>) -> impl Iterator<Item = u8> + 'a {
            w.bytes.iter().copied().chain([b' '])
        }
        head(self)
            .cmp(&head(other))
            .then_with(|| bytes(self).cmp(bytes(other)))
    }
}

impl PartialEq for Word<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head
            && self.bytes.len() == other.bytes.len()
            && (self.bytes.len() <= 8 || self.bytes[8..] == other.bytes[8..])
    }
}

impl Eq for Word<'_> {}

impl Ord for Word<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal heads leave ties such as "ab" against "ab\0" to the bytes.
        self.head
            .cmp(&other.head)
            .then_with(|| self.bytes.cmp(other.bytes))
    }
}

impl PartialOrd for Word<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One scanned word: its hash, the word, and whether a `\n` lies
/// between it and the word before (the record breaks `str::lines`
/// splits at).
pub(crate) type Scanned<'a> = (u64, Word<'a>, bool);

/// Eight copies of `b`.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// Flags (high bit) the zero bytes of `x`. Only the lowest flag is
/// exact: the subtraction's borrow can set flags above it.
fn zeros(x: u64) -> u64 {
    x.wrapping_sub(splat(0x01)) & !x & splat(0x80)
}

/// Flags the bytes of the little-endian `x` that may start whitespace:
/// those below `b'!'`, where all ASCII whitespace lies, and the lead
/// bytes 0xC2 and 0xE0–0xE3, where all other whitespace starts (see
/// [`decode`]). Continuation bytes are never flagged, so a scan that
/// skips unflagged bytes 8 at a time stops only at character starts.
/// Only the lowest flag is exact.
fn stops(x: u64) -> u64 {
    let below_bang = x.wrapping_sub(splat(0x21)) & !x & splat(0x80);
    below_bang | zeros(x ^ splat(0xC2)) | zeros((x & splat(0xFC)) ^ splat(0xE0))
}

/// The words of `text`, split exactly as `str::split_whitespace` splits
/// it. Each word is hashed where it lies in `text`, with no copy.
pub(crate) fn words(text: &str) -> impl Iterator<Item = Scanned<'_>> {
    let bytes = text.as_bytes();
    let mut at = 0;
    // Whether the whitespace byte that ended the last word was a `\n`.
    let mut ended_line = false;
    std::iter::from_fn(move || {
        let mut new_line = std::mem::take(&mut ended_line);
        let start = loop {
            let &b = bytes.get(at)?;
            if b < 0x80 {
                if !ASCII_SPACE[b as usize] {
                    break at;
                }
                new_line |= b == b'\n';
                at += 1;
            } else {
                let (space, len) = decode(text, at);
                if !space {
                    break at;
                }
                at += len;
            }
        };
        let end = loop {
            // Skip 8 bytes at a time up to the next byte that may start
            // whitespace, then decide it.
            if let Some(&eight) = bytes[at..].first_chunk() {
                let stop = stops(u64::from_le_bytes(eight));
                if stop == 0 {
                    at += 8;
                    continue;
                }
                at += stop.trailing_zeros() as usize / 8;
            }
            // `at` is at a flagged byte, or in the last 8 bytes, where it
            // may be inside a character: only a flagged byte starts one
            // that is decoded.
            match bytes.get(at) {
                None => break at,
                Some(&b) if b < 0x80 && ASCII_SPACE[b as usize] => {
                    // Step over it here, not in the next call.
                    ended_line = b == b'\n';
                    at += 1;
                    break at - 1;
                }
                Some(0xC2 | 0xE0..=0xE3) => {
                    let (space, len) = decode(text, at);
                    if space {
                        break at;
                    }
                    at += len;
                }
                Some(_) => at += 1,
            }
        };
        let (hash, head) = span_hash(0, bytes, start, end - start);
        let bytes = &bytes[start..end];
        Some((hash, Word { head, bytes }, new_line))
    })
}

/// A vector of exactly the iterator's items, with no spare capacity
/// (the memo keeps map outputs for as long as their split lives).
pub(crate) fn exact<T>(items: impl ExactSizeIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    out.extend(items);
    out
}

/// The length of an empty combiner's table.
const MIN_SLOTS: usize = 16;

/// Groups values by key in one open-addressing table of indices into a
/// `Vec` of groups kept in first-seen order. Each key is placed by its
/// hash: the caller's ([`slot_hashed`](Combiner::slot_hashed)) or the
/// crate's own ([`slot`](Combiner::slot)). The table is only probed,
/// never iterated, so the result's order depends on the input alone,
/// not on the hash.
pub(crate) struct Combiner<K, A> {
    /// 1 + the index of the group in each slot, 0 when empty; linear
    /// probing, a power-of-two length, at most half full.
    slots: Vec<u32>,
    groups: Vec<Group<K, A>>,
}

struct Group<K, A> {
    hash: u64,
    key: K,
    acc: A,
}

impl<K: Copy + Eq, A: Default> Combiner<K, A> {
    pub(crate) fn new() -> Self {
        Combiner::with_capacity(0)
    }

    /// A combiner with room for `keys` keys before its table grows.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        Combiner {
            slots: vec![0; (2 * keys).next_power_of_two().max(MIN_SLOTS)],
            groups: Vec::with_capacity(keys),
        }
    }

    /// The accumulator of `key`, created empty on its first sight.
    pub(crate) fn slot(&mut self, key: K) -> &mut A
    where
        K: Hash,
    {
        let mut hasher = KeyHasher::default();
        key.hash(&mut hasher);
        self.slot_hashed(hasher.finish(), key)
    }

    /// The accumulator of `key`, whose hash the caller computed; equal
    /// keys must come with equal hashes.
    pub(crate) fn slot_hashed(&mut self, hash: u64, key: K) -> &mut A {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at] != 0 {
            let i = self.slots[at] as usize - 1;
            if self.groups[i].hash == hash && self.groups[i].key == key {
                return &mut self.groups[i].acc;
            }
            at = (at + 1) & mask;
        }
        self.groups.push(Group {
            hash,
            key,
            acc: A::default(),
        });
        self.slots[at] = u32::try_from(self.groups.len()).expect("fewer than 2^32 keys");
        if self.groups.len() * 2 > self.slots.len() {
            self.grow();
        }
        &mut self.groups.last_mut().expect("a group was just added").acc
    }

    /// Doubles the table and places every group again.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        let mask = len - 1;
        self.slots = vec![0; len];
        for (i, group) in self.groups.iter().enumerate() {
            let mut at = group.hash as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = i as u32 + 1;
        }
    }

    /// The groups sorted by key (keys are unique, so this is the order
    /// a `BTreeMap` over the same keys iterates in).
    pub(crate) fn into_sorted(self) -> impl ExactSizeIterator<Item = (K, A)>
    where
        K: Ord,
    {
        let mut groups = self.groups;
        groups.sort_unstable_by_key(|g| g.key);
        groups.into_iter().map(|g| (g.key, g.acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ByteSum;

    impl MapReduceJob for ByteSum {
        type Key = &'static str;
        type Value = u64;

        fn map(&self, split: &[u8]) -> Vec<(&'static str, u64)> {
            vec![("sum", split.iter().map(|&b| b as u64).sum())]
        }

        fn reduce(&self, _key: &&'static str, values: &[u64]) -> u64 {
            values.iter().sum()
        }

        fn job_name(&self) -> String {
            "byte-sum".into()
        }
    }

    #[test]
    fn defaults() {
        let j = ByteSum;
        assert_eq!(j.aux_key(), 0);
        assert_eq!(j.map_cost_factor(), 1.0);
        assert_eq!(j.map(&[1, 2, 3]), vec![("sum", 6)]);
        assert_eq!(j.reduce(&"sum", &[6, 4]), 10);
    }

    #[test]
    fn combiner_groups_in_first_seen_order_and_sorts_by_key() {
        let combine = || {
            let mut c: Combiner<&str, Vec<u32>> = Combiner::new();
            for (i, k) in ["b", "a", "b", "c", "a"].into_iter().enumerate() {
                c.slot(k).push(i as u32);
            }
            c
        };
        let firsts: Vec<&str> = combine().groups.iter().map(|g| g.key).collect();
        assert_eq!(firsts, ["b", "a", "c"]);
        assert_eq!(
            combine().into_sorted().collect::<Vec<_>>(),
            vec![("a", vec![1, 4]), ("b", vec![0, 2]), ("c", vec![3])]
        );
    }

    #[test]
    fn ascii_table_is_char_is_whitespace() {
        for b in 0u8..128 {
            assert_eq!(
                ASCII_SPACE[b as usize],
                (b as char).is_whitespace(),
                "{b:#04x}"
            );
        }
    }

    #[test]
    fn decode_is_char_is_whitespace() {
        let mut buf = [0; 4];
        for c in '\u{80}'..=char::MAX {
            let text = c.encode_utf8(&mut buf);
            assert_eq!(decode(text, 0), (c.is_whitespace(), c.len_utf8()), "{c:?}");
        }
    }

    #[test]
    fn words_split_as_split_whitespace_and_mark_new_lines() {
        let text = "a\x0Bbb \u{2028}cc\u{A0}d\u{3000}\r\ne\u{1680}f \u{85}g\n\n h";
        let scanned: Vec<Scanned> = words(text).collect();
        let split: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(
            scanned
                .iter()
                .map(|(_, w, _)| w.as_str())
                .collect::<Vec<_>>(),
            split
        );
        let breaks: Vec<bool> = scanned.iter().map(|&(_, _, nl)| nl).collect();
        assert_eq!(
            breaks,
            [false, false, false, false, true, false, false, true]
        );
    }

    #[test]
    fn equal_words_hash_equal_wherever_they_lie() {
        // The same words at the start, the middle and in the last 8
        // bytes of the text, where the load falls back to padding.
        let text = "abcdefghijk ab abcdefghijk ab";
        let scanned: Vec<Scanned> = words(text).collect();
        assert_eq!(scanned[0].0, scanned[2].0);
        assert_eq!(scanned[1].0, scanned[3].0);
        assert_eq!(scanned[0].1, scanned[2].1);
        assert_eq!(scanned[1].1, scanned[3].1);
        assert_ne!(scanned[0].0, scanned[1].0);
        assert_eq!(scanned[1].1.head, u64::from_be_bytes(*b"ab\0\0\0\0\0\0"));
    }

    #[test]
    fn long_words_with_equal_hash_and_head_stay_apart() {
        let one = "abcdefgh-1";
        let two = "abcdefgh-2";
        let word = |text: &'static str| words(text).next().unwrap().1;
        assert_eq!(word(one).head, word(two).head);
        let mut c: Combiner<Word, u32> = Combiner::new();
        // The same hash for both, as if they collided.
        *c.slot_hashed(7, word(one)) += 1;
        *c.slot_hashed(7, word(two)) += 1;
        *c.slot_hashed(7, word(one)) += 1;
        let groups: Vec<(&str, u32)> = c.into_sorted().map(|(w, n)| (w.as_str(), n)).collect();
        assert_eq!(groups, [(one, 2), (two, 1)]);
    }

    #[test]
    fn word_order_is_str_order() {
        let text = "ab\0 ab abcdefgh\0 abcdefgh b\u{e9} b\u{7f} abcdefghj abcdefghi";
        let mut sorted: Vec<Word> = words(text).map(|(_, w, _)| w).collect();
        sorted.sort_unstable();
        let mut expected: Vec<&str> = text.split_whitespace().collect();
        expected.sort_unstable();
        assert_eq!(
            sorted.iter().map(Word::as_str).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn table_doubles_when_more_than_half_full() {
        let mut c: Combiner<u32, ()> = Combiner::new();
        for n in 1..=1000u32 {
            c.slot(n);
            c.slot(n / 2);
            let keys = n as usize + 1;
            assert_eq!(c.groups.len(), keys);
            assert_eq!(c.slots.len(), (2 * keys).next_power_of_two().max(MIN_SLOTS));
        }
    }
}
