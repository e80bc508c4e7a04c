//! Property-based tests: incremental MapReduce always equals
//! from-scratch execution, for arbitrary inputs and mutations, and the
//! hash-combining text maps return exactly what the `BTreeMap` maps
//! they replaced returned.

use std::collections::BTreeMap;

use proptest::prelude::*;
use shredder_mapreduce::apps::{Cooccurrence, WordCount};
use shredder_mapreduce::runner::{splits_from_bytes, IncrementalRunner};
use shredder_mapreduce::{ClusterConfig, MapReduceJob};

/// The `BTreeMap` Word-Count map the hash combiner replaced.
fn wordcount_oracle(split: &[u8]) -> Vec<(String, u64)> {
    let text = String::from_utf8_lossy(split);
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for word in text.split_whitespace() {
        *counts.entry(word).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(w, c)| (w.to_string(), c))
        .collect()
}

/// The `BTreeMap` Co-occurrence map the hash combiner replaced.
fn cooccurrence_oracle(window: usize, split: &[u8]) -> Vec<(String, u64)> {
    let text = String::from_utf8_lossy(split);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, &left) in words.iter().enumerate() {
            for right in words.iter().skip(i + 1).take(window) {
                *counts.entry(format!("{left} {right}")).or_default() += 1;
            }
        }
    }
    counts.into_iter().collect()
}

/// One piece of [`messy_bytes`] input, chosen and shaped by `seed`.
fn messy_piece([kind, a, b, c]: [u8; 4]) -> Vec<u8> {
    match kind % 16 {
        // Short words over a tiny alphabet, so words and pairs repeat.
        0..=5 => [a, b, c][..1 + a as usize % 3]
            .iter()
            .map(|&x| b"abz"[x as usize % 3])
            .collect(),
        6 | 7 => b" ".to_vec(),
        8 => b"\n".to_vec(),
        9 => b"\r\n".to_vec(),
        10 => b"\x0B".to_vec(),
        // 0x01-0x1F: sorts below the pair separator ' '.
        11 => vec![1 + a % 0x1F],
        12 => ["\u{85}", "\u{A0}", "\u{3000}"][a as usize % 3]
            .as_bytes()
            .to_vec(),
        // Truncated UTF-8 (the first two bytes of U+3000).
        13 => vec![0xE3, 0x80],
        _ => vec![a],
    }
}

/// Bytes that stress tokenizing: short words, ASCII and Unicode
/// whitespace (`\x0B`, `\r\n`, U+0085, U+00A0, U+3000), control bytes
/// 0x01-0x1F, and arbitrary bytes, including invalid and truncated
/// UTF-8.
fn messy_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<[u8; 4]>(), 0..64)
        .prop_map(|seeds| seeds.into_iter().flat_map(messy_piece).collect())
}

/// The `char::is_whitespace` characters that [`messy_piece`] lacks.
const MORE_SPACES: [&str; 16] = [
    "\u{1680}", "\u{2000}", "\u{2001}", "\u{2002}", "\u{2003}", "\u{2004}", "\u{2005}", "\u{2006}",
    "\u{2007}", "\u{2008}", "\u{2009}", "\u{200A}", "\u{2028}", "\u{2029}", "\u{202F}", "\u{205F}",
];

/// One piece of [`edge_bytes`] input, chosen and shaped by `seed`.
fn edge_piece([kind, a, b]: [u8; 3]) -> Vec<u8> {
    match kind % 8 {
        // "abcdefgh" and up to three more bytes out of `a`, `b` and NUL:
        // words longer than 8 bytes that share their first 8, some of
        // equal length.
        0 | 1 => {
            let mut word = b"abcdefgh".to_vec();
            word.extend((0..a % 4).map(|i| b"ab\0"[(b >> (2 * i)) as usize % 3]));
            word
        }
        // A prefix of "abcdefgh", so heads of every length meet.
        2 => b"abcdefgh"[..1 + a as usize % 8].to_vec(),
        // Short words holding NUL bytes: "ab" and "ab\0" share a head.
        3 => [a, b][..1 + a as usize % 2]
            .iter()
            .map(|&x| b"a\0b"[x as usize % 3])
            .collect(),
        4 => MORE_SPACES[a as usize % 16].as_bytes().to_vec(),
        5 | 6 => b" ".to_vec(),
        _ => b"\n".to_vec(),
    }
}

/// Bytes that stress the word scanner and the pre-hashed combiner:
/// words longer than 8 bytes that share their first 8, words holding
/// NUL bytes, and the Unicode whitespace of [`MORE_SPACES`].
fn edge_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<[u8; 3]>(), 0..48)
        .prop_map(|seeds| seeds.into_iter().flat_map(edge_piece).collect())
}

/// `split` cut to its first `len` bytes when `len` is 1 to 7: splits
/// shorter than one 8-byte load, often ending inside a character.
fn cut(mut split: Vec<u8>, len: usize) -> Vec<u8> {
    if (1..8).contains(&len) {
        split.truncate(len);
    }
    split
}

/// Random newline-record text out of a small alphabet.
fn text_strategy(max_records: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' ')],
            1..20,
        ),
        0..max_records,
    )
    .prop_map(|records| {
        let mut out = Vec::new();
        for r in records {
            out.extend_from_slice(&r);
            out.push(b'\n');
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The hash-combining Word-Count map returns exactly the `BTreeMap`
    /// map's pairs, in the same order.
    #[test]
    fn wordcount_map_equals_btreemap_oracle(split in messy_bytes()) {
        prop_assert_eq!(WordCount.map(&split), wordcount_oracle(&split));
    }

    /// The same for Co-occurrence, at windows 1 to 3.
    #[test]
    fn cooccurrence_map_equals_btreemap_oracle(split in messy_bytes(), window in 1usize..4) {
        prop_assert_eq!(
            Cooccurrence::new(window).map(&split),
            cooccurrence_oracle(window, &split)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Word-Count equals the oracle on long, NUL-holding and
    /// Unicode-separated words and on splits of 1 to 7 bytes, with no
    /// spare capacity in its output.
    #[test]
    fn wordcount_map_equals_oracle_on_edge_words(split in edge_bytes(), len in 0usize..16) {
        let split = cut(split, len);
        let pairs = WordCount.map(&split);
        prop_assert_eq!(pairs.capacity(), pairs.len());
        prop_assert_eq!(pairs, wordcount_oracle(&split));
    }

    /// The same for Co-occurrence, at windows 1 to 3.
    #[test]
    fn cooccurrence_map_equals_oracle_on_edge_words(
        split in edge_bytes(),
        len in 0usize..16,
        window in 1usize..4,
    ) {
        let split = cut(split, len);
        let pairs = Cooccurrence::new(window).map(&split);
        prop_assert_eq!(pairs.capacity(), pairs.len());
        prop_assert_eq!(pairs, cooccurrence_oracle(window, &split));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental run over mutated input == fresh run, always.
    #[test]
    fn incremental_equals_fresh(
        v1 in text_strategy(300),
        v2 in text_strategy(300),
        split in 64usize..1024,
    ) {
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        runner.run(&splits_from_bytes(&v1, split));

        let splits2 = splits_from_bytes(&v2, split);
        let incremental = runner.run(&splits2);
        let fresh = IncrementalRunner::new(WordCount, ClusterConfig::paper()).run(&splits2);
        prop_assert_eq!(incremental.output, fresh.output);
    }

    /// Split size never changes the job output.
    #[test]
    fn split_size_invariance(data in text_strategy(300), a in 32usize..512, b in 32usize..512) {
        let ra = IncrementalRunner::new(WordCount, ClusterConfig::paper())
            .run(&splits_from_bytes(&data, a));
        let rb = IncrementalRunner::new(WordCount, ClusterConfig::paper())
            .run(&splits_from_bytes(&data, b));
        prop_assert_eq!(ra.output, rb.output);
    }

    /// Memo stats are conserved: hits + mapped splits == total splits.
    #[test]
    fn memo_accounting(data in text_strategy(200), reruns in 1usize..4) {
        let splits = splits_from_bytes(&data, 128);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        for i in 0..=reruns {
            let out = runner.run(&splits);
            prop_assert_eq!(out.stats.splits, splits.len());
            let mapped = out.stats.splits - out.stats.memo_hits;
            if i == 0 {
                // Duplicate split contents can memoize within run 0 too.
                prop_assert!(mapped <= splits.len());
            } else {
                prop_assert_eq!(out.stats.memo_hits, splits.len());
                prop_assert_eq!(out.stats.bytes_mapped, 0);
            }
        }
    }
}
