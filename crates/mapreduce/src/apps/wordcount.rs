//! Word-Count: the canonical MapReduce job.

use crate::job::{exact, words, Combiner, MapReduceJob, Word};

/// Counts word occurrences. The map combines within its split (one pair
/// per distinct word, sorted by word), the classic combiner
/// optimization.
///
/// # Examples
///
/// ```
/// use shredder_mapreduce::apps::WordCount;
/// use shredder_mapreduce::MapReduceJob;
///
/// let mut pairs = WordCount.map(b"b a a\n");
/// pairs.sort();
/// assert_eq!(pairs, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl MapReduceJob for WordCount {
    type Key = String;
    type Value = u64;

    fn map(&self, split: &[u8]) -> Vec<(String, u64)> {
        let text = String::from_utf8_lossy(split);
        // Room for a distinct word per 32 bytes, about the density of
        // the words corpora, so a 64 KiB split's table never grows.
        let mut counts: Combiner<Word, u64> = Combiner::with_capacity(split.len() / 32);
        for (hash, word, _) in words(&text) {
            *counts.slot_hashed(hash, word) += 1;
        }
        exact(
            counts
                .into_sorted()
                .map(|(w, c)| (w.as_str().to_owned(), c)),
        )
    }

    fn reduce(&self, _key: &String, values: &[u64]) -> u64 {
        values.iter().sum()
    }

    fn job_name(&self) -> String {
        "word-count".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_combines_within_split() {
        let pairs = WordCount.map(b"x y x x\nz y\n");
        let m: std::collections::HashMap<_, _> = pairs.into_iter().collect();
        assert_eq!(m["x"], 3);
        assert_eq!(m["y"], 2);
        assert_eq!(m["z"], 1);
    }

    #[test]
    fn reduce_sums() {
        assert_eq!(WordCount.reduce(&"w".to_string(), &[1, 2, 3]), 6);
    }

    #[test]
    fn map_output_is_deterministic() {
        assert_eq!(WordCount.map(b"c b a c\n"), WordCount.map(b"c b a c\n"));
    }

    #[test]
    fn empty_split_maps_to_nothing() {
        assert!(WordCount.map(b"").is_empty());
        assert!(WordCount.map(b"   \n  \n").is_empty());
    }
}
