//! Co-occurrence Matrix: counts adjacent word pairs (the "pairs"
//! formulation of the co-occurrence computation, a standard text-mining
//! MapReduce benchmark).

use std::cmp::Ordering;

use crate::job::{exact, mix, words, Combiner, MapReduceJob, Word};

/// Counts co-occurrences of words within a sliding window inside each
/// record. Pair keys are `"left right"`; the map returns them sorted.
///
/// # Examples
///
/// ```
/// use shredder_mapreduce::apps::Cooccurrence;
/// use shredder_mapreduce::MapReduceJob;
///
/// let pairs = Cooccurrence::new(1).map(b"a b c\n");
/// let m: std::collections::HashMap<_, _> = pairs.into_iter().collect();
/// assert_eq!(m["a b"], 1);
/// assert_eq!(m["b c"], 1);
/// assert!(!m.contains_key("a c")); // outside window 1
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Cooccurrence {
    window: usize,
}

impl Cooccurrence {
    /// Creates the job with a co-occurrence window of `window` following
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        Cooccurrence { window }
    }
}

impl Default for Cooccurrence {
    fn default() -> Self {
        Cooccurrence::new(2)
    }
}

impl MapReduceJob for Cooccurrence {
    type Key = String;
    type Value = u64;

    fn map(&self, split: &[u8]) -> Vec<(String, u64)> {
        let text = String::from_utf8_lossy(split);
        // Room for `window` distinct pairs per 8 bytes, about the density
        // of the words corpora, so a 64 KiB split's table never grows.
        let mut counts: Combiner<Pair, u64> =
            Combiner::with_capacity(split.len() / 8 * self.window);
        // The current record's words so far, with their hashes.
        let mut record: Vec<(u64, Word)> = Vec::new();
        for (hash, right, new_line) in words(&text) {
            if new_line {
                record.clear();
            }
            let lefts = &record[record.len().saturating_sub(self.window)..];
            for &(left_hash, left) in lefts {
                *counts.slot_hashed(mix(left_hash, hash), Pair(left, right)) += 1;
            }
            record.push((hash, right));
        }
        exact(counts.into_sorted().map(|(Pair(left, right), n)| {
            let (left, right) = (left.as_str(), right.as_str());
            let mut key = String::with_capacity(left.len() + 1 + right.len());
            key.push_str(left);
            key.push(' ');
            key.push_str(right);
            (key, n)
        }))
    }

    fn reduce(&self, _key: &String, values: &[u64]) -> u64 {
        values.iter().sum()
    }

    fn job_name(&self) -> String {
        format!("co-occurrence(window {})", self.window)
    }

    fn map_cost_factor(&self) -> f64 {
        // Pair emission costs ~2× a plain counting scan.
        2.0
    }
}

/// A pair of words, ordered as its `"left right"` key. That differs
/// from the order of `(left, right)` when one left word is a prefix of
/// the other and the longer one goes on with a byte below `' '`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pair<'a>(Word<'a>, Word<'a>);

impl Ord for Pair<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            self.1.cmp(&other.1)
        } else {
            self.0.cmp_spaced(&other.0)
        }
    }
}

impl PartialOrd for Pair<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_limits_pairs() {
        let m: std::collections::HashMap<_, _> =
            Cooccurrence::new(2).map(b"a b c d\n").into_iter().collect();
        assert_eq!(m["a b"], 1);
        assert_eq!(m["a c"], 1);
        assert!(!m.contains_key("a d"));
        assert_eq!(m["b c"], 1);
        assert_eq!(m["c d"], 1);
    }

    #[test]
    fn pairs_do_not_cross_records() {
        let m: std::collections::HashMap<_, _> = Cooccurrence::new(2)
            .map(b"a b\nc d\n")
            .into_iter()
            .collect();
        assert!(m.contains_key("a b"));
        assert!(m.contains_key("c d"));
        assert!(!m.contains_key("b c"), "pair crossed a record boundary");
    }

    #[test]
    fn repeated_pairs_combine() {
        let m: std::collections::HashMap<_, _> = Cooccurrence::new(1)
            .map(b"x y\nx y\n")
            .into_iter()
            .collect();
        assert_eq!(m["x y"], 2);
    }

    #[test]
    fn cost_factor_above_wordcount() {
        assert!(Cooccurrence::default().map_cost_factor() > 1.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = Cooccurrence::new(0);
    }
}
