//! Co-occurrence Matrix: counts adjacent word pairs (the "pairs"
//! formulation of the co-occurrence computation, a standard text-mining
//! MapReduce benchmark).

use crate::job::{Combiner, MapReduceJob};

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
        let mut counts: Combiner<(&str, &str), u64> = Combiner::new();
        let mut words: Vec<&str> = Vec::new();
        for line in text.lines() {
            words.clear();
            words.extend(line.split_whitespace());
            for (i, &left) in words.iter().enumerate() {
                for &right in words.iter().skip(i + 1).take(self.window) {
                    *counts.slot((left, right)) += 1;
                }
            }
        }
        // Format only the distinct pairs. Words hold no ' ', so distinct
        // pairs format to distinct keys; sort the formatted keys, since
        // tuple order differs from "left right" order for words holding
        // a byte below ' '.
        let mut pairs: Vec<(String, u64)> = counts
            .into_groups()
            .into_iter()
            .map(|((left, right), n)| (format!("{left} {right}"), n))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        pairs
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
