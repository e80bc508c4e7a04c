//! The MapReduce job abstraction and the in-memory combiner that both
//! the text maps and the runner's shuffle group keys through.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use shredder_hash::Fnv1a64;

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

/// Groups values by key through a hash index: each key is looked up
/// once in a `HashMap` holding its position in a `Vec` kept in
/// first-seen order. The index is only probed, never iterated, so the
/// result's order depends on the input alone, not on the hasher.
pub(crate) struct Combiner<K, A> {
    index: HashMap<K, usize, BuildHasherDefault<Fnv1a64>>,
    groups: Vec<(K, A)>,
}

impl<K: Copy + Hash + Eq, A: Default> Combiner<K, A> {
    pub(crate) fn new() -> Self {
        Combiner {
            index: HashMap::default(),
            groups: Vec::new(),
        }
    }

    /// The accumulator of `key`, created empty on its first sight.
    pub(crate) fn slot(&mut self, key: K) -> &mut A {
        let groups = &mut self.groups;
        let at = *self.index.entry(key).or_insert_with(|| {
            groups.push((key, A::default()));
            groups.len() - 1
        });
        &mut self.groups[at].1
    }

    /// The groups in first-seen order.
    pub(crate) fn into_groups(self) -> Vec<(K, A)> {
        self.groups
    }

    /// The groups sorted by key (keys are unique, so this is the order
    /// a `BTreeMap` over the same keys iterates in).
    pub(crate) fn into_sorted(self) -> Vec<(K, A)>
    where
        K: Ord,
    {
        let mut groups = self.groups;
        groups.sort_unstable_by_key(|g| g.0);
        groups
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
        let firsts: Vec<&str> = combine()
            .into_groups()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(firsts, ["b", "a", "c"]);
        assert_eq!(
            combine().into_sorted(),
            vec![("a", vec![1, 4]), ("b", vec![0, 2]), ("c", vec![3])]
        );
    }
}
