//! Memoization of map-task outputs (Incoop's fine-grained result reuse,
//! §6.1).

use std::collections::BTreeMap;
use std::rc::Rc;

use shredder_hash::Digest;

/// The memoization key: the split's content digest plus the job-state
/// auxiliary key.
pub type MemoKey = (Digest, u64);

/// A memo table mapping (split digest, job state) to the map output.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
///
/// use shredder_hash::sha256;
/// use shredder_mapreduce::MemoTable;
///
/// let mut memo: MemoTable<String, u64> = MemoTable::new();
/// let key = (sha256(b"split"), 0);
/// assert!(memo.lookup(&key).is_none());
/// memo.insert(key, Rc::new(vec![("a".to_string(), 1)]));
/// assert_eq!(memo.lookup(&key).unwrap().len(), 1);
/// assert_eq!(memo.hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoTable<K, V> {
    entries: BTreeMap<MemoKey, Rc<Vec<(K, V)>>>,
    hits: u64,
    misses: u64,
    bytes_saved: u64,
}

impl<K, V> MemoTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        MemoTable {
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            bytes_saved: 0,
        }
    }

    /// Looks up a memoized map output, counting a hit or miss.
    pub fn lookup(&mut self, key: &MemoKey) -> Option<Rc<Vec<(K, V)>>> {
        match self.entries.get(key) {
            Some(v) => {
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a freshly computed map output, shared with the caller
    /// (the runner's shuffle reads the same `Rc`). Saved bytes are not
    /// credited here: the caller credits each later hit through
    /// [`credit_saved`](MemoTable::credit_saved).
    pub fn insert(&mut self, key: MemoKey, output: Rc<Vec<(K, V)>>) {
        self.entries.insert(key, output);
    }

    /// Credits saved work for a hit on a split of `split_bytes` to
    /// [`bytes_saved`](MemoTable::bytes_saved).
    pub fn credit_saved(&mut self, split_bytes: usize) {
        self.bytes_saved += split_bytes as u64;
    }

    /// Evicts every entry keyed by one of `digests` (across all aux
    /// keys) — the GC hook: when the store frees a split's chunk, its
    /// memoized map outputs are dead weight and, worse, a content
    /// collision after re-ingestion must not resurrect stale state.
    /// Returns how many entries were dropped.
    pub fn evict_digests(&mut self, digests: &[Digest]) -> usize {
        if digests.is_empty() {
            return 0;
        }
        let dead: std::collections::BTreeSet<&Digest> = digests.iter().collect();
        let before = self.entries.len();
        self.entries.retain(|(digest, _), _| !dead.contains(digest));
        before - self.entries.len()
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Map-input bytes skipped thanks to memo hits.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved
    }
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_hash::sha256;

    #[test]
    fn hit_miss_accounting() {
        let mut memo: MemoTable<u32, u32> = MemoTable::new();
        let a = (sha256(b"a"), 0);
        let b = (sha256(b"b"), 0);
        assert!(memo.lookup(&a).is_none());
        memo.insert(a, Rc::new(vec![(1, 1)]));
        assert!(memo.lookup(&a).is_some());
        memo.credit_saved(100);
        assert!(memo.lookup(&b).is_none());
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.bytes_saved(), 100);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn evict_digests_drops_all_aux_variants() {
        let mut memo: MemoTable<u32, u32> = MemoTable::new();
        let a = sha256(b"a");
        let b = sha256(b"b");
        memo.insert((a, 1), Rc::new(vec![(1, 1)]));
        memo.insert((a, 2), Rc::new(vec![(2, 2)]));
        memo.insert((b, 1), Rc::new(vec![(3, 3)]));
        assert_eq!(memo.evict_digests(&[a]), 2);
        assert!(memo.lookup(&(a, 1)).is_none());
        assert!(memo.lookup(&(a, 2)).is_none());
        assert!(memo.lookup(&(b, 1)).is_some());
        assert_eq!(memo.evict_digests(&[]), 0);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn aux_key_separates_job_states() {
        let mut memo: MemoTable<u32, u32> = MemoTable::new();
        let d = sha256(b"split");
        memo.insert((d, 1), Rc::new(vec![(1, 1)]));
        assert!(memo.lookup(&(d, 2)).is_none(), "different state must miss");
        assert!(memo.lookup(&(d, 1)).is_some());
    }
}
