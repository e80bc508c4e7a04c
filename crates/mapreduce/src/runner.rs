//! The incremental job runner: real computation, memoized map tasks,
//! simulated cluster timing.

use std::collections::BTreeMap;

use shredder_hash::sha256_many;
use shredder_hdfs::SplitData;

use crate::cluster::{simulate_job, ClusterConfig, JobTiming, MapTaskSpec};
use crate::job::MapReduceJob;
use crate::memo::MemoTable;

/// Statistics of one job run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Job name.
    pub job: String,
    /// Splits presented to the job.
    pub splits: usize,
    /// Map tasks satisfied from the memo table.
    pub memo_hits: usize,
    /// Total input bytes.
    pub bytes_total: u64,
    /// Bytes actually mapped (not memoized).
    pub bytes_mapped: u64,
    /// Intermediate pairs entering the shuffle.
    pub reduce_pairs: usize,
    /// Cumulative map-input bytes skipped thanks to memo hits over the
    /// runner's lifetime (`MemoTable::bytes_saved`, previously internal
    /// state no report ever surfaced).
    pub memo_bytes_saved: u64,
    /// Memoized entries resident after this run.
    pub memo_entries: usize,
    /// Simulated cluster timing.
    pub timing: JobTiming,
}

impl RunStats {
    /// Fraction of this run's input bytes skipped via memoization.
    pub fn reuse_fraction(&self) -> f64 {
        if self.bytes_total == 0 {
            return 0.0;
        }
        (self.bytes_total - self.bytes_mapped) as f64 / self.bytes_total as f64
    }
}

/// Result of one job run: real output plus stats.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<K, V> {
    /// Final reduced output, ordered by key.
    pub output: BTreeMap<K, V>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Executes a job repeatedly over evolving inputs, reusing memoized map
/// outputs across runs (Incoop §6.1).
///
/// # Examples
///
/// ```
/// use shredder_mapreduce::apps::WordCount;
/// use shredder_mapreduce::runner::splits_from_bytes;
/// use shredder_mapreduce::{ClusterConfig, IncrementalRunner};
///
/// let splits = splits_from_bytes(b"x y\nx z\n", 4);
/// let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
/// let out = runner.run(&splits);
/// assert_eq!(out.output["x"], 2);
/// ```
#[derive(Debug)]
pub struct IncrementalRunner<J: MapReduceJob> {
    job: J,
    memo: MemoTable<J::Key, J::Value>,
    cluster: ClusterConfig,
}

impl<J: MapReduceJob> IncrementalRunner<J> {
    /// Creates a runner with an empty memo table.
    pub fn new(job: J, cluster: ClusterConfig) -> Self {
        IncrementalRunner {
            job,
            memo: MemoTable::new(),
            cluster,
        }
    }

    /// The job (e.g. to read evolved state).
    pub fn job(&self) -> &J {
        &self.job
    }

    /// Mutable access to the job (the K-means driver updates centroids
    /// between iterations; the aux key changes with it).
    pub fn job_mut(&mut self) -> &mut J {
        &mut self.job
    }

    /// The memo table.
    pub fn memo(&self) -> &MemoTable<J::Key, J::Value> {
        &self.memo
    }

    /// Clears memoized state (turns the next run into a from-scratch
    /// "plain Hadoop" execution).
    pub fn clear_memo(&mut self) {
        self.memo = MemoTable::new();
    }

    /// Runs the job over the splits: map (with memoization), shuffle,
    /// reduce — computing the real output and simulating cluster time.
    pub fn run(&mut self, splits: &[SplitData]) -> RunOutcome<J::Key, J::Value> {
        let aux = self.job.aux_key();
        let mut tasks = Vec::with_capacity(splits.len());
        let mut all_pairs: Vec<(J::Key, J::Value)> = Vec::new();
        let mut memo_hits = 0usize;
        let mut bytes_mapped = 0u64;

        for split in splits {
            let key = (split.meta.digest, aux);
            let memoized = if let Some(cached) = self.memo.lookup(&key) {
                memo_hits += 1;
                self.memo.credit_saved(split.bytes.len());
                all_pairs.extend(cached.iter().cloned());
                true
            } else {
                let output = self.job.map(&split.bytes);
                bytes_mapped += split.bytes.len() as u64;
                all_pairs.extend(output.iter().cloned());
                self.memo.insert(key, output, split.bytes.len());
                false
            };
            tasks.push(MapTaskSpec {
                bytes: split.bytes.len(),
                memoized,
                cost_factor: self.job.map_cost_factor(),
            });
        }

        // Shuffle: group by key.
        let reduce_pairs = all_pairs.len();
        let mut grouped: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
        for (k, v) in all_pairs {
            grouped.entry(k).or_default().push(v);
        }

        // Reduce.
        let output: BTreeMap<J::Key, J::Value> = grouped
            .iter()
            .map(|(k, vs)| (k.clone(), self.job.reduce(k, vs)))
            .collect();

        let timing = simulate_job(&self.cluster, &tasks, reduce_pairs);
        RunOutcome {
            output,
            stats: RunStats {
                job: self.job.job_name(),
                splits: splits.len(),
                memo_hits,
                bytes_total: splits.iter().map(|s| s.bytes.len() as u64).sum(),
                bytes_mapped,
                reduce_pairs,
                memo_bytes_saved: self.memo.bytes_saved(),
                memo_entries: self.memo.len(),
                timing,
            },
        }
    }

    /// Evicts memoized outputs for GC'd splits (feed it
    /// `GcReport::freed_digests` from the store that held the splits).
    /// Returns how many memo entries were dropped.
    pub fn evict_splits(&mut self, digests: &[shredder_hash::Digest]) -> usize {
        self.memo.evict_digests(digests)
    }
}

/// Builds record-aligned splits directly from a byte buffer (for tests
/// and examples that don't want a full Inc-HDFS instance): fixed-size
/// cut points snapped forward to newline boundaries.
pub fn splits_from_bytes(data: &[u8], target_split: usize) -> Vec<SplitData> {
    use shredder_hdfs::namenode::SplitMeta;
    assert!(target_split > 0, "split size must be non-zero");
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let mut end = (start + target_split).min(data.len());
        // Snap forward to a record boundary.
        while end < data.len() && data[end - 1] != b'\n' {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    let payloads: Vec<&[u8]> = ranges.iter().map(|r| &data[r.clone()]).collect();
    ranges
        .into_iter()
        .zip(sha256_many(&payloads))
        .map(|(range, digest)| SplitData {
            meta: SplitMeta {
                digest,
                offset: range.start as u64,
                len: range.len(),
                datanode: 0,
            },
            bytes: bytes::Bytes::copy_from_slice(&data[range]),
        })
        .collect()
}

/// Builds record-aligned splits by **content-defined chunking** through
/// a [`Shredder`](shredder_core::Shredder), consuming
/// the boundaries via a
/// [`RecordAlignedSink`](shredder_hdfs::RecordAlignedSink): record
/// alignment and split fingerprinting run inside the service's
/// simulation (overlapping chunking), and the split digests — the memo
/// keys that make reruns incremental — come straight from the sink's
/// fingerprint stage.
///
/// Unlike [`splits_from_bytes`], a small edit to `data` changes only
/// the splits it touches, so [`IncrementalRunner::run`] reuses every
/// other map task from the memo table.
///
/// # Errors
///
/// [`shredder_core::ChunkError`] if the chunking engine fails.
pub fn content_defined_splits(
    data: &[u8],
    service: &shredder_core::Shredder,
    format: &dyn shredder_hdfs::InputFormat,
) -> Result<Vec<SplitData>, shredder_core::ChunkError> {
    use shredder_hdfs::namenode::SplitMeta;
    use shredder_hdfs::RecordAlignedSink;

    let mut sink = RecordAlignedSink::new(format);
    service.chunk_stream_sink(data, &mut sink)?;
    Ok(sink
        .into_aligned()
        .into_iter()
        .map(|(chunk, digest)| SplitData {
            meta: SplitMeta {
                digest,
                offset: chunk.offset,
                len: chunk.len,
                datanode: 0,
            },
            bytes: bytes::Bytes::copy_from_slice(chunk.slice(data)),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WordCount;
    use shredder_hash::sha256;

    fn corpus() -> Vec<u8> {
        shredder_workloads::words_corpus(100_000, 100, 8)
    }

    fn count_reference(data: &[u8]) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for w in std::str::from_utf8(data).unwrap().split_whitespace() {
            *m.entry(w.to_string()).or_default() += 1;
        }
        m
    }

    #[test]
    fn output_matches_single_pass_reference() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        for s in &splits {
            assert_eq!(s.meta.digest, sha256(&s.bytes));
            assert_eq!(s.bytes, data[s.meta.offset as usize..][..s.meta.len]);
        }
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let out = runner.run(&splits);
        assert_eq!(out.output, count_reference(&data));
        assert_eq!(out.stats.memo_hits, 0);
    }

    #[test]
    fn identical_rerun_hits_memo_everywhere_same_output() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let first = runner.run(&splits);
        let second = runner.run(&splits);
        assert_eq!(second.stats.memo_hits, splits.len());
        assert_eq!(first.output, second.output);
        assert!(second.stats.timing.total < first.stats.timing.total);
    }

    #[test]
    fn incremental_equals_fresh_on_changed_input() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        runner.run(&splits);

        // Change some records (keep UTF-8 by rewriting words).
        let mut changed = data.clone();
        for i in (0..changed.len()).step_by(9973) {
            if changed[i].is_ascii_lowercase() {
                changed[i] = b'q';
            }
        }
        let changed_splits = splits_from_bytes(&changed, 4096);
        let incremental = runner.run(&changed_splits);

        let mut fresh = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let full = fresh.run(&changed_splits);
        assert_eq!(incremental.output, full.output);
    }

    #[test]
    fn clear_memo_forces_full_run() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        runner.run(&splits);
        runner.clear_memo();
        let rerun = runner.run(&splits);
        assert_eq!(rerun.stats.memo_hits, 0);
    }

    #[test]
    fn splits_are_record_aligned_and_tile() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 1000);
        let total: usize = splits.iter().map(|s| s.bytes.len()).sum();
        assert_eq!(total, data.len());
        for s in &splits[..splits.len() - 1] {
            assert_eq!(*s.bytes.last().unwrap(), b'\n');
        }
    }

    #[test]
    fn stats_account_bytes() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let out = runner.run(&splits);
        assert_eq!(out.stats.bytes_total, data.len() as u64);
        assert_eq!(out.stats.bytes_mapped, data.len() as u64);
        assert_eq!(out.stats.memo_bytes_saved, 0);
        assert_eq!(out.stats.memo_entries, splits.len());
        assert_eq!(out.stats.reuse_fraction(), 0.0);
        let again = runner.run(&splits);
        assert_eq!(again.stats.bytes_mapped, 0);
        // The dedup-effectiveness counters are now observable, not just
        // internal memo state.
        assert_eq!(again.stats.memo_bytes_saved, data.len() as u64);
        assert_eq!(again.stats.reuse_fraction(), 1.0);
    }

    #[test]
    fn evicted_splits_recompute_but_stay_correct() {
        let data = corpus();
        let splits = splits_from_bytes(&data, 4096);
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let first = runner.run(&splits);

        // Evict half the splits, as a store GC would after expiry.
        let evicted: Vec<_> = splits.iter().step_by(2).map(|s| s.meta.digest).collect();
        let dropped = runner.evict_splits(&evicted);
        assert_eq!(dropped, evicted.len());

        let rerun = runner.run(&splits);
        assert_eq!(rerun.output, first.output, "eviction never changes output");
        assert_eq!(rerun.stats.memo_hits, splits.len() - evicted.len());
        assert_eq!(rerun.stats.memo_entries, splits.len(), "re-memoized");
    }

    fn cdc_service() -> shredder_core::Shredder {
        shredder_core::Shredder::new(
            shredder_core::ShredderConfig::cpu_pthreads().with_params(shredder_rabin_params()),
        )
    }

    fn shredder_rabin_params() -> shredder_rabin::ChunkParams {
        shredder_rabin::ChunkParams::paper().with_expected_size(4096)
    }

    #[test]
    fn content_defined_splits_tile_align_and_fingerprint() {
        let data = corpus();
        let splits =
            content_defined_splits(&data, &cdc_service(), &shredder_hdfs::TextInputFormat).unwrap();
        let total: usize = splits.iter().map(|s| s.bytes.len()).sum();
        assert_eq!(total, data.len());
        for s in &splits[..splits.len() - 1] {
            assert_eq!(*s.bytes.last().unwrap(), b'\n');
        }
        // The sink's in-simulation fingerprints are the real digests —
        // the memo keys the incremental runner depends on.
        for s in &splits {
            assert_eq!(s.meta.digest, sha256(&s.bytes));
        }
        // Same final output as the fixed-split path.
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        assert_eq!(runner.run(&splits).output, count_reference(&data));
    }

    #[test]
    fn content_defined_splits_localize_edits_where_fixed_splits_do_not() {
        let data = corpus();
        let svc = cdc_service();
        let format = shredder_hdfs::TextInputFormat;
        let splits = content_defined_splits(&data, &svc, &format).unwrap();
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        runner.run(&splits);

        // Insert a record at the front: every fixed split shifts, but
        // content-defined boundaries re-synchronize.
        let mut shifted = b"inserted record\n".to_vec();
        shifted.extend_from_slice(&data);
        let changed = content_defined_splits(&shifted, &svc, &format).unwrap();
        let incremental = runner.run(&changed);
        assert!(
            incremental.stats.memo_hits * 2 > changed.len(),
            "only {} of {} splits memoized",
            incremental.stats.memo_hits,
            changed.len()
        );
        assert_eq!(incremental.output, {
            let mut fresh = IncrementalRunner::new(WordCount, ClusterConfig::paper());
            fresh.run(&changed).output
        });
    }
}
