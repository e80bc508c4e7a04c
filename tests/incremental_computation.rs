//! Integration: case study I end to end.
//!
//! Inc-HDFS uploads with content-defined chunking feed the incremental
//! MapReduce engine; across input versions, unchanged splits
//! deduplicate at the storage level and their map tasks are memoized —
//! while incremental outputs remain bit-identical to from-scratch runs.

use shredder::core::{Shredder, ShredderConfig};
use shredder::hdfs::{IncHdfs, TextInputFormat};
use shredder::mapreduce::apps::{Cooccurrence, KMeans, KMeansDriver, WordCount};
use shredder::mapreduce::{ClusterConfig, IncrementalRunner};
use shredder::rabin::ChunkParams;
use shredder::workloads::{self, MutationSpec};

fn service() -> Shredder {
    Shredder::new(
        ShredderConfig::cpu_pthreads()
            .with_params(ChunkParams::paper().with_expected_size(32 << 10)),
    )
}

fn corpus() -> Vec<u8> {
    workloads::words_corpus(3 << 20, 1500, 0xcafe)
}

#[test]
fn wordcount_incremental_pipeline() {
    let v1 = corpus();
    let v2 = workloads::mutate(
        &v1,
        &MutationSpec {
            span_bytes: 512 << 10, // localized edits, well above split size
            ..MutationSpec::replace(0.05, 1)
        },
    );
    let svc = service();

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local_gpu("/in", &v1, &svc, &TextInputFormat)
        .unwrap();

    let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    runner.run(&fs.splits("/in").unwrap());

    let up2 = fs
        .copy_from_local_gpu("/in", &v2, &svc, &TextInputFormat)
        .unwrap();
    assert!(
        up2.dedup_fraction() > 0.6,
        "storage dedup too low: {}",
        up2.dedup_fraction()
    );

    let splits = fs.splits("/in").unwrap();
    let incremental = runner.run(&splits);
    let full = IncrementalRunner::new(WordCount, ClusterConfig::paper()).run(&splits);

    assert_eq!(incremental.output, full.output);
    assert!(
        incremental.stats.memo_hits as f64 > 0.6 * splits.len() as f64,
        "memo hits {}/{}",
        incremental.stats.memo_hits,
        splits.len()
    );
    assert!(
        incremental.stats.timing.total < full.stats.timing.total,
        "incremental not faster"
    );
}

#[test]
fn cooccurrence_outputs_stable_across_versions() {
    let v1 = corpus();
    let v2 = workloads::mutate(
        &v1,
        &MutationSpec {
            span_bytes: 512 << 10,
            ..MutationSpec::replace(0.10, 2)
        },
    );
    let svc = service();

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local_gpu("/in", &v1, &svc, &TextInputFormat)
        .unwrap();
    let mut runner = IncrementalRunner::new(Cooccurrence::default(), ClusterConfig::paper());
    runner.run(&fs.splits("/in").unwrap());

    fs.copy_from_local_gpu("/in", &v2, &svc, &TextInputFormat)
        .unwrap();
    let splits = fs.splits("/in").unwrap();
    let incremental = runner.run(&splits);
    let full = IncrementalRunner::new(Cooccurrence::default(), ClusterConfig::paper()).run(&splits);
    assert_eq!(incremental.output, full.output);
    assert!(incremental.stats.memo_hits > 0);
}

#[test]
fn kmeans_incremental_matches_fresh() {
    let pts = workloads::kmeans_points(20_000, 4, 5);
    let v1 = workloads::points_to_records(&pts);
    let svc = service();
    let driver = KMeansDriver {
        max_iterations: 4,
        tolerance: 0.01,
    };

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local_gpu("/pts", &v1, &svc, &TextInputFormat)
        .unwrap();
    let splits = fs.splits("/pts").unwrap();

    let mut runner = IncrementalRunner::new(KMeans::new(4), ClusterConfig::paper());
    let first = driver.run(&mut runner, &splits);

    // Re-run from the same deterministic init with the primed memo.
    runner
        .job_mut()
        .set_centroids(KMeans::new(4).centroids().to_vec());
    let second = driver.run(&mut runner, &splits);

    assert_eq!(first.centroids, second.centroids);
    assert!(
        second.total_time < first.total_time,
        "memoized rerun not faster"
    );
    assert_eq!(second.runs[0].memo_hits, splits.len());
}

#[test]
fn fixed_size_uploads_defeat_memoization() {
    // The §6.2 motivation: with plain HDFS fixed-size splits, an
    // insertion shifts every split and the memo table is useless.
    let v1 = corpus();
    let mut v2 = b"one inserted record\n".to_vec();
    v2.extend_from_slice(&v1);

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local("/in", &v1, 32 << 10).unwrap();
    let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    runner.run(&fs.splits("/in").unwrap());

    fs.copy_from_local("/in", &v2, 32 << 10).unwrap();
    let splits = fs.splits("/in").unwrap();
    let rerun = runner.run(&splits);
    assert!(
        (rerun.stats.memo_hits as f64) < 0.05 * splits.len() as f64,
        "fixed-size splits unexpectedly memoized: {}/{}",
        rerun.stats.memo_hits,
        splits.len()
    );
}

#[test]
fn semantic_chunking_preserves_record_integrity() {
    // Uploading through the InputFormat, every split holds whole records
    // so per-split word counts sum to the whole-file counts.
    let v1 = corpus();
    let svc = service();
    let mut fs = IncHdfs::new(4);
    fs.copy_from_local_gpu("/in", &v1, &svc, &TextInputFormat)
        .unwrap();

    let mut from_splits = std::collections::BTreeMap::new();
    for split in fs.splits("/in").unwrap() {
        for (w, c) in shredder::mapreduce::MapReduceJob::map(&WordCount, &split.bytes) {
            *from_splits.entry(w).or_insert(0u64) += c;
        }
    }
    let mut whole = std::collections::BTreeMap::new();
    for w in String::from_utf8(v1).unwrap().split_whitespace() {
        *whole.entry(w.to_string()).or_insert(0u64) += 1;
    }
    assert_eq!(from_splits, whole);
}
