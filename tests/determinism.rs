//! Regression tests for the R4 (hash-order) fixes: every report that
//! used to be built off `HashMap`/`HashSet` iteration must now come out
//! bit-identical across independent runs. `HashMap`'s per-instance
//! `RandomState` seed means two instances in the *same* process iterate
//! in different orders, so "build it twice, compare" is a real probe —
//! before the `BTreeMap` conversions these assertions flaked.

use std::rc::Rc;

use shredder::hash::sha256;
use shredder::hdfs::{FileVersion, IncHdfs, NameNode};
use shredder::mapreduce::apps::{Cooccurrence, WordCount};
use shredder::mapreduce::{ClusterConfig, IncrementalRunner, MapReduceJob, MemoTable};
use shredder::store::ChunkIndex;
use shredder::workloads;

#[test]
fn wordcount_map_output_identical_across_runs() {
    let split = workloads::words_corpus(64 << 10, 400, 0xbeef);
    let a = WordCount.map(&split);
    let b = WordCount.map(&split);
    assert_eq!(a, b, "map output order must not depend on hash seeds");
    assert!(
        a.windows(2).all(|w| w[0].0 < w[1].0),
        "output sorted by key"
    );
}

#[test]
fn cooccurrence_map_output_identical_across_runs() {
    let split = workloads::words_corpus(32 << 10, 200, 0xf00d);
    let a = Cooccurrence::new(2).map(&split);
    let b = Cooccurrence::new(2).map(&split);
    assert_eq!(a, b);
    assert!(
        a.windows(2).all(|w| w[0].0 < w[1].0),
        "output sorted by key"
    );
}

#[test]
fn incremental_run_reports_identical_across_runs() {
    let corpus = workloads::words_corpus(256 << 10, 300, 0x5eed);
    let run = || {
        let mut fs = IncHdfs::new(4);
        fs.copy_from_local("/in", &corpus, 32 << 10).unwrap();
        let splits = fs.splits("/in").unwrap();
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let out = runner.run(&splits);
        (out.output, out.stats)
    };
    let (out_a, stats_a) = run();
    let (out_b, stats_b) = run();
    assert_eq!(out_a, out_b, "reduced output must be identical");
    assert_eq!(
        stats_a.memo_hits, stats_b.memo_hits,
        "memoization behaviour must be identical"
    );
}

#[test]
fn chunk_index_iteration_order_is_insertion_independent() {
    let digests: Vec<_> = (0u64..200).map(|i| sha256(&i.to_le_bytes())).collect();
    let mut forward: ChunkIndex<u64> = ChunkIndex::new();
    for (i, d) in digests.iter().enumerate() {
        forward.insert(*d, i as u64);
    }
    let mut backward: ChunkIndex<u64> = ChunkIndex::new();
    for (i, d) in digests.iter().enumerate().rev() {
        backward.insert(*d, i as u64);
    }
    let fwd: Vec<_> = forward.iter().map(|(d, v)| (*d, *v)).collect();
    let bwd: Vec<_> = backward.iter().map(|(d, v)| (*d, *v)).collect();
    assert_eq!(
        fwd, bwd,
        "index iteration must not depend on insertion order"
    );
}

#[test]
fn memo_eviction_identical_across_runs() {
    let victims: Vec<_> = (0u64..32).map(|i| sha256(&i.to_le_bytes())).collect();
    let evict = || {
        let mut memo: MemoTable<String, u64> = MemoTable::new();
        for (i, d) in victims.iter().enumerate() {
            memo.insert((*d, 0), Rc::new(vec![(format!("k{i}"), i as u64)]));
        }
        memo.evict_digests(&victims[..16])
    };
    assert_eq!(evict(), evict());
}

#[test]
fn namenode_paths_identical_regardless_of_insertion_order() {
    let mut a = NameNode::new();
    let mut b = NameNode::new();
    for p in ["/z", "/a", "/m"] {
        a.commit_version(p, FileVersion::default());
    }
    for p in ["/m", "/z", "/a"] {
        b.commit_version(p, FileVersion::default());
    }
    assert_eq!(a.paths(), b.paths());
    assert_eq!(a.paths(), vec!["/a", "/m", "/z"]);
}
