//! Case study I: incremental MapReduce over Inc-HDFS (paper §6).
//!
//! Run with `cargo run --release --example incremental_mapreduce`.
//!
//! Uploads a text corpus to Inc-HDFS with content-based chunking
//! (`copyFromLocalGPU`), runs Word-Count, then changes 5% of the input
//! and shows how dedup at the storage level turns into computation
//! savings: most map tasks are satisfied from the memo table and the
//! incremental run beats the from-scratch run while producing the exact
//! same output.

use shredder::core::{Shredder, ShredderConfig};
use shredder::hdfs::{IncHdfs, TextInputFormat};
use shredder::mapreduce::apps::WordCount;
use shredder::mapreduce::{ClusterConfig, IncrementalRunner};
use shredder::rabin::ChunkParams;
use shredder::workloads::{self, MutationSpec};

fn main() {
    // A 16 MiB newline-record corpus and a 5%-changed second version.
    let v1 = workloads::words_corpus(16 << 20, 2000, 7);
    let v2 = workloads::mutate(&v1, &MutationSpec::replace(0.05, 11));

    // The chunking service the Inc-HDFS client offloads to (map-task
    // sized splits: ~128 KiB expected), here the host-only baseline.
    let service = Shredder::new(
        ShredderConfig::cpu_pthreads()
            .with_params(ChunkParams::paper().with_expected_size(128 << 10)),
    );

    // Upload version 1 and prime the computation.
    let mut fs = IncHdfs::new(20);
    let up1 = fs
        .copy_from_local_gpu("/corpus", &v1, &service, &TextInputFormat)
        .unwrap();
    println!(
        "upload v1 : {} splits, {} MiB new",
        up1.splits,
        up1.new_bytes >> 20
    );

    let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    let first = runner.run(&fs.splits("/corpus").expect("splits"));
    println!(
        "run v1    : {} map tasks, {:.2} s simulated",
        first.stats.splits,
        first.stats.timing.total.as_secs_f64()
    );

    // Upload version 2: unchanged chunks deduplicate.
    let up2 = fs
        .copy_from_local_gpu("/corpus", &v2, &service, &TextInputFormat)
        .unwrap();
    println!(
        "upload v2 : {} splits, {:.0}% deduplicated",
        up2.splits,
        up2.dedup_fraction() * 100.0
    );

    // Incremental run vs from-scratch ("plain Hadoop") run.
    let splits = fs.splits("/corpus").expect("splits v2");
    let incremental = runner.run(&splits);
    let mut fresh = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    let full = fresh.run(&splits);

    assert_eq!(incremental.output, full.output, "outputs must match");
    println!(
        "run v2    : {}/{} map tasks memoized",
        incremental.stats.memo_hits, incremental.stats.splits
    );
    println!(
        "from-scratch {:.2} s vs incremental {:.2} s  ->  {:.1}x speedup",
        full.stats.timing.total.as_secs_f64(),
        incremental.stats.timing.total.as_secs_f64(),
        full.stats.timing.total.as_secs_f64() / incremental.stats.timing.total.as_secs_f64()
    );

    let mut top: Vec<(&String, &u64)> = incremental.output.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    println!("\ntop words:");
    for (word, count) in top.iter().take(5) {
        println!("  {word:<8} {count}");
    }

    // The same input format, consumed directly through the staged sink
    // API (no Inc-HDFS instance): record alignment + split
    // fingerprinting run inside the chunking simulation, and the
    // resulting splits memoize identically.
    let direct =
        shredder::mapreduce::runner::content_defined_splits(&v2, &service, &TextInputFormat)
            .expect("content-defined splits");
    let via_sink = runner.run(&direct);
    assert_eq!(via_sink.output, incremental.output, "sink splits diverge");
    println!(
        "\nsink-based splits: {} splits, {}/{} memoized on rerun",
        direct.len(),
        via_sink.stats.memo_hits,
        via_sink.stats.splits
    );
}
