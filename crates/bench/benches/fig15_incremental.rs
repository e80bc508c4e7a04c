//! Figure 15: speedup of incremental computation w.r.t. Hadoop, for
//! varying percentages of input change.
//!
//! For each application (Word-Count, Co-occurrence Matrix, K-means) and
//! each change fraction: upload v1 to Inc-HDFS with content-based
//! chunking, run the job to prime the memo table, mutate the input,
//! upload v2 (deduplicating unchanged splits), then compare an
//! incremental run against a from-scratch run ("Hadoop") on v2. Outputs
//! of both runs must be identical — speedup without correctness is
//! meaningless.

use shredder_bench::{check, dump_bench_json, header, table};
use shredder_core::{Shredder, ShredderConfig};
use shredder_hdfs::{IncHdfs, TextInputFormat};
use shredder_mapreduce::apps::{Cooccurrence, KMeans, KMeansDriver, WordCount};
use shredder_mapreduce::runner::IncrementalRunner;
use shredder_mapreduce::{ClusterConfig, MapReduceJob};
use shredder_rabin::ChunkParams;
use shredder_telemetry::Json;
use shredder_workloads::{mutate, MutationSpec};

const CHANGE_PERCENTS: [usize; 6] = [0, 2, 5, 10, 15, 25];

fn chunking_service() -> Shredder {
    Shredder::new(ShredderConfig::cpu_pthreads().with_params(ChunkParams {
        // Map-task-sized splits, bounded like Hadoop InputSplits:
        // without a max size the exponential chunk-size tail creates
        // straggler map tasks that dominate incremental makespans.
        min_size: 32 << 10,
        max_size: 128 << 10,
        ..ChunkParams::paper().with_expected_size(64 << 10)
    }))
}

/// Runs one (app, change%) cell for a stateless job; returns speedup.
/// Localized edits much larger than the split size, so an x% change
/// dirties ~x% of splits (Incoop's workloads change contiguous regions,
/// not confetti).
fn change_spec(pct: usize, seed: u64) -> MutationSpec {
    MutationSpec {
        span_bytes: 2 << 20,
        ..MutationSpec::replace(pct as f64 / 100.0, seed)
    }
}

fn stateless_speedup<J>(make_job: impl Fn() -> J, data: &[u8], pct: usize) -> f64
where
    J: MapReduceJob,
    J::Key: std::fmt::Debug,
{
    let svc = chunking_service();
    let changed = mutate(data, &change_spec(pct, 1500 + pct as u64));

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local_gpu("/input", data, &svc, &TextInputFormat)
        .unwrap();

    let mut runner = IncrementalRunner::new(make_job(), ClusterConfig::paper());
    runner.run(&fs.splits("/input").expect("splits"));

    fs.copy_from_local_gpu("/input", &changed, &svc, &TextInputFormat)
        .unwrap();
    let splits = fs.splits("/input").expect("splits v2");

    let incremental = runner.run(&splits);
    let mut fresh = IncrementalRunner::new(make_job(), ClusterConfig::paper());
    let full = fresh.run(&splits);

    assert_eq!(
        incremental.output, full.output,
        "incremental output diverged from from-scratch output"
    );
    full.stats.timing.total.as_secs_f64() / incremental.stats.timing.total.as_secs_f64()
}

/// K-means: iterative driver, memo keyed on (chunk digest, centroids).
fn kmeans_speedup(data: &[u8], pct: usize) -> f64 {
    let svc = chunking_service();
    let changed = mutate(data, &change_spec(pct, 2500 + pct as u64));
    let driver = KMeansDriver {
        max_iterations: 3,
        tolerance: 0.01,
    };

    let mut fs = IncHdfs::new(20);
    fs.copy_from_local_gpu("/points", data, &svc, &TextInputFormat)
        .unwrap();
    let mut runner = IncrementalRunner::new(KMeans::new(4), ClusterConfig::paper());
    driver.run(&mut runner, &fs.splits("/points").expect("splits"));

    fs.copy_from_local_gpu("/points", &changed, &svc, &TextInputFormat)
        .unwrap();
    let splits = fs.splits("/points").expect("splits v2");

    // Incremental: same memo, fresh deterministic initial centroids.
    runner
        .job_mut()
        .set_centroids(KMeans::new(4).centroids().to_vec());
    let incremental = driver.run(&mut runner, &splits);

    let mut fresh = IncrementalRunner::new(KMeans::new(4), ClusterConfig::paper());
    let full = driver.run(&mut fresh, &splits);
    assert_eq!(incremental.centroids, full.centroids, "k-means diverged");

    full.total_time.as_secs_f64() / incremental.total_time.as_secs_f64()
}

fn main() {
    header(
        "Figure 15",
        "Incremental MapReduce speedup vs Hadoop (20-node cluster model)",
    );

    let mb = std::env::var("SHREDDER_FIG15_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(48);
    let text = shredder_workloads::words_corpus(mb << 20, 2000, 0xf15);
    let points = shredder_workloads::points_to_records(&shredder_workloads::kmeans_points(
        (mb << 20) / 16,
        4,
        0xf15,
    ));

    let mut rows = Vec::new();
    let mut wc_curve = Vec::new();
    let mut co_curve = Vec::new();
    let mut km_curve = Vec::new();

    for &pct in &CHANGE_PERCENTS {
        let wc = stateless_speedup(|| WordCount, &text, pct);
        let co = stateless_speedup(Cooccurrence::default, &text, pct);
        let km = kmeans_speedup(&points, pct);
        wc_curve.push(wc);
        co_curve.push(co);
        km_curve.push(km);
        rows.push((
            format!("{pct}% changes"),
            vec![
                format!("{wc:.1}x"),
                format!("{co:.1}x"),
                format!("{km:.1}x"),
            ],
        ));
    }

    table(&["Word-Count", "Co-occurrence", "K-means"], &rows);
    println!("  (incremental and from-scratch outputs verified identical in every cell)");

    println!();
    check(
        "speedups are significant at small changes (>5x for Word-Count at <=2%)",
        wc_curve[0] > 5.0 && wc_curve[1] > 5.0,
    );
    check(
        "effectiveness degrades as the change percentage grows (Word-Count monotone trend)",
        wc_curve[1] > wc_curve[5] && wc_curve[2] > wc_curve[5],
    );
    check(
        "all three applications still improve at 25% changes",
        wc_curve[5] > 1.0 && co_curve[5] > 1.0 && km_curve[5] > 1.0,
    );
    check(
        "K-means benefits least (iterative state limits reuse, as in the paper's figure)",
        km_curve[1] < wc_curve[1] && km_curve[1] < co_curve[1],
    );

    // Perf-trajectory dump for the CI bench gate, which pins all six
    // speedups.
    dump_bench_json(
        &Json::object()
            .field("name", "fig15_incremental")
            .field("wordcount_speedup_2pct", wc_curve[1])
            .field("cooccurrence_speedup_2pct", co_curve[1])
            .field("kmeans_speedup_2pct", km_curve[1])
            .field("wordcount_speedup_25pct", wc_curve[5])
            .field("cooccurrence_speedup_25pct", co_curve[5])
            .field("kmeans_speedup_25pct", km_curve[5]),
    );
}
