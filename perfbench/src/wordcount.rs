//! `incremental_wordcount`: the paper's §6 incremental-computation path,
//! where MapReduce rather than chunking or hashing does most of the work.
//!
//! A words corpus is uploaded to Inc-HDFS through a GPU `Shredder` with
//! the fig15 split parameters. WordCount runs once to prime the memo;
//! then a localized change, a second upload, an incremental run and a
//! from-scratch run, whose outputs must be equal. The splits after each
//! upload, and both stored versions several times, are read back and
//! compared with their inputs.

use std::collections::HashSet;

use shredder::core::{Shredder, ShredderConfig};
use shredder::hash::Digest;
use shredder::hdfs::{IncHdfs, SplitData, TextInputFormat};
use shredder::mapreduce::apps::WordCount;
use shredder::mapreduce::{ClusterConfig, IncrementalRunner, MapReduceJob, RunOutcome};
use shredder::rabin::ChunkParams;
use shredder::store::ChunkStore;
use shredder::workloads::{mutate, words_corpus, MutationSpec};

use crate::clock::CpuInstant;
use crate::replay::{self, Counts};
use crate::trace::Tracer;
use crate::Iteration;

/// Bytes per version: sixteen times a core's 2 MiB L2.
const CORPUS_BYTES: usize = 32 << 20;
const VOCAB: usize = 2000;
const CHANGE: f64 = 0.05;
/// Edits much larger than a split, as in fig15: a 5% change dirties
/// about 5% of the splits.
const SPAN: usize = 2 << 20;
const DATANODES: usize = 20;
const BUFFER: usize = 4 << 20;
const PATH: &str = "/input";
/// Times both stored versions are read back: one pass reads only
/// 64 MiB, too little CPU time to measure a read rate steadily.
const READBACK_PASSES: usize = 4;

/// The fig15 map-task-sized splits: min 32 KiB, expected 64 KiB, max 128 KiB.
fn split_params() -> ChunkParams {
    ChunkParams {
        min_size: 32 << 10,
        max_size: 128 << 10,
        ..ChunkParams::paper().with_expected_size(64 << 10)
    }
}

pub fn run(seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let t0 = CpuInstant::now();
    let v1 = words_corpus(CORPUS_BYTES, VOCAB, seed);
    let spec = MutationSpec {
        span_bytes: SPAN,
        ..MutationSpec::replace(CHANGE, seed.wrapping_add(1500))
    };
    let v2 = mutate(&v1, &spec);
    let shredder = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(split_params())
            .with_buffer_size(BUFFER),
    );
    let mut fs = IncHdfs::new(DATANODES);
    let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    it.setup_s = t0.elapsed_s();

    let cfg = shredder.config().clone();
    let mut counts = Counts::default();
    let mut shadow = ChunkStore::new();
    let mut memo: HashSet<Digest> = HashSet::new();

    let mut upload = |tr: &mut Tracer, fs: &mut IncHdfs, data: &[u8], it: &mut Iteration| {
        let (res, secs, span) = tr.span("core.run", None, || {
            fs.copy_from_local_gpu(PATH, data, &shredder, &TextInputFormat)
        });
        it.attempted += 1;
        it.ingest_s += secs;
        it.ingest_bytes += data.len() as u64;
        let report = res.map_err(|e| format!("upload failed: {e}"))?;
        if tr.enabled() {
            let chunks = replay::chunking(tr, span, &cfg, data, &mut counts)?;
            let digests = replay::hash(tr, span, data, &chunks, &mut counts);
            replay::store(
                tr,
                span,
                &mut shadow,
                PATH,
                data,
                &chunks,
                &digests,
                &mut counts,
            )?;
        }
        let (splits, secs, _) = tr.span("store.restore", None, || fs.splits(PATH));
        it.attempted += 1;
        it.restore_s += secs;
        let splits = splits.map_err(|e| format!("reading splits failed: {e}"))?;
        if !tiles(data, splits.iter().map(|s| &s.bytes[..])) {
            return Err("the splits do not read back the uploaded bytes".into());
        }
        it.restore_bytes += data.len() as u64;
        Ok::<_, String>((report, splits))
    };

    let (up1, splits1) = upload(tr, &mut fs, &v1, &mut it)?;
    let primed = job(tr, &mut runner, &splits1, &mut memo, &mut it)?;
    let (up2, splits2) = upload(tr, &mut fs, &v2, &mut it)?;
    let incremental = job(tr, &mut runner, &splits2, &mut memo, &mut it)?;
    let mut fresh = IncrementalRunner::new(WordCount, ClusterConfig::paper());
    let full = job(tr, &mut fresh, &splits2, &mut HashSet::new(), &mut it)?;
    if incremental.output != full.output {
        return Err("incremental output differs from the from-scratch output".into());
    }
    if primed.stats.splits != splits1.len() {
        return Err("priming run saw a different split count".into());
    }
    for (version, input) in [&v1, &v2].repeat(READBACK_PASSES).into_iter().enumerate() {
        let version = version % 2;
        let (read, secs, _) = tr.span("store.restore", None, || fs.read_version(PATH, version));
        it.attempted += 1;
        it.restore_s += secs;
        let read = read.map_err(|e| format!("read-back of version {version} failed: {e}"))?;
        if &read != input {
            return Err(format!("version {version} read back different bytes"));
        }
        it.restore_bytes += read.len() as u64;
    }
    it.cpu_s += it.ingest_s + it.restore_s;
    counts.store_physical = shadow.physical_bytes();
    it.counts = counts;
    it.requests = 2;

    let logical = (v1.len() + v2.len()) as f64;
    let inc = &incremental.stats;
    it.exact = vec![
        (
            "sim_gbps",
            logical / (up1.upload_makespan + up2.upload_makespan).as_secs_f64() / 1e9,
        ),
        ("stored_per_logical", fs.physical_bytes() as f64 / logical),
        ("hdfs.v2_dedup_fraction", up2.dedup_fraction()),
        (
            "mapreduce.memo_hit_ratio",
            inc.memo_hits as f64 / inc.splits.max(1) as f64,
        ),
        ("mapreduce.reduce_pairs", inc.reduce_pairs as f64),
        (
            "mapreduce.sim_speedup",
            full.stats.timing.total.as_secs_f64() / inc.timing.total.as_secs_f64(),
        ),
    ];
    it.layers.push(("hdfs.upload_s", it.ingest_s));
    Ok(it)
}

/// One `IncrementalRunner::run` (span `mapreduce.run`). When traced,
/// `MapReduceJob::map` is replayed on the splits that missed the memo
/// (span `mapreduce.map`); `memo` mirrors the runner's memo keys.
fn job(
    tr: &mut Tracer,
    runner: &mut IncrementalRunner<WordCount>,
    splits: &[SplitData],
    memo: &mut HashSet<Digest>,
    it: &mut Iteration,
) -> Result<RunOutcome<String, u64>, String> {
    let (out, secs, span) = tr.span("mapreduce.run", None, || runner.run(splits));
    it.attempted += 1;
    it.cpu_s += secs;
    let missed: Vec<&SplitData> = splits
        .iter()
        .filter(|s| memo.insert(s.meta.digest))
        .collect();
    if splits.len() - missed.len() != out.stats.memo_hits {
        return Err(format!(
            "replay found {} memo misses, the runner {}",
            missed.len(),
            splits.len() - out.stats.memo_hits
        ));
    }
    if tr.enabled() {
        tr.span("mapreduce.map", span, || {
            for s in &missed {
                std::hint::black_box(WordCount.map(&s.bytes));
            }
        });
    }
    Ok(out)
}

/// True when `parts`, in order, are exactly `input`.
fn tiles<'a>(input: &[u8], parts: impl Iterator<Item = &'a [u8]>) -> bool {
    let mut at = 0;
    for part in parts {
        if input.get(at..at + part.len()) != Some(part) {
            return false;
        }
        at += part.len();
    }
    at == input.len()
}
