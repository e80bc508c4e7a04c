//! CPU-time and simulated benchmark of the Shredder reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Runs one workload through the library's public API, over and over
//! with the same seed, until `--seconds` have passed (at least three
//! iterations untraced, two traced). Each iteration builds its inputs
//! and servers (set-up), then makes the measured library calls and
//! checks every output; a wrong output fails the run. The last line of
//! standard output is one JSON object: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics.
//!
//! Timed metrics are on-CPU seconds of the thread (see `clock`). The
//! end-to-end ones are taken from the fastest iteration: other work on
//! the machine only ever slows an iteration down, so the fastest one is
//! the steadiest estimate of what the code itself costs. Per-layer times
//! are medians over the traced iterations. Simulated metrics are model
//! outputs that must repeat exactly: every iteration, traced or not, must
//! report them bit-identical, or the run fails.
//!
//! With `--trace 1`, odd iterations record spans around the calls into
//! each layer and replay the lower-layer calls on the same inputs
//! (see `replay`); even iterations run untraced, and the difference in
//! the top-level call's time is the tracing overhead.

mod backup;
mod clock;
mod fleet;
mod replay;
mod trace;
mod wordcount;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use shredder::des::Dur;
use shredder::hash::sha256;
use shredder::workloads::random_bytes;

use clock::CpuInstant;
use replay::Counts;
use trace::Tracer;

type Workload = fn(u64, &mut Tracer) -> Result<Iteration, String>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("backup_generations", backup::run),
    ("fleet_small_requests", fleet::run),
    ("incremental_wordcount", wordcount::run),
];

const END_TO_END: [(&str, &str); 7] = [
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("ingest_mbps", "MB/s"),
    ("restore_mbps", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("sim_gbps", "GB/s"),
    ("stored_per_logical", "ratio"),
];

const PER_LAYER: [(&str, &str); 46] = [
    ("rabin.scan_s", "s"),
    ("rabin.scan_mbps", "MB/s"),
    ("gpu.kernel_run_s", "s"),
    ("gpu.rescan_bytes_per_byte", "count"),
    ("gpu.sim_kernel_busy_ms", "ms"),
    ("gpu.sim_utilization", "ratio"),
    ("gpu.sim_overlap", "ratio"),
    ("hash.sha256_s", "s"),
    ("hash.sha256_mbps", "MB/s"),
    ("hash.calib_sha256_mbps", "MB/s"),
    ("hash.sim_fingerprint_busy_ms", "ms"),
    ("hash.sim_fingerprint_wait_ms", "ms"),
    ("store.put_s", "s"),
    ("store.restore_s", "s"),
    ("store.gc_s", "s"),
    ("store.dedup_hit_ratio", "ratio"),
    ("store.bytes_written_per_byte", "ratio"),
    ("store.gc_bytes_rewritten", "bytes"),
    ("backup.service_s", "s"),
    ("backup.index_hit_rate", "ratio"),
    ("backup.sim_dedup_busy_ms", "ms"),
    ("backup.sim_ship_busy_ms", "ms"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.self_us_per_request", "us"),
    ("core.sim_queue_wait_ms", "ms"),
    ("core.sim_max_queue_depth", "count"),
    ("core.sim_read_busy_ms", "ms"),
    ("core.sim_store_thread_busy_ms", "ms"),
    ("cluster.run_s", "s"),
    ("cluster.route_s", "s"),
    ("cluster.replication_amplification", "ratio"),
    ("cluster.replication_physical_bytes", "bytes"),
    ("cluster.cross_node_dup_fraction", "ratio"),
    ("cluster.sim_nic_busy_ms", "ms"),
    ("cluster.sim_p99_ms", "ms"),
    ("hdfs.upload_s", "s"),
    ("hdfs.v2_dedup_fraction", "ratio"),
    ("mapreduce.run_s", "s"),
    ("mapreduce.map_s", "s"),
    ("mapreduce.self_s", "s"),
    ("mapreduce.memo_hit_ratio", "ratio"),
    ("mapreduce.reduce_pairs", "count"),
    ("mapreduce.sim_speedup", "x"),
    ("telemetry.on_overhead_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Bytes hashed per machine-speed calibration pass.
const CALIB_BYTES: usize = 8 << 20;

/// What one iteration of a workload measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Input generation plus construction of servers, fleet or filesystem.
    pub setup_s: f64,
    /// CPU seconds of every library call after set-up.
    pub cpu_s: f64,
    pub ingest_bytes: u64,
    /// CPU seconds of the ingest calls.
    pub ingest_s: f64,
    /// Bytes read back and compared with their input.
    pub restore_bytes: u64,
    /// CPU seconds of the read-back calls.
    pub restore_s: f64,
    pub attempted: u64,
    /// Shed, lost or errored operations.
    pub failed: u64,
    /// Top-level ingest requests (for per-request self time).
    pub requests: u64,
    /// Work counts from the replays (traced iterations only).
    pub counts: Counts,
    /// Simulated values and counts read from the library's reports.
    pub exact: Vec<(&'static str, f64)>,
    /// Further per-layer values (traced iterations only).
    pub layers: Vec<(&'static str, f64)>,
}

pub fn ms(d: Dur) -> f64 {
    d.as_millis_f64()
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// SHA-256 rate of this machine on a fixed buffer, MB/s (fastest of nine
/// passes, like the end-to-end metrics): the reference that tells machine
/// drift from a slow change.
fn calibrate() -> f64 {
    let buf = random_bytes(CALIB_BYTES, 0xca1b);
    (0..9)
        .map(|_| {
            let t = CpuInstant::now();
            black_box(sha256(black_box(&buf)));
            CALIB_BYTES as f64 / t.elapsed_s() / 1e6
        })
        .fold(0.0, f64::max)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The per-layer values of traced iteration `run`.
fn layers(tr: &Tracer, run: usize, it: &Iteration, calib: f64) -> BTreeMap<&'static str, f64> {
    let c = &it.counts;
    let total = |name| tr.total(run, name);
    let mut row: BTreeMap<&'static str, f64> = BTreeMap::new();
    let scan_s = total("rabin.scan");
    let hash_s = total("hash.sha256");
    let core_self = tr.self_time(run, "core.run");
    row.extend([
        ("rabin.scan_s", scan_s),
        ("rabin.scan_mbps", ratio(c.scan_bytes as f64 / 1e6, scan_s)),
        ("gpu.kernel_run_s", total("gpu.kernel_run")),
        (
            "gpu.rescan_bytes_per_byte",
            ratio(c.rescan_bytes as f64, c.scan_bytes as f64),
        ),
        ("hash.sha256_s", hash_s),
        ("hash.sha256_mbps", ratio(c.hash_bytes as f64 / 1e6, hash_s)),
        ("hash.calib_sha256_mbps", calib),
        ("store.put_s", total("store.put")),
        ("store.restore_s", total("store.restore")),
        ("store.gc_s", total("store.gc")),
        (
            "store.dedup_hit_ratio",
            ratio(c.store_hits as f64, c.store_offered as f64),
        ),
        (
            "store.bytes_written_per_byte",
            ratio(c.store_physical as f64, c.store_logical as f64),
        ),
        ("core.run_s", total("core.run")),
        ("core.self_s", core_self),
        (
            "core.self_us_per_request",
            ratio(core_self * 1e6, it.requests as f64),
        ),
        ("cluster.route_s", total("cluster.route")),
        ("mapreduce.run_s", total("mapreduce.run")),
        ("mapreduce.map_s", total("mapreduce.map")),
        ("mapreduce.self_s", tr.self_time(run, "mapreduce.run")),
    ]);
    row.extend(it.exact.iter().copied());
    row.extend(it.layers.iter().copied());
    row
}

fn same_bits(a: &[(&str, f64)], b: &[(&str, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    let calib = calibrate();
    eprintln!("hash.calib_sha256_mbps {calib:.3}");
    let origin = Instant::now();
    let mut tr = Tracer::new(CpuInstant::now());
    let mut iters: Vec<(bool, Iteration)> = Vec::new();
    let mut rows: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let min_iters = if args.trace { 2 } else { 3 };
    let mut error = None;
    while iters.len() < min_iters || origin.elapsed().as_secs_f64() < args.seconds {
        let i = iters.len();
        let traced = args.trace && i % 2 == 1;
        tr.begin_run(i, traced);
        match workload(args.seed, &mut tr) {
            Ok(it) => {
                eprintln!(
                    "iteration {i}{}: setup {:.4} s, cpu {:.4} s, ingest {:.4} s, restore {:.4} s",
                    if traced { " (traced)" } else { "" },
                    it.setup_s,
                    it.cpu_s,
                    it.ingest_s,
                    it.restore_s
                );
                if traced {
                    rows.push(layers(&tr, i, &it, calib));
                }
                iters.push((traced, it));
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    if error.is_none() {
        let first = &iters[0].1.exact;
        if iters.iter().any(|(_, it)| !same_bits(first, &it.exact)) {
            error = Some("simulated values differ between iterations of one seed".into());
        } else if first.iter().any(|(_, v)| !v.is_finite()) {
            error = Some("a simulated value is not finite".into());
        }
    }
    let attempted = iters.iter().map(|(_, it)| it.attempted).sum::<u64>().max(1);
    let failed = iters.iter().map(|(_, it)| it.failed).sum::<u64>();
    if let Some(e) = error {
        eprintln!("perfbench: wrong output: {e}");
        println!("{}", result_json(false, attempted, failed, &[]));
        return ExitCode::from(1);
    }

    let untraced: Vec<&Iteration> = iters.iter().filter(|(t, _)| !t).map(|(_, it)| it).collect();
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        median(&untraced.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let least = |f: &dyn Fn(&Iteration) -> f64| {
        untraced
            .iter()
            .map(|it| f(it))
            .fold(f64::INFINITY, f64::min)
    };
    let most = |f: &dyn Fn(&Iteration) -> f64| untraced.iter().map(|it| f(it)).fold(0.0, f64::max);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layer = |name: &str| {
            median(
                &rows
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_s" {
                    layer("core.run_s") - med(&|it| it.ingest_s)
                } else {
                    layer(name)
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let peak = match peak_rss_mb() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        };
        let exact = |name: &str| {
            iters[0]
                .1
                .exact
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "cpu_s" => least(&|it| it.cpu_s),
                    "setup_s" => least(&|it| it.setup_s),
                    "ingest_mbps" => most(&|it| it.ingest_bytes as f64 / 1e6 / it.ingest_s),
                    "restore_mbps" => most(&|it| it.restore_bytes as f64 / 1e6 / it.restore_s),
                    "peak_rss_mb" => peak,
                    _ => exact(name),
                };
                (name, value, unit)
            })
            .collect()
    };

    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite");
        println!("{}", result_json(false, attempted, failed, &[]));
        return ExitCode::from(1);
    }
    if let Some(path) = &args.spans {
        if args.trace {
            if let Err(e) = std::fs::write(path, tr.to_json_lines()) {
                eprintln!("perfbench: writing spans to {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    eprintln!("iterations {} ({} traced)", iters.len(), rows.len());
    println!("{}", result_json(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
