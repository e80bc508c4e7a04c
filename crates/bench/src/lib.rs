//! Shared utilities for the experiment harness.
//!
//! Every table and figure of the paper's evaluation has a `harness =
//! false` bench target in this crate (run them all with `cargo bench -p
//! shredder-bench`, or one with `--bench fig12_throughput`). Each target
//! prints the paper's rows/series next to the reproduction's measured
//! values and finishes with shape checks (who wins, by what factor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

use shredder_telemetry::Json;

/// Prints an experiment header.
pub fn header(experiment: &str, description: &str) {
    println!();
    println!("==================================================================");
    println!("{experiment}: {description}");
    println!("==================================================================");
}

/// Prints a table of rows: a label column plus value columns.
pub fn table<R: Display>(columns: &[&str], rows: &[(String, Vec<R>)]) {
    print!("{:<28}", "");
    for c in columns {
        print!("{c:>18}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<28}");
        for v in values {
            print!("{v:>18}");
        }
        println!();
    }
}

/// Prints a single `name = value` result line.
pub fn result_line(name: &str, value: impl Display) {
    println!("  {name:<46} {value}");
}

/// A shape check: prints PASS/FAIL and panics on failure so `cargo
/// bench` surfaces broken reproductions.
///
/// # Panics
///
/// Panics if `ok` is false.
pub fn check(description: &str, ok: bool) {
    println!("  [{}] {description}", if ok { "PASS" } else { "FAIL" });
    assert!(ok, "shape check failed: {description}");
}

/// Formats a throughput in GB/s with 2 decimals.
pub fn gbps(bytes_per_sec: f64) -> String {
    format!("{:.2} GB/s", bytes_per_sec / 1e9)
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: shredder_des::Dur) -> String {
    format!("{:.2} ms", d.as_millis_f64())
}

/// Dumps a bench's headline JSON to the path named by the
/// `SHREDDER_BENCH_JSON` env var (no-op when unset), through
/// [`shredder_telemetry::dump_json`]: a write failure is a hard error,
/// because the CI bench gate (`bench_gate`) reads these dumps and a
/// confusing "cannot read" failure there is worse than failing here.
///
/// # Panics
///
/// Panics if the env var is set but the file cannot be written.
pub fn dump_bench_json(json: &Json) {
    if let Some(path) = shredder_telemetry::dump_json("SHREDDER_BENCH_JSON", json) {
        println!("\n  perf trajectory written to {path}");
    }
}

/// Buffer-size sweep used by Figures 5, 6, 9, 11 and Table 2:
/// 16 MB … 256 MB.
pub fn paper_buffer_sizes() -> Vec<usize> {
    vec![16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20]
}

/// Returns the experiment data size: the paper normalizes Figures 5/9/11
/// to 1 GB of data; we run a quarter of it (shapes and normalized values
/// are size-invariant — checked by tests) and report per-GB numbers.
pub fn experiment_bytes() -> usize {
    std::env::var("SHREDDER_EXPERIMENT_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256)
        << 20
}

/// Scales a measured duration on `actual` bytes to the per-GB value the
/// paper reports.
pub fn per_gb(d: shredder_des::Dur, actual_bytes: usize) -> shredder_des::Dur {
    let scale = (1u64 << 30) as f64 / actual_bytes as f64;
    shredder_des::Dur::from_secs_f64(d.as_secs_f64() * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_des::Dur;

    #[test]
    fn formatting_helpers() {
        assert_eq!(gbps(2.5e9), "2.50 GB/s");
        assert_eq!(ms(Dur::from_micros(1500)), "1.50 ms");
    }

    #[test]
    fn buffer_sweep_matches_paper() {
        let sizes = paper_buffer_sizes();
        assert_eq!(sizes.first(), Some(&(16 << 20)));
        assert_eq!(sizes.last(), Some(&(256 << 20)));
        assert_eq!(sizes.len(), 5);
    }

    #[test]
    fn per_gb_scaling() {
        let d = per_gb(Dur::from_millis(250), 256 << 20);
        assert_eq!(d, Dur::from_millis(1000));
    }

    #[test]
    #[should_panic(expected = "shape check failed")]
    fn failed_check_panics() {
        check("impossible", false);
    }
}
