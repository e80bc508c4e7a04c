//! CI bench-regression gate.
//!
//! Compares freshly dumped bench JSON files (`SHREDDER_BENCH_JSON`)
//! against the checked-in `bench/baseline.json` and fails (exit 1) if
//! any gated value differs from its baseline at all, in either
//! direction. The simulation is deterministic and the dumps print f64s
//! in round-trip form, so any difference is a real model/pipeline
//! change, not machine noise: an intended change refreshes the
//! baseline in the same change.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline bench/baseline.json bench-out/
//! ```
//!
//! Each object in the baseline is named after a dump file stem: its
//! keys are gated against the same top-level keys of
//! `bench-out/<stem>.json`. Baseline entries that are not objects (the
//! `_comment`) are skipped. Both files are read with
//! [`shredder_telemetry::Json`], the parser behind every dump.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use shredder_telemetry::Json;

/// Whether a measured value reproduces its baseline: exactly equal, so
/// NaN never passes.
fn reproduces(measured: f64, expected: f64) -> bool {
    measured == expected
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Gates every `(stem, key)` entry of `baseline` against
/// `dir/<stem>.json`: one line per entry, `Err` on a failure.
fn gate(baseline: &Json, dir: &Path) -> Vec<Result<String, String>> {
    let Json::Obj(benches) = baseline else {
        return vec![Err("baseline is not a JSON object".to_string())];
    };
    let mut lines = Vec::new();
    for (stem, keys) in benches {
        let Json::Obj(keys) = keys else { continue };
        let dump = match read_json(&dir.join(format!("{stem}.json"))) {
            Ok(dump) => dump,
            Err(e) => {
                lines.push(Err(format!("{stem}: {e}")));
                continue;
            }
        };
        for (key, expected) in keys {
            let measured = dump.get(key).and_then(Json::as_f64);
            lines.push(match (measured, expected.as_f64()) {
                (_, None) => Err(format!("{stem}: baseline {key} is not a number")),
                (None, _) => Err(format!("{stem}: no numeric {key} in the dump")),
                (Some(m), Some(e)) if reproduces(m, e) => Ok(format!("{stem}: {key} {m:?}")),
                (Some(m), Some(e)) => Err(format!(
                    "{stem}: {key} {m:?} vs baseline {e:?} (delta {:+e})",
                    m - e
                )),
            });
        }
    }
    lines
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, dir) = match args.as_slice() {
        [flag, baseline, dir] if flag == "--baseline" => (baseline, dir),
        _ => {
            eprintln!("usage: bench_gate --baseline <baseline.json> <dump-dir>");
            return ExitCode::from(2);
        }
    };
    let baseline = match read_json(Path::new(baseline_path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines = gate(&baseline, Path::new(dir));
    for line in &lines {
        match line {
            Ok(l) => println!("  [ ok ] {l}"),
            Err(l) => eprintln!("  [FAIL] {l}"),
        }
    }
    if lines.iter().any(Result::is_err) {
        eprintln!(
            "bench_gate: a gated bench headline changed; refresh {baseline_path} if the change is intended"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: all {} gated values reproduce the baseline exactly",
        lines.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Writes `dumps` as `<stem>.json` files into a fresh directory.
    fn dump_dir(test: &str, dumps: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_gate_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (stem, json) in dumps {
            std::fs::write(dir.join(format!("{stem}.json")), json).unwrap();
        }
        dir
    }

    /// Runs the gate; returns `(passed, failed)` entry counts.
    fn run(test: &str, baseline: &str, dumps: &[(&str, &str)]) -> (usize, usize) {
        let dir = dump_dir(test, dumps);
        let lines = gate(&Json::parse(baseline).unwrap(), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let failed = lines.iter().filter(|l| l.is_err()).count();
        (lines.len() - failed, failed)
    }

    #[test]
    fn extracts_top_level_numbers() {
        let dump = "{\n  \"aggregate_gbps\": 9.274513,\n  \"other\": 1\n}";
        let base = r#"{"fig12_throughput": {"aggregate_gbps": 9.274513}}"#;
        assert_eq!(run("top", base, &[("fig12_throughput", dump)]), (1, 0));
    }

    #[test]
    fn extracts_scoped_numbers() {
        let base = r#"{
  "fig12_throughput": {"aggregate_gbps": 1.98, "gear_gbps": 2.5},
  "multi_tenant": {"aggregate_gbps": 2.05}
}"#;
        let dumps = [
            (
                "fig12_throughput",
                r#"{"aggregate_gbps": 1.98, "gear_gbps": 2.5}"#,
            ),
            ("multi_tenant", r#"{"aggregate_gbps": 2.05}"#),
        ];
        assert_eq!(run("all", base, &dumps), (3, 0));
    }

    #[test]
    fn scoped_lookup_does_not_leak_backwards() {
        // Scope isolation is structural: `b` is checked against b.json
        // only, whatever a.json holds under the same key.
        let base = r#"{"a": {"x": 1.0}, "b": {"x": 2.0}}"#;
        let dumps = [("a", r#"{"x": 1.0}"#), ("b", r#"{"x": 2.0}"#)];
        assert_eq!(run("iso", base, &dumps), (2, 0));
        let swapped = [("a", r#"{"x": 2.0}"#), ("b", r#"{"x": 1.0}"#)];
        assert_eq!(run("iso_swap", base, &swapped), (0, 2));
    }

    #[test]
    fn scoped_lookup_skips_scope_names_quoted_in_strings() {
        let base = r#"{
  "headline": "multi_tenant",
  "fig12_throughput": {"aggregate_gbps": 1.98},
  "multi_tenant": {"aggregate_gbps": 2.05}
}"#;
        let dumps = [
            ("fig12_throughput", r#"{"aggregate_gbps": 1.98}"#),
            ("multi_tenant", r#"{"aggregate_gbps": 2.05}"#),
        ];
        assert_eq!(run("quoted", base, &dumps), (2, 0));
    }

    #[test]
    fn a_baseline_comment_string_is_ignored() {
        let base = r#"{
  "_comment": "refresh by copying the dumps' values; see multi_tenant.json",
  "multi_tenant": {"aggregate_gbps": 2.05}
}"#;
        let dumps = [("multi_tenant", r#"{"aggregate_gbps": 2.05}"#)];
        assert_eq!(run("comment", base, &dumps), (1, 0));
    }

    #[test]
    fn scoped_lookup_does_not_leak_forwards() {
        // A missing key fails: `a` lacks x, and b.json's x must not
        // stand in for it.
        let base = r#"{"a": {"x": 2.0}, "b": {"x": 2.0}}"#;
        let dumps = [("a", "{}"), ("b", r#"{"x": 2.0}"#)];
        assert_eq!(run("missing_key", base, &dumps), (1, 1));
    }

    #[test]
    fn a_missing_dump_file_fails() {
        let base = r#"{"a": {"x": 1.0}, "b": {"x": 2.0}}"#;
        assert_eq!(run("missing_file", base, &[("a", r#"{"x": 1.0}"#)]), (1, 1));
    }

    #[test]
    fn gate_is_two_sided_and_exact() {
        assert!(reproduces(1.850409, 1.850409));
        // A drop and a gain both fail, however small.
        assert!(!reproduces(1.850407, 1.850409));
        assert!(!reproduces(1.850411, 1.850409));
        assert!(!reproduces(1.8504095, 1.850409));
        assert!(!reproduces(f64::NAN, f64::NAN));
        assert!(!reproduces(f64::NAN, 1.0));
    }

    #[test]
    fn a_one_ulp_difference_fails() {
        let v = 1.8504093145187277_f64;
        let next = f64::from_bits(v.to_bits() + 1);
        assert!(!reproduces(next, v));
        let base = Json::object()
            .field("a", Json::object().field("x", v))
            .to_string();
        let dump = Json::object().field("x", next).to_string();
        assert_eq!(run("ulp", &base, &[("a", &dump)]), (0, 1));
        let same = Json::object().field("x", v).to_string();
        assert_eq!(run("ulp_same", &base, &[("a", &same)]), (1, 0));
    }

    #[test]
    fn non_finite_dumps_fail() {
        // NaN writes as null, which is not a number.
        let dump = Json::object().field("x", f64::NAN).to_string();
        assert_eq!(run("nan", r#"{"a": {"x": 1.0}}"#, &[("a", &dump)]), (0, 1));
    }

    #[test]
    fn handles_scientific_and_negative_numbers() {
        let base = r#"{"a": {"v": -0.0015}}"#;
        assert_eq!(run("sci", base, &[("a", r#"{"v": -1.5e-3}"#)]), (1, 0));
    }
}
