//! CI bench-regression gate.
//!
//! Compares the headlines of freshly-dumped bench JSON files
//! (`SHREDDER_BENCH_JSON`) against the checked-in `bench/baseline.json`
//! and fails (exit 1) if any gated value differs from its baseline by
//! more than [`TOLERANCE`], in either direction. The simulation is
//! deterministic and the dumps print six decimals, so any larger
//! difference is a real model/pipeline change, not machine noise: an
//! intended change refreshes the baseline in the same change.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline bench/baseline.json \
//!     fig12_throughput=bench-out/fig12_throughput.json \
//!     multi_tenant=bench-out/multi_tenant.json \
//!     service_load:sustained_rps=bench-out/service_load.json
//! ```
//!
//! Each argument is `name[:key]=current.json`: the gated headline
//! defaults to `aggregate_gbps`, and a `name:key` prefix gates a
//! different numeric headline (e.g. the service-load bench's sustained
//! req/s at its latency SLO). The baseline maps each bench name to an
//! object holding the expected value under the same key. The vendored
//! `serde` stub cannot deserialize, so the parser here is a
//! purpose-built scanner for the hand-rolled dumps — it only
//! understands `"key": number` fields.

use std::process::ExitCode;

/// Largest accepted `|measured − baseline|`: the dumps' six-decimal
/// precision.
const TOLERANCE: f64 = 1e-6;

/// Whether a measured headline reproduces its baseline.
fn reproduces(measured: f64, expected: f64) -> bool {
    (measured - expected).abs() <= TOLERANCE
}

/// Extracts the numeric value of `"key": <number>` from `json`,
/// starting at `from`. Returns the value and the index after the match.
fn extract_number_at(json: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\"");
    let rel = json.get(from..)?.find(&needle)?;
    let after_key = from + rel + needle.len();
    let rest = &json[after_key..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(tail.len());
    let value: f64 = tail[..end].parse().ok()?;
    let consumed = json.len() - tail.len() + end;
    Some((value, consumed))
}

/// Top-level `"key": number` lookup.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    extract_number_at(json, key, 0).map(|(v, _)| v)
}

/// Looks up `key` inside the object that follows `"scope"` — good
/// enough for the flat two-level baseline file. The scope anchor must
/// read `"scope": {` (whitespace allowed), so a bench name quoted
/// inside a string value (e.g. the baseline's `_comment`) is skipped
/// rather than capturing the wrong object; and the search for `key` is
/// bounded by the scope object's closing brace, so a scope missing the
/// key reports `None` instead of reading the next scope's value.
fn extract_scoped(json: &str, scope: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{scope}\"");
    let mut from = 0;
    let open = loop {
        let at = from + json.get(from..)?.find(&needle)? + needle.len();
        let rest = json[at..].trim_start();
        if let Some(tail) = rest.strip_prefix(':') {
            if tail.trim_start().starts_with('{') {
                break at + (json[at..].len() - tail.trim_start().len());
            }
        }
        from = at;
    };
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let scope_body = &json[..close?];
    extract_number_at(scope_body, key, open).map(|(v, _)| v)
}

/// Splits a `name[:key]` bench spec; the gated key defaults to
/// `aggregate_gbps`.
fn parse_spec(spec: &str) -> (&str, &str) {
    match spec.split_once(':') {
        Some((name, key)) => (name, key),
        None => (spec, "aggregate_gbps"),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    // (bench name, gated key, current-dump path)
    let mut pairs: Vec<(String, String, String)> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p),
                None => return fail("--baseline needs a path"),
            },
            other => match other.split_once('=') {
                Some((spec, path)) => {
                    let (name, key) = parse_spec(spec);
                    pairs.push((name.to_string(), key.to_string(), path.to_string()));
                }
                None => return fail(&format!("unrecognized argument '{other}'")),
            },
        }
    }
    let Some(baseline_path) = baseline_path else {
        return fail("missing --baseline <path>");
    };
    if pairs.is_empty() {
        return fail("no benches given (expected name=current.json arguments)");
    }
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read baseline {baseline_path}: {e}")),
    };

    let mut failed = false;
    for (name, key, path) in &pairs {
        let current = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("  [FAIL] {name}: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let Some(expected) = extract_scoped(&baseline, name, key) else {
            eprintln!("  [FAIL] {name}: no {key} in baseline {baseline_path}");
            failed = true;
            continue;
        };
        let Some(measured) = extract_number(&current, key) else {
            eprintln!("  [FAIL] {name}: no {key} in {path}");
            failed = true;
            continue;
        };
        let delta = measured - expected;
        if reproduces(measured, expected) {
            println!("  [ ok ] {name}: {key} {measured:.6} matches baseline {expected:.6}");
        } else {
            eprintln!(
                "  [FAIL] {name}: {key} {measured:.6} vs baseline {expected:.6} (delta {delta:+.6}, tolerance {TOLERANCE:e})"
            );
            failed = true;
        }
    }
    if failed {
        return fail(
            "a gated bench headline changed; refresh bench/baseline.json if the change is intended",
        );
    }
    println!("bench_gate: all benches reproduce the baseline (|delta| <= {TOLERANCE:e})");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "fig12_throughput": { "aggregate_gbps": 1.98 },
  "multi_tenant": { "aggregate_gbps": 2.05 }
}"#;

    #[test]
    fn extracts_top_level_numbers() {
        let json = "{\n  \"aggregate_gbps\": 9.274513,\n  \"other\": 1\n}";
        assert_eq!(extract_number(json, "aggregate_gbps"), Some(9.274513));
        assert_eq!(extract_number(json, "missing"), None);
    }

    #[test]
    fn extracts_scoped_numbers() {
        assert_eq!(
            extract_scoped(BASELINE, "fig12_throughput", "aggregate_gbps"),
            Some(1.98)
        );
        assert_eq!(
            extract_scoped(BASELINE, "multi_tenant", "aggregate_gbps"),
            Some(2.05)
        );
        assert_eq!(extract_scoped(BASELINE, "nope", "aggregate_gbps"), None);
    }

    #[test]
    fn scoped_lookup_does_not_leak_backwards() {
        // The scope anchors the search: a key *before* the scope is not
        // picked up.
        let json = r#"{"a": {"x": 1.0}, "b": {"x": 2.0}}"#;
        assert_eq!(extract_scoped(json, "b", "x"), Some(2.0));
    }

    #[test]
    fn scoped_lookup_skips_scope_names_quoted_in_strings() {
        // A string *value* equal to a bench name (a _comment-style
        // field) must not anchor the scope and capture the next object.
        let json = r#"{
  "headline": "multi_tenant",
  "fig12_throughput": { "aggregate_gbps": 1.98 },
  "multi_tenant": { "aggregate_gbps": 2.05 }
}"#;
        assert_eq!(
            extract_scoped(json, "multi_tenant", "aggregate_gbps"),
            Some(2.05)
        );
        assert_eq!(
            extract_scoped(json, "fig12_throughput", "aggregate_gbps"),
            Some(1.98)
        );
    }

    #[test]
    fn scoped_lookup_does_not_leak_forwards() {
        // A scope missing the key must not pick it up from the next
        // scope's object.
        let json = r#"{"a": {}, "b": {"x": 2.0}}"#;
        assert_eq!(extract_scoped(json, "a", "x"), None);
        assert_eq!(extract_scoped(json, "b", "x"), Some(2.0));
    }

    #[test]
    fn spec_parsing_defaults_to_aggregate_gbps() {
        assert_eq!(
            parse_spec("multi_tenant"),
            ("multi_tenant", "aggregate_gbps")
        );
        assert_eq!(
            parse_spec("service_load:sustained_rps"),
            ("service_load", "sustained_rps")
        );
    }

    #[test]
    fn gate_is_two_sided_and_exact() {
        assert!(reproduces(1.850409, 1.850409));
        assert!(reproduces(1.8504095, 1.850409));
        // A drop and a gain beyond the dumps' precision both fail.
        assert!(!reproduces(1.850407, 1.850409));
        assert!(!reproduces(1.850411, 1.850409));
        assert!(!reproduces(f64::NAN, 1.0));
    }

    #[test]
    fn handles_scientific_and_negative_numbers() {
        let json = r#"{"v": -1.5e-3}"#;
        assert_eq!(extract_number(json, "v"), Some(-0.0015));
    }
}
