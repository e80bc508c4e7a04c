//! Structural validator for exported Chrome trace JSON.
//!
//! Usage: `trace_check <trace.json>...` — exits non-zero with a
//! description of the first violation (missing keys, backwards `ts`,
//! unmatched `B`/`E`) in any input. CI runs this against every trace
//! artifact the bench and fault-matrix jobs upload.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use shredder_telemetry::validate_chrome_trace;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_check <trace.json>...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &paths {
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        match validate_chrome_trace(&json) {
            Ok(check) => println!(
                "{path}: ok — {} events ({} spans, {} instants, {} metadata)",
                check.events, check.spans, check.instants, check.metadata
            ),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
